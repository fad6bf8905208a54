package database

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/relation"
)

// Order relation names added by WithOrder.
const (
	OrderLess  = "Less"
	OrderSucc  = "Succ"
	OrderFirst = "First"
	OrderLast  = "Last"
)

// WithOrder returns a copy of the database extended with a linear order on
// the domain (in increasing raw-value order): Less/2 (strict), Succ/2
// (successor), First/1 and Last/1.
//
// Ordered databases matter to the paper's context: over them, FP expresses
// exactly the PTIME queries and PFP exactly the PSPACE queries
// (Immerman 1986, Vardi 1982, Abiteboul–Vianu 1989) — order is what lets
// fixpoint queries count, as the parity example in the tests shows.
func (db *Database) WithOrder() (*Database, error) {
	order := []string{OrderLess, OrderSucc, OrderFirst, OrderLast}
	for _, name := range order {
		if db.HasRelation(name) {
			return nil, fmt.Errorf("database: relation %s already exists", name)
		}
	}
	// The domain does not change, so db's relations are shared as they are
	// stored (identities included) and only the four new ones are built.
	next := &Database{
		domain: db.domain,
		idx:    db.idx,
		names:  slices.Concat(db.names, order),
		arity:  maps.Clone(db.arity),
		rels:   maps.Clone(db.rels),
		relIDs: maps.Clone(db.relIDs),
	}
	// The order's codes over domain indices, i·n + j for i < j in Less, come
	// out ascending: no Tuple per pair and no sort.
	n := len(db.domain)
	less, succ := make([]uint64, 0, n*max(n-1, 0)/2), make([]uint64, 0, max(n-1, 0))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			less = append(less, uint64(i*n+j))
		}
		if i+1 < n {
			succ = append(succ, uint64(i*n+i+1))
		}
	}
	var first, last []uint64
	if n > 0 {
		first, last = []uint64{0}, []uint64{uint64(n - 1)}
	}
	for i, codes := range [][]uint64{less, succ, first, last} {
		a := 2 - i/2
		s, err := relation.SparseOfCodes(a, n, codes)
		if err != nil {
			return nil, err
		}
		next.arity[order[i]] = a
		next.put(order[i], &stored{codes: s})
	}
	return next, nil
}
