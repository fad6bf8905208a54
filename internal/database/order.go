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
	n := len(db.domain)
	var less, succ, first, last []relation.Tuple
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			less = append(less, relation.Tuple{i, j})
		}
		if i+1 < n {
			succ = append(succ, relation.Tuple{i, i + 1})
		}
	}
	if n > 0 {
		first, last = []relation.Tuple{{0}}, []relation.Tuple{{n - 1}}
	}
	for i, ts := range [][]relation.Tuple{less, succ, first, last} {
		a := 2 - i/2
		next.arity[order[i]] = a
		next.put(order[i], newStored(a, n, ts))
	}
	return next, nil
}
