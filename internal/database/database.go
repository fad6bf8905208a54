// Package database implements the paper's notion of a relational database:
// B = (D; R₁, …, R_ℓ) where the domain D ⊆ ℕ is a finite set of natural
// numbers and each Rᵢ ⊆ D^{aᵢ} (§2.1 of Vardi, PODS 1995).
//
// Internally all relations are normalized over domain indices 0..n−1 (with
// the domain kept sorted), which is what the evaluators consume; the original
// natural-number values remain available for presentation. The package also
// provides the paper's "standard encoding" of a database as a string of
// binary numerals, which makes the input length — the yardstick of data and
// combined complexity — a concrete, measurable quantity.
package database

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/relation"
)

// Database is a relational database over a finite domain. A Database value
// is immutable — evaluators, fingerprints and caches all rely on that — and
// mutation is snapshot-based: Apply returns a new version sharing unchanged
// relations with its parent (see mutate.go).
type Database struct {
	domain []int          // sorted distinct natural numbers
	idx    map[int]int    // value → index in domain
	names  []string       // relation names in declaration order
	arity  map[string]int // relation name → arity
	rels   map[string]*stored

	// Snapshot lineage (mutate.go): version counts effective Apply steps
	// since Build; fp is Fingerprint's, computed once under fpOnce.
	version uint64
	fp      uint64
	fpOnce  sync.Once
	relIDs  map[string]RelID // per relation, see RelID
}

// stored is one relation of a snapshot, shared — never copied, never written —
// by every snapshot whose updates left it alone. codes is the stored form:
// sorted row-major codes over the domain indices, the currency of the
// evaluators and the wire (the sorted relation is its own index). Only a
// relation whose nᵃʳⁱᵗʸ has no code space (relation.MaxSparseCode) is kept as
// the Set it was given as. Evaluations alias the block (eval's sparse atoms):
// it is exactly as long as its codes, as relation.SparseOf and apply's final
// Union leave it, so that nothing that clips a block with room ever rewrites it.
type stored struct {
	codes *relation.Sparse
	once  sync.Once     // guards set where codes is the stored form
	set   *relation.Set // codes' tuples, built by the first Rel
}

// tuples is what reads a stored relation in either form.
type tuples interface {
	Arity() int
	ForEach(func(relation.Tuple))
}

func (st *stored) tuples() tuples {
	if st.codes != nil {
		return st.codes
	}
	return st.set
}

// newStored puts tuples over 0..n−1 in stored form.
func newStored(arity, n int, ts []relation.Tuple) *stored {
	codes, err := relation.SparseOf(arity, n, ts...)
	if err != nil { // the components are in range, so it is the shape that has no code space
		return &stored{set: relation.SetOf(arity, ts...)}
	}
	return &stored{codes: codes}
}

// apply takes a batch of tuples over 0..n−1 to st's form and returns the stored
// relation cur∖del ∪ ins with the effective change: del∖ins ∩ cur (deletes apply
// first, so a tuple in both lists stays) and ins∖cur. It returns nil where
// nothing changes.
func (st *stored) apply(arity, n int, ins, del []relation.Tuple) (*stored, RelDelta) {
	next, rd := &stored{}, RelDelta{}
	if st.codes == nil {
		next.set, rd = diff(st.set, relation.SetOf(arity, ins...), relation.SetOf(arity, del...))
	} else {
		in, _ := relation.SparseOf(arity, n, ins...) // in range: Apply checked every value
		out, _ := relation.SparseOf(arity, n, del...)
		next.codes, rd = diff(st.codes, in, out)
	}
	if len(rd.Ins) == 0 && len(rd.Del) == 0 {
		return nil, rd
	}
	return next, rd
}

// diff is stored.apply in one form. The final Union joins disjoint blocks, so a
// code block comes out exactly as long as its codes.
func diff[R interface {
	Difference(R) R
	Intersect(R) R
	Union(R) R
	Tuples() []relation.Tuple
}](cur, ins, del R) (next R, rd RelDelta) {
	del = del.Difference(ins).Intersect(cur)
	ins = ins.Difference(cur)
	rd = RelDelta{Ins: ins.Tuples(), Del: del.Tuples()}
	if len(rd.Ins) > 0 || len(rd.Del) > 0 {
		next = cur.Difference(del).Union(ins)
	}
	return next, rd
}

// Builder assembles a Database. Tuples are given in raw domain values; the
// domain is the union of everything mentioned plus explicit additions.
type Builder struct {
	domain map[int]bool
	names  []string
	arity  map[string]int
	tuples map[string][]relation.Tuple
	err    error
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		domain: make(map[int]bool),
		arity:  make(map[string]int),
		tuples: make(map[string][]relation.Tuple),
	}
}

// Domain adds elements to the domain (beyond those appearing in tuples).
func (b *Builder) Domain(values ...int) *Builder {
	for _, v := range values {
		if v < 0 {
			b.fail(fmt.Errorf("database: domain element %d is not a natural number", v))
			return b
		}
		b.domain[v] = true
	}
	return b
}

// Relation declares a relation with the given name and arity. Declaring the
// same name twice with different arities is an error.
func (b *Builder) Relation(name string, arity int) *Builder {
	if name == "" {
		b.fail(fmt.Errorf("database: empty relation name"))
		return b
	}
	if arity < 0 {
		b.fail(fmt.Errorf("database: relation %s has negative arity %d", name, arity))
		return b
	}
	if a, ok := b.arity[name]; ok {
		if a != arity {
			b.fail(fmt.Errorf("database: relation %s redeclared with arity %d (was %d)", name, arity, a))
		}
		return b
	}
	b.arity[name] = arity
	b.names = append(b.names, name)
	return b
}

// Add inserts a tuple into a declared relation.
func (b *Builder) Add(name string, values ...int) *Builder {
	a, ok := b.arity[name]
	if !ok {
		b.fail(fmt.Errorf("database: adding tuple to undeclared relation %s", name))
		return b
	}
	if len(values) != a {
		b.fail(fmt.Errorf("database: relation %s has arity %d, got tuple of length %d", name, a, len(values)))
		return b
	}
	for _, v := range values {
		if v < 0 {
			b.fail(fmt.Errorf("database: tuple component %d is not a natural number", v))
			return b
		}
		b.domain[v] = true
	}
	t := make(relation.Tuple, len(values))
	copy(t, values)
	b.tuples[name] = append(b.tuples[name], t)
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build finalizes the database.
func (b *Builder) Build() (*Database, error) {
	if b.err != nil {
		return nil, b.err
	}
	dom := make([]int, 0, len(b.domain))
	for v := range b.domain {
		dom = append(dom, v)
	}
	sort.Ints(dom)
	db := &Database{
		domain: dom,
		idx:    make(map[int]int, len(dom)),
		names:  append([]string(nil), b.names...),
		arity:  make(map[string]int, len(b.arity)),
		rels:   make(map[string]*stored, len(b.arity)),
		relIDs: make(map[string]RelID, len(b.arity)),
	}
	for i, v := range dom {
		db.idx[v] = i
	}
	for name, a := range b.arity {
		db.arity[name] = a
		ts, flat := make([]relation.Tuple, len(b.tuples[name])), make(relation.Tuple, a*len(b.tuples[name]))
		for j, t := range b.tuples[name] {
			ts[j] = flat[j*a : (j+1)*a]
			for i, v := range t {
				ts[j][i] = db.idx[v]
			}
		}
		db.put(name, newStored(a, len(dom), ts))
	}
	return db, nil
}

// MustBuild is Build that panics on error, for statically valid literals.
func (b *Builder) MustBuild() *Database {
	db, err := b.Build()
	if err != nil {
		panic(err)
	}
	return db
}

// Size returns n, the number of domain elements.
func (db *Database) Size() int { return len(db.domain) }

// Domain returns the sorted domain as natural numbers without copying it: one
// slice for the whole lineage (Apply shares it), which callers must not modify.
func (db *Database) Domain() []int { return db.domain }

// Value maps a domain index to its natural-number value.
func (db *Database) Value(i int) int { return db.domain[i] }

// Index maps a natural-number value to its domain index; ok is false if the
// value is not in the domain.
func (db *Database) Index(v int) (int, bool) {
	i, ok := db.idx[v]
	return i, ok
}

// Names returns the relation names in declaration order.
func (db *Database) Names() []string { return append([]string(nil), db.names...) }

// HasRelation reports whether the database declares the named relation.
func (db *Database) HasRelation(name string) bool {
	_, ok := db.arity[name]
	return ok
}

// Arities returns the signature, relation name → arity: the database's own
// map, shared by every snapshot of its lineage and never to be written.
func (db *Database) Arities() map[string]int { return db.arity }

// Arity returns the arity of the named relation, or an error if undeclared.
func (db *Database) Arity(name string) (int, error) {
	a, ok := db.arity[name]
	if !ok {
		return 0, fmt.Errorf("database: no relation %s", name)
	}
	return a, nil
}

// put installs a relation and the content identity it has.
func (db *Database) put(name string, st *stored) {
	db.rels[name], db.relIDs[name] = st, contentID(st.tuples())
}

// Codes returns the named relation as it is stored: sorted row-major codes
// over domain indices 0..n−1, shared by every snapshot and evaluation that
// reads it and never to be written. It is nil for a relation whose nᵃʳⁱᵗʸ has
// no code space (relation.MaxSparseCode), which only Rel reads.
func (db *Database) Codes(name string) (*relation.Sparse, error) {
	st, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("database: no relation %s", name)
	}
	return st.codes, nil
}

// Card returns the named relation's tuple count, 0 if undeclared.
func (db *Database) Card(name string) int {
	switch st := db.rels[name]; {
	case st == nil:
		return 0
	case st.codes != nil:
		return st.codes.Count()
	default:
		return st.set.Len()
	}
}

// Rel returns the named relation over domain indices 0..n−1 as a tuple set,
// for the engines that walk tuples: built from the stored codes on first
// call, once per stored relation whatever snapshots share it. The returned
// set must not be mutated.
func (db *Database) Rel(name string) (*relation.Set, error) {
	st, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("database: no relation %s", name)
	}
	st.once.Do(func() {
		if st.codes != nil {
			st.set = st.codes.ToSet()
		}
	})
	return st.set, nil
}

// eachValue calls fn on every tuple of a declared relation in raw domain
// values, in canonical order: the domain is sorted, so the stored order is
// that order. The tuple is reused across calls.
func (db *Database) eachValue(name string, fn func(relation.Tuple)) {
	var vt relation.Tuple
	emit := func(t relation.Tuple) {
		vt = append(vt[:0], t...)
		for i, x := range vt {
			vt[i] = db.domain[x]
		}
		fn(vt)
	}
	if st := db.rels[name]; st.codes != nil {
		st.codes.ForEach(emit)
	} else {
		for _, t := range st.set.Tuples() {
			emit(t)
		}
	}
}

// RelValues returns the named relation with tuples in raw domain values.
func (db *Database) RelValues(name string) (*relation.Set, error) {
	a, err := db.Arity(name)
	if err != nil {
		return nil, err
	}
	out := relation.NewSet(a)
	db.eachValue(name, out.Add)
	return out, nil
}

// Nontrivial reports whether the database has at least two domain elements
// and a nonempty relation of positive arity that differs from Dᵏ — the
// hypothesis under which the paper's expression-complexity lower bounds hold
// (footnote 4).
func (db *Database) Nontrivial() bool {
	if len(db.domain) < 2 {
		return false
	}
	for name, k := range db.arity {
		card := db.Card(name)
		if k < 1 || card == 0 {
			continue
		}
		full := 1
		for i := 0; i < k; i++ {
			full *= len(db.domain)
		}
		if card != full {
			return true
		}
	}
	return false
}

// String renders the database in the readable text format accepted by Parse.
func (db *Database) String() string {
	var sb strings.Builder
	sb.WriteString("domain = {")
	for i, v := range db.domain {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	sb.WriteString("}\n")
	for _, name := range db.names {
		fmt.Fprintf(&sb, "%s/%d = {", name, db.arity[name])
		sep := ""
		db.eachValue(name, func(t relation.Tuple) {
			sb.WriteString(sep)
			sb.WriteString(t.String())
			sep = ", "
		})
		sb.WriteString("}\n")
	}
	return sb.String()
}
