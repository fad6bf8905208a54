package database

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/relation"
)

func TestWithOrderRelations(t *testing.T) {
	db, err := NewBuilder().
		Relation("E", 2).Add("E", 3, 7).Add("E", 7, 9).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	odb, err := db.WithOrder()
	if err != nil {
		t.Fatal(err)
	}
	// Original relations survive.
	e, err := odb.RelValues("E")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Contains(relation.Tuple{3, 7}) {
		t.Fatalf("E lost: %v", e)
	}
	less, err := odb.RelValues(OrderLess)
	if err != nil {
		t.Fatal(err)
	}
	if less.Len() != 3 { // pairs over {3,7,9}
		t.Fatalf("Less = %v", less)
	}
	if !less.Contains(relation.Tuple{3, 9}) || less.Contains(relation.Tuple{9, 3}) {
		t.Fatalf("Less wrong: %v", less)
	}
	succ, err := odb.RelValues(OrderSucc)
	if err != nil {
		t.Fatal(err)
	}
	if !succ.Equal(relation.SetOf(2, relation.Tuple{3, 7}, relation.Tuple{7, 9})) {
		t.Fatalf("Succ = %v", succ)
	}
	first, _ := odb.RelValues(OrderFirst)
	last, _ := odb.RelValues(OrderLast)
	if !first.Contains(relation.Tuple{3}) || !last.Contains(relation.Tuple{9}) {
		t.Fatalf("First/Last wrong: %v %v", first, last)
	}
}

func TestWithOrderNameClash(t *testing.T) {
	db, err := NewBuilder().Relation("Less", 2).Add("Less", 0, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.WithOrder(); err == nil {
		t.Fatal("name clash accepted")
	}
}

func TestWithOrderSingleton(t *testing.T) {
	db, err := NewBuilder().Domain(5).Build()
	if err != nil {
		t.Fatal(err)
	}
	odb, err := db.WithOrder()
	if err != nil {
		t.Fatal(err)
	}
	first, _ := odb.RelValues(OrderFirst)
	last, _ := odb.RelValues(OrderLast)
	if first.Len() != 1 || last.Len() != 1 {
		t.Fatal("First/Last missing on singleton")
	}
	less, _ := odb.Rel(OrderLess)
	if less.Len() != 0 {
		t.Fatal("Less nonempty on singleton")
	}
}

// TestWithOrderCodesMatchTuples builds the order from tuple values, as
// newStored does any relation, and checks that WithOrder's codes make the same
// relations: stored codes, RelIDs and the snapshot's Fingerprint.
func TestWithOrderCodesMatchTuples(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64} {
		b := NewBuilder().Relation("E", 2)
		for i := 0; i < n; i++ {
			b.Domain(10 * i)
		}
		if n > 1 {
			b.Add("E", 0, 10)
		}
		db := b.MustBuild()
		got, err := db.WithOrder()
		if err != nil {
			t.Fatal(err)
		}
		want := &Database{domain: db.domain, idx: db.idx, names: slices.Concat(db.names, []string{OrderLess, OrderSucc, OrderFirst, OrderLast}),
			arity: maps.Clone(db.arity), rels: maps.Clone(db.rels), relIDs: maps.Clone(db.relIDs)}
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
			name, a := want.names[len(db.names)+i], 2-i/2
			want.arity[name] = a
			want.put(name, newStored(a, n, ts))
		}
		for _, name := range []string{OrderLess, OrderSucc, OrderFirst, OrderLast} {
			g, _ := got.Codes(name)
			w, _ := want.Codes(name)
			if !g.Equal(w) || g.Cap() != g.Count() || got.RelID(name) != want.RelID(name) || got.Arities()[name] != want.Arities()[name] {
				t.Errorf("n=%d: %s = %v (room for %d), want %v; RelIDs equal: %t", n, name, g, g.Cap(), w, got.RelID(name) == want.RelID(name))
			}
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("n=%d: fingerprint %x, tuple-built %x", n, got.Fingerprint(), want.Fingerprint())
		}
	}
}
