package relation

import (
	"math/rand"
	"testing"
)

// TestCursorOrderIdentity pins the load-bearing order contract: the dense
// cursor, the sparse cursor, and Set.Tuples (sorted) all enumerate the same
// relation in the same lexicographic order.
func TestCursorOrderIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		k := 1 + r.Intn(3)
		n := 1 + r.Intn(7)
		sp := MustSpace(k, n)
		d := randomDense(r, sp)
		want := d.ToSet().Tuples()

		dc := d.Cursor()
		var gotDense []Tuple
		for tp, ok := dc.Next(); ok; tp, ok = dc.Next() {
			gotDense = append(gotDense, append(Tuple(nil), tp...))
		}
		if dc.Count() != len(want) {
			t.Fatalf("k=%d n=%d: dense Count=%d, want %d", k, n, dc.Count(), len(want))
		}

		sc := d.ToSparse().Cursor()
		var gotSparse []Tuple
		for tp, ok := sc.Next(); ok; tp, ok = sc.Next() {
			gotSparse = append(gotSparse, append(Tuple(nil), tp...))
		}
		if sc.Count() != len(want) {
			t.Fatalf("k=%d n=%d: sparse Count=%d, want %d", k, n, sc.Count(), len(want))
		}

		for name, got := range map[string][]Tuple{"dense": gotDense, "sparse": gotSparse} {
			if len(got) != len(want) {
				t.Fatalf("k=%d n=%d %s: %d tuples, want %d", k, n, name, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("k=%d n=%d %s: tuple %d = %v, want %v", k, n, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCursorSkipEquivalence checks that Skip(k) lands exactly where k Next
// calls would, for both cursors, at word boundaries and past the end.
func TestCursorSkipEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		sp := MustSpace(2, 1+r.Intn(16))
		d := randomDense(r, sp)
		all := d.ToSet().Tuples()
		k := r.Intn(len(all) + 3)
		wantSkip := k
		if wantSkip > len(all) {
			wantSkip = len(all)
		}

		dc := d.Cursor()
		if got := dc.Skip(k); got != wantSkip {
			t.Fatalf("dense Skip(%d) = %d, want %d", k, got, wantSkip)
		}
		sc := d.ToSparse().Cursor()
		if got := sc.Skip(k); got != wantSkip {
			t.Fatalf("sparse Skip(%d) = %d, want %d", k, got, wantSkip)
		}
		for i := k; ; i++ {
			dt, dok := dc.Next()
			st, sok := sc.Next()
			if i >= len(all) {
				if dok || sok {
					t.Fatalf("cursor yielded tuple past end (dense=%v sparse=%v)", dok, sok)
				}
				break
			}
			if !dok || !st.Equal(all[i]) || !sok || !dt.Equal(all[i]) {
				t.Fatalf("after Skip(%d), tuple %d: dense=%v(%v) sparse=%v(%v), want %v",
					k, i, dt, dok, st, sok, all[i])
			}
		}
	}
}

// TestDenseViewSharedByCursors pins what lets an executor's dense head be an
// answer as it stands: a Dense is a View, any number of cursors read it at
// once, each from its own position, and one dropped half way leaves the
// relation — and the others — as they were.
func TestDenseViewSharedByCursors(t *testing.T) {
	sp := MustSpace(2, 8)
	d := sp.Empty()
	d.Add(Tuple{1, 2})
	d.Add(Tuple{3, 4})
	var v View = d
	c1, c2 := v.Cursor(), v.Cursor()
	if tp, ok := c1.Next(); !ok || !tp.Equal(Tuple{1, 2}) {
		t.Fatalf("first cursor: Next = %v, %v", tp, ok)
	}
	// c1 is dropped half way: nothing to give back, nothing the other sees.
	for _, want := range []Tuple{{1, 2}, {3, 4}} {
		if tp, ok := c2.Next(); !ok || !tp.Equal(want) {
			t.Fatalf("second cursor: Next = %v, %v, want %v", tp, ok, want)
		}
	}
	if c2.Count() != 2 || !d.Contains(Tuple{3, 4}) {
		t.Fatal("a cursor changed the relation")
	}
}

// TestCompactView pins the kept-answer currency: for random relations in each
// of the three forms an answer arrives in — the Set of an exhibit engine, the
// dense executor's head bitmap, the sparse executor's head codes — the compact
// view is the sorted-code form (the codes themselves when it was that already)
// and its cursor agrees with Set.Tuples() on order, Skip and Count; a shape
// whose code space NewSparse refuses stays the Set it was, served through the
// sorting cursor.
func TestCompactView(t *testing.T) {
	check := func(v View, want []Tuple, skip int) {
		t.Helper()
		c := v.Cursor()
		if c.Count() != len(want) {
			t.Fatalf("Count = %d, want %d", c.Count(), len(want))
		}
		if got := c.Skip(skip); got != min(skip, len(want)) {
			t.Fatalf("Skip(%d) = %d with %d tuples", skip, got, len(want))
		}
		for i := min(skip, len(want)); i < len(want); i++ {
			if tp, ok := c.Next(); !ok || !tp.Equal(want[i]) {
				t.Fatalf("after Skip(%d), tuple %d = %v (%v), want %v", skip, i, tp, ok, want[i])
			}
		}
		if tp, ok := c.Next(); ok {
			t.Fatalf("cursor yielded %v past the end", tp)
		}
		if c.Count() != len(want) {
			t.Fatalf("Count moved with the position: %d, want %d", c.Count(), len(want))
		}
	}
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		k, n := r.Intn(4), 1+r.Intn(9)
		set := NewSet(k)
		for i := r.Intn(40); i > 0; i-- {
			tp := make(Tuple, k)
			for j := range tp {
				tp[j] = r.Intn(n)
			}
			set.Add(tp)
		}
		dense, err := set.ToDense(MustSpace(k, n))
		if err != nil {
			t.Fatal(err)
		}
		sparse := dense.ToSparse()
		for _, in := range []View{set, dense, sparse} {
			v := Compact(in, n)
			if _, ok := v.(*Sparse); !ok {
				t.Fatalf("k=%d n=%d: Compact(%T) returned %T, want *Sparse", k, n, in, v)
			}
			check(in, set.Tuples(), r.Intn(set.Len()+3))
			check(v, set.Tuples(), r.Intn(set.Len()+3))
		}
		if Compact(sparse, n) != View(sparse) {
			t.Fatalf("k=%d n=%d: Compact copied codes that were compact already", k, n)
		}
	}

	// 3 axes of 2²¹ points: 2⁶³ codes, beyond MaxSparseCode.
	wide := SetOf(3, Tuple{1 << 20, 0, 5}, Tuple{0, 1<<21 - 1, 2}, Tuple{0, 1, 2})
	v := Compact(wide, 1<<21)
	if v != View(wide) {
		t.Fatalf("wide shape: Compact returned %T, want the Set itself", v)
	}
	check(v, wide.Tuples(), 1)
}
