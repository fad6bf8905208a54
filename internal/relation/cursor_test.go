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

		dc := NewDenseCursor(d, false)
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

		dc := NewDenseCursor(d, false)
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

// TestDenseCursorCloseReleases checks that an owning cursor returns its
// bitmap to the space pool on Close, and that Close is idempotent.
func TestDenseCursorCloseReleases(t *testing.T) {
	sp := MustSpace(2, 8)
	before := sp.ScratchOutstanding()
	d := sp.Empty()
	d.Add(Tuple{1, 2})
	c := NewDenseCursor(d, true)
	if tp, ok := c.Next(); !ok || !tp.Equal(Tuple{1, 2}) {
		t.Fatalf("Next = %v, %v", tp, ok)
	}
	c.Close()
	c.Close()
	if got := sp.ScratchOutstanding(); got != before {
		t.Fatalf("ScratchOutstanding after Close = %d, want %d", got, before)
	}
	// A non-owning cursor must leave the relation alive.
	d2 := sp.Empty()
	defer d2.Release()
	d2.Add(Tuple{3, 4})
	c2 := NewDenseCursor(d2, false)
	c2.Close()
	if !d2.Contains(Tuple{3, 4}) {
		t.Fatal("non-owning Close released the relation")
	}
}

// TestCompactView pins the cached-answer currency: for random sets the
// compact view is the sorted-code form and its cursor agrees with
// Set.Tuples() on order, Skip and Count; a shape whose code space NewSparse
// refuses stays the Set it was, served through the sorting cursor.
func TestCompactView(t *testing.T) {
	check := func(v View, want []Tuple, skip int) {
		t.Helper()
		c := v.Cursor()
		defer c.Close()
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
		v := Compact(set, n)
		if _, ok := v.(*Sparse); !ok {
			t.Fatalf("k=%d n=%d: Compact returned %T, want *Sparse", k, n, v)
		}
		check(v, set.Tuples(), r.Intn(set.Len()+3))
	}

	// 3 axes of 2²¹ points: 2⁶³ codes, beyond MaxSparseCode.
	wide := SetOf(3, Tuple{1 << 20, 0, 5}, Tuple{0, 1<<21 - 1, 2}, Tuple{0, 1, 2})
	v := Compact(wide, 1<<21)
	if v != View(wide) {
		t.Fatalf("wide shape: Compact returned %T, want the Set itself", v)
	}
	check(v, wide.Tuples(), 1)
}
