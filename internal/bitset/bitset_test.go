package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if s.Count() != 0 || s.Any() || !s.None() {
		t.Fatalf("new set not empty: count=%d", s.Count())
	}
}

func TestSetTestClear(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if s.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
}

func TestTestOutOfRange(t *testing.T) {
	s := New(10)
	if s.Test(-1) || s.Test(10) || s.Test(1000) {
		t.Fatal("Test out of range should be false")
	}
}

func TestSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set out of range did not panic")
		}
	}()
	New(10).Set(10)
}

func TestFullAndNot(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		s := Full(n)
		if s.Count() != n {
			t.Fatalf("Full(%d).Count = %d", n, s.Count())
		}
		s.Not()
		if s.Count() != 0 {
			t.Fatalf("Not(Full(%d)).Count = %d", n, s.Count())
		}
		s.Not()
		if s.Count() != n {
			t.Fatalf("double Not of Full(%d).Count = %d", n, s.Count())
		}
	}
}

func TestSetAllTrimsHighBits(t *testing.T) {
	s := New(65)
	s.SetAll()
	if s.Count() != 65 {
		t.Fatalf("Count = %d, want 65", s.Count())
	}
	if s.Test(65) || s.Test(127) {
		t.Fatal("bits beyond capacity observable")
	}
}

func TestBooleanOps(t *testing.T) {
	a := New(130)
	b := New(130)
	for i := 0; i < 130; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 130; i += 3 {
		b.Set(i)
	}

	or := a.Clone()
	or.Or(b)
	and := a.Clone()
	and.And(b)
	diff := a.Clone()
	diff.AndNot(b)
	xor := a.Clone()
	xor.Xor(b)

	for i := 0; i < 130; i++ {
		ea, eb := i%2 == 0, i%3 == 0
		if or.Test(i) != (ea || eb) {
			t.Fatalf("Or wrong at %d", i)
		}
		if and.Test(i) != (ea && eb) {
			t.Fatalf("And wrong at %d", i)
		}
		if diff.Test(i) != (ea && !eb) {
			t.Fatalf("AndNot wrong at %d", i)
		}
		if xor.Test(i) != (ea != eb) {
			t.Fatalf("Xor wrong at %d", i)
		}
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched sizes did not panic")
		}
	}()
	New(10).Or(New(11))
}

func TestEqualAndSubset(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(5)
	a.Set(70)
	if a.Equal(b) {
		t.Fatal("unequal sets reported equal")
	}
	b.Set(5)
	b.Set(70)
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	b.Set(99)
	if !a.SubsetOf(b) {
		t.Fatal("subset not detected")
	}
	if b.SubsetOf(a) {
		t.Fatal("superset reported as subset")
	}
	if a.Equal(New(101)) {
		t.Fatal("different capacities reported equal")
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(100)
	for _, i := range []int{99, 0, 42, 63, 64} {
		s.Set(i)
	}
	prev := -1
	count := 0
	s.ForEach(func(i int) {
		if i <= prev {
			t.Fatalf("ForEach out of order: %d after %d", i, prev)
		}
		if !s.Test(i) {
			t.Fatalf("ForEach visited unset bit %d", i)
		}
		prev = i
		count++
	})
	if count != 5 {
		t.Fatalf("visited %d bits, want 5", count)
	}
}

func TestCopyAndClone(t *testing.T) {
	a := New(70)
	a.Set(1)
	a.Set(69)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone differs")
	}
	b.Set(2)
	if a.Test(2) {
		t.Fatal("clone aliases original")
	}
	c := New(70)
	c.Copy(a)
	if !c.Equal(a) {
		t.Fatal("Copy differs")
	}
}

func TestHashDistinguishes(t *testing.T) {
	a := New(64)
	b := New(64)
	if a.Hash() != b.Hash() {
		t.Fatal("equal sets hash differently")
	}
	b.Set(17)
	if a.Hash() == b.Hash() {
		t.Fatal("distinct sets hash equal (pathological)")
	}
	// Capacity participates in the hash.
	if New(64).Hash() == New(65).Hash() {
		t.Fatal("capacity not hashed")
	}
}

func TestString(t *testing.T) {
	s := New(10)
	if s.String() != "{}" {
		t.Fatalf("empty String = %q", s.String())
	}
	s.Set(1)
	s.Set(7)
	if s.String() != "{1, 7}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestZeroSizeSet(t *testing.T) {
	s := New(0)
	if s.Any() {
		t.Fatal("empty-capacity set has bits")
	}
	s.Not()
	if s.Count() != 0 {
		t.Fatal("Not on zero-size set produced bits")
	}
}

// randomSet builds a set of capacity n with each bit set with probability 1/2.
func randomSet(r *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s.Set(i)
		}
	}
	return s
}

func TestQuickDeMorgan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%150 + 1
		rr := rand.New(rand.NewSource(seed))
		a := randomSet(rr, n)
		b := randomSet(rr, n)
		// ¬(a ∪ b) == ¬a ∩ ¬b
		lhs := a.Clone()
		lhs.Or(b)
		lhs.Not()
		na := a.Clone()
		na.Not()
		nb := b.Clone()
		nb.Not()
		rhs := na.Clone()
		rhs.And(nb)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountUnionInclusionExclusion(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%150 + 1
		rr := rand.New(rand.NewSource(seed))
		a := randomSet(rr, n)
		b := randomSet(rr, n)
		u := a.Clone()
		u.Or(b)
		i := a.Clone()
		i.And(b)
		return u.Count()+i.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnd(b *testing.B) {
	x := Full(1 << 16)
	y := Full(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func TestCursorMatchesForEach(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(400)
		s := randomSet(r, n)
		var want []int
		s.ForEach(func(i int) { want = append(want, i) })
		c := s.Cursor()
		var got []int
		for {
			i, ok := c.Next()
			if !ok {
				break
			}
			got = append(got, i)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: cursor yielded %d bits, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: bit %d: got %d, want %d", n, i, got[i], want[i])
			}
		}
		if _, ok := c.Next(); ok {
			t.Fatalf("n=%d: Next after exhaustion reported a bit", n)
		}
	}
}

func TestCursorSkip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		n := r.Intn(500)
		s := randomSet(r, n)
		var all []int
		s.ForEach(func(i int) { all = append(all, i) })
		k := r.Intn(len(all) + 3) // sometimes past the end
		c := s.Cursor()
		skipped := c.Skip(k)
		wantSkipped := k
		if wantSkipped > len(all) {
			wantSkipped = len(all)
		}
		if skipped != wantSkipped {
			t.Fatalf("n=%d k=%d: Skip returned %d, want %d", n, k, skipped, wantSkipped)
		}
		i, ok := c.Next()
		if k >= len(all) {
			if ok {
				t.Fatalf("n=%d k=%d: Next after over-skip reported bit %d", n, k, i)
			}
			continue
		}
		if !ok || i != all[k] {
			t.Fatalf("n=%d k=%d: Next after Skip = (%d,%v), want (%d,true)", n, k, i, ok, all[k])
		}
	}
}

func TestCursorSkipInterleaved(t *testing.T) {
	s := New(300)
	for i := 0; i < 300; i += 3 {
		s.Set(i)
	}
	c := s.Cursor()
	if i, ok := c.Next(); !ok || i != 0 {
		t.Fatalf("first Next = (%d,%v)", i, ok)
	}
	if got := c.Skip(10); got != 10 {
		t.Fatalf("Skip(10) = %d", got)
	}
	if i, ok := c.Next(); !ok || i != 33 {
		t.Fatalf("Next after Skip(10) = (%d,%v), want 33", i, ok)
	}
	if got := c.Skip(1000); got != 100-12 {
		t.Fatalf("Skip(1000) = %d, want %d", got, 100-12)
	}
	if _, ok := c.Next(); ok {
		t.Fatal("Next after exhausting skip succeeded")
	}
}
