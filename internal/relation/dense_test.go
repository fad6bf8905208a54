package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomDense(r *rand.Rand, sp *Space) *Dense {
	d := sp.Empty()
	for idx := 0; idx < sp.Size(); idx++ {
		if r.Intn(2) == 0 {
			d.bits.Set(idx)
		}
	}
	return d
}

func TestDenseBasicOps(t *testing.T) {
	sp := MustSpace(2, 3)
	d := sp.Empty()
	d.Add(Tuple{0, 1})
	d.Add(Tuple{2, 2})
	if !d.Contains(Tuple{0, 1}) || !d.Contains(Tuple{2, 2}) || d.Contains(Tuple{1, 0}) {
		t.Fatal("membership wrong")
	}
	if d.Count() != 2 {
		t.Fatalf("Count = %d", d.Count())
	}
}

func TestDenseBooleanOps(t *testing.T) {
	sp := MustSpace(2, 4)
	r := rand.New(rand.NewSource(7))
	a := randomDense(r, sp)
	b := randomDense(r, sp)

	u := a.Clone()
	u.UnionWith(b)
	i := a.Clone()
	i.IntersectWith(b)
	df := minus(a, b)
	c := a.Clone()
	c.Complement()

	sp.Full().ForEach(func(tp Tuple) {
		ina, inb := a.Contains(tp), b.Contains(tp)
		if u.Contains(tp) != (ina || inb) {
			t.Fatalf("union wrong at %v", tp)
		}
		if i.Contains(tp) != (ina && inb) {
			t.Fatalf("intersect wrong at %v", tp)
		}
		if df.Contains(tp) != (ina && !inb) {
			t.Fatalf("difference wrong at %v", tp)
		}
		if c.Contains(tp) != !ina {
			t.Fatalf("complement wrong at %v", tp)
		}
	})
}

// minus returns a \ b as a ∩ ¬b: the difference the dense operators'
// tests compare against.
func minus(a, b *Dense) *Dense {
	nb := b.Clone()
	nb.Complement()
	out := a.Clone()
	out.IntersectWith(nb)
	return out
}

func TestDiagonal(t *testing.T) {
	sp := MustSpace(3, 3)
	d := sp.Diagonal(0, 2)
	d.ForEach(func(tp Tuple) {
		if tp[0] != tp[2] {
			t.Fatalf("diagonal contains %v", tp)
		}
	})
	if d.Count() != 9 { // 3 choices for the equal pair × 3 for the middle
		t.Fatalf("diagonal count = %d, want 9", d.Count())
	}
	if !sp.Diagonal(1, 1).Equal(sp.Full()) {
		t.Fatal("Diagonal(i,i) should be the full relation")
	}
}

func TestExistsAxis(t *testing.T) {
	sp := MustSpace(2, 3)
	d := sp.Empty()
	d.Add(Tuple{1, 2})
	// ∃x₂ over axis 1: every (1, v) is in the result; nothing else.
	e := d.ExistsAxis(1)
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			want := a == 1
			if e.Contains(Tuple{a, b}) != want {
				t.Fatalf("ExistsAxis wrong at (%d,%d)", a, b)
			}
		}
	}
}

func TestForallAxis(t *testing.T) {
	sp := MustSpace(2, 3)
	d := sp.Empty()
	for b := 0; b < 3; b++ {
		d.Add(Tuple{0, b})
	}
	d.Add(Tuple{1, 0})
	f := d.ForallAxis(1)
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			want := a == 0
			if f.Contains(Tuple{a, b}) != want {
				t.Fatalf("ForallAxis wrong at (%d,%d)", a, b)
			}
		}
	}
}

func TestQuickForallIsDualOfExists(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := r.Intn(3) + 1
		n := r.Intn(4) + 1
		sp := MustSpace(k, n)
		d := randomDense(r, sp)
		axis := r.Intn(k)
		// ∀x φ == ¬∃x ¬φ
		direct := d.ForallAxis(axis)
		nd := d.Clone()
		nd.Complement()
		dual := nd.ExistsAxis(axis)
		dual.Complement()
		return direct.Equal(dual)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExistsIdempotentAndCylindric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := r.Intn(3) + 1
		n := r.Intn(4) + 1
		sp := MustSpace(k, n)
		d := randomDense(r, sp)
		axis := r.Intn(k)
		e := d.ExistsAxis(axis)
		if !e.ExistsAxis(axis).Equal(e) {
			return false
		}
		if !d.SubsetOf(e) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFromAtom(t *testing.T) {
	sp := MustSpace(3, 3) // variables x1,x2,x3
	edges := SetOf(2, Tuple{0, 1}, Tuple{1, 2})

	// Atom E(x2, x3): args = [1, 2].
	d, err := sp.FromAtom(edges, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	sp.Full().ForEach(func(tp Tuple) {
		want := edges.Contains(Tuple{tp[1], tp[2]})
		if d.Contains(tp) != want {
			t.Fatalf("FromAtom E(x2,x3) wrong at %v", tp)
		}
	})

	// Repeated variable: E(x1, x1) selects the loop pattern; no loops here.
	d2, err := sp.FromAtom(edges, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.IsEmpty() {
		t.Fatalf("E(x1,x1) should be empty, got %v", d2)
	}

	loops := SetOf(2, Tuple{2, 2}, Tuple{0, 1})
	d3, err := sp.FromAtom(loops, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	d3.ForEach(func(tp Tuple) {
		if tp[0] != 2 {
			t.Fatalf("E(x1,x1) over loops contains %v", tp)
		}
	})
	if d3.Count() != 9 { // x1=2 fixed, x2 and x3 free
		t.Fatalf("count = %d, want 9", d3.Count())
	}
}

func TestFromAtomErrors(t *testing.T) {
	sp := MustSpace(2, 3)
	edges := SetOf(2, Tuple{0, 5}) // 5 outside domain of size 3
	if _, err := sp.FromAtom(edges, []int{0, 1}); err == nil {
		t.Fatal("out-of-domain tuple accepted")
	}
	ok := SetOf(2, Tuple{0, 1})
	if _, err := sp.FromAtom(ok, []int{0}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := sp.FromAtom(ok, []int{0, 5}); err == nil {
		t.Fatal("variable index outside width accepted")
	}
}

func TestFromAtomZeroAry(t *testing.T) {
	sp := MustSpace(2, 3)
	truth := NewSet(0)
	d, err := sp.FromAtom(truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsEmpty() {
		t.Fatal("false 0-ary atom should denote the empty relation")
	}
	truth.Add(Tuple{})
	d, err = sp.FromAtom(truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(sp.Full()) {
		t.Fatal("true 0-ary atom should denote the full relation")
	}
}

func TestProjectAndToSet(t *testing.T) {
	sp := MustSpace(3, 2)
	d := sp.Empty()
	d.Add(Tuple{0, 1, 0})
	d.Add(Tuple{0, 1, 1})
	d.Add(Tuple{1, 0, 0})
	p := d.ProjectAt(MustSpace(2, 2), []int{0, 1}, nil, nil).ToSet()
	want := SetOf(2, Tuple{0, 1}, Tuple{1, 0})
	if !p.Equal(want) {
		t.Fatalf("Project = %v, want %v", p, want)
	}
	back, err := d.ToSet().ToDense(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(d) {
		t.Fatal("ToSet/ToDense round trip failed")
	}
}

func TestDenseHashChangesWithContent(t *testing.T) {
	sp := MustSpace(2, 3)
	a := sp.Empty()
	b := sp.Empty()
	if a.Hash() != b.Hash() {
		t.Fatal("equal relations hash differently")
	}
	b.Add(Tuple{1, 1})
	if a.Hash() == b.Hash() {
		t.Fatal("different relations hash equal")
	}
}
