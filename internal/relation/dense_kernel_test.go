package relation

import (
	"math/rand"
	"testing"
)

// randomDenseDensity fills a fresh relation with the given bit density.
func randomDenseDensity(r *rand.Rand, sp *Space, density float64) *Dense {
	d := sp.Empty()
	for idx := 0; idx < sp.Size(); idx++ {
		if r.Float64() < density {
			d.bits.Set(idx)
		}
	}
	return d
}

// TestAxisKernelsWideDomains covers slabs of a word and more: an exactly
// word-aligned slab (n=64), unaligned ones (n=70, 100), and a three-axis shape
// where the outer axis folds ranges while the inner ones are gathered.
func TestAxisKernelsWideDomains(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shapes := []struct{ k, n int }{
		{2, 64}, {2, 70}, {2, 100}, {3, 17}, {1, 200},
	}
	for _, sh := range shapes {
		sp := MustSpace(sh.k, sh.n)
		d := randomDenseDensity(r, sp, 0.3)
		for axis := 0; axis < sh.k; axis++ {
			ex, exRef := d.ExistsAxis(axis), d.ExistsAxisRef(axis)
			if !ex.Equal(exRef) {
				t.Fatalf("%d^%d axis=%d: ExistsAxis disagrees with reference", sh.n, sh.k, axis)
			}
			fa, faRef := d.ForallAxis(axis), d.ForallAxisRef(axis)
			if !fa.Equal(faRef) {
				t.Fatalf("%d^%d axis=%d: ForallAxis disagrees with reference", sh.n, sh.k, axis)
			}
			ex.Release()
			exRef.Release()
			fa.Release()
			faRef.Release()
		}
		d.Release()
	}
}

// TestProjectAtMatchesEnumeration checks ProjectAt — the dense fixpoint-stage
// extractor — against a direct enumeration of the definition: t is in the
// result iff some source point with cols←t, pinned←pinnedVals is in d.
func TestProjectAtMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cases := []struct {
		k, n       int
		cols       []int
		pinned     []int
		pinnedVals []int
	}{
		{3, 4, []int{0, 1, 2}, nil, nil},                // permutation identity
		{3, 4, []int{2, 0}, nil, nil},                   // drop + reorder
		{3, 4, []int{1}, []int{0}, []int{2}},            // pin one axis
		{4, 3, []int{3, 1}, []int{0, 2}, []int{1, 0}},   // pin two axes
		{2, 70, []int{1}, nil, nil},                     // wide domain, stride-1 gather
		{2, 70, []int{0}, nil, nil},                     // wide domain, strided gather
		{3, 5, []int{}, []int{0, 1, 2}, []int{1, 2, 3}}, // fully pinned, 0-ary result
	}
	for _, tc := range cases {
		sp := MustSpace(tc.k, tc.n)
		esp := MustSpace(len(tc.cols), tc.n)
		d := randomDenseDensity(r, sp, 0.3)
		got := d.ProjectAt(esp, tc.cols, tc.pinned, tc.pinnedVals)

		want := esp.Empty()
		full := make(Tuple, tc.k)
		var rec func(i int)
		rec = func(i int) {
			if i == tc.k {
				if !d.Contains(full) {
					return
				}
				for j, p := range tc.pinned {
					if full[p] != tc.pinnedVals[j] {
						return
					}
				}
				row := make(Tuple, len(tc.cols))
				for j, c := range tc.cols {
					row[j] = full[c]
				}
				want.Add(row)
				return
			}
			for v := 0; v < tc.n; v++ {
				full[i] = v
				rec(i + 1)
			}
		}
		rec(0)

		if !got.Equal(want) {
			t.Fatalf("%d^%d cols=%v pinned=%v: ProjectAt = %v, want %v",
				tc.n, tc.k, tc.cols, tc.pinned, got, want)
		}
		got.Release()
		want.Release()
		d.Release()
	}
}

// TestFromDenseAtomMatchesFromAtom checks that cylindrifying a dense source
// agrees with round-tripping it through a sparse set, including repeated-axis
// patterns like R(x, x).
func TestFromDenseAtomMatchesFromAtom(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cases := []struct {
		srcK, k, n int
		args       []int
	}{
		{1, 3, 4, []int{1}},
		{2, 3, 4, []int{2, 0}},
		{2, 3, 4, []int{1, 1}}, // repeated axis: only diagonal tuples contribute
		{2, 2, 9, []int{1, 0}},
		{3, 4, 3, []int{3, 0, 2}},
	}
	for _, tc := range cases {
		ssp := MustSpace(tc.srcK, tc.n)
		sp := MustSpace(tc.k, tc.n)
		src := randomDenseDensity(r, ssp, 0.4)

		got, err := sp.FromDenseAtom(src, tc.args)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sp.FromAtom(src.ToSet(), tc.args)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("src %d^%d args=%v: FromDenseAtom = %v, want %v",
				tc.n, tc.srcK, tc.args, got, want)
		}
		got.Release()
		want.Release()
		src.Release()
	}
}

// TestFusedConnectivesMatchTwoPass checks the single-pass ImpliesWith and
// IffWith against their definitional two-pass forms.
func TestFusedConnectivesMatchTwoPass(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, sh := range []struct{ k, n int }{{2, 5}, {3, 4}, {2, 70}} {
		sp := MustSpace(sh.k, sh.n)
		a := randomDenseDensity(r, sp, 0.5)
		b := randomDenseDensity(r, sp, 0.5)

		imp := a.Clone()
		imp.ImpliesWith(b)
		impRef := a.Clone()
		impRef.Complement()
		impRef.UnionWith(b)
		if !imp.Equal(impRef) {
			t.Fatalf("%d^%d: ImpliesWith disagrees with ¬a ∪ b", sh.n, sh.k)
		}

		iff := a.Clone()
		iff.IffWith(b)
		// a ↔ b = (a → b) ∩ (b → a)
		iffRef := a.Clone()
		iffRef.ImpliesWith(b)
		back := b.Clone()
		back.ImpliesWith(a)
		iffRef.IntersectWith(back)
		if !iff.Equal(iffRef) {
			t.Fatalf("%d^%d: IffWith disagrees with (a→b) ∩ (b→a)", sh.n, sh.k)
		}

		for _, d := range []*Dense{imp, impRef, iff, iffRef, back, a, b} {
			d.Release()
		}
	}
}

// TestReleaseRecyclesCleanly checks that a released bitmap reused from the
// pool never leaks stale contents into a fresh Empty/Full relation.
func TestReleaseRecyclesCleanly(t *testing.T) {
	sp := MustSpace(2, 6)
	d := sp.Full()
	d.Release()
	e := sp.Empty()
	if !e.IsEmpty() {
		t.Fatal("Empty() from recycled bitmap is not empty")
	}
	e.Release()
	f := sp.Full()
	if f.Count() != sp.Size() {
		t.Fatalf("Full() from recycled bitmap has %d of %d tuples", f.Count(), sp.Size())
	}
	f.Release()
}
