package relation

import (
	"math/rand"
	"testing"
)

// randomSparseDense draws a random relation in both representations over a
// shared shape.
func randomSparseDense(t *testing.T, r *rand.Rand, k, n int) (*Sparse, *Dense) {
	t.Helper()
	sp := MustSpace(k, n)
	d := sp.Empty()
	s := MustSparse(k, n)
	size := sp.Size()
	if size > 0 {
		count := r.Intn(size + 1)
		for i := 0; i < count; i++ {
			idx := r.Intn(size)
			d.AddIndex(idx)
			s.codes = append(s.codes, uint64(idx))
		}
	}
	s.canon()
	return s, d
}

// requireSame fails unless the sparse and dense relations hold exactly the
// same tuples (byte-identical answers through ToSet).
func requireSame(t *testing.T, label string, s *Sparse, d *Dense) {
	t.Helper()
	if !s.sorted() {
		t.Fatalf("%s: sparse block not canonical", label)
	}
	if s.Count() != d.Count() {
		t.Fatalf("%s: count %d vs dense %d", label, s.Count(), d.Count())
	}
	if !s.ToSet().Equal(d.ToSet()) {
		t.Fatalf("%s: tuple sets differ:\nsparse %v\ndense  %v", label, s.ToSet(), d.ToSet())
	}
}

// TestSparsePrimitivesMatchDenseOracle pins every Sparse primitive —
// intersect, union, difference, project, exists-axis (DropAxis), forall-axis
// (AllAxis), complement, widening and conversions — byte-identical to the
// Dense word-parallel kernels on random relations over every feasible small
// shape.
func TestSparsePrimitivesMatchDenseOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 400; iter++ {
		k := 1 + r.Intn(3)
		n := 1 + r.Intn(5)
		sp := MustSpace(k, n)
		sa, da := randomSparseDense(t, r, k, n)
		sb, db := randomSparseDense(t, r, k, n)

		requireSame(t, "identity", sa, da)
		requireSame(t, "intersect", sa.Intersect(sb), func() *Dense {
			out := da.Clone()
			out.IntersectWith(db)
			return out
		}())
		requireSame(t, "union", sa.Union(sb), func() *Dense {
			out := da.Clone()
			out.UnionWith(db)
			return out
		}())
		requireSame(t, "difference", sa.Difference(sb), func() *Dense {
			out := da.Clone()
			out.DifferenceWith(db)
			return out
		}())
		requireSame(t, "complement", sa.Complement(), func() *Dense {
			out := da.Clone()
			out.Complement()
			return out
		}())

		// Per-axis projections against the dense quantifier kernels: the
		// dense ∃/∀ stay full-width (cylindric in the quantified axis), so
		// compare after projecting the dense result onto the surviving axes.
		axis := r.Intn(k)
		rest := make([]int, 0, k-1)
		for i := 0; i < k; i++ {
			if i != axis {
				rest = append(rest, i)
			}
		}
		if k > 1 {
			ex := da.ExistsAxis(axis)
			sEx, err := SparseFromSet(ex.ToSet().Project(rest), n)
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, "exists-axis", sa.DropAxis(axis), func() *Dense {
				esp := MustSpace(k-1, n)
				d2, err := sEx.ToDense(esp)
				if err != nil {
					t.Fatal(err)
				}
				return d2
			}())
			fa := da.ForallAxis(axis)
			sFa, err := SparseFromSet(fa.ToSet().Project(rest), n)
			if err != nil {
				t.Fatal(err)
			}
			if !sa.AllAxis(axis).Equal(sFa) {
				t.Fatalf("forall-axis mismatch: %v vs %v", sa.AllAxis(axis), sFa)
			}
		}

		// General projection (duplicate columns allowed) against Set.Project.
		cols := make([]int, 1+r.Intn(k))
		for i := range cols {
			cols[i] = r.Intn(k)
		}
		wantProj := da.ToSet().Project(cols)
		gotProj := sa.Project(cols).ToSet()
		if !gotProj.Equal(wantProj) {
			t.Fatalf("project %v mismatch: %v vs %v", cols, gotProj, wantProj)
		}

		// Widening: CrossAxis at a random position is the cylinder over the
		// new axis, i.e. FromSparse with the original axes as args.
		pos := r.Intn(k + 1)
		widened, err := sa.CrossAxis(pos)
		if err != nil {
			t.Fatal(err)
		}
		wsp := MustSpace(k+1, n)
		args := make([]int, 0, k)
		for i := 0; i <= k; i++ {
			if i != pos {
				args = append(args, i)
			}
		}
		wantWide, err := wsp.FromSparse(sa, args)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, "cross-axis", widened, wantWide)

		// Round trips.
		requireSame(t, "to-dense", sa, func() *Dense {
			d2, err := sa.ToDense(sp)
			if err != nil {
				t.Fatal(err)
			}
			return d2
		}())
		if !da.ToSparse().Equal(sa) {
			t.Fatalf("dense→sparse round trip differs")
		}
		back, err := SparseFromSet(sa.ToSet(), n)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(sa) {
			t.Fatalf("set round trip differs")
		}

		// Membership probes.
		for probe := 0; probe < 8; probe++ {
			tu := make(Tuple, k)
			for i := range tu {
				tu[i] = r.Intn(n)
			}
			if sa.Contains(tu) != da.Contains(tu) {
				t.Fatalf("contains(%v) disagrees", tu)
			}
		}
	}
}

// TestSparseGallopPaths forces both the galloping and merging branches of
// Intersect and Difference with heavily skewed operand sizes.
func TestSparseGallopPaths(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	k, n := 2, 64
	sp := MustSpace(k, n)
	big := sp.Empty()
	sBig := MustSparse(k, n)
	for i := 0; i < 2000; i++ {
		idx := r.Intn(sp.Size())
		big.AddIndex(idx)
		sBig.codes = append(sBig.codes, uint64(idx))
	}
	sBig.canon()
	small := sp.Empty()
	sSmall := MustSparse(k, n)
	for i := 0; i < 10; i++ {
		idx := r.Intn(sp.Size())
		small.AddIndex(idx)
		sSmall.codes = append(sSmall.codes, uint64(idx))
	}
	sSmall.canon()

	wantInt := big.Clone()
	wantInt.IntersectWith(small)
	requireSame(t, "gallop-intersect", sBig.Intersect(sSmall), wantInt)
	requireSame(t, "gallop-intersect-sym", sSmall.Intersect(sBig), wantInt)

	wantDiff := small.Clone()
	wantDiff.DifferenceWith(big)
	requireSame(t, "gallop-difference", sSmall.Difference(sBig), wantDiff)
}

// TestSparseShapeLimits checks the code-space guard: shapes beyond
// MaxSparseCode are rejected, while shapes far beyond MaxDenseBits are
// accepted — the whole point of the sparse layout.
func TestSparseShapeLimits(t *testing.T) {
	if _, err := NewSparse(3, 10000); err != nil {
		t.Fatalf("3-ary over 10k must be sparse-feasible: %v", err)
	}
	if _, err := NewSpace(3, 10000); err == nil {
		t.Fatalf("3-ary over 10k should exceed MaxDenseBits")
	}
	if _, err := NewSparse(11, 1<<16); err == nil {
		t.Fatalf("code space 2^176 must be rejected")
	}
	s := MustSparse(3, 10000)
	if s.SpaceSize() != 1_000_000_000_000 {
		t.Fatalf("space size = %d", s.SpaceSize())
	}
}

// TestFromSparseScratchBalance pins the Release discipline of the
// sparse→dense conversion: success hands exactly one bitmap to the caller,
// and the error path returns its partial bitmap to the pool, leaving the
// scratch balance unchanged.
func TestFromSparseScratchBalance(t *testing.T) {
	sp := MustSpace(3, 4)
	src, err := SparseOf(2, 4, Tuple{1, 2}, Tuple{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	base := sp.ScratchOutstanding()
	d, err := sp.FromSparse(src, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.ScratchOutstanding(); got != base+1 {
		t.Fatalf("success path scratch balance %d, want %d", got, base+1)
	}
	want, err := sp.FromAtom(src.ToSet(), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(want) {
		t.Fatalf("FromSparse disagrees with FromAtom: %v vs %v", d, want)
	}
	d.Release()
	want.Release()
	if got := sp.ScratchOutstanding(); got != base {
		t.Fatalf("scratch balance %d after release, want %d", got, base)
	}

	// Error paths: arity mismatch, axis out of range, domain mismatch. None
	// may move the balance.
	if _, err := sp.FromSparse(src, []int{0}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := sp.FromSparse(src, []int{0, 9}); err == nil {
		t.Fatal("axis out of range accepted")
	}
	other := MustSparse(2, 5)
	if _, err := sp.FromSparse(other, []int{0, 1}); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	if got := sp.ScratchOutstanding(); got != base {
		t.Fatalf("error paths moved scratch balance to %d, want %d", got, base)
	}
}

// randomBlock draws a canonical relation of about size tuples over (k, n) in
// a block with room to spare.
func randomBlock(r *rand.Rand, k, n, size, room int) *Sparse {
	s := MustSparse(k, n)
	s.codes = make([]uint64, 0, size+room)
	for i := 0; i < size; i++ {
		s.codes = append(s.codes, uint64(r.Int63n(int64(s.SpaceSize()))))
	}
	s.canon()
	return s
}

// TestAccumulateMatchesUnion holds the in-place union to the copying one, its
// oracle, on random blocks: with and without room (growth past capacity),
// owned and not, empty operands, operands with tuples in common, an operand
// that is the receiver and one that is a window of the receiver's own backing
// array — and checks what the contract promises about storage: an owned
// receiver with room keeps its block, a receiver that is not owned is left
// exactly as it was.
func TestAccumulateMatchesUnion(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for iter := 0; iter < 3000; iter++ {
		k, n := 1+r.Intn(3), 2+r.Intn(12)
		bl := &Blocks{}
		if iter%2 == 0 {
			bl.Poison()
		}
		a := randomBlock(r, k, n, r.Intn(40), r.Intn(3)*r.Intn(60))
		var b *Sparse
		switch r.Intn(6) {
		case 0:
			b = MustSparse(k, n)
		case 1:
			b = a // the receiver itself
		case 2: // a window of the receiver's backing array
			lo := r.Intn(len(a.codes) + 1)
			b = a.like(a.codes[lo : lo+r.Intn(len(a.codes)-lo+1)])
		default:
			b = randomBlock(r, k, n, r.Intn(40), 0)
			if r.Intn(2) == 0 { // thin and overlapping: a few of a's own tuples
				for i := 0; i < len(a.codes); i += 1 + r.Intn(5) {
					b.codes = append(b.codes, a.codes[i])
				}
				b.canon()
			}
		}
		want := a.Union(b)
		before, array, owned := a.Clone(), a.codes[:cap(a.codes)], r.Intn(2) == 0
		room := cap(a.codes) >= len(a.codes)+len(b.codes) && !overlaps(a.codes, b.codes)
		bWas := b.Clone()
		got := bl.Accumulate(a, b, owned)
		if !got.sorted() || !got.Equal(want) {
			t.Fatalf("iter %d: Accumulate(%v, %v, owned=%v) = %v, want %v", iter, before, bWas, owned, got, want)
		}
		switch {
		case !owned && (!a.Equal(before) || got == a):
			t.Fatalf("iter %d: a receiver that is not the caller's was written: %v, was %v", iter, a, before)
		case owned && room && (got != a || (len(a.codes) > 0 && &a.codes[0] != &array[0])):
			t.Fatalf("iter %d: an owned receiver with room for %d more did not keep its block", iter, len(b.codes))
		case owned && got != a:
			t.Fatalf("iter %d: an owned receiver was not consumed", iter)
		}
		if b != a && !overlaps(array, b.codes) && !b.Equal(bWas) {
			t.Fatalf("iter %d: the operand was written", iter)
		}
	}
}

// TestSubtractMatchesDifference: the in-place difference against the copying
// one, both merge branches, and the blocks Difference draws are recycled ones.
func TestSubtractMatchesDifference(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for iter := 0; iter < 2000; iter++ {
		k, n := 1+r.Intn(3), 2+r.Intn(12)
		a := randomBlock(r, k, n, r.Intn(60), r.Intn(8))
		b := randomBlock(r, k, n, r.Intn(3)*r.Intn(400), 0) // often ≥ 16x: the galloping branch
		want := a.Difference(b)
		bl := &Blocks{}
		spare := a.like(make([]uint64, 1, max(1, len(a.codes))))
		array := spare.codes
		bl.Release(spare)
		if got := bl.Difference(a, b); !got.Equal(want) || (len(a.codes) > 0 && &got.codes[:1][0] != &array[0]) {
			t.Fatalf("iter %d: Blocks.Difference = %v in a block of %d, want %v in the released one", iter, got, cap(got.codes), want)
		}
		if a.Subtract(b); !a.sorted() || !a.Equal(want) {
			t.Fatalf("iter %d: Subtract left %v, want %v", iter, a, want)
		}
	}
}

// TestBlocksRecycle pins the free list: a released block comes back for a
// request it is long enough for, is overwritten when poisoned, Clip leaves
// exactly the length and recycles the rest, a builder grows through released
// blocks, and a nil *Blocks is the plain heap.
func TestBlocksRecycle(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	bl := &Blocks{}
	bl.Poison()
	s := randomBlock(r, 2, 16, 100, 28)
	array, n := s.codes[:cap(s.codes)], s.Count()
	want := s.Clone()
	bl.Clip(s)
	if cap(s.codes) != n || !s.Equal(want) {
		t.Fatalf("Clip left capacity %d for %d tuples", cap(s.codes), n)
	}
	if array[0] != ^uint64(0) || array[len(array)-1] != ^uint64(0) {
		t.Fatal("the block Clip recycled was not poisoned")
	}
	if got := bl.get(len(array) + 1); cap(got) != len(array)+1 {
		t.Fatalf("a request longer than the recycled block got capacity %d", cap(got))
	}
	b, err := bl.Builder(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70; i++ {
		b.AddCode(uint64(255 - i))
	}
	if built := b.Build(); &built.codes[:1][0] != &array[0] || built.Count() != 70 || !built.sorted() {
		t.Fatalf("a builder of 70 codes did not end up in the recycled block of %d", len(array))
	}
	e1, _ := bl.Empty(3, 16)
	e2, _ := bl.Empty(3, 16)
	if &e1.stride[0] != &e2.stride[0] {
		t.Fatal("two relations of one shape do not share a stride table")
	}
	var none *Blocks
	none.Release(s)
	none.Clip(s)
	if e, err := none.Empty(2, 16); err != nil || !s.Equal(want) || len(none.get(5)) != 0 || e.Count() != 0 {
		t.Fatalf("the nil allocator: %v", err)
	}
	if _, err := bl.Empty(3, 1<<30); err == nil {
		t.Fatal("a shape beyond MaxSparseCode was accepted")
	}
}
