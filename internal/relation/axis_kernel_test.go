package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// axisClass names the loop of the axis kernels (internal/bitset/axis.go) that
// an axis of stride s over a domain of n takes.
func axisClass(s, n int) string {
	switch block := s * n; {
	case s > 64 && s%64 == 0:
		return "word-slabs"
	case s > 64:
		return "ranged"
	case 64%block == 0:
		return "in-word"
	case block%64 == 0 && 64%s == 0:
		return "word-blocks"
	default:
		return "gathered"
	}
}

// scatterDense returns a relation holding the given share of the space, at
// a cost proportional to what it holds (or leaves out): random indices, the
// complement taken when the share is above a half.
func scatterDense(r *rand.Rand, sp *Space, share float64) *Dense {
	d := sp.Empty()
	if sp.size == 0 {
		return d
	}
	for i := int(min(share, 1-share) * float64(sp.size)); i > 0; i-- {
		d.bits.Set(r.Intn(sp.size))
	}
	if share > 0.5 {
		d.Complement()
	}
	return d
}

// checkTrimmed fails if the relation's bitmap holds a bit beyond its size,
// which Count, Equal and the next kernel would all read as a tuple.
func checkTrimmed(t testing.TB, what string, d *Dense) {
	t.Helper()
	got := d.Clone()
	got.Complement()
	if d.Count()+got.Count() != d.sp.size {
		t.Fatalf("%s: %d tuples and %d in the complement of a space of %d: bits beyond the size", what, d.Count(), got.Count(), d.sp.size)
	}
	got.Release()
}

// checkQuantifiers holds ExistsAxis and ForallAxis on d and on its complement
// to the bit-level oracles. The oracles cost what their argument holds, so the
// complement's answers are taken by duality from oracles run on d itself:
// ∃¬d = ¬∀d and ∀¬d = ¬∃d.
func checkQuantifiers(t testing.TB, d *Dense, axis int) {
	t.Helper()
	keep, comp := d.Clone(), d.Clone()
	comp.Complement()
	exRef, faRef := d.ExistsAxisRef(axis), d.ForallAxisRef(axis)
	for _, q := range []struct {
		name      string
		got, want *Dense
		negated   bool
	}{
		{"ExistsAxis", d.ExistsAxis(axis), exRef, false},
		{"ForallAxis", d.ForallAxis(axis), faRef, false},
		{"ExistsAxis of the complement", comp.ExistsAxis(axis), faRef, true},
		{"ForallAxis of the complement", comp.ForallAxis(axis), exRef, true},
	} {
		checkTrimmed(t, q.name, q.got)
		if q.negated {
			q.got.Complement()
		}
		if !q.got.Equal(q.want) {
			t.Fatalf("%s disagrees with the reference (%d tuples against %d)", q.name, q.got.Count(), q.want.Count())
		}
		q.got.Release()
	}
	if !d.Equal(keep) {
		t.Fatal("a quantifier wrote its operand")
	}
	for _, x := range []*Dense{keep, comp, exRef, faRef} {
		x.Release()
	}
}

// checkProjectAt holds ProjectAt to the definition, enumerated over d's
// tuples.
func checkProjectAt(t testing.TB, d *Dense, cols, pinned, pinnedVals []int) {
	t.Helper()
	esp := MustSpace(len(cols), d.sp.n)
	want := esp.Empty()
	row := make(Tuple, len(cols))
	d.ForEach(func(tu Tuple) {
		for j, p := range pinned {
			if tu[p] != pinnedVals[j] {
				return
			}
		}
		for j, c := range cols {
			row[j] = tu[c]
		}
		want.Add(row)
	})
	keep := d.Clone()
	got := d.ProjectAt(esp, cols, pinned, pinnedVals)
	checkTrimmed(t, "ProjectAt", got)
	if !got.Equal(want) || !d.Equal(keep) {
		t.Fatalf("ProjectAt cols=%v pinned=%v←%v: %d tuples, enumeration has %d (operand intact: %v)",
			cols, pinned, pinnedVals, got.Count(), want.Count(), d.Equal(keep))
	}
	for _, x := range []*Dense{want, keep, got} {
		x.Release()
	}
}

// checkCylinder holds FromDenseAtom, FromAtom and FromSparse to the
// definition, enumerated over the points of the space.
func checkCylinder(t testing.TB, sp *Space, src *Dense, args []int) {
	t.Helper()
	want := sp.Empty()
	point, row := make(Tuple, sp.k), make(Tuple, len(args))
	for idx := 0; idx < sp.size; idx++ {
		sp.Decode(idx, point)
		for pos, a := range args {
			row[pos] = point[a]
		}
		if src.Contains(row) {
			want.bits.Set(idx)
		}
	}
	keep := src.Clone()
	fromDense, err := sp.FromDenseAtom(src, args)
	if err != nil {
		t.Fatal(err)
	}
	fromSet, err := sp.FromAtom(src.ToSet(), args)
	if err != nil {
		t.Fatal(err)
	}
	fromSparse, err := sp.FromSparse(src.ToSparse(), args)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Dense{"FromDenseAtom": fromDense, "FromAtom": fromSet, "FromSparse": fromSparse} {
		checkTrimmed(t, name, got)
		if !got.Equal(want) {
			t.Fatalf("%s args=%v of %d tuples: %d points, enumeration has %d", name, args, src.Count(), got.Count(), want.Count())
		}
		got.Release()
	}
	if !src.Equal(keep) {
		t.Fatal("a cylinder wrote its source")
	}
	want.Release()
	keep.Release()
}

// axisKernelCases runs every operator built on the axis kernels on one shape:
// the quantifiers on each axis; ProjectAt with each axis dropped, each axis
// alone, one axis pinned beside one kept, and the axes reversed; the cylinder
// of a unary and a binary stage under ascending, descending and repeated
// arguments. full bounds the enumerating checks, which cost the whole space.
func axisKernelCases(t *testing.T, r *rand.Rand, k, n int, shares []float64, full bool) {
	sp := MustSpace(k, n)
	for axis := 0; axis < k; axis++ {
		t.Run(fmt.Sprintf("axis=%d/%s", axis, axisClass(sp.stride[axis], n)), func(t *testing.T) {
			for _, share := range shares {
				d := scatterDense(r, sp, share)
				checkQuantifiers(t, d, axis)
				if full {
					others := make([]int, 0, k)
					for a := 0; a < k; a++ {
						if a != axis {
							others = append(others, a)
						}
					}
					checkProjectAt(t, d, others, nil, nil)
					checkProjectAt(t, d, []int{axis}, nil, nil)
					if k >= 2 {
						other := others[r.Intn(len(others))]
						checkProjectAt(t, d, []int{other}, []int{axis}, []int{r.Intn(n)})
						checkProjectAt(t, d, []int{axis}, []int{other}, []int{r.Intn(n)})
					}
				}
				d.Release()
			}
		})
	}
	if !full {
		return
	}
	t.Run("permuted", func(t *testing.T) {
		d := scatterDense(r, sp, 0.3)
		rev := make([]int, k)
		for j := range rev {
			rev[j] = k - 1 - j
		}
		checkProjectAt(t, d, rev, nil, nil)
		if k >= 3 {
			checkProjectAt(t, d, []int{k - 1, 0}, []int{1}, []int{r.Intn(n)})
			checkProjectAt(t, d, []int{1, 0, k - 1}[:k-1], nil, nil)
		}
		d.Release()
	})
	t.Run("cylinder", func(t *testing.T) {
		for _, share := range []float64{2.5 / float64(n), 0.5} { // a thin stage and a full one
			unary, binary := scatterDense(r, MustSpace(1, n), share), scatterDense(r, MustSpace(2, n), share)
			for a := 0; a < k; a++ {
				checkCylinder(t, sp, unary, []int{a})
			}
			if k >= 2 {
				checkCylinder(t, sp, binary, []int{0, k - 1})
				checkCylinder(t, sp, binary, []int{k - 1, 0})
				checkCylinder(t, sp, binary, []int{k - 1, k - 1})
				checkCylinder(t, sp, binary, []int{k - 2, k - 1})
			}
			unary.Release()
			binary.Release()
		}
	})
}

// TestAxisKernelsMatchRef walks every alignment of slabs and blocks to words
// by name: the powers of two up to 256 in every arity with nᵏ ≤ 2²⁴ — sizes
// below one word, ∀ over bitmaps with unused tail bits, the serving
// benchmark's 64³, 256² — and 3, 10, 40 and 100 (with the rest of 1…9) as the
// shapes where nothing is aligned. Spaces above 2¹⁸ points get the quantifier
// checks only, on thin relations and their complements, which is what the
// oracles can afford; -short stops at 2²⁰.
func TestAxisKernelsMatchRef(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256, 1, 3, 5, 6, 7, 9, 10, 40, 100} {
		for k := 1; k <= 4; k++ {
			size := 1
			for i := 0; i < k; i++ {
				size *= n
			}
			if size > 1<<24 || (testing.Short() && size > 1<<20) {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
				if size <= 1<<18 {
					axisKernelCases(t, r, k, n, []float64{0.02, 0.5}, true)
				} else {
					axisKernelCases(t, r, k, n, []float64{0.002}, false)
				}
			})
		}
	}
}

// TestProjectAtThinThreshold puts a relation on either side of the size at
// which ProjectAt walks set bits instead of folding axes (count · n · 8 <
// size, the count stopping at the threshold): same answer on both sides.
func TestProjectAtThinThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, sh := range []struct{ k, n int }{{3, 16}, {2, 64}, {3, 10}, {2, 3}, {1, 5}} {
		sp := MustSpace(sh.k, sh.n)
		limit := (sp.size + 8*sh.n - 1) / (8 * sh.n) // thin iff fewer tuples than this
		for count := max(limit-2, 0); count <= limit+2 && count <= sp.size; count++ {
			d := sp.Empty()
			for d.Count() < count {
				d.bits.Set(r.Intn(sp.size))
			}
			if thin, want := d.thin(), count*sh.n*8 < sp.size; thin != want {
				t.Fatalf("%d^%d with %d tuples: thin = %v, want %v", sh.n, sh.k, count, thin, want)
			}
			checkProjectAt(t, d, []int{0}, nil, nil)
			checkProjectAt(t, d, []int{sh.k - 1}, nil, nil)
			d.Release()
		}
	}
}

// FuzzAxisKernels draws the shape, the density, the axis and the operator
// from the input and holds the kernel to its oracle: quantifiers to the
// references, ProjectAt and the cylinders to enumeration; operands unmodified,
// results trimmed. The committed corpus names one input per kernel loop.
func FuzzAxisKernels(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(3+seed), uint8(seed), uint8(40*seed), uint8(seed), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, k, share, axis, op uint8) {
		r := rand.New(rand.NewSource(seed))
		sp := fuzzSpace(int(n), int(k))
		d := scatterDense(r, sp, float64(share)/255)
		a := int(axis) % sp.k
		switch others := r.Perm(sp.k); op % 4 {
		case 0:
			checkQuantifiers(t, d, a)
		case 1: // keep a random subset in a random order, pin some of the rest
			cut := r.Intn(sp.k + 1)
			var pinned, vals []int
			for _, p := range others[cut:] {
				if r.Intn(2) == 0 {
					pinned, vals = append(pinned, p), append(vals, r.Intn(sp.n))
				}
			}
			checkProjectAt(t, d, others[:cut], pinned, vals)
		case 2: // the ascending forms the stage extraction uses
			checkProjectAt(t, d, []int{a}, nil, nil)
			checkProjectAt(t, d, nil, []int{a}, []int{r.Intn(sp.n)})
		case 3:
			m := 1 + r.Intn(min(2, sp.k))
			src := scatterDense(r, MustSpace(m, sp.n), float64(share)/255)
			args := make([]int, m)
			for i := range args {
				args[i] = r.Intn(sp.k)
			}
			checkCylinder(t, sp, src, args)
			src.Release()
		}
		d.Release()
	})
}

// fuzzSpace maps two bytes to a space of at most 2¹⁶ points and arity 1…4,
// the domain drawn from the powers of two and their neighbours as often as
// from everything else.
func fuzzSpace(n, k int) *Space {
	k = 1 + k%4
	if n%2 == 0 {
		n = []int{2, 4, 8, 16, 32, 64, 128, 256, 3, 63, 65, 100}[n/2%12]
	}
	n = max(n, 1)
	for size := 1 << 16; ; k-- {
		total := 1
		for i := 0; i < k; i++ {
			total *= n
		}
		if total <= size {
			return MustSpace(k, n)
		}
	}
}

// BenchmarkAxisKernels prices the dense quantifier operators on the shapes
// the serving benchmark evaluates (64³: every dense database there has
// n = 64), one shape per alignment of slabs and blocks to words (16³, 256²,
// 16⁴), and 40³, where nothing is aligned: ∃ and ∀ per axis, the projection
// of a full-width body onto its first axis (a unary stage extraction), and
// the cylinder of a unary stage back over the space.
func BenchmarkAxisKernels(b *testing.B) {
	for _, sh := range []struct{ k, n int }{{3, 64}, {3, 16}, {2, 256}, {4, 16}, {3, 40}} {
		sp, usp := MustSpace(sh.k, sh.n), MustSpace(1, sh.n)
		r := rand.New(rand.NewSource(1))
		d, stage := randomDenseDensity(r, sp, 0.5), randomDenseDensity(r, usp, 0.5)
		shape := fmt.Sprintf("%d^%d", sh.n, sh.k)
		for axis := 0; axis < sh.k; axis++ {
			b.Run(fmt.Sprintf("exists/%s/axis=%d", shape, axis), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.ExistsAxis(axis).Release()
				}
			})
			b.Run(fmt.Sprintf("forall/%s/axis=%d", shape, axis), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.ForallAxis(axis).Release()
				}
			})
		}
		b.Run("project-unary/"+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.ProjectAt(usp, []int{0}, nil, nil).Release()
			}
		})
		b.Run("cylinder/"+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := sp.FromDenseAtom(stage, []int{sh.k - 1})
				if err != nil {
					b.Fatal(err)
				}
				c.Release()
			}
		})
	}
}
