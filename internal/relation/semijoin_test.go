package relation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// semijoinOracle is the loop Blocks.Semijoin replaced in eval's filterSv, kept
// as it was: every code decoded to a tuple, the filter columns copied out,
// encoded again and searched for.
func semijoinOracle(bl *Blocks, s, f *Sparse, cols []int, keep bool) *Sparse {
	bld, err := bl.Builder(s.k, s.n)
	if err != nil {
		panic(err)
	}
	abuf, fbuf := make(Tuple, s.k), make(Tuple, f.k)
	s.ForEachCode(func(c uint64) {
		s.DecodeInto(c, abuf)
		for i, p := range cols {
			fbuf[i] = abuf[p]
		}
		if f.Contains(fbuf) == keep {
			bld.AddCode(c)
		}
	})
	return bld.Build()
}

// subsets lists every strictly ascending column list over k columns: the
// empty one, prefixes, suffixes, middles and all of them.
func subsets(k int) [][]int {
	var out [][]int
	for mask := 0; mask < 1<<k; mask++ {
		cols := []int{}
		for c := 0; c < k; c++ {
			if mask>>c&1 != 0 {
				cols = append(cols, c)
			}
		}
		out = append(out, cols)
	}
	return out
}

// checkSemijoin holds the kernel to the oracle on one pair of blocks, over
// every column subset and both polarities.
func checkSemijoin(t *testing.T, r *rand.Rand, bl *Blocks, s *Sparse, fsize int) {
	t.Helper()
	for _, cols := range subsets(s.k) {
		// Half of the filter is drawn from s's own projections, or on a large
		// code space nothing would ever match.
		f := randomBlock(r, len(cols), s.n, fsize/2, 0)
		proj := s.Project(cols)
		for i := 0; i < len(proj.codes) && i < fsize; i += 1 + r.Intn(3) {
			f.codes = append(f.codes, proj.codes[i])
		}
		f.canon()
		sWas, fWas := s.Clone(), f.Clone()
		for _, keep := range []bool{true, false} {
			want := semijoinOracle(nil, s, f, cols, keep)
			got := bl.Semijoin(s, f, cols, keep)
			if !got.sorted() || !got.Equal(want) {
				t.Fatalf("Semijoin(%v, %v, cols %v, keep %v) over n = %d\n got %v\nwant %v", s, f, cols, keep, s.n, got, want)
			}
			if !s.Equal(sWas) || !f.Equal(fWas) {
				t.Fatalf("Semijoin(cols %v, keep %v) wrote an operand", cols, keep)
			}
			bl.Release(got)
		}
	}
}

// FuzzSemijoin: the kernel against the loop it replaced, on random shapes and
// blocks. Domains reach past bitmapSpace's square root, so both membership
// tests run.
func FuzzSemijoin(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint16(3+40*seed), uint16(10*seed), uint8(3*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, k uint8, n, ssize uint16, fsize uint8) {
		r := rand.New(rand.NewSource(seed))
		bl := &Blocks{}
		if seed%2 == 0 {
			bl.Poison()
		}
		s := randomBlock(r, int(k%5), 1+int(n%1000), int(ssize%600), r.Intn(8))
		checkSemijoin(t, r, bl, s, int(fsize))
	})
}

// TestSemijoinEdges is the table beside the fuzz target: the cases a random
// draw meets rarely or cannot build.
func TestSemijoinEdges(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	s := randomBlock(r, 3, 7, 120, 0)
	empty3, empty1 := MustSparse(3, 7), MustSparse(1, 7)
	some1, _ := SparseOf(1, 7, Tuple{2}, Tuple{5})
	tru, _ := SparseOf(0, 7, Tuple{})
	fls := MustSparse(0, 7)
	for _, tc := range []struct {
		name string
		s, f *Sparse
		cols []int
		keep bool
		want *Sparse
	}{
		{"empty s, keep", empty3, some1, []int{1}, true, empty3},
		{"empty s, anti", empty3, some1, []int{0}, false, empty3},
		{"empty f, keep", s, empty1, []int{2}, true, empty3},
		{"empty f, anti", s, empty1, []int{2}, false, s},
		{"0-ary true, keep", s, tru, nil, true, s},
		{"0-ary true, anti", s, tru, nil, false, empty3},
		{"0-ary false, keep", s, fls, nil, true, empty3},
		{"0-ary false, anti", s, fls, nil, false, s},
		{"0-ary both", tru, tru, []int{}, true, tru},
	} {
		if got := (*Blocks)(nil).Semijoin(tc.s, tc.f, tc.cols, tc.keep); !got.Equal(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}

	// All columns: the semijoin is the intersection, the antijoin the difference.
	o := randomBlock(r, 3, 7, 150, 0)
	all := []int{0, 1, 2}
	if got := (*Blocks)(nil).Semijoin(s, o, all, true); !got.Equal(s.Intersect(o)) {
		t.Errorf("all columns, keep: %v, Intersect %v", got, s.Intersect(o))
	}
	if got := (*Blocks)(nil).Semijoin(s, o, all, false); !got.Equal(s.Difference(o)) {
		t.Errorf("all columns, anti: %v, Difference %v", got, s.Difference(o))
	}

	// k = 3 over n = 10⁶: codes up to 10¹⁸, a quarter of MaxSparseCode. The end
	// (c+1)·w of the last range is the whole code space and must not wrap.
	const big = 1_000_000
	top := big - 1
	wide, err := SparseOf(3, big, Tuple{0, 0, 0}, Tuple{0, top, top}, Tuple{5, 0, 1}, Tuple{top, 0, 0}, Tuple{top, top, top - 1}, Tuple{top, top, top})
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range subsets(3) {
		tuples := []Tuple{make(Tuple, len(cols)), make(Tuple, len(cols))}
		for i := range cols {
			tuples[0][i] = top
		}
		f, err := SparseOf(len(cols), big, tuples...)
		if err != nil {
			t.Fatal(err)
		}
		for _, keep := range []bool{true, false} {
			if got, want := (*Blocks)(nil).Semijoin(wide, f, cols, keep), semijoinOracle(nil, wide, f, cols, keep); !got.Equal(want) {
				t.Errorf("n = 10⁶, cols %v, keep %v: got %v, want %v", cols, keep, got, want)
			}
		}
	}

	// A poisoned free list: results come out of released blocks, and a released
	// result does not disturb the operands or the next result.
	bl := &Blocks{}
	bl.Poison()
	for iter := 0; iter < 50; iter++ {
		checkSemijoin(t, r, bl, randomBlock(r, 1+r.Intn(3), 2+r.Intn(300), r.Intn(200), r.Intn(4)), r.Intn(30))
	}
	one := &Blocks{}
	spare := s.like(make([]uint64, 8, 32))
	array := spare.codes
	one.Release(spare)
	if got := one.Semijoin(s, some1, []int{0}, true); got.Count() == 0 || got.Count() > 32 || &got.codes[0] != &array[0] {
		t.Errorf("a result of %d codes did not come out of the released block of 32", got.Count())
	}

	// Shape errors are the caller's bug: a panic that names both shapes.
	for name, call := range map[string]func(){
		"arity":     func() { bl.Semijoin(s, some1, []int{0, 1}, true) },
		"domain":    func() { bl.Semijoin(s, MustSparse(1, 8), []int{0}, true) },
		"order":     func() { bl.Semijoin(s, MustSparse(2, 7), []int{1, 0}, true) },
		"repeated":  func() { bl.Semijoin(s, MustSparse(2, 7), []int{1, 1}, true) },
		"range":     func() { bl.Semijoin(s, some1, []int{3}, true) },
		"negative":  func() { bl.Semijoin(s, some1, []int{-1}, true) },
		"too many":  func() { bl.Semijoin(s, MustSparse(4, 7), []int{0, 1, 2, 3}, true) },
		"0-ary gap": func() { bl.Semijoin(s, fls, []int{0}, true) },
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "semijoin of 3-ary/7") || strings.Count(msg, "-ary/") != 2 {
					t.Errorf("%s: panic %q does not name both shapes", name, msg)
				}
			}()
			call()
		}()
	}
}

// semijoinCase is one benchmark operand pair: the stored 2-hop (18,000 codes)
// and 3-hop (54,000) bodies of miss-direct's sparse texts in size, binary over
// n = 2,000, and a unary filter of 8 or 48 tuples as sparse2k's small sets are.
func semijoinCase(codes, filter int) (s, f *Sparse) {
	r := rand.New(rand.NewSource(int64(codes + filter)))
	s = randomBlock(r, 2, 2000, codes+codes/10, 0) // some draws collide
	s.codes = s.codes[:codes:codes]
	return s, randomBlock(r, 1, 2000, filter, 0)
}

// BenchmarkSemijoin prices the kernel on both of its paths — the filter on the
// leading column (ranges) and on the trailing one (a key per code) — next to
// the oracle loop on the same operands, with a free list as a run has one.
func BenchmarkSemijoin(b *testing.B) {
	for _, codes := range []int{18000, 54000} {
		for _, filter := range []int{8, 48} {
			s, f := semijoinCase(codes, filter)
			for _, col := range []struct {
				name string
				cols []int
			}{{"prefix", []int{0}}, {"trailing", []int{1}}} {
				for _, keep := range []bool{true, false} {
					name := fmt.Sprintf("%s/codes=%d/filter=%d/keep=%v", col.name, codes, filter, keep)
					bl := &Blocks{}
					b.Run("kernel/"+name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							bl.Release(bl.Semijoin(s, f, col.cols, keep))
						}
					})
					b.Run("oracle/"+name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							bl.Release(semijoinOracle(bl, s, f, col.cols, keep))
						}
					})
				}
			}
		}
	}
}

// BenchmarkSparseAllAxis is ∀ over the leading axis of a binary relation in
// which one column in ten is complete: 26,000 group codes, out of order, sorted
// as plain uint64s.
func BenchmarkSparseAllAxis(b *testing.B) {
	const n = 256
	r := rand.New(rand.NewSource(71))
	s := MustSparse(2, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if y%10 == 0 || r.Intn(3) == 0 {
				s.codes = append(s.codes, uint64(x*n+y))
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.AllAxis(0); got.Count() != 26 {
			b.Fatalf("AllAxis kept %d groups, want 26", got.Count())
		}
	}
}
