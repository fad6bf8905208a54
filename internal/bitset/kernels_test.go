package bitset

import (
	"math/rand"
	"testing"
)

// randomDensitySet returns a set of n bits with each bit set with probability p.
func randomDensitySet(r *rand.Rand, n int, p float64) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			s.Set(i)
		}
	}
	return s
}

// The range kernels are verified against per-bit loops over random sets,
// offsets and lengths, covering cross-word and word-interior ranges and
// capacities not divisible by 64.

func TestRangeKernelsAgainstBitLoop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sizes := []int{1, 7, 63, 64, 65, 100, 128, 200, 517}
	for _, n := range sizes {
		for trial := 0; trial < 50; trial++ {
			src := randomDensitySet(r, n, 0.4)
			length := r.Intn(n + 1)
			dstOff := r.Intn(n - length + 1)
			srcOff := r.Intn(n - length + 1)

			for _, op := range []string{"or", "and", "copy"} {
				dst := randomDensitySet(r, n, 0.4)
				want := dst.Clone()
				for i := 0; i < length; i++ {
					sb := src.Test(srcOff + i)
					db := want.Test(dstOff + i)
					var v bool
					switch op {
					case "or":
						v = db || sb
					case "and":
						v = db && sb
					case "copy":
						v = sb
					}
					if v {
						want.Set(dstOff + i)
					} else {
						want.words[(dstOff+i)/wordBits] &^= 1 << (uint(dstOff+i) % wordBits)
					}
				}
				dst.rangeOp(src, dstOff, srcOff, length, map[string]int{"or": opOr, "and": opAnd, "copy": opCopy}[op])
				if !dst.Equal(want) {
					t.Fatalf("n=%d %s dstOff=%d srcOff=%d len=%d:\n got %v\nwant %v",
						n, op, dstOff, srcOff, length, dst, want)
				}
			}
		}
	}
}

func TestOrNot(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 63, 64, 65, 200} {
		s := randomDensitySet(r, n, 0.5)
		u := randomDensitySet(r, n, 0.5)
		want := s.Clone()
		want.Not()
		want.Or(u)
		s.OrNot(u)
		if !s.Equal(want) {
			t.Fatalf("n=%d: got %v want %v", n, s, want)
		}
		// The unused high bits of the last word must stay clear.
		if c := s.Count(); c > n {
			t.Fatalf("n=%d: count %d exceeds capacity", n, c)
		}
	}
}

// TestFoldAndBroadcastStride checks the axis kernels — Fold (∨ and ∧), Select,
// Broadcast and Quantify — bit by bit on one shape per loop they have: slabs
// of whole words, wider than a word and unaligned, a block that is one word,
// blocks of whole words with slabs tiling a word, blocks tiling a word (also
// in a set shorter than a word), and slabs and blocks that tile nothing.
func TestFoldAndBroadcastStride(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	shapes := []struct{ s, n, blocks int }{
		{128, 4, 3}, {64, 64, 2}, {70, 3, 2}, {100, 100, 2},
		{1, 64, 70}, {1, 256, 5}, {16, 16, 5}, {8, 8, 9}, {32, 2, 3},
		{1, 16, 9}, {1, 2, 7}, {4, 4, 3}, {2, 8, 1},
		{1, 5, 13}, {1, 40, 7}, {1, 100, 3}, {3, 3, 3}, {9, 9, 9}, {40, 40, 3}, {10, 7, 2}, {1, 1, 67}, {5, 1, 13},
	}
	for _, sh := range shapes {
		for _, p := range []float64{0.03, 0.5, 0.97} {
			wide := randomDensitySet(r, sh.s*sh.n*sh.blocks, p)
			keep := wide.Clone()
			at := func(b, v, i int) int { return (b*sh.n+v)*sh.s + i }
			for _, and := range []bool{false, true} {
				narrow, tmp := randomDensitySet(r, sh.s*sh.blocks, 0.5), randomDensitySet(r, sh.s*sh.blocks, 0.5)
				quant := randomDensitySet(r, wide.n, 0.5)
				narrow.Fold(wide, sh.s, sh.n, and)
				quant.Quantify(wide, tmp, sh.s, sh.n, and)
				for b := 0; b < sh.blocks; b++ {
					for i := 0; i < sh.s; i++ {
						want := and
						for v := 0; v < sh.n; v++ {
							if wide.Test(at(b, v, i)) != and {
								want = !and
							}
						}
						if narrow.Test(b*sh.s+i) != want {
							t.Fatalf("%+v p=%g and=%v: fold bit %d of block %d = %v", sh, p, and, i, b, !want)
						}
						for v := 0; v < sh.n; v++ {
							if quant.Test(at(b, v, i)) != want {
								t.Fatalf("%+v p=%g and=%v: quantify bit %d of slab %d of block %d = %v", sh, p, and, i, v, b, !want)
							}
						}
					}
				}
				if c := narrow.Count() * sh.n; quant.Count() != c {
					t.Fatalf("%+v p=%g and=%v: stray bits: fold holds %d, quantify %d", sh, p, and, c, quant.Count())
				}
			}
			narrow := randomDensitySet(r, sh.s*sh.blocks, 0.5)
			v := r.Intn(sh.n)
			narrow.Select(wide, sh.s, sh.n, v)
			back := randomDensitySet(r, wide.n, 0.5)
			back.Broadcast(narrow, sh.s, sh.n)
			for b := 0; b < sh.blocks; b++ {
				for i := 0; i < sh.s; i++ {
					if narrow.Test(b*sh.s+i) != wide.Test(at(b, v, i)) {
						t.Fatalf("%+v p=%g: select of slab %d, bit %d of block %d wrong", sh, p, v, i, b)
					}
					for u := 0; u < sh.n; u++ {
						if back.Test(at(b, u, i)) != narrow.Test(b*sh.s+i) {
							t.Fatalf("%+v p=%g: broadcast slab %d bit %d of block %d wrong", sh, p, u, i, b)
						}
					}
				}
			}
			if back.Count() != narrow.Count()*sh.n || !wide.Equal(keep) {
				t.Fatalf("%+v p=%g: stray bits after broadcast, or the source was written", sh, p)
			}
		}
	}
}

// TestAxisKernelsRejectBadShapes: each kernel validates its shape once per
// call and panics on a bad one.
func TestAxisKernelsRejectBadShapes(t *testing.T) {
	wide, narrow := New(64), New(16)
	for name, call := range map[string]func(){
		"fold: sizes":      func() { narrow.Fold(wide, 4, 3, false) },
		"fold: slab":       func() { narrow.Fold(wide, 3, 4, false) },
		"fold: zero":       func() { narrow.Fold(wide, 0, 4, false) },
		"select: value":    func() { narrow.Select(wide, 4, 4, 4) },
		"broadcast: sizes": func() { wide.Broadcast(narrow, 4, 5) },
		"quantify: dst":    func() { New(32).Quantify(wide, narrow, 4, 4, false) },
		"quantify: tmp":    func() { wide.Quantify(wide.Clone(), New(8), 4, 4, false) },
		"quantify: wide":   func() { New(256).Quantify(New(256), New(8), 16, 16, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

func TestRangeOpSelfAliasing(t *testing.T) {
	// A range or-ed from a set into itself, the source before every
	// destination, must behave as if the source were snapshotted.
	s := New(192)
	s.Set(0)
	s.Set(5)
	for v := 1; v <= 20; v++ {
		s.rangeOp(s, v*9, 0, 9, opOr)
	}
	for v := 0; v < 21; v++ {
		if !s.Test(v*9) || !s.Test(v*9+5) {
			t.Fatalf("slab %d missing broadcast bits: %v", v, s)
		}
		if s.Test(v*9+1) || s.Test(v*9+4) {
			t.Fatalf("slab %d has stray bits: %v", v, s)
		}
	}
}
