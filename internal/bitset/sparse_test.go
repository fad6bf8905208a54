package bitset

import (
	"math/rand"
	"testing"
)

// randomSetDensity fills a set of n bits with the given density.
func randomSetDensity(rng *rand.Rand, n int, density float64) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			s.Set(i)
		}
	}
	return s
}

func TestOrSparseMatchesOr(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 200, 1000} {
		for _, density := range []float64{0, 0.01, 0.3, 1} {
			s := randomSetDensity(rng, n, 0.3)
			d := randomSetDensity(rng, n, density)
			want := s.Clone()
			want.Or(d)
			got := s.Clone()
			changed := got.OrSparse(d)
			if !got.Equal(want) {
				t.Fatalf("n=%d density=%v: OrSparse disagrees with Or", n, density)
			}
			// changed must count exactly the destination words that differ.
			diff := 0
			for i := range want.words {
				if want.words[i] != s.words[i] {
					diff++
				}
			}
			if changed != diff {
				t.Fatalf("n=%d density=%v: changed=%d, want %d", n, density, changed, diff)
			}
		}
	}
}

func TestOrAndSparseMatchesAndOr(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 64, 65, 300, 1000} {
		for _, density := range []float64{0, 0.02, 0.5} {
			s := randomSetDensity(rng, n, 0.2)
			drv := randomSetDensity(rng, n, density)
			other := randomSetDensity(rng, n, 0.5)
			want := s.Clone()
			join := drv.Clone()
			join.And(other)
			want.Or(join)
			got := s.Clone()
			got.OrAndSparse(drv, other)
			if !got.Equal(want) {
				t.Fatalf("n=%d density=%v: OrAndSparse disagrees with And+Or", n, density)
			}
		}
	}
}

func TestAndNotSparseMatchesAndNot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 64, 65, 300, 1000} {
		for _, density := range []float64{0, 0.02, 0.5, 1} {
			s := randomSetDensity(rng, n, density)
			d := randomSetDensity(rng, n, 0.4)
			want := d.Clone()
			want.Not()
			want.And(s)
			got := s.Clone()
			remaining := got.AndNotSparse(d)
			if !got.Equal(want) {
				t.Fatalf("n=%d density=%v: AndNotSparse disagrees with And of the complement", n, density)
			}
			if remaining != want.Count() {
				t.Fatalf("n=%d density=%v: remaining=%d, want %d", n, density, remaining, want.Count())
			}
		}
	}
}

func BenchmarkOrSparse(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(4))
	s := randomSetDensity(rng, n, 0.3)
	d := New(n)
	for i := 0; i < 32; i++ { // a sparse delta: 32 bits in 64Ki
		d.Set(rng.Intn(n))
	}
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.OrSparse(d)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Or(d)
		}
	})
}
