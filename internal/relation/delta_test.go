package relation

import (
	"math/rand"
	"testing"
)

func TestUnionSparseMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	sp, err := NewSpace(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, density := range []float64{0, 0.01, 0.4} {
		a := randomDenseDensity(rng, sp, 0.3)
		b := randomDenseDensity(rng, sp, density)
		want := a.Clone()
		want.UnionWith(b)
		got := a.Clone()
		got.UnionSparse(b)
		if !got.Equal(want) {
			t.Fatalf("density %v: UnionSparse disagrees with UnionWith", density)
		}
	}
}

func TestUnionAndSparseMatchesIntersectUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sp, err := NewSpace(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, density := range []float64{0, 0.05, 0.6} {
		acc := randomDenseDensity(rng, sp, 0.2)
		drv := randomDenseDensity(rng, sp, density)
		other := randomDenseDensity(rng, sp, 0.5)
		want := acc.Clone()
		join := drv.Clone()
		join.IntersectWith(other)
		want.UnionWith(join)
		got := acc.Clone()
		got.UnionAndSparse(drv, other)
		if !got.Equal(want) {
			t.Fatalf("density %v: UnionAndSparse disagrees", density)
		}
	}
}

func TestDifferenceSparseMatchesDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sp, err := NewSpace(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, density := range []float64{0, 0.05, 0.9} {
		a := randomDenseDensity(rng, sp, density)
		b := randomDenseDensity(rng, sp, 0.4)
		want := minus(a, b)
		got := a.Clone()
		remaining := got.DifferenceSparse(b)
		if !got.Equal(want) {
			t.Fatalf("density %v: DifferenceSparse disagrees with DifferenceWith", density)
		}
		if remaining != want.Count() {
			t.Fatalf("density %v: remaining=%d want %d", density, remaining, want.Count())
		}
	}
}

func TestExistsAxisSparseMatchesExistsAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, shape := range []struct{ k, n int }{{1, 4}, {2, 6}, {3, 5}, {4, 3}} {
		sp, err := NewSpace(shape.k, shape.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, density := range []float64{0, 0.001, 0.02, 0.5} {
			d := randomDenseDensity(rng, sp, density)
			for axis := 0; axis < shape.k; axis++ {
				want := d.ExistsAxis(axis)
				got := d.ExistsAxisSparse(axis)
				if !got.Equal(want) {
					t.Fatalf("k=%d n=%d density=%v axis=%d: ExistsAxisSparse disagrees",
						shape.k, shape.n, density, axis)
				}
			}
		}
	}
}
