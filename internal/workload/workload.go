// Package workload generates the deterministic (seeded) inputs used by the
// examples, the benchmark harness and the integration tests: graphs, the
// §1 corporate database, Kripke structures, and wrappers around the
// instance generators of the reduction packages.
package workload

import (
	"math/rand"

	"repro/internal/database"
	"repro/internal/mucalc"
)

// LineGraph is the path 0 → 1 → … → n−1 with P = {0}.
func LineGraph(n int) *database.Database {
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	for i := 0; i+1 < n; i++ {
		b.Add("E", i, i+1)
	}
	if n > 0 {
		b.Add("P", 0)
	}
	return b.MustBuild()
}

// CycleGraph is the directed n-cycle with P = {0}.
func CycleGraph(n int) *database.Database {
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
		b.Add("E", i, (i+1)%n)
	}
	if n > 0 {
		b.Add("P", 0)
	}
	return b.MustBuild()
}

// RandomGraph is a digraph on n nodes where each edge appears with
// probability 1/edgeInv, and each node carries P with probability 1/2.
func RandomGraph(seed int64, n, edgeInv int) *database.Database {
	r := rand.New(rand.NewSource(seed))
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Intn(edgeInv) == 0 {
				b.Add("E", i, j)
			}
		}
		if r.Intn(2) == 0 {
			b.Add("P", i)
		}
	}
	return b.MustBuild()
}

// ForestGraph is the disjoint union of ⌈n/block⌉ directed paths, each on
// `block` consecutive nodes, with P marking the path roots. Its transitive
// closure has at most n·block pairs regardless of n, which makes it the
// canonical large-domain workload for the sparse backend: the n² (or nᵏ)
// space is astronomically bigger than anything the query ever touches.
func ForestGraph(n, block int) *database.Database {
	if block < 1 {
		block = 1
	}
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
		if i%block == 0 {
			b.Add("P", i)
		} else {
			b.Add("E", i-1, i)
		}
	}
	return b.MustBuild()
}

// SparseDigraph draws a random digraph with expected out-degree deg by
// sampling ⌊n·deg⌋ directed edges uniformly (self-loops excluded,
// duplicates deduplicated by the database). Unlike RandomGraph it costs
// O(edges), not O(n²), so it scales to the 10⁴–10⁵ node domains the sparse
// backend exists for. Keep deg below 1 for bounded reachability: past the
// ~1/node percolation threshold the transitive closure is Θ(n²) tuples no
// matter how sparse the edge set looks.
func SparseDigraph(seed int64, n int, deg float64) *database.Database {
	r := rand.New(rand.NewSource(seed))
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	edges := int(float64(n) * deg)
	for e := 0; e < edges; e++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			b.Add("E", u, v)
		}
	}
	for i := 0; i < n; i += 97 {
		b.Add("P", i)
	}
	return b.MustBuild()
}

// Corporate is the §1 EMP/MGR/SCY/SAL database: employees 0..ne−1,
// departments ne…, each department with a manager and the manager with a
// secretary, every employee with a department and a salary. SAL2 duplicates
// SAL so conjunctive queries can mention it twice under different names.
func Corporate(seed int64, ne int) *database.Database {
	r := rand.New(rand.NewSource(seed))
	nd := 1 + ne/3
	b := database.NewBuilder().
		Relation("EMP", 2).Relation("MGR", 2).Relation("SCY", 2).
		Relation("SAL", 2).Relation("SAL2", 2)
	for d := 0; d < nd; d++ {
		m := r.Intn(ne)
		b.Add("MGR", ne+d, m)
		b.Add("SCY", m, r.Intn(ne))
	}
	salBase := ne + nd
	for e := 0; e < ne; e++ {
		b.Add("EMP", e, ne+r.Intn(nd))
		s := salBase + r.Intn(8)
		b.Add("SAL", e, s)
		b.Add("SAL2", e, s)
	}
	return b.MustBuild()
}

// RandomKripke is a Kripke structure on n states with edge probability
// 1/edgeInv and propositions p (probability 1/2) and q (probability 1/3).
func RandomKripke(seed int64, n, edgeInv int) *mucalc.Kripke {
	r := rand.New(rand.NewSource(seed))
	k := mucalc.NewKripke(n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if r.Intn(edgeInv) == 0 {
				k.AddEdge(s, t)
			}
		}
		if r.Intn(2) == 0 {
			k.Label(s, "p")
		}
		if r.Intn(3) == 0 {
			k.Label(s, "q")
		}
	}
	return k
}
