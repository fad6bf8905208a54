// Largegraph: the n^k wall and the sparse backend that breaks it. A width-3
// query over a 50,000-node domain denotes subsets of a 50,000³-point space —
// 1.25 × 10¹⁴ bits, about 14 TiB, four orders of magnitude past what the
// dense full-width engine of Proposition 3.1 can allocate. Yet the query
// itself only ever touches a few hundred thousand tuples: on sparse data the
// paper's nᵏ bound is a worst case, not a cost floor. The adaptive backend
// evaluates the same compiled plan over sorted tuple blocks, so the answer
// arrives in milliseconds inside a few dozen megabytes.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/workload"
)

func main() {
	const n = 50000

	// A random digraph with 250,000 edges: density 250000/n² = 10⁻⁴. Each
	// node has ~5 neighbors — the space is astronomically bigger than the
	// data, which is exactly the regime the sparse backend exists for.
	random := workload.SparseDigraph(1, n, 5)
	// A forest of 8-node paths: bounded reachability, so even transitive
	// closure stays small (≤ 8n pairs) on a 50,000-node domain.
	forest := workload.ForestGraph(n, 8)

	// Two-hop neighborhoods of the ~500 P-marked source nodes.
	twoHop := logic.MustQuery([]logic.Var{"x", "y"},
		logic.And(logic.R("P", "x"),
			logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("E", "z", "y")), "z")))
	tc := logic.MustQuery([]logic.Var{"x", "y"},
		logic.Lfp("T", []logic.Var{"x", "y"},
			logic.Or(logic.R("E", "x", "y"),
				logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
			"x", "y"))

	// The dense engine cannot even allocate the space — the n^k wall is a
	// hard error, not a slowdown.
	_, _, err := eval.CompiledStats(twoHop, random, &eval.Options{Backend: eval.BackendDense})
	if err == nil {
		log.Fatal("dense backend unexpectedly accepted a 50000^3 space")
	}
	fmt.Printf("dense backend at n=%d: %v\n\n", n, err)

	// The same queries through the adaptive backend (auto routes them
	// sparse: the space is infeasible, the data is not).
	start := time.Now()
	ans, st, err := eval.CompiledStats(twoHop, random, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-hop from the P-sources over %d random edges: %d pairs in %s\n",
		250000, ans.Len(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  tuples touched: %d — versus the 1.25e14 points of the dense space\n\n",
		st.TuplesTouched)

	start = time.Now()
	ans, st, err = eval.CompiledStats(tc, forest, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transitive closure over the %d-node forest: %d pairs in %s\n",
		n, ans.Len(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  fixpoint stages: %d, tuples touched: %d\n",
		st.FixIterations, st.TuplesTouched)
	fmt.Println("\nthe nᵏ bound of Proposition 3.1 is a worst case, not a cost floor:")
	fmt.Println("on sparse data the same compiled plan evaluates in the size of what")
	fmt.Println("it touches.")
}
