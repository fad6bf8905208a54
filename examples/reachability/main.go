// Reachability: the §2.2 variable-reuse example. "x reaches y in exactly m
// steps" is naively an (m+1)-variable query; reusing variables expresses it
// in FO³. The generic (naive) evaluator is exponential in the quantifier
// nesting either way — bounding the number of variables pays off only with
// the bottom-up algorithm of Proposition 3.1, which evaluates the FO³ form
// in time linear in m. The compiled engine's LFP transitive closure
// cross-checks answers.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/queryopt"
	"repro/internal/relation"
	"repro/internal/workload"
)

func main() {
	small := workload.LineGraph(10)
	fmt.Println("generic (naive) evaluation, 10-node line graph — exponential in m:")
	fmt.Printf("%3s  %15s  %15s\n", "m", "naive, m+1 vars", "naive, 3 vars")
	for _, m := range []int{2, 3, 4} {
		narrow, err := queryopt.ChainToFO3(m)
		if err != nil {
			log.Fatal(err)
		}
		tWide := timeIt(func() { mustEval(eval.Naive, wideQuery(m), small) })
		tNarrow := timeIt(func() { mustEval(eval.Naive, narrow, small) })
		fmt.Printf("%3d  %15s  %15s\n", m, tWide, tNarrow)
	}

	big := workload.LineGraph(64)
	fmt.Println("\nbounded-variable bottom-up evaluation (Prop. 3.1), 64-node line graph —")
	fmt.Println("linear in m at fixed width 3:")
	fmt.Printf("%4s  %12s  %8s\n", "m", "bottomup", "answers")
	for _, m := range []int{4, 16, 32, 63} {
		narrow, err := queryopt.ChainToFO3(m)
		if err != nil {
			log.Fatal(err)
		}
		var ans *relation.Set
		t := timeIt(func() { ans = mustEval(eval.BottomUp, narrow, big) })
		fmt.Printf("%4d  %12s  %8d\n", m, t, ans.Len())
	}

	// Correctness cross-check at m = 4 on the small graph: the wide and narrow
	// forms agree, and every pair lies in the transitive closure, computed as
	// an LFP on the compiled engine.
	m := 4
	narrow, _ := queryopt.ChainToFO3(m)
	ansBU := mustEval(eval.BottomUp, narrow, small)
	ansNaive := mustEval(eval.Naive, wideQuery(m), small)
	if !ansBU.Equal(ansNaive) {
		log.Fatal("wide and narrow forms disagree")
	}
	closure := mustEval(eval.Compiled, logic.MustQuery([]logic.Var{"x", "y"},
		logic.Lfp("R", []logic.Var{"x", "y"},
			logic.Or(logic.R("E", "x", "y"),
				logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("R", "z", "y")), "z")),
			"x", "y")), small)
	ansBU.ForEach(func(t relation.Tuple) {
		if !closure.Contains(t) {
			log.Fatalf("m=%d: pair %v is not in the transitive closure", m, t)
		}
	})
	fmt.Printf("\nm=%d: %d pairs, all contained in the compiled engine's LFP transitive closure (%d pairs)\n",
		m, ansBU.Len(), closure.Len())
}

func mustEval(engine func(logic.Query, *bvq.Database) (*relation.Set, error), q bvq.Query, db *bvq.Database) *relation.Set {
	ans, err := engine(q, db)
	if err != nil {
		log.Fatal(err)
	}
	return ans
}

// wideQuery builds the naive (m+1)-variable form:
// ∃z₁…z_{m−1} (E(x,z₁) ∧ … ∧ E(z_{m−1},y)).
func wideQuery(m int) bvq.Query {
	vars := make([]logic.Var, m+1)
	vars[0] = "x"
	vars[m] = "y"
	for i := 1; i < m; i++ {
		vars[i] = logic.Var(fmt.Sprintf("z%d", i))
	}
	conj := make([]logic.Formula, m)
	for i := 0; i < m; i++ {
		conj[i] = logic.R("E", vars[i], vars[i+1])
	}
	return logic.MustQuery([]logic.Var{"x", "y"}, logic.Exists(logic.And(conj...), vars[1:m]...))
}

func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start).Round(10 * time.Microsecond)
}
