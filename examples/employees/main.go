// Employees: the paper's §1 motivating example. The query "find employees
// who earn less than their manager's secretary" joins EMP, MGR, SCY and SAL
// (twice). The naive plan takes a 10-ary cross product; a better plan keeps
// every intermediate at arity ≤ 4 — and the compiled engine does that
// automatically: plan.Compile scopes each ∃ of the text over the atoms that
// need it, the variable-minimised form of §5, and runs that.
package main

import (
	"fmt"
	"log"

	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/queryopt"
	"repro/internal/relation"
	"repro/internal/workload"
)

func main() {
	// answer(e, se, ss) ← EMP(e,d), MGR(d,m), SCY(m,s), SAL(e,se), SAL2(s,ss)
	q := &queryopt.CQ{
		Head: []logic.Var{"e", "se", "ss"},
		Atoms: []queryopt.Atom{
			{Rel: "EMP", Vars: []logic.Var{"e", "d"}},
			{Rel: "MGR", Vars: []logic.Var{"d", "m"}},
			{Rel: "SCY", Vars: []logic.Var{"m", "s"}},
			{Rel: "SAL", Vars: []logic.Var{"e", "se"}},
			{Rel: "SAL2", Vars: []logic.Var{"s", "ss"}},
		},
	}
	// The text as written: (e, se, ss). ∃d ∃m ∃s (EMP(e,d) ∧ …), width 6.
	text, err := q.ToFO()
	if err != nil {
		log.Fatal(err)
	}
	for _, ne := range []int{6, 12, 24, 48} {
		db := workload.Corporate(1, ne)
		ans, st, err := eval.CompiledStats(text, db, nil)
		if err != nil {
			log.Fatal(err)
		}
		if st.AcyclicFastPath != 1 {
			log.Fatal("the compiled engine did not run the scoped plan")
		}
		// The naive plan's 10-ary product grows as ne⁵-ish; past a couple of
		// dozen employees it stops being runnable — which is the point.
		naiveCol := "     (skipped: too large)"
		if ne <= 24 {
			naive, naiveStats, err := queryopt.EvalNaive(q, db)
			if err != nil {
				log.Fatal(err)
			}
			if !naive.Equal(ans) {
				log.Fatalf("employees=%d: naive and compiled answers differ", ne)
			}
			naiveCol = fmt.Sprintf("max arity %2d, max tuples %7d",
				naiveStats.MaxIntermediateArity, naiveStats.MaxIntermediateTuples)
		}

		// The final selection se < ss is arithmetic, done outside the CQ.
		sel := relation.NewSet(1)
		ans.ForEach(func(t relation.Tuple) {
			if db.Value(t[1]) < db.Value(t[2]) {
				sel.Add(relation.Tuple{t[0]})
			}
		})
		fmt.Printf("employees=%3d  underpaid=%3d | naive: %s | compiled: max arity %2d, max tuples %5d\n",
			ne, sel.Len(), naiveCol, st.MaxIntermediateArity, st.MaxIntermediateTuples)
	}
	fmt.Println("\nThe naive plan materializes the paper's 10-ary product; the compiled")
	fmt.Println("engine runs the width-3 scoping of the same text and never exceeds")
	fmt.Println("arity 3 — intermediate-result minimization in action.")
}
