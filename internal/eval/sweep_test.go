package eval

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
)

// paramReachPFP builds a PFP query with one parameter variable y:
//
//	[pfp S(x). x=y ∨ ∃z(E(z,x) ∧ S(z))](x)
//
// (S(z) spelled with the width-preserving substitution ∃x(x=z ∧ S(x))).
// The body is monotone, so every per-assignment run converges and the
// answer is { (x, y) | y reaches x } — one independent fixpoint run per
// value of y, which is exactly the sweep sweepPFP runs.
func paramReachPFP() logic.Query {
	body := logic.Or(
		logic.Equal("x", "y"),
		logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))
	return logic.MustQuery([]logic.Var{"x", "y"}, logic.Pfp("S", []logic.Var{"x"}, body, "x"))
}

// paramReachPFPNeg is paramReachPFP with the disjunct S(x) ∧ ¬S(x), false
// at every stage: its stages and limit are paramReachPFP's, but its body is
// negative in S, so the compiled engine keeps the PFP and its per-assignment
// sweep instead of lowering it to the LFP it equals.
func paramReachPFPNeg() logic.Query {
	q := paramReachPFP()
	fx := q.Body.(logic.Fix)
	fx.Body = logic.Or(fx.Body, logic.And(logic.R("S", "x"), logic.Neg(logic.R("S", "x"))))
	return logic.MustQuery(q.Head, fx)
}

// paramOscillatingPFP builds a PFP query whose per-assignment run has period
// 2 (stages ∅, {y}, ∅, …), so every per-assignment limit is empty:
//
//	[pfp S(x). x=y ∧ ¬S(x)](x)
func paramOscillatingPFP() logic.Query {
	body := logic.And(logic.Equal("x", "y"), logic.Neg(logic.R("S", "x")))
	return logic.MustQuery([]logic.Var{"x", "y"}, logic.Pfp("S", []logic.Var{"x"}, body, "x"))
}

// concurrently runs fn(0), …, fn(n-1) on n goroutines at once and waits for
// all of them: evaluations running beside each other, as a server's requests
// do. fn reports with t.Error, never t.Fatal.
func concurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// TestPFPSweepAgreesWithNaive checks the parameter sweep of both evaluators —
// the formula walker's and the plan executor's, one sweepPFP — against the
// environment-recursion oracle under both cycle detectors: a convergent
// sweep, the same sweep with a body negative in S (which the compiled engine
// does not lower to an LFP), and a sweep whose every run oscillates.
func TestPFPSweepAgreesWithNaive(t *testing.T) {
	queries := map[string]logic.Query{
		"reach": paramReachPFP(), "reach-neg": paramReachPFPNeg(), "oscillating": paramOscillatingPFP(),
	}
	dbs := []*database.Database{lineGraph(t, 6), randomGraph(t, rand.New(rand.NewSource(46)), 5)}
	for name, q := range queries {
		for _, db := range dbs {
			want, err := Naive(q, db)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []CycleMode{CycleHash, CycleBrent} {
				opts := &Options{PFPCycle: mode}
				bu, _, err := BottomUpStats(q, db, opts)
				if err != nil {
					t.Fatal(err)
				}
				co, _, err := CompiledStats(q, db, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bu.Equal(want) || !co.Equal(want) {
					t.Fatalf("%s, cycle mode %d: bottomup %v, compiled %v, naive %v on\n%s", name, mode, bu, co, want, db)
				}
			}
		}
	}
}
