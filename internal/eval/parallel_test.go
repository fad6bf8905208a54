package eval

import (
	"testing"

	"repro/internal/logic"
)

// paramReachPFP builds a PFP query with one parameter variable y:
//
//	[pfp S(x). x=y ∨ ∃z(E(z,x) ∧ S(z))](x)
//
// (S(z) spelled with the width-preserving substitution ∃x(x=z ∧ S(x))).
// The body is monotone, so every per-assignment run converges and the
// answer is { (x, y) | y reaches x } — one independent fixpoint run per
// value of y, which is exactly the sweep the parallel PFP evaluator
// distributes over workers.
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

// TestParallelPFPMatchesSerial checks the determinism contract of the
// parallel parameter sweep: for every Parallelism setting the answer AND the
// Stats counters are identical to the fully serial evaluation, because the
// n^|ȳ| per-assignment runs are independent and land in disjoint parameter
// sections of the output.
func TestParallelPFPMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    logic.Query
	}{
		{"reach", paramReachPFP()},
		{"oscillating", paramOscillatingPFP()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := lineGraph(t, 7)
			serial, serialStats, err := BottomUpStats(tc.q, db, &Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 4, 0} {
				par, parStats, err := BottomUpStats(tc.q, db, &Options{Parallelism: p})
				if err != nil {
					t.Fatalf("Parallelism=%d: %v", p, err)
				}
				if !par.Equal(serial) {
					t.Fatalf("Parallelism=%d: answer %v differs from serial %v", p, par, serial)
				}
				if parStats.FixIterations != serialStats.FixIterations {
					t.Fatalf("Parallelism=%d: FixIterations=%d, serial=%d",
						p, parStats.FixIterations, serialStats.FixIterations)
				}
				if parStats.SubformulaEvals != serialStats.SubformulaEvals {
					t.Fatalf("Parallelism=%d: SubformulaEvals=%d, serial=%d",
						p, parStats.SubformulaEvals, serialStats.SubformulaEvals)
				}
			}
		})
	}
}

// TestParallelPFPAgreesWithNaive cross-validates the parallel sweep against
// the environment-recursion oracle on a small instance.
func TestParallelPFPAgreesWithNaive(t *testing.T) {
	q := paramReachPFP()
	db := lineGraph(t, 4)
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := BottomUpStats(q, db, &Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("parallel PFP = %v, naive = %v", got, want)
	}
}

// TestParallelPFPBrent runs the sweep under Brent cycle detection as well.
func TestParallelPFPBrent(t *testing.T) {
	for _, q := range []logic.Query{paramReachPFP(), paramOscillatingPFP()} {
		db := lineGraph(t, 6)
		serial, _, err := BottomUpStats(q, db, &Options{Parallelism: 1, PFPCycle: CycleBrent})
		if err != nil {
			t.Fatal(err)
		}
		par, _, err := BottomUpStats(q, db, &Options{Parallelism: 3, PFPCycle: CycleBrent})
		if err != nil {
			t.Fatal(err)
		}
		if !par.Equal(serial) {
			t.Fatalf("Brent: parallel answer %v differs from serial %v", par, serial)
		}
	}
}
