package eval

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/plan"
)

// tcQuery is transitive closure, the canonical workload where semi-naive
// deltas shrink stage work: T(x,y) ≡ E(x,y) ∨ ∃z(E(x,z) ∧ T(z,y)).
func tcQuery() logic.Query {
	body := logic.Lfp("T", []logic.Var{"x", "y"},
		logic.Or(logic.R("E", "x", "y"),
			logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
		"x", "y")
	return logic.MustQuery([]logic.Var{"x", "y"}, body)
}

// compiledSuite is the fixed query set the compiled engine is differentially
// tested on: FO connectives, every fixpoint operator, parameters, nesting,
// and non-monotone IFP bodies.
func compiledSuite() []logic.Query {
	nested := func() logic.Query {
		inner := logic.Lfp("T", []logic.Var{"z"},
			logic.Forall(logic.Implies(logic.R("E", "z", "y"),
				logic.Or(logic.R("S", "y"), logic.And(logic.R("P", "y"), logic.R("T", "y")))), "y"),
			"x")
		return logic.MustQuery([]logic.Var{"u"},
			logic.Gfp("S", []logic.Var{"x"}, inner, "u"))
	}
	return []logic.Query{
		logic.MustQuery([]logic.Var{"x", "y"}, logic.R("E", "x", "y")),
		logic.MustQuery([]logic.Var{"x"},
			logic.Forall(logic.Implies(logic.R("E", "x", "y"), logic.R("P", "y")), "y")),
		logic.MustQuery([]logic.Var{"x", "y"},
			logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("E", "z", "y")), "z")),
		tcQuery(),
		reachQuery(),
		logic.MustQuery([]logic.Var{"u"}, logic.Ifp("S", []logic.Var{"x"}, reachBody(), "u")),
		logic.MustQuery([]logic.Var{"u"},
			logic.Ifp("S", []logic.Var{"x"},
				logic.And(logic.R("P", "x"), logic.Neg(logic.R("S", "x"))), "u")),
		logic.MustQuery([]logic.Var{"x"},
			logic.Gfp("S", []logic.Var{"x"},
				logic.And(logic.R("P", "x"),
					logic.Exists(logic.And(logic.R("E", "x", "y"), logic.R("S", "y")), "y")), "x")),
		// Parameterized lfp: y free in the body extends the stage relation.
		logic.MustQuery([]logic.Var{"y"},
			logic.Exists(logic.Lfp("S", []logic.Var{"x"},
				logic.Or(logic.Equal("x", "y"),
					logic.Exists(logic.And(logic.R("E", "z", "x"),
						logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z")),
				"x"), "x")),
		nested(),
	}
}

func TestCompiledMatchesBottomUpSuite(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for qi, q := range compiledSuite() {
		for trial := 0; trial < 6; trial++ {
			var db = randomGraph(t, r, 2+r.Intn(4))
			if trial == 0 {
				db = lineGraph(t, 6)
			}
			bu, bst, err := BottomUpStats(q, db, nil)
			if err != nil {
				t.Fatalf("query %d: BottomUp: %v", qi, err)
			}
			co, cst, err := CompiledStats(q, db, nil)
			if err != nil {
				t.Fatalf("query %d: Compiled: %v", qi, err)
			}
			if !co.Equal(bu) {
				t.Fatalf("query %d (%s): Compiled %v != BottomUp %v on\n%s", qi, q, co, bu, db)
			}
			// Incremental evaluation must never take extra stages: the stage
			// sequences coincide, and hoisting can only remove inner re-runs.
			if cst.FixIterations > bst.FixIterations {
				t.Fatalf("query %d: compiled FixIterations %d > bottomup %d",
					qi, cst.FixIterations, bst.FixIterations)
			}
		}
	}
}

func TestCompiledHoistingAndDeltaCounters(t *testing.T) {
	db := lineGraph(t, 12)
	q := tcQuery()
	bu, bst, err := BottomUpStats(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	co, cst, err := CompiledStats(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !co.Equal(bu) {
		t.Fatalf("answers differ: %v vs %v", co, bu)
	}
	if cst.NodesReused == 0 {
		t.Fatal("NodesReused = 0: the E atoms must be hoisted across stages")
	}
	if cst.DeltaTuples == 0 {
		t.Fatal("DeltaTuples = 0: transitive closure must run semi-naive")
	}
	// TC stage sequences are identical, so iteration counts match exactly.
	if cst.FixIterations != bst.FixIterations {
		t.Fatalf("FixIterations %d != %d", cst.FixIterations, bst.FixIterations)
	}
	// Hoisting and delta reuse must cut subformula work on a 13-stage lfp.
	if cst.SubformulaEvals >= bst.SubformulaEvals {
		t.Fatalf("compiled SubformulaEvals %d >= bottomup %d",
			cst.SubformulaEvals, bst.SubformulaEvals)
	}
}

// TestCompiledParallelDeterministic evaluates a fixpoint whose dirty DAG has
// independent branches in several evaluations at once: each one's answer and
// every Stats counter must be a lone run's, since evaluations share nothing
// that they write.
func TestCompiledParallelDeterministic(t *testing.T) {
	body := logic.Or(
		logic.Or(logic.R("P", "x"),
			logic.Exists(logic.And(logic.R("E", "x", "y"), logic.R("S", "y")), "y")),
		logic.Exists(logic.And(logic.R("E", "y", "x"), logic.R("S", "y")), "y"))
	q := logic.MustQuery([]logic.Var{"x"},
		logic.Lfp("S", []logic.Var{"x"}, body, "x"))
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		db := randomGraph(t, r, 3+r.Intn(4))
		ref, refStats, err := CompiledStats(q, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		concurrently(4, func(i int) {
			got, st, err := CompiledStats(q, db, nil)
			if err != nil {
				t.Error(err)
			} else if !got.Equal(ref) || *st != *refStats {
				t.Errorf("evaluation %d: %v with %+v, a lone run %v with %+v", i, got, st, ref, refStats)
			}
		})
	}
}

func TestCompiledContextCancelled(t *testing.T) {
	db := lineGraph(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := CompiledContext(ctx, reachQuery(), db, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCompiledContextDeadlineMidPFP(t *testing.T) {
	q := counterQuery()
	db := orderedDomain(t, 18)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	ans, st, err := CompiledContext(ctx, q, db, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if ans != nil {
		t.Fatal("cancelled evaluation returned an answer")
	}
	if st == nil || st.FixIterations == 0 {
		t.Fatalf("partial stats missing: %+v", st)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestCompiledPFPBudget(t *testing.T) {
	q := counterQuery()
	db := orderedDomain(t, 12) // 2^12 stages
	_, _, err := CompiledStats(q, db, &Options{pfpBudget: 100})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// Under a sufficient budget the run agrees with BottomUp.
	small := orderedDomain(t, 6)
	bu, _, err := BottomUpStats(q, small, nil)
	if err != nil {
		t.Fatal(err)
	}
	co, _, err := CompiledStats(q, small, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !co.Equal(bu) {
		t.Fatalf("PFP counter: %v vs %v", co, bu)
	}
}

func TestCompiledPFPParallelSweep(t *testing.T) {
	// A parametrized PFP forces the per-assignment sweep; several compiled
	// sweeps at once each answer as BottomUp does.
	body := logic.Or(
		logic.R("S", "x"),
		logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.And(logic.R("E", "z", "y"),
				logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x"))), "z"))
	q := logic.MustQuery([]logic.Var{"u", "y"},
		logic.Pfp("S", []logic.Var{"x"}, body, "u"))
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 5; trial++ {
		db := randomGraph(t, r, 3+r.Intn(3))
		bu, _, err := BottomUpStats(q, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		concurrently(3, func(int) {
			co, _, err := CompiledStats(q, db, nil)
			if err != nil {
				t.Error(err)
			} else if !co.Equal(bu) {
				t.Errorf("%v vs %v on\n%s", co, bu, db)
			}
		})
	}
}

// TestCompiledPlanReuse evaluates one compiled plan against several databases
// — the daemon's plan-cache pattern — and checks each run is independent.
func TestCompiledPlanReuse(t *testing.T) {
	p, err := plan.Compile(tcQuery())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		db := randomGraph(t, r, 2+r.Intn(5))
		bu, err := BottomUp(p.Query, db)
		if err != nil {
			t.Fatal(err)
		}
		co, _, err := EvalPlanContext(context.Background(), p, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !co.Equal(bu) {
			t.Fatalf("plan reuse trial %d: %v vs %v", trial, co, bu)
		}
	}
}

func benchTC(b *testing.B, n int, eval func(logic.Query) error) {
	q := tcQuery()
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eval(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransitiveClosure(b *testing.B) {
	for _, n := range []int{32, 64} {
		db := lineGraph(b, n)
		b.Run("bottomup/n="+itoa(n), func(b *testing.B) {
			benchTC(b, n, func(q logic.Query) error {
				_, err := BottomUp(q, db)
				return err
			})
		})
		b.Run("compiled/n="+itoa(n), func(b *testing.B) {
			benchTC(b, n, func(q logic.Query) error {
				_, err := Compiled(q, db)
				return err
			})
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
