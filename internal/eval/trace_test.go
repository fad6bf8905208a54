package eval

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
)

// stageLog is an observer that keeps every stage event in Log, in arrival
// order, through the observer's onStage hook.
type stageLog struct {
	*Observer
	Log []TraceEvent
}

// newSink returns an observer that logs every stage event.
func newSink() *stageLog {
	s := &stageLog{Observer: NewObserver(false)}
	s.onStage = func(ev TraceEvent) { s.Log = append(s.Log, ev) }
	return s
}

func traceDB(t *testing.T) *database.Database {
	t.Helper()
	db, err := database.Parse(`
domain = {0, 1, 2, 3, 4}
E/2 = {(0, 1), (1, 2), (2, 3), (3, 4)}
P/1 = {(0)}
`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func traceReachQuery() logic.Query {
	return logic.MustQuery([]logic.Var{"u"},
		logic.Lfp("S", []logic.Var{"x"},
			logic.Or(logic.R("P", "x"),
				logic.Exists(logic.And(logic.R("E", "z", "x"),
					logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z")), "u"))
}

// TestTracerLFPStages checks the per-engine stage streams against the
// FixIterations counter and the LFP chain invariants: 1-based consecutive
// stage indices, non-negative deltas, tuple counts that accumulate them.
func TestTracerLFPStages(t *testing.T) {
	db := traceDB(t)
	q := traceReachQuery()
	runs := []struct {
		name string
		run  func(opts *Options) (*Stats, error)
	}{
		{"bottomup", func(opts *Options) (*Stats, error) { _, st, err := BottomUpStats(q, db, opts); return st, err }},
		{"compiled", func(opts *Options) (*Stats, error) { _, st, err := CompiledStats(q, db, opts); return st, err }},
		{"monotone", func(opts *Options) (*Stats, error) {
			_, st, err := MonotoneContext(context.Background(), q, db, opts)
			return st, err
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			sink := newSink()
			st, err := r.run(&Options{Observe: sink.Observer})
			if err != nil {
				t.Fatal(err)
			}
			events := sink.Log
			if len(events) == 0 {
				t.Fatal("tracer never fired")
			}
			if int64(len(events)) != st.FixIterations {
				t.Fatalf("events = %d, FixIterations = %d", len(events), st.FixIterations)
			}
			tuples := 0
			for i, ev := range events {
				if ev.Engine != r.name || ev.Op != "lfp" || ev.Fixpoint != "S" {
					t.Fatalf("event %d = %+v", i, ev)
				}
				if ev.Stage != i+1 {
					t.Fatalf("event %d: stage %d, want %d", i, ev.Stage, i+1)
				}
				if ev.Delta < 0 {
					t.Fatalf("event %d: negative LFP delta %d", i, ev.Delta)
				}
				tuples += ev.Delta
				if ev.Tuples != tuples {
					t.Fatalf("event %d: tuples %d, deltas sum to %d", i, ev.Tuples, tuples)
				}
				if ev.Elapsed < 0 {
					t.Fatalf("event %d: negative elapsed %v", i, ev.Elapsed)
				}
			}
			if last := events[len(events)-1]; last.Delta != 0 {
				t.Fatalf("converging stage has delta %d, want 0", last.Delta)
			}
		})
	}
}

// TestTracerPFP checks that PFP stage events flow from both dense engines,
// with per-run restarting stage indices.
func TestTracerPFP(t *testing.T) {
	db := traceDB(t)
	// The body reads S under a negation (∃z(E(z,x) ∧ ¬S(z)), with S(x) keeping
	// the stages increasing), so the compiled engine runs it as a PFP; a body
	// positive in S would run as the LFP it equals.
	q := logic.MustQuery([]logic.Var{"u"},
		logic.Pfp("S", []logic.Var{"x"},
			logic.Or(logic.R("S", "x"), logic.Or(logic.R("P", "x"),
				logic.Exists(logic.And(logic.R("E", "z", "x"),
					logic.Neg(logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x"))), "z"))), "u"))
	for _, engine := range []string{"bottomup", "compiled"} {
		t.Run(engine, func(t *testing.T) {
			sink := newSink()
			opts := &Options{Observe: sink.Observer}
			var st *Stats
			var err error
			if engine == "bottomup" {
				_, st, err = BottomUpStats(q, db, opts)
			} else {
				_, st, err = CompiledStats(q, db, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			events := sink.Log
			if int64(len(events)) != st.FixIterations {
				t.Fatalf("events = %d, FixIterations = %d", len(events), st.FixIterations)
			}
			for i, ev := range events {
				if ev.Op != "pfp" || ev.Engine != engine {
					t.Fatalf("event %d = %+v", i, ev)
				}
			}
		})
	}
}

// TestTracerParallelPFPSweep runs traced parametrized PFPs in several
// evaluations at once, each with its own observer: each one's events are a
// lone run's (the sweep is deterministic), and the concurrent evaluations are
// the -race fodder.
func TestTracerParallelPFPSweep(t *testing.T) {
	db := traceDB(t)
	// One parameter variable y makes the sweep n parameter assignments wide.
	q := logic.MustQuery([]logic.Var{"u", "y"},
		logic.Pfp("S", []logic.Var{"x"},
			logic.Or(logic.R("S", "x"), logic.Or(logic.R("E", "y", "x"),
				logic.Exists(logic.And(logic.R("E", "z", "x"),
					logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))), "u"))
	lone := newSink()
	_, stLone, err := BottomUpStats(q, db, &Options{Observe: lone.Observer})
	if err != nil {
		t.Fatal(err)
	}
	concurrently(4, func(i int) {
		sink := newSink()
		_, st, err := BottomUpStats(q, db, &Options{Observe: sink.Observer})
		if err != nil {
			t.Error(err)
		} else if st.FixIterations != stLone.FixIterations || !slices.EqualFunc(sink.Log, lone.Log, sameStage) {
			t.Errorf("evaluation %d: %d stages in %d events, a lone run %d in %d",
				i, st.FixIterations, len(sink.Log), stLone.FixIterations, len(lone.Log))
		}
	})
}

// sameStage compares two stage events but for their timing.
func sameStage(a, b TraceEvent) bool {
	a.Elapsed, b.Elapsed = 0, 0
	return a == b
}

// TestTracerNilIsIgnored locks the zero-cost contract's functional half:
// observing a run changes nothing about answers or statistics.
func TestTracerNilIsIgnored(t *testing.T) {
	db := traceDB(t)
	q := traceReachQuery()
	ansTraced, stTraced, err := BottomUpStats(q, db, &Options{Observe: NewObserver(true)})
	if err != nil {
		t.Fatal(err)
	}
	ansPlain, stPlain, err := BottomUpStats(q, db, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ansTraced.Equal(ansPlain) {
		t.Fatal("the observer changed the answer")
	}
	if stTraced.FixIterations != stPlain.FixIterations || stTraced.SubformulaEvals != stPlain.SubformulaEvals {
		t.Fatalf("the observer changed stats: %+v vs %+v", stTraced, stPlain)
	}
}

// TestStageFoldParallelMatchesSerial folds the stages of a PFP sweep — every
// parameter assignment's run of one fixpoint — and checks the totals: the
// fold keys the compiled engine's events by binder and the plan-less engines'
// by (engine, relation, op), and either way the sweep's events land in one
// entry. Four evaluations at once, each with its own fold, the -race fodder,
// fold what a lone one does.
func TestStageFoldParallelMatchesSerial(t *testing.T) {
	db := lineGraph(t, 7)
	q := paramReachPFPNeg()
	for _, engine := range []string{"bottomup", "compiled"} {
		t.Run(engine, func(t *testing.T) {
			run := func() (FixStages, *Stats, error) {
				fold := NewObserver(false)
				opts := &Options{Observe: fold}
				var st *Stats
				var err error
				if engine == "bottomup" {
					_, st, err = BottomUpStats(q, db, opts)
				} else {
					_, st, err = CompiledStats(q, db, opts)
				}
				if err != nil {
					return FixStages{}, nil, err
				}
				if fix := fold.Fix; len(fix) != 1 {
					return FixStages{}, nil, fmt.Errorf("%d fixpoints folded, want the one PFP: %+v", len(fix), fix)
				}
				return fold.Fix[0], st, nil
			}
			serial, st, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if serial.Engine != engine || serial.Fixpoint != "S" || serial.Op != "pfp" || serial.First.IsZero() {
				t.Fatalf("fixpoint identity = %+v", serial)
			}
			if (serial.Binder >= 0) != (engine == "compiled") {
				t.Fatalf("binder = %d for engine %s", serial.Binder, engine)
			}
			if serial.Stages == 0 || serial.Stages != st.FixIterations {
				t.Fatalf("stages = %d, FixIterations = %d", serial.Stages, st.FixIterations)
			}
			concurrently(4, func(i int) {
				par, _, err := run()
				if err != nil {
					t.Error(err)
				} else if par.Stages != serial.Stages || par.DeltaTuples != serial.DeltaTuples {
					t.Errorf("evaluation %d totals stages=%d Σ|Δ|=%d, a lone run's stages=%d Σ|Δ|=%d",
						i, par.Stages, par.DeltaTuples, serial.Stages, serial.DeltaTuples)
				}
			})
		})
	}
}

// TestNodeCountsScheduleFree checks explain's per-node counts: a counter per
// plan node, and every node computed as often in evaluations running beside
// each other as in a lone one, on either route.
func TestNodeCountsScheduleFree(t *testing.T) {
	db := traceDB(t)
	paramPFP := logic.MustQuery([]logic.Var{"u", "y"},
		logic.Pfp("S", []logic.Var{"x"},
			logic.Or(logic.R("P", "x"), logic.Or(logic.R("E", "y", "x"),
				logic.Exists(logic.And(logic.R("E", "z", "x"),
					logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))), "u"))
	for name, q := range map[string]logic.Query{"reach": traceReachQuery(), "tc": tcLFP(), "pfp": paramPFP} {
		p, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []Backend{BackendDense, BackendAuto} {
			counts := func() ([]int64, error) {
				obs := NewObserver(true)
				_, _, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: backend, Observe: obs})
				return obs.Evals, err
			}
			lone, err := counts()
			if err != nil {
				t.Fatal(err)
			}
			if len(lone) != len(p.Nodes) {
				t.Fatalf("%s/%s: %d node counters for %d nodes", name, backend, len(lone), len(p.Nodes))
			}
			concurrently(3, func(i int) {
				if got, err := counts(); err != nil {
					t.Error(err)
				} else if !slices.Equal(got, lone) {
					t.Errorf("%s/%s: evaluation %d computed nodes %v times, a lone run %v", name, backend, i, got, lone)
				}
			})
		}
	}
}
