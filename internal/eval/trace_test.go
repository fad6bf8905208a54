package eval

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
)

// newSink returns an observer that logs every stage event.
func newSink() *Observer { return NewObserver(math.MaxInt, false) }

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
			st, err := r.run(&Options{Observe: sink})
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
	q := logic.MustQuery([]logic.Var{"u"},
		logic.Pfp("S", []logic.Var{"x"},
			logic.Or(logic.R("S", "x"), logic.Or(logic.R("P", "x"),
				logic.Exists(logic.And(logic.R("E", "z", "x"),
					logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))), "u"))
	for _, engine := range []string{"bottomup", "compiled"} {
		t.Run(engine, func(t *testing.T) {
			sink := newSink()
			opts := &Options{Observe: sink}
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

// TestTracerParallelPFPSweep runs a parametrized PFP with a worker pool and
// an observer: the event count must match the serial run (the sweep is
// deterministic), and the concurrent calls are the -race fodder.
func TestTracerParallelPFPSweep(t *testing.T) {
	db := traceDB(t)
	// One parameter variable y makes the sweep n parameter assignments wide.
	q := logic.MustQuery([]logic.Var{"u", "y"},
		logic.Pfp("S", []logic.Var{"x"},
			logic.Or(logic.R("S", "x"), logic.Or(logic.R("E", "y", "x"),
				logic.Exists(logic.And(logic.R("E", "z", "x"),
					logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))), "u"))
	serial := newSink()
	_, stSerial, err := BottomUpStats(q, db, &Options{Parallelism: 1, Observe: serial})
	if err != nil {
		t.Fatal(err)
	}
	parallel := newSink()
	_, stPar, err := BottomUpStats(q, db, &Options{Parallelism: 4, Observe: parallel})
	if err != nil {
		t.Fatal(err)
	}
	if stSerial.FixIterations != stPar.FixIterations {
		t.Fatalf("FixIterations diverge: serial %d, parallel %d", stSerial.FixIterations, stPar.FixIterations)
	}
	if len(serial.Log) != len(parallel.Log) {
		t.Fatalf("event counts diverge: serial %d, parallel %d", len(serial.Log), len(parallel.Log))
	}
}

// TestTracerNilIsIgnored locks the zero-cost contract's functional half:
// observing a run changes nothing about answers or statistics.
func TestTracerNilIsIgnored(t *testing.T) {
	db := traceDB(t)
	q := traceReachQuery()
	ansTraced, stTraced, err := BottomUpStats(q, db, &Options{Observe: NewObserver(0, true)})
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

// TestStageFoldParallelMatchesSerial feeds the fold from the parallel PFP
// sweep — four workers reporting stages of one fixpoint at once, the -race
// fodder — and checks its totals are the serial run's: the fold keys the
// compiled engine's events by binder and the plan-less engines' by (engine,
// relation, op), and either way the sweep's events land in one entry.
func TestStageFoldParallelMatchesSerial(t *testing.T) {
	db := lineGraph(t, 7)
	q := paramReachPFP()
	for _, engine := range []string{"bottomup", "compiled"} {
		t.Run(engine, func(t *testing.T) {
			run := func(parallelism int) (FixStages, *Stats) {
				t.Helper()
				fold := NewObserver(0, false)
				opts := &Options{Parallelism: parallelism, Observe: fold}
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
				fix := fold.Fix
				if len(fix) != 1 {
					t.Fatalf("Parallelism=%d: %d fixpoints folded, want the one PFP: %+v", parallelism, len(fix), fix)
				}
				if len(fold.Log) != 0 || fold.Truncated {
					t.Fatalf("a fold without a log kept %d events (truncated=%v)", len(fold.Log), fold.Truncated)
				}
				return fix[0], st
			}
			serial, st := run(1)
			if serial.Engine != engine || serial.Fixpoint != "S" || serial.Op != "pfp" || serial.First.IsZero() {
				t.Fatalf("fixpoint identity = %+v", serial)
			}
			if (serial.Binder >= 0) != (engine == "compiled") {
				t.Fatalf("binder = %d for engine %s", serial.Binder, engine)
			}
			if serial.Stages == 0 || serial.Stages != st.FixIterations {
				t.Fatalf("stages = %d, FixIterations = %d", serial.Stages, st.FixIterations)
			}
			par, _ := run(4)
			if par.Stages != serial.Stages || par.DeltaTuples != serial.DeltaTuples {
				t.Fatalf("parallel totals stages=%d Σ|Δ|=%d, serial stages=%d Σ|Δ|=%d",
					par.Stages, par.DeltaTuples, serial.Stages, serial.DeltaTuples)
			}
		})
	}
}

// TestStageFoldLogCap checks the raw event log: in arrival order, cut at its
// cap with the truncation flagged, while the totals keep counting.
func TestStageFoldLogCap(t *testing.T) {
	fold := NewObserver(3, false)
	if _, _, err := BottomUpStats(traceReachQuery(), traceDB(t), &Options{Observe: fold}); err != nil {
		t.Fatal(err)
	}
	events, truncated := fold.Log, fold.Truncated
	if len(events) != 3 || !truncated {
		t.Fatalf("log holds %d events (truncated=%v), want 3 and the flag", len(events), truncated)
	}
	for i, ev := range events {
		if ev.Stage != i+1 {
			t.Fatalf("event %d is stage %d", i, ev.Stage)
		}
	}
	if fix := fold.Fix; len(fix) != 1 || fix[0].Stages <= 3 || fix[0].Tuples != 5 || fix[0].DeltaTuples != 5 {
		t.Fatalf("totals = %+v, want every stage of the 5-element reach folded", fix)
	}
}

// TestNodeCountsScheduleFree checks explain's per-node counts: every plan
// node is computed as often under the wave scheduler and the parallel PFP
// sweep as in a serial run, on either route.
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
			var serial []int64
			for _, par := range []int{1, 2, 4} {
				obs := NewObserver(0, true)
				if _, _, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: backend, Parallelism: par, Observe: obs}); err != nil {
					t.Fatal(err)
				}
				if len(obs.Evals) != len(p.Nodes) {
					t.Fatalf("%s/%s: %d node counters for %d nodes", name, backend, len(obs.Evals), len(p.Nodes))
				}
				if par == 1 {
					serial = obs.Evals
				} else if !slices.Equal(obs.Evals, serial) {
					t.Errorf("%s/%s: node evals at parallelism %d = %v, serial %v", name, backend, par, obs.Evals, serial)
				}
			}
		}
	}
}
