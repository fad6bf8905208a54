package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/mucalc"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Record is one machine-readable benchmark measurement: a (workload, engine,
// size) cell with its timing and the engine's work counters. Output is one
// JSON object per line (JSON Lines), so downstream tooling can stream-filter
// with jq without loading the whole run.
type Record struct {
	Bench   string  `json:"bench"`             // workload id: tc-lfp, reach-lfp, mu-fp2, pfp-grow, sparse-*, churn-tc, stream-2hop
	Engine  string  `json:"engine"`            // bottomup, compiled, monotone
	Backend string  `json:"backend,omitempty"` // compiled-engine relation backend (dense, sparse, auto)
	Mode    string  `json:"mode,omitempty"`    // churn benches: recompute or maintain; stream benches: materialize, stream-*
	Query   string  `json:"query"`             // concrete query text
	DB      string  `json:"db"`                // database family
	N       int     `json:"n"`                 // domain size
	Limit   int     `json:"limit,omitempty"`   // stream-limit benches: the LIMIT-k window
	Reps    int     `json:"reps"`              // timed repetitions averaged over
	NsPerOp float64 `json:"ns_per_op"`
	Answer  int     `json:"answer_tuples"`
	// PeakHeapBytes is the HeapAlloc high-water mark observed while one
	// untimed evaluation ran (sampled at 1ms, after a GC baseline), and
	// AllocBytes the TotalAlloc delta of that run — the memory story behind
	// the n^k wall, measured rather than asserted.
	PeakHeapBytes uint64     `json:"peak_heap_bytes"`
	AllocBytes    uint64     `json:"alloc_bytes"`
	Stats         *statsJSON `json:"stats,omitempty"`
}

// statsJSON mirrors eval.Stats with snake_case keys. nodes_reused and
// delta_tuples are reported by the compiled engine only (hoisted plan nodes
// served without recomputation; tuples pushed through semi-naive deltas) and
// stay zero elsewhere.
type statsJSON struct {
	SubformulaEvals       int64 `json:"subformula_evals"`
	FixIterations         int64 `json:"fix_iterations"`
	MaxIntermediateArity  int64 `json:"max_intermediate_arity"`
	MaxIntermediateTuples int64 `json:"max_intermediate_tuples"`
	NodesReused           int64 `json:"nodes_reused"`
	DeltaTuples           int64 `json:"delta_tuples"`
	TuplesTouched         int64 `json:"tuples_touched"`
	RepSwitches           int64 `json:"rep_switches"`
	AcyclicFastPath       int64 `json:"acyclic_fast_path"`
	MaintainedFromDelta   int64 `json:"maintained_from_delta,omitempty"`
}

func toStatsJSON(st *eval.Stats) *statsJSON {
	if st == nil {
		return nil
	}
	return &statsJSON{
		SubformulaEvals:       st.SubformulaEvals,
		FixIterations:         st.FixIterations,
		MaxIntermediateArity:  st.MaxIntermediateArity,
		MaxIntermediateTuples: st.MaxIntermediateTuples,
		NodesReused:           st.NodesReused,
		DeltaTuples:           st.DeltaTuples,
		TuplesTouched:         st.TuplesTouched,
		RepSwitches:           st.RepSwitches,
		AcyclicFastPath:       st.AcyclicFastPath,
		MaintainedFromDelta:   st.MaintainedFromDelta,
	}
}

// Meta is the leading line of a -json run: when and on what the numbers
// were taken, so archived benchmark files (scripts/bench_trajectory.sh's
// BENCH_<pr>.json) are comparable across machines and revisions without
// out-of-band notes.
type Meta struct {
	Meta      bool   `json:"meta"` // always true; discriminates from Record lines
	Date      string `json:"date"` // RFC 3339 UTC
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"` // VCS commit, "-dirty" suffixed
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Quick     bool   `json:"quick"`
}

func metaRecord(quick bool) Meta {
	m := Meta{
		Meta:      true,
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Quick:     quick,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			m.Revision = rev + dirty
		}
	}
	return m
}

// runJSON executes the engine-comparison workloads and prints one Record per
// line, after a leading Meta line. It replaces the human-readable sweeps
// entirely: -json is for CI and EXPERIMENTS.md regeneration, where parsing
// prose tables is the enemy.
func runJSON(quick bool) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(metaRecord(quick)); err != nil {
		die(err)
	}
	for _, r := range jsonRecords(quick) {
		if err := enc.Encode(r); err != nil {
			die(err)
		}
	}
}

func jsonRecords(quick bool) []Record {
	var recs []Record
	recs = append(recs, benchTCLFP(quick)...)
	recs = append(recs, benchReachLFP(quick)...)
	recs = append(recs, benchMuFP2(quick)...)
	recs = append(recs, benchPFPGrow(quick)...)
	recs = append(recs, benchSparse(quick)...)
	recs = append(recs, benchChurn(quick)...)
	return recs
}

// measure times fn until it has run at least three times and consumed
// ~200ms, then returns the mean ns/op with the rep count.
func measure(fn func()) (float64, int) {
	const minReps = 3
	const budget = 200 * time.Millisecond
	var reps int
	start := time.Now()
	for reps < minReps || time.Since(start) < budget {
		fn()
		reps++
		if reps >= 1000 {
			break
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps), reps
}

// measureMem runs fn once, untimed, and returns its HeapAlloc high-water
// mark (sampled at 1ms over a GC'd baseline) and TotalAlloc delta. The
// sampler goroutine never runs during the timed reps, so memory and latency
// measurements do not perturb each other.
func measureMem(fn func()) (peak, alloc uint64) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	peak = before.HeapAlloc
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > atomic.LoadUint64(&peak) {
					atomic.StoreUint64(&peak, ms.HeapAlloc)
				}
			}
		}
	}()
	fn()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > atomic.LoadUint64(&peak) {
		atomic.StoreUint64(&peak, after.HeapAlloc)
	}
	close(done)
	<-sampled
	p := atomic.LoadUint64(&peak)
	if p > before.HeapAlloc {
		p -= before.HeapAlloc
	} else {
		p = 0
	}
	return p, after.TotalAlloc - before.TotalAlloc
}

// engineRecords runs q on db under each engine, checks that all answers
// agree, and returns one Record per engine.
func engineRecords(bench, dbName string, n int, q logic.Query, db *database.Database, engines []string) []Record {
	var recs []Record
	baseline := -1
	for _, name := range engines {
		engine, err := bvq.EngineByName(name)
		die(err)
		var tuples int
		var st *eval.Stats
		nsPerOp, reps := measure(func() {
			a, s, err := bvq.EvalStats(q, db, engine, nil)
			die(err)
			tuples = a.Len()
			st = s
		})
		if baseline < 0 {
			baseline = tuples
		} else if tuples != baseline {
			die(fmt.Errorf("%s n=%d: engine %s disagrees (%d tuples, want %d)", bench, n, name, tuples, baseline))
		}
		rec := Record{Bench: bench, Engine: name, Query: q.String(), DB: dbName, N: n,
			Reps: reps, NsPerOp: nsPerOp, Answer: tuples, Stats: toStatsJSON(st)}
		rec.PeakHeapBytes, rec.AllocBytes = measureMem(func() {
			_, _, err := bvq.EvalStats(q, db, engine, nil)
			die(err)
		})
		recs = append(recs, rec)
	}
	return recs
}

// tcQuery is binary transitive closure T(x,y) ≡ E(x,y) ∨ ∃z(E(x,z) ∧
// T(z,y)) — the canonical semi-naive showcase: the delta frontier is one
// diagonal band per stage on a line graph, while full re-evaluation redoes
// the n³-point join every stage.
func tcQuery() logic.Query {
	return logic.MustQuery([]logic.Var{"x", "y"},
		logic.Lfp("T", []logic.Var{"x", "y"},
			logic.Or(logic.R("E", "x", "y"),
				logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
			"x", "y"))
}

// reachQuery is single-source reachability as a width-3 LFP with a unary
// recursion relation — deltas still apply, but hoisting and delta savings
// are smaller relative to the per-stage dense projection.
func reachQuery() logic.Query {
	return logic.MustQuery([]logic.Var{"u"},
		logic.Lfp("S", []logic.Var{"x"},
			logic.Or(logic.R("P", "x"),
				logic.Exists(logic.And(logic.R("E", "z", "x"),
					logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z")), "u"))
}

func benchTCLFP(quick bool) []Record {
	sizes := []int{32, 64, 96}
	if quick {
		sizes = []int{16, 32}
	}
	q := tcQuery()
	var recs []Record
	for _, n := range sizes {
		db := workload.LineGraph(n)
		// Monotone materializes sparse n²-tuple sets per stage and falls
		// behind by an order of magnitude here; bottomup is the meaningful
		// dense baseline.
		recs = append(recs, engineRecords("tc-lfp", "line", n, q, db,
			[]string{"bottomup", "compiled"})...)
	}
	return recs
}

func benchReachLFP(quick bool) []Record {
	sizes := []int{32, 64, 128}
	if quick {
		sizes = []int{16, 32}
	}
	q := reachQuery()
	var recs []Record
	for _, n := range sizes {
		db := workload.LineGraph(n)
		recs = append(recs, engineRecords("reach-lfp", "line", n, q, db,
			[]string{"bottomup", "compiled", "monotone"})...)
	}
	return recs
}

func benchMuFP2(quick bool) []Record {
	sizes := []int{16, 32, 64}
	if quick {
		sizes = []int{8, 16}
	}
	f := mucalc.InfinitelyOften(mucalc.Prop{Name: "p"})
	body, err := mucalc.ToFP2(f)
	die(err)
	q := logic.MustQuery([]logic.Var{"x"}, body)
	var recs []Record
	for _, n := range sizes {
		k := workload.RandomKripke(int64(n), n, 3)
		db, err := k.ToDatabase("p")
		die(err)
		// InfinitelyOften alternates ν/µ (depth 2): Monotone refuses it, so
		// the comparison is bottomup vs compiled dirty-node re-evaluation.
		recs = append(recs, engineRecords("mu-fp2", "kripke", n, q, db,
			[]string{"bottomup", "compiled"})...)
	}
	return recs
}

// backendRecords runs q on db through the compiled engine under each listed
// backend, cross-checks answers between the backends that ran, and returns
// one Record per backend with timing, memory and sparse-work statistics.
func backendRecords(bench, dbName string, n int, q logic.Query, db *database.Database, backends []eval.Backend) []Record {
	var recs []Record
	baseline := -1
	for _, b := range backends {
		opts := &eval.Options{Backend: b}
		var tuples int
		var st *eval.Stats
		nsPerOp, reps := measure(func() {
			a, s, err := eval.CompiledStats(q, db, opts)
			die(err)
			tuples = a.Len()
			st = s
		})
		if baseline < 0 {
			baseline = tuples
		} else if tuples != baseline {
			die(fmt.Errorf("%s n=%d: backend %s disagrees (%d tuples, want %d)", bench, n, b, tuples, baseline))
		}
		rec := Record{Bench: bench, Engine: "compiled", Backend: b.String(), Query: q.String(),
			DB: dbName, N: n, Reps: reps, NsPerOp: nsPerOp, Answer: tuples, Stats: toStatsJSON(st)}
		rec.PeakHeapBytes, rec.AllocBytes = measureMem(func() {
			_, _, err := eval.CompiledStats(q, db, opts)
			die(err)
		})
		recs = append(recs, rec)
	}
	return recs
}

// twoHopQuery is the acyclic path CQ (x, y) ← ∃z. E(x,z) ∧ E(z,y), already
// written with the three variables it needs.
func twoHopQuery() logic.Query {
	return logic.MustQuery([]logic.Var{"x", "y"},
		logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("E", "z", "y")), "z"))
}

// benchSparse is the n^k-wall sweep: the k=3 transitive-closure fixpoint and
// the acyclic two-hop join over forests whose closures stay small however
// large the domain grows. Dense runs only where its n³-bit space is modest
// (n ≤ 256); the sparse backend continues to n = 10,000 — 10¹² dense bits,
// two orders of magnitude past relation.MaxDenseBits — where the dense
// column is structurally absent rather than merely slow.
func benchSparse(quick bool) []Record {
	sizes := []int{64, 256, 2000, 10000}
	if quick {
		sizes = []int{64, 256, 1000}
	}
	const denseMax = 256
	tc := tcQuery()
	hop := twoHopQuery()
	var recs []Record
	for _, n := range sizes {
		db := workload.ForestGraph(n, 8)
		backends := []eval.Backend{eval.BackendSparse}
		if n <= denseMax {
			backends = []eval.Backend{eval.BackendDense, eval.BackendSparse}
		}
		recs = append(recs, backendRecords("sparse-tc", "forest", n, tc, db, backends)...)
		recs = append(recs, backendRecords("sparse-2hop", "forest", n, hop, db, backends)...)
	}
	return recs
}

// benchChurn is the incremental-maintenance story: transitive closure on a
// line graph, then a one-edge insert (a self-loop, whose effective TC delta
// is a single tuple). "recompute" evaluates the updated database from
// scratch; "maintain" restarts the fixpoint from the pre-update stage
// relation (eval.EvalPlanMaintained) — what bvqd runs on the first
// result-cache miss after an update. Both modes must produce the same answer; the ratio of their
// ns_per_op is the payoff of delta-restart on small deltas.
func benchChurn(quick bool) []Record {
	sizes := []int{64, 96, 128}
	if quick {
		sizes = []int{32, 64}
	}
	q := tcQuery()
	p, err := plan.Compile(q)
	die(err)
	opts := &eval.Options{Backend: eval.BackendDense}
	ctx := context.Background()
	var recs []Record
	for _, n := range sizes {
		db := workload.LineGraph(n)
		_, _, state, err := eval.EvalPlanCapture(ctx, p, db, opts)
		die(err)
		next, delta, err := db.Apply([]database.Update{
			{Relation: "E", Insert: []relation.Tuple{{n / 2, n / 2}}},
		})
		die(err)
		if !eval.CanMaintain(p, delta) {
			die(fmt.Errorf("churn-tc n=%d: insert-only TC delta should be maintainable", n))
		}
		var want string
		for _, mode := range []string{"recompute", "maintain"} {
			var tuples int
			var st *eval.Stats
			nsPerOp, reps := measure(func() {
				var a *relation.Set
				var err error
				if mode == "maintain" {
					a, st, _, err = eval.EvalPlanMaintained(ctx, p, next, opts, state)
				} else {
					a, st, err = eval.EvalPlanContext(ctx, p, next, opts)
				}
				die(err)
				tuples = a.Len()
				if want == "" {
					want = a.String()
				} else if got := a.String(); got != want {
					die(fmt.Errorf("churn-tc n=%d: %s answer diverges from recompute", n, mode))
				}
			})
			rec := Record{Bench: "churn-tc", Engine: "compiled", Backend: "dense", Mode: mode,
				Query: q.String(), DB: "line", N: n, Reps: reps, NsPerOp: nsPerOp,
				Answer: tuples, Stats: toStatsJSON(st)}
			rec.PeakHeapBytes, rec.AllocBytes = measureMem(func() {
				if mode == "maintain" {
					_, _, _, err := eval.EvalPlanMaintained(ctx, p, next, opts, state)
					die(err)
				} else {
					_, _, err := eval.EvalPlanContext(ctx, p, next, opts)
					die(err)
				}
			})
			recs = append(recs, rec)
		}
	}
	return recs
}

func benchPFPGrow(quick bool) []Record {
	sizes := []int{32, 64, 128}
	if quick {
		sizes = []int{16, 32}
	}
	q := logic.MustQuery([]logic.Var{"u"},
		logic.Pfp("S", []logic.Var{"x"},
			logic.Or(logic.R("S", "x"), logic.Or(logic.R("P", "x"),
				logic.Exists(logic.And(logic.R("E", "z", "x"),
					logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))), "u"))
	var recs []Record
	for _, n := range sizes {
		db := workload.LineGraph(n)
		recs = append(recs, engineRecords("pfp-grow", "line", n, q, db,
			[]string{"bottomup", "compiled"})...)
	}
	return recs
}
