// Work pinning for the plan executor: answers are covered by the
// differential suites, this table fixes the *work* — the full Stats struct
// and the (Fixpoint, Op, Stage, Tuples, Delta) sequence of stage events —
// for a fixed set of (query, database, backend) cases, so a change to the
// executor that keeps answers but moves a counter or reorders a stage is
// caught by name. Regenerate with `go test -run TestPinnedWork -pin.print`
// only when a counter is meant to move, and say so in the change.
package eval

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

var pinPrint = flag.Bool("pin.print", false, "print the pinned-work table instead of asserting it")

// pinTrace renders stage events as "S/lfp 1:1+1 2:3+2 …", one group per
// maximal run of events with the same fixpoint and stage numbering restart
// (PFP sweeps restart per parameter assignment).
func pinTrace(events []TraceEvent) string {
	var sb strings.Builder
	for i, ev := range events {
		if ev.Engine != "compiled" {
			return fmt.Sprintf("event %d from engine %q", i, ev.Engine)
		}
		if i == 0 || ev.Stage == 1 || ev.Fixpoint != events[i-1].Fixpoint {
			if i > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%s/%s", ev.Fixpoint, ev.Op)
		}
		fmt.Fprintf(&sb, " %d:%d%+d", ev.Stage, ev.Tuples, ev.Delta)
	}
	return sb.String()
}

type pinCase struct {
	name string
	// run evaluates with the given options and returns the run's Stats.
	run  func(t *testing.T, opts *Options) *Stats
	opts Options
}

// pinned is one recorded outcome: the full Stats struct (%+v) and the stage
// sequence (pinTrace).
type pinned struct{ stats, trace string }

func pinEval(q logic.Query, db *database.Database) func(*testing.T, *Options) *Stats {
	return func(t *testing.T, opts *Options) *Stats {
		t.Helper()
		_, st, err := CompiledStats(q, db, opts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
}

// pinStream drains the enumeration API, so the streamed/skipped counters are
// part of the pinned work.
func pinStream(q logic.Query, db *database.Database, offset int) func(*testing.T, *Options) *Stats {
	return func(t *testing.T, opts *Options) *Stats {
		t.Helper()
		p, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		en, st, err := EvalPlanEnum(context.Background(), p, db, opts)
		if err != nil {
			t.Fatal(err)
		}
		en.Skip(offset)
		for {
			if _, ok := en.Next(); !ok {
				break
			}
		}
		if err := en.Err(); err != nil {
			t.Fatal(err)
		}
		en.Close()
		return st
	}
}

// pinMaintained captures on lineGraph(30), applies the TestMaintainTCInsert
// delta and pins the delta-restart run.
func pinMaintained(t *testing.T, opts *Options) *Stats {
	t.Helper()
	ctx := context.Background()
	db := lineGraph(t, 30)
	p := mustCompile(t, tcLFP())
	capOpts := *opts
	capOpts.Observe = nil
	_, _, state, err := EvalPlanCapture(ctx, p, db, &capOpts)
	if err != nil || state == nil {
		t.Fatalf("capture: state=%v err=%v", state, err)
	}
	db2, _, err := db.Apply([]database.Update{{Relation: "E", Insert: []relation.Tuple{{15, 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	_, st, _, err := EvalPlanMaintained(ctx, p, db2, opts, state)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// twoBranchDB is the path 0 → 1 → … → 11 with its even steps in E, its odd
// ones in F and P = {11}: a two-branch LFP reaches back along both.
func twoBranchDB() *database.Database {
	b := database.NewBuilder().Relation("E", 2).Relation("F", 2).Relation("P", 1)
	for i := 0; i < 12; i++ {
		b.Domain(i)
	}
	for i := 0; i < 11; i++ {
		b.Add([]string{"E", "F"}[i%2], i, i+1)
	}
	return b.Add("P", 11).MustBuild()
}

func pinCases(t *testing.T) []pinCase {
	x, y, z, u := logic.Var("x"), logic.Var("y"), logic.Var("z"), logic.Var("u")
	line12 := lineGraph(t, 12)
	line8 := lineDB(8)
	forest := forestDB(12, 4)
	tcI := tcIFP()
	reachIFPNeg := logic.MustQuery([]logic.Var{u},
		logic.Ifp("S", []logic.Var{x}, logic.And(logic.R("P", x), logic.Neg(logic.R("S", x))), u))
	gfp := logic.MustQuery([]logic.Var{x},
		logic.Gfp("S", []logic.Var{x},
			logic.And(logic.Neg(logic.R("P", x)),
				logic.Forall(logic.Implies(logic.R("E", y, x), logic.R("S", y)), y)), x))
	pfpParam := logic.MustQuery([]logic.Var{u, y},
		logic.Pfp("S", []logic.Var{x},
			logic.Or(logic.R("S", x),
				logic.Exists(logic.And(logic.R("E", z, x),
					logic.And(logic.R("E", z, y),
						logic.Exists(logic.And(logic.Equal(x, z), logic.R("S", x)), x))), z)), u))
	nested := compiledSuite()[9]
	twoHop := logic.MustQuery([]logic.Var{x, y},
		logic.Exists(logic.And(logic.R("E", x, z), logic.R("E", z, y)), z))
	twoBranch, err := parser.ParseQuery("(u). [lfp T(x). P(x) | (exists y. E(x, y) & T(y)) | (exists y. F(x, y) & T(y))](u)")
	if err != nil {
		t.Fatal(err)
	}
	foNeg := logic.MustQuery([]logic.Var{x, y},
		logic.And(logic.R("E", x, y), logic.Neg(logic.Exists(logic.R("E", y, z), z))))

	dense := Options{Backend: BackendDense}
	sparse := Options{Backend: BackendSparse}
	auto := Options{}
	return []pinCase{
		{name: "tc-line12/dense", run: pinEval(tcQuery(), line12), opts: dense},
		{name: "tc-line12/sparse", run: pinEval(tcQuery(), line12), opts: sparse},
		{name: "tc-line12/auto", run: pinEval(tcQuery(), line12), opts: auto},
		{name: "tc-line30-maintained/dense", run: pinMaintained, opts: dense},
		{name: "reach-line8/dense", run: pinEval(reachQuery(), line8), opts: dense},
		{name: "reach-line8/sparse", run: pinEval(reachQuery(), line8), opts: sparse},
		{name: "tc-ifp-forest/dense", run: pinEval(tcI, forest), opts: dense},
		{name: "tc-ifp-forest/sparse", run: pinEval(tcI, forest), opts: sparse},
		{name: "ifp-neg-forest/dense", run: pinEval(reachIFPNeg, forest), opts: dense},
		{name: "ifp-neg-forest/sparse", run: pinEval(reachIFPNeg, forest), opts: sparse},
		{name: "gfp-forest/dense", run: pinEval(gfp, forest), opts: dense},
		{name: "nested-gfp-lfp-line8/auto", run: pinEval(nested, line8), opts: auto},
		// Independent dirty nodes in one stage: the two branches of the body.
		{name: "two-branch-lfp/dense", run: pinEval(twoBranch, twoBranchDB()), opts: dense},
		{name: "pfp-param-forest/dense", run: pinEval(pfpParam, forestDB(6, 3)), opts: dense},
		// The same reachability with a body negative in S: the sweep stays.
		{name: "pfp-neg-param-forest/dense", run: pinEval(paramReachPFPNeg(), forestDB(6, 3)), opts: dense},
		{name: "pfp-counter-ordered6/auto", run: pinEval(counterQuery(), orderedDomain(t, 6)), opts: auto},
		{name: "two-hop-forest/sparse", run: pinEval(twoHop, forest), opts: sparse},
		{name: "fo-neg-forest/sparse", run: pinEval(foNeg, forest), opts: sparse},
		{name: "stream-tc-forest/dense", run: pinStream(tcQuery(), forest, 3), opts: dense},
		{name: "stream-tc-forest/sparse", run: pinStream(tcQuery(), forest, 3), opts: sparse},
		{name: "stream-two-hop-forest/sparse", run: pinStream(twoHop, forest, 2), opts: sparse},
		// 200³ bits with a sparse edge set: auto takes the all-sparse route.
		{name: "tc-forest200/auto", run: pinEval(tcQuery(), forestDB(200, 10)), opts: auto},
		// A GFP has no sparse route: auto is the dense run, 200³ bits a node, the
		// recursion-free two-hop included (a sparse frontier until PR 28).
		{name: "gfp-two-hop-forest200/auto", run: pinEval(gfpTwoHop(), forestDB(200, 10)), opts: auto},
		// auto takes the sparse route, the tiny budget overruns inside the
		// stage loop, and the loop is handed to the dense algebra from its last
		// whole stage.
		{name: "tc-forest410/auto-budget-fallback", run: pinEval(tcQuery(), forestDB(410, 10)),
			opts: Options{sparseBudget: 100}},
	}
}

// TestPinnedWork asserts the recorded Stats and stage sequences. The numbers
// were recorded from the two-executor implementation (one stage loop per
// representation) before the executors were unified, and must not move with
// the representation-agnostic scheduler: same work, not just same answers.
func TestPinnedWork(t *testing.T) {
	for _, tc := range pinCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && strings.HasPrefix(tc.name, "tc-forest410") {
				t.Skip("69M-bit dense rerun; skipped in -short")
			}
			sink := newSink()
			opts := tc.opts
			opts.Observe = sink.Observer
			st := tc.run(t, &opts)
			gotStats := fmt.Sprintf("%+v", *st)
			gotTrace := pinTrace(sink.Log)
			if *pinPrint {
				fmt.Printf("PIN\t%q: {\n\t\t%q,\n\t\t%q},\n", tc.name, gotStats, gotTrace)
				return
			}
			want, ok := pinnedWork[tc.name]
			if !ok {
				t.Fatalf("no pinned record for %s (run with -pin.print)", tc.name)
			}
			if gotStats != want.stats {
				t.Errorf("stats moved:\n got %s\nwant %s", gotStats, want.stats)
			}
			if gotTrace != want.trace {
				t.Errorf("stage sequence moved:\n got %s\nwant %s", gotTrace, want.trace)
			}
		})
	}
}

// pinnedWork is the recorded table, keyed by case name.
var pinnedWork = map[string]pinned{
	"tc-line12/dense": {
		"{SubformulaEvals:48 FixIterations:12 MaxIntermediateArity:3 MaxIntermediateTuples:792 NodesReused:24 DeltaTuples:66 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"T/lfp 1:11+11 2:21+10 3:30+9 4:38+8 5:45+7 6:51+6 7:56+5 8:60+4 9:63+3 10:65+2 11:66+1 12:66+0"},
	"tc-line12/sparse": {
		"{SubformulaEvals:48 FixIterations:12 MaxIntermediateArity:3 MaxIntermediateTuples:66 NodesReused:24 DeltaTuples:66 TuplesTouched:330 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"T/lfp 1:11+11 2:21+10 3:30+9 4:38+8 5:45+7 6:51+6 7:56+5 8:60+4 9:63+3 10:65+2 11:66+1 12:66+0"},
	"tc-line12/auto": {
		"{SubformulaEvals:50 FixIterations:12 MaxIntermediateArity:3 MaxIntermediateTuples:792 NodesReused:24 DeltaTuples:62 TuplesTouched:236 RepSwitches:1 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"T/lfp 1:11+11 2:21+10 3:30+9 4:38+8 5:45+7 6:51+6 7:56+5 8:60+4 9:63+3 10:65+2 11:66+1 12:66+0"},
	"tc-line30-maintained/dense": {
		"{SubformulaEvals:58 FixIterations:14 MaxIntermediateArity:3 MaxIntermediateTuples:15780 NodesReused:28 DeltaTuples:91 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:1 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"T/lfp 1:448+13 2:460+12 3:471+11 4:481+10 5:490+9 6:498+8 7:505+7 8:511+6 9:516+5 10:520+4 11:523+3 12:525+2 13:526+1 14:526+0"},
	"reach-line8/dense": {
		"{SubformulaEvals:55 FixIterations:9 MaxIntermediateArity:2 MaxIntermediateTuples:64 NodesReused:27 DeltaTuples:8 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"S/lfp 1:1+1 2:2+1 3:3+1 4:4+1 5:5+1 6:6+1 7:7+1 8:8+1 9:8+0"},
	"reach-line8/sparse": {
		"{SubformulaEvals:55 FixIterations:9 MaxIntermediateArity:2 MaxIntermediateTuples:8 NodesReused:27 DeltaTuples:8 TuplesTouched:70 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"S/lfp 1:1+1 2:2+1 3:3+1 4:4+1 5:5+1 6:6+1 7:7+1 8:8+1 9:8+0"},
	"tc-ifp-forest/dense": {
		"{SubformulaEvals:16 FixIterations:4 MaxIntermediateArity:3 MaxIntermediateTuples:216 NodesReused:8 DeltaTuples:18 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"T/ifp 1:9+9 2:15+6 3:18+3 4:18+0"},
	"tc-ifp-forest/sparse": {
		"{SubformulaEvals:16 FixIterations:4 MaxIntermediateArity:3 MaxIntermediateTuples:18 NodesReused:8 DeltaTuples:18 TuplesTouched:90 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"T/ifp 1:9+9 2:15+6 3:18+3 4:18+0"},
	"ifp-neg-forest/dense": {
		"{SubformulaEvals:8 FixIterations:2 MaxIntermediateArity:1 MaxIntermediateTuples:12 NodesReused:2 DeltaTuples:0 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"S/ifp 1:3+3 2:3+0"},
	"ifp-neg-forest/sparse": {
		"{SubformulaEvals:8 FixIterations:2 MaxIntermediateArity:1 MaxIntermediateTuples:3 NodesReused:2 DeltaTuples:0 TuplesTouched:15 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"S/ifp 1:3+3 2:3+0"},
	"gfp-forest/dense": {
		"{SubformulaEvals:25 FixIterations:5 MaxIntermediateArity:2 MaxIntermediateTuples:144 NodesReused:10 DeltaTuples:0 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"S/gfp 1:9-3 2:6-3 3:3-3 4:0-3 5:0+0"},
	"nested-gfp-lfp-line8/auto": {
		"{SubformulaEvals:13 FixIterations:3 MaxIntermediateArity:2 MaxIntermediateTuples:64 NodesReused:8 DeltaTuples:8 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"T/lfp 1:8+8 2:8+0 | S/gfp 1:8+0"},
	"two-branch-lfp/dense": {
		"{SubformulaEvals:62 FixIterations:13 MaxIntermediateArity:2 MaxIntermediateTuples:144 NodesReused:39 DeltaTuples:12 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"T/lfp 1:1+1 2:2+1 3:3+1 4:4+1 5:5+1 6:6+1 7:7+1 8:8+1 9:9+1 10:10+1 11:11+1 12:12+1 13:12+0"},
	// The body is positive in S: compiled as the LFP it equals, one stage
	// over the extended arity instead of one sweep per parameter value.
	"pfp-param-forest/dense": {
		"{SubformulaEvals:11 FixIterations:1 MaxIntermediateArity:3 MaxIntermediateTuples:36 NodesReused:3 DeltaTuples:0 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"S/lfp 1:0+0"},
	"pfp-neg-param-forest/dense": {
		"{SubformulaEvals:166 FixIterations:18 MaxIntermediateArity:3 MaxIntermediateTuples:216 NodesReused:54 DeltaTuples:0 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"S/pfp 1:1+1 2:2+1 3:3+1 4:3+0 | S/pfp 1:1+1 2:2+1 3:2+0 | S/pfp 1:1+1 2:1+0 | S/pfp 1:1+1 2:2+1 3:3+1 4:3+0 | S/pfp 1:1+1 2:2+1 3:2+0 | S/pfp 1:1+1 2:1+0"},
	"pfp-counter-ordered6/auto": {
		"{SubformulaEvals:837 FixIterations:64 MaxIntermediateArity:2 MaxIntermediateTuples:36 NodesReused:256 DeltaTuples:0 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"S/pfp 1:1+1 2:1+0 3:2+1 4:1-1 5:2+1 6:2+0 7:3+1 8:1-2 9:2+1 10:2+0 11:3+1 12:2-1 13:3+1 14:3+0 15:4+1 16:1-3 17:2+1 18:2+0 19:3+1 20:2-1 21:3+1 22:3+0 23:4+1 24:2-2 25:3+1 26:3+0 27:4+1 28:3-1 29:4+1 30:4+0 31:5+1 32:1-4 33:2+1 34:2+0 35:3+1 36:2-1 37:3+1 38:3+0 39:4+1 40:2-2 41:3+1 42:3+0 43:4+1 44:3-1 45:4+1 46:4+0 47:5+1 48:2-3 49:3+1 50:3+0 51:4+1 52:3-1 53:4+1 54:4+0 55:5+1 56:3-2 57:4+1 58:4+0 59:5+1 60:4-1 61:5+1 62:5+0 63:6+1 64:0-6"},
	"two-hop-forest/sparse": {
		"{SubformulaEvals:4 FixIterations:0 MaxIntermediateArity:3 MaxIntermediateTuples:9 NodesReused:0 DeltaTuples:0 TuplesTouched:30 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		""},
	"fo-neg-forest/sparse": {
		"{SubformulaEvals:5 FixIterations:0 MaxIntermediateArity:2 MaxIntermediateTuples:9 NodesReused:0 DeltaTuples:0 TuplesTouched:39 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		""},
	"stream-tc-forest/dense": {
		"{SubformulaEvals:16 FixIterations:4 MaxIntermediateArity:3 MaxIntermediateTuples:216 NodesReused:8 DeltaTuples:18 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:15 TuplesSkipped:3 NodesShared:0}",
		"T/lfp 1:9+9 2:15+6 3:18+3 4:18+0"},
	"stream-tc-forest/sparse": {
		"{SubformulaEvals:16 FixIterations:4 MaxIntermediateArity:3 MaxIntermediateTuples:18 NodesReused:8 DeltaTuples:18 TuplesTouched:90 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:15 TuplesSkipped:3 NodesShared:0}",
		"T/lfp 1:9+9 2:15+6 3:18+3 4:18+0"},
	"stream-two-hop-forest/sparse": {
		"{SubformulaEvals:4 FixIterations:0 MaxIntermediateArity:3 MaxIntermediateTuples:9 NodesReused:0 DeltaTuples:0 TuplesTouched:30 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:4 TuplesSkipped:2 NodesShared:0}",
		""},
	"tc-forest200/auto": {
		"{SubformulaEvals:40 FixIterations:10 MaxIntermediateArity:3 MaxIntermediateTuples:900 NodesReused:20 DeltaTuples:900 TuplesTouched:4500 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"T/lfp 1:180+180 2:340+160 3:480+140 4:600+120 5:700+100 6:780+80 7:840+60 8:880+40 9:900+20 10:900+0"},
	"gfp-two-hop-forest200/auto": {
		"{SubformulaEvals:36 FixIterations:6 MaxIntermediateArity:3 MaxIntermediateTuples:8000000 NodesReused:12 DeltaTuples:0 TuplesTouched:0 RepSwitches:0 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"S/gfp 1:160-40 2:120-40 3:80-40 4:40-40 5:0-40 6:0+0"},
	"tc-forest410/auto-budget-fallback": {
		"{SubformulaEvals:40 FixIterations:10 MaxIntermediateArity:3 MaxIntermediateTuples:756450 NodesReused:20 DeltaTuples:1845 TuplesTouched:0 RepSwitches:1 AcyclicFastPath:0 MaintainedFromDelta:0 TuplesStreamed:0 TuplesSkipped:0 NodesShared:0}",
		"T/lfp 1:369+369 2:697+328 3:984+287 4:1230+246 5:1435+205 6:1599+164 7:1722+123 8:1804+82 9:1845+41 10:1845+0"},
}
