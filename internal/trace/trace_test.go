package trace_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/trace"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *trace.Trace
	if tr.ID() != "" {
		t.Fatal("nil trace has an ID")
	}
	root := tr.Root()
	if root != nil {
		t.Fatal("nil trace has a root span")
	}
	// Every derived call must be a silent no-op.
	kid := root.Start("child")
	if kid != nil {
		t.Fatal("nil span started a child")
	}
	kid.Annotate("k", "v")
	kid.End()
	kid.AddChild(trace.SpanFixpoint, time.Now(), time.Millisecond, nil, trace.Counters{Stages: 1})
	tr.Keep("slow")
	tr.Close(time.Now())
	if v := tr.View(); v.TraceID != "" || len(v.Spans) != 0 {
		t.Fatalf("nil trace view = %+v", v)
	}
}

func TestCloseDropsLateMutation(t *testing.T) {
	tr := trace.New(trace.NewTraceID(), time.Now())
	root := tr.Root()
	ev := root.Start(trace.SpanEval)
	tr.Close(time.Now())

	// Everything after Close must be dropped: no new spans, no added
	// children, no annotations.
	before := len(tr.View().Spans)
	if s := root.Start("late"); s != nil {
		t.Fatal("Start after Close returned a live span")
	}
	ev.AddChild(trace.SpanFixpoint, time.Now(), time.Millisecond, nil, trace.Counters{Stages: 1, Tuples: 3, DeltaTuples: 3})
	root.Annotate("late", "x")
	v := tr.View()
	if len(v.Spans) != before {
		t.Fatalf("spans grew after Close: %d -> %d", before, len(v.Spans))
	}
	for _, s := range v.Spans {
		if s.Stages != 0 {
			t.Fatalf("child span added after Close: %+v", s)
		}
		for _, a := range s.Attrs {
			if a.Key == "late" {
				t.Fatal("annotation recorded after Close")
			}
		}
	}
	// Idempotent close must not move the end time.
	dur := v.DurMS
	time.Sleep(2 * time.Millisecond)
	tr.Close(time.Now())
	if got := tr.View().DurMS; got != dur {
		t.Fatalf("second Close moved DurMS %v -> %v", dur, got)
	}
}

// pfpDB builds a small digraph whose PFP parameter sweep has real work.
func pfpDB(t *testing.T, n int) *database.Database {
	t.Helper()
	b := database.NewBuilder().Relation("E", 2)
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	for i := 0; i < n; i++ {
		b.Add("E", i, (i+1)%n)
		b.Add("E", i, (i*3+1)%n)
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSpanTreeUnderParallelEval drives the compiled engine's stage loops (an
// LFP and a PFP parameter sweep), the two running beside each other, with an
// observer attached, adds the folded fixpoints as child spans the way bvqd
// does, and asserts the finished span tree is well formed.
func TestSpanTreeUnderParallelEval(t *testing.T) {
	db := pfpDB(t, 24)
	queries := map[string]logic.Query{
		"lfp-tc": logic.MustQuery([]logic.Var{"x", "y"},
			logic.Lfp("T", []logic.Var{"x", "y"},
				logic.Or(logic.R("E", "x", "y"),
					logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
				"x", "y")),
		"pfp": logic.MustQuery([]logic.Var{"x", "y"},
			logic.Pfp("S", []logic.Var{"x"},
				logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("S", "z")), "z"),
				"y")),
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := plan.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New(trace.NewTraceID(), time.Now())
			ev := tr.Root().Start(trace.SpanEval)
			obs := eval.NewObserver(false)
			opts := &eval.Options{Observe: obs}
			if _, _, err := eval.EvalPlanContext(context.Background(), p, db, opts); err != nil {
				t.Fatal(err)
			}
			ev.End()
			for _, fx := range obs.Fix {
				ev.AddChild(trace.SpanFixpoint, fx.First, fx.Busy,
					[]trace.Attr{{Key: "engine", Value: fx.Engine}, {Key: "fixpoint", Value: fx.Fixpoint}, {Key: "op", Value: fx.Op}},
					trace.Counters{Stages: fx.Stages, Tuples: fx.Tuples, DeltaTuples: fx.DeltaTuples})
			}
			tr.Close(time.Now())
			v := tr.View()
			if len(v.Spans) < 3 { // request, eval, >=1 fixpoint
				t.Fatalf("got %d spans, want request+eval+fixpoint at least:\n%+v", len(v.Spans), v)
			}
			sawFix := false
			for i, s := range v.Spans {
				if s.ID != i {
					t.Fatalf("span %d has ID %d", i, s.ID)
				}
				if i == 0 {
					if s.Parent != -1 || s.Name != trace.SpanRequest {
						t.Fatalf("root = %+v", s)
					}
					continue
				}
				if s.Parent < 0 || s.Parent >= i {
					t.Fatalf("span %d parent %d breaks start-order topology", i, s.Parent)
				}
				if s.DurUS < 0 || s.StartUS < 0 {
					t.Fatalf("negative timing: %+v", s)
				}
				if s.Name == trace.SpanFixpoint {
					sawFix = true
					if s.Stages <= 0 {
						t.Fatalf("fixpoint span with no stages: %+v", s)
					}
					var engine string
					for _, a := range s.Attrs {
						if a.Key == "engine" {
							engine = a.Value
						}
					}
					if engine != "compiled" {
						t.Fatalf("fixpoint engine = %q: %+v", engine, s)
					}
				}
			}
			if !sawFix {
				t.Fatalf("no fixpoint span recorded:\n%+v", v.Spans)
			}
		})
	}
}

// TestStageEventsConcurrent adds child spans to one span from many
// goroutines at once. Only meaningful under -race.
func TestStageEventsConcurrent(t *testing.T) {
	tr := trace.New(trace.NewTraceID(), time.Now())
	ev := tr.Root().Start(trace.SpanEval)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ev.AddChild(trace.SpanFixpoint, time.Now(), time.Microsecond, nil,
					trace.Counters{Stages: 1, Tuples: i, DeltaTuples: 1})
			}
		}(g)
	}
	wg.Wait()
	tr.Close(time.Now())
	v := tr.View()
	var total int64
	for _, s := range v.Spans {
		total += s.Stages
	}
	if total != 8*500 {
		t.Fatalf("stages = %d, want %d", total, 8*500)
	}
}

func TestRecorderRingAndKeep(t *testing.T) {
	r := trace.NewRecorder(3, 2)
	mk := func(id string, keep string) *trace.Trace {
		tr := trace.New(id, time.Now())
		if keep != "" {
			tr.Keep(keep)
		}
		tr.Close(time.Now())
		return tr
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		r.Record(mk(strings.Repeat(id, 32), ""))
	}
	views := r.Traces()
	if len(views) != 3 {
		t.Fatalf("ring retained %d, want 3", len(views))
	}
	if views[0].TraceID != strings.Repeat("d", 32) {
		t.Fatalf("newest first broken: %s", views[0].TraceID)
	}
	if _, ok := r.Get(strings.Repeat("a", 32)); ok {
		t.Fatal("evicted trace still retrievable")
	}
	// Kept traces survive ring churn and evict FIFO at their own capacity.
	r.Record(mk(strings.Repeat("e", 32), "slow"))
	r.Record(mk(strings.Repeat("f", 32), "error"))
	r.Record(mk(strings.Repeat("g", 32), "shed"))
	for _, id := range []string{"h", "i", "j", "k"} {
		r.Record(mk(strings.Repeat(id, 32), ""))
	}
	if _, ok := r.Get(strings.Repeat("e", 32)); ok {
		t.Fatal("keep buffer did not evict FIFO at capacity")
	}
	v, ok := r.Get(strings.Repeat("g", 32))
	if !ok || v.Kept != "shed" {
		t.Fatalf("kept trace lost: ok=%v view=%+v", ok, v)
	}
	ring, keep := r.Len()
	if ring != 3 || keep != 2 {
		t.Fatalf("Len = (%d, %d), want (3, 2)", ring, keep)
	}
	if r.Recorded() != 11 || r.Kept() != 3 {
		t.Fatalf("counters = (%d, %d), want (11, 3)", r.Recorded(), r.Kept())
	}
	// Nil recorder: all no-ops.
	var nilR *trace.Recorder
	nilR.Record(mk(strings.Repeat("z", 32), ""))
	if nilR.Traces() != nil || nilR.Recorded() != 0 {
		t.Fatal("nil recorder retained something")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id, span := trace.NewTraceID(), trace.NewSpanID()
	if len(id) != 32 || len(span) != 16 {
		t.Fatalf("id lengths = %d/%d, want 32/16", len(id), len(span))
	}
	h := trace.FormatTraceparent(id, span)
	gotID, gotSpan, ok := trace.ParseTraceparent(h)
	if !ok || gotID != id || gotSpan != span {
		t.Fatalf("round trip failed: %q -> %q %q %v", h, gotID, gotSpan, ok)
	}
	bad := []string{
		"",
		"00-short-short-01",
		"ff-" + id + "-" + span + "-01", // unknown version
		"00-" + strings.Repeat("0", 32) + "-" + span + "-01", // zero trace id
		"00-" + strings.ToUpper(id) + "-" + span + "-01",     // uppercase hex
		h[:54],
	}
	for _, b := range bad {
		if _, _, ok := trace.ParseTraceparent(b); ok {
			t.Fatalf("ParseTraceparent(%q) accepted malformed input", b)
		}
	}
}
