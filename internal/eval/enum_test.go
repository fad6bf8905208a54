// Streaming differential: for random FP/IFP formulas over random databases,
// draining an Enumerator must reproduce the materialized answer
// byte-identically — same tuples, same (lexicographic) order — on every
// backend route, and mid-stream cancellation must stop the stream with a reported error.
package eval

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/queryopt"
	"repro/internal/relation"
)

func drainEnum(t *testing.T, en Enumerator) []relation.Tuple {
	t.Helper()
	var out []relation.Tuple
	for tp, ok := en.Next(); ok; tp, ok = en.Next() {
		out = append(out, tp.Clone())
	}
	return out
}

func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// checkView holds a finished answer, in whatever form its producer left it, to
// the tuples want: through two cursors open at once — one read to the end, one
// through a random offset/limit window — and again in its compact form.
func checkView(t *testing.T, what string, r *rand.Rand, v relation.View, n int, want []relation.Tuple) {
	t.Helper()
	for _, v := range []relation.View{v, relation.Compact(v, n)} {
		all, win := NewEnumerator(context.Background(), v, nil), NewEnumerator(context.Background(), v, nil)
		off, lim := r.Intn(len(want)+2), r.Intn(len(want)+2)
		if sk := win.Skip(off); sk != min(off, len(want)) {
			t.Fatalf("%s as %T: Skip(%d) = %d of %d tuples", what, v, off, sk, len(want))
		}
		var got []relation.Tuple
		for len(got) < lim {
			tp, ok := win.Next()
			if !ok {
				break
			}
			got = append(got, tp.Clone())
		}
		lo := min(off, len(want))
		if hi := min(lo+lim, len(want)); !sameTuples(got, want[lo:hi]) {
			t.Fatalf("%s as %T: window %d+%d = %v, want %v", what, v, off, lim, got, want[lo:hi])
		}
		if cnt, ok := all.Count(); !ok || cnt != len(want) {
			t.Fatalf("%s as %T: Count = %d, want %d", what, v, cnt, len(want))
		}
		if got := drainEnum(t, all); !sameTuples(got, want) {
			t.Fatalf("%s as %T: %v, want %v", what, v, got, want)
		}
		all.Close()
		win.Close()
	}
}

// TestEnumStreamedMatchesMaterialized is the core guarantee of the
// enumeration API: for 200 random formulas × {dense, sparse, auto}, the
// streamed concatenation equals EvalPlanContext's answer exactly, a
// Skip(k) enumerator yields exactly the suffix, the two paths agree on which
// evaluations fail — and both are one form: EvalPlan's View, read through
// random windows as it stands and compacted, is that answer, and so is the
// naive engine's Set.
func TestEnumStreamedMatchesMaterialized(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	g := &diffGen{r: r}
	backends := []Backend{BackendDense, BackendSparse, BackendAuto}
	kept := 0
	for trial := 0; trial < 2000 && kept < 200; trial++ {
		f := g.formula(3, nil)
		if logic.Validate(f, nil) != nil {
			continue
		}
		q, err := logic.NewQuery(logic.SortedVars(logic.FreeVars(f)), f)
		if err != nil {
			continue
		}
		kept++
		db := randomGraph(t, r, 2+r.Intn(4))
		p, err := plan.Compile(q)
		if err != nil {
			t.Fatalf("compile %s: %v", q, err)
		}
		oracle, err := Naive(q, db)
		if err != nil {
			t.Fatalf("naive %s: %v", q, err)
		}
		checkView(t, "naive "+q.String(), r, oracle, db.Size(), oracle.Tuples())
		for _, b := range backends {
			opts := &Options{Backend: b}
			want, _, wantErr := EvalPlanContext(context.Background(), p, db, opts)
			en, _, enErr := EvalPlanEnum(context.Background(), p, db, opts)
			view, _, _, viewErr := EvalPlan(context.Background(), p, db, opts, nil, true)
			if (wantErr == nil) != (enErr == nil) || (wantErr == nil) != (viewErr == nil) {
				t.Fatalf("%s backend %d: materialized err=%v, enum err=%v, view err=%v", q, b, wantErr, enErr, viewErr)
			}
			if wantErr != nil {
				continue
			}
			wantTuples := want.Tuples()
			if !want.Equal(oracle) {
				t.Fatalf("%s backend %d: %v, naive has %v", q, b, wantTuples, oracle.Tuples())
			}
			checkView(t, q.String()+" backend "+b.String(), r, view, db.Size(), wantTuples)
			if cnt, ok := en.Count(); ok && cnt != len(wantTuples) {
				t.Fatalf("%s backend %d: Count=%d, want %d", q, b, cnt, len(wantTuples))
			}
			got := drainEnum(t, en)
			if en.Err() != nil {
				t.Fatalf("%s backend %d: enum error: %v", q, b, en.Err())
			}
			en.Close()
			if !sameTuples(got, wantTuples) {
				t.Fatalf("%s backend %d: streamed %v != materialized %v", q, b, got, wantTuples)
			}

			// OFFSET pushdown: Skip(k) then drain = the materialized suffix.
			if len(wantTuples) > 0 {
				k := r.Intn(len(wantTuples) + 1)
				en2, _, err := EvalPlanEnum(context.Background(), p, db, opts)
				if err != nil {
					t.Fatalf("%s backend %d: re-enum: %v", q, b, err)
				}
				if sk := en2.Skip(k); sk != k {
					t.Fatalf("%s backend %d: Skip(%d)=%d", q, b, k, sk)
				}
				rest := drainEnum(t, en2)
				en2.Close()
				if !sameTuples(rest, wantTuples[k:]) {
					t.Fatalf("%s backend %d: after Skip(%d) got %v, want %v", q, b, k, rest, wantTuples[k:])
				}
			}
		}
	}
	if kept < 200 {
		t.Fatalf("generator kept only %d/200 formulas; tighten it", kept)
	}
}

// completeGraph returns K_n as a binary relation E plus unary P over the
// full domain — a database whose 2-hop answer has n² tuples.
func completeGraph(t *testing.T, n int) *database.Database {
	t.Helper()
	b := database.NewBuilder()
	b.Relation("E", 2)
	b.Relation("P", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
		b.Add("P", i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Add("E", i, j)
		}
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func twoHop(t testing.TB) logic.Query {
	t.Helper()
	f := logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("E", "z", "y")), "z")
	return logic.MustQuery([]logic.Var{"x", "y"}, f)
}

// TestEnumCancellationMidStream cancels the context after the first tuple on
// each backend route and checks the stream stops with a reported error
// rather than running to exhaustion (the 2-hop answer has 3600 tuples, past
// the enumerators' context-check strides).
func TestEnumCancellationMidStream(t *testing.T) {
	db := completeGraph(t, 60)
	p, err := plan.Compile(twoHop(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{BackendDense, BackendSparse} {
		ctx, cancel := context.WithCancel(context.Background())
		en, _, err := EvalPlanEnum(ctx, p, db, &Options{Backend: b})
		if err != nil {
			t.Fatalf("backend %d: %v", b, err)
		}
		if _, ok := en.Next(); !ok {
			t.Fatalf("backend %d: no first tuple", b)
		}
		cancel()
		yielded := 1
		for _, ok := en.Next(); ok; _, ok = en.Next() {
			yielded++
			if yielded > 3600 {
				break
			}
		}
		if yielded > 3600 {
			t.Fatalf("backend %d: stream ran to exhaustion after cancel", b)
		}
		if en.Err() == nil {
			t.Fatalf("backend %d: Err is nil after cancellation", b)
		}
		en.Close()
	}
}

// TestEnumAcyclicFastPath: every open enumerator reports its Count — there
// is no route left that streams without knowing the answer's size — on a
// width-minimal 2-hop CQ and on a 4-hop chain written with five variables,
// which compiles to its scoped width-3 plan (Stats.AcyclicFastPath).
func TestEnumAcyclicFastPath(t *testing.T) {
	db := completeGraph(t, 12)
	chain, err := queryopt.ChainCQ(4).ToFO()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []logic.Query{twoHop(t), chain} {
		p, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: BackendDense})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []Backend{BackendAuto, BackendDense, BackendSparse} {
			en, st, err := EvalPlanEnum(context.Background(), p, db, &Options{Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			en.Skip(5)
			if n, ok := en.Count(); !ok || n != want.Len() {
				t.Fatalf("%s backend %s: Count = %d, %v; want %d", q, b, n, ok, want.Len())
			}
			got := drainEnum(t, en)
			en.Close()
			if _, ok := en.Count(); ok {
				t.Fatalf("%s backend %s: closed enumerator reported a Count", q, b)
			}
			if (st.AcyclicFastPath == 1) != p.Narrowed {
				t.Fatalf("%s backend %s: AcyclicFastPath = %d, plan narrowed: %v", q, b, st.AcyclicFastPath, p.Narrowed)
			}
			if st.TuplesStreamed != int64(len(got)) || st.TuplesSkipped != 5 {
				t.Fatalf("streamed %d skipped %d, want %d and 5", st.TuplesStreamed, st.TuplesSkipped, len(got))
			}
			if !sameTuples(got, want.Tuples()[5:]) {
				t.Fatalf("%s backend %s: stream diverged from the dense answer", q, b)
			}
		}
	}
}

// TestAnswerViewEveryRoute reads EvalPlan's View on the routes random formulas
// over small databases do not reach: auto on a dense-only plan at 200³ (held
// to the formula walker's answer), a stage loop handed to the other algebra
// mid-loop in each direction, and a delta restart on each backend. Whatever
// produced the head, it is the forced-dense answer.
func TestAnswerViewEveryRoute(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ctx := context.Background()
	reference := func(p *plan.Plan, db *database.Database) []relation.Tuple {
		t.Helper()
		ref, _, err := EvalPlanContext(ctx, p, db, &Options{Backend: BackendDense})
		if err != nil {
			t.Fatal(err)
		}
		return ref.Tuples()
	}

	forest := forestDB(200, 10)
	p := mustCompile(t, gfpTwoHop())
	if _, route := ExplainRoute(p, forest, nil); route != "dense" {
		t.Fatalf("gfp over a two-hop on a 200-node forest routes %q, want dense", route)
	}
	v, st, _, err := EvalPlan(ctx, p, forest, &Options{}, nil, true)
	if err != nil || st.RepSwitches != 0 {
		t.Fatalf("auto run of a dense-only plan: err %v, stats %+v", err, st)
	}
	walked, err := BottomUp(p.Query, forest)
	if err != nil {
		t.Fatal(err)
	}
	checkView(t, "auto, dense-only", r, v, forest.Size(), walked.Tuples())

	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < 12; i++ {
		b.Domain(i)
		for j := 0; j < 12; j++ {
			if (i+2*j)%7 != 0 {
				b.Add("E", i, j)
			}
		}
	}
	for _, tc := range []struct {
		start string
		q     logic.Query
		db    *database.Database
	}{{"sparse", tcQuery(), b.MustBuild()}, {"dense", reachQuery(), lineDB(24)}} {
		p := mustCompile(t, tc.q)
		var res planResult
		withHandOffScale(0, func() { res, err = startOn(t, tc.start, p, tc.db, &Options{}) })
		if err != nil || res.stats.RepSwitches != 1 {
			t.Fatalf("started %s: err %v, stats %+v, want one hand-off", tc.start, err, res.stats)
		}
		checkView(t, "handed off from "+tc.start, r, res.head, tc.db.Size(), reference(p, tc.db))
	}

	p = mustCompile(t, tcQuery())
	line := lineDB(16)
	next, delta, err := line.Apply([]database.Update{{Relation: "E", Insert: []relation.Tuple{{15, 3}, {7, 0}}}})
	if err != nil || !CanMaintain(p, delta) {
		t.Fatalf("apply: %v, maintainable %v", err, CanMaintain(p, delta))
	}
	for _, backend := range []Backend{BackendDense, BackendSparse} {
		opts := &Options{Backend: backend}
		_, _, state, err := EvalPlan(ctx, p, line, opts, nil, true)
		if err != nil || state == nil {
			t.Fatalf("%s: capture: %v, state %v", backend, err, state)
		}
		v, st, _, err := EvalPlan(ctx, p, next, opts, state, true)
		if err != nil || st.MaintainedFromDelta != 1 {
			t.Fatalf("%s: restart: %v, stats %+v", backend, err, st)
		}
		checkView(t, "maintained on "+backend.String(), r, v, next.Size(), reference(p, next))
	}
}

// planAnswer is the engine half of a bvqd miss, store-less: the closure of a
// forest of 16-node paths on n nodes to its head, with maintenance state, then
// the form the result cache keeps.
func planAnswer(t testing.TB, p *plan.Plan, db *database.Database) relation.View {
	v, _, _, err := EvalPlan(context.Background(), p, db, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	return relation.Compact(v, db.Size())
}

// BenchmarkPlanAnswer prices planAnswer at 480 and at 15,000 answer tuples.
func BenchmarkPlanAnswer(b *testing.B) {
	defer func(was bool) { poisonReleased = was }(poisonReleased)
	poisonReleased = false // TestMain's: time spent overwriting is not the engine's
	p := mustCompile(b, tcQuery())
	for _, n := range []int{64, 2000} {
		db := forestDB(n, 16)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				planAnswer(b, p, db)
			}
		})
	}
}

// TestPlanAnswerAllocsIndependentOfAnswerSize is the gate beside it: the head
// leaves the executor as the sorted codes it already is, so 15,000 answer
// tuples cost a few hundred allocations more than 480 (longer blocks, doubled
// more often), not two each — 30,666 an evaluation when the answer went
// through a Set (EXPERIMENTS.md "PR 25").
func TestPlanAnswerAllocsIndependentOfAnswerSize(t *testing.T) {
	p, few, many := mustCompile(t, tcQuery()), forestDB(64, 16), forestDB(2000, 16)
	small, _ := allocsPerRun(10, func() { planAnswer(t, p, few) })
	large, _ := allocsPerRun(10, func() { planAnswer(t, p, many) })
	t.Logf("allocations per evaluation: %.0f for 480 tuples, %.0f for 15000", small, large)
	if large > 1000+small {
		t.Fatalf("15000 answer tuples cost %.0f allocations, 480 cost %.0f: want them within 1000", large, small)
	}
}

// BenchmarkTwoHopStream prices the first tuple of a LIMIT stream over the
// unfiltered two-hop join against materialising its answer, on the sparse
// backend over sparseDigraph(n, n, 10): out-degree 10 on n nodes, so about
// n·100 answer tuples over n·10 edges. materialise is the Set EvalPlanContext
// builds, whose time is also its time to the first tuple; first-tuple,
// limit-64 and drain are EvalPlanEnum followed by one Next, by 64 and by every
// tuple. TestPlanAnswerAllocsIndependentOfAnswerSize gates the memory side.
func BenchmarkTwoHopStream(b *testing.B) {
	defer func(was bool) { poisonReleased = was }(poisonReleased)
	poisonReleased = false // TestMain's: time spent overwriting is not the engine's
	p := mustCompile(b, twoHop(b))
	ctx, opts := context.Background(), &Options{Backend: BackendSparse}
	for _, n := range []int{2000, 10000} {
		db := sparseDigraph(int64(n), n, 10)
		b.Run(strconv.Itoa(n)+"/materialise", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := EvalPlanContext(ctx, p, db, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, c := range []struct {
			name  string
			limit int // 0: drain
		}{{"first-tuple", 1}, {"limit-64", 64}, {"drain", 0}} {
			b.Run(strconv.Itoa(n)+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					en, _, err := EvalPlanEnum(ctx, p, db, opts)
					if err != nil {
						b.Fatal(err)
					}
					got := 0
					for ; c.limit == 0 || got < c.limit; got++ {
						if _, ok := en.Next(); !ok {
							break
						}
					}
					en.Close()
					if got < c.limit {
						b.Fatalf("the stream ended after %d tuples, short of %d", got, c.limit)
					}
				}
			})
		}
	}
}
