// Differential testing of the sparse backend: the dense engine is the
// oracle, and every admitted query must come back byte-identical through
// the sval executor and the hybrid frontier; the miniscoping pass's plans are
// checked against the naive oracle as well (checkMiniscope).
// The large-domain tests drive the whole point of the backend — a k=3 query
// over n=10,000, whose dense space (10¹² bits) is two orders of magnitude
// past relation.MaxDenseBits — under an explicit peak-memory ceiling.
package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/queryopt"
	"repro/internal/relation"
)

// forestDB mirrors workload.ForestGraph (which this in-package test cannot
// import without a cycle through mucalc): disjoint directed paths of `block`
// consecutive nodes, P marking the roots. Its transitive closure is bounded
// by n·block pairs however large n grows.
func forestDB(n, block int) *database.Database {
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
		if i%block == 0 {
			b.Add("P", i)
		} else {
			b.Add("E", i-1, i)
		}
	}
	return b.MustBuild()
}

// lineDB is the path 0 → 1 → … → n−1 with P = {0}.
func lineDB(n int) *database.Database {
	return forestDB(n, n)
}

// TestDifferentialSparseVsDense pins the forced-sparse route byte-identical
// to the forced-dense route on random FP/IFP formulas, stage sequences
// included, and the auto route — whichever of the two it takes, and wherever
// it hands a loop from one to the other — to the same answers and the same
// final stage of every fixpoint.
func TestDifferentialSparseVsDense(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	g := &diffGen{r: r, filters: true}
	trials, kept := 400, 0
	for trial := 0; trial < trials; trial++ {
		f := g.formula(3, nil)
		if logic.Validate(f, nil) != nil {
			continue
		}
		q, err := logic.NewQuery(logic.SortedVars(logic.FreeVars(f)), f)
		if err != nil {
			continue
		}
		db := randomGraph(t, r, 2+r.Intn(4))
		dsink, ssink := newSink(), newSink()
		dense, dst, err := CompiledStats(q, db, &Options{Backend: BackendDense, Observe: dsink.Observer})
		if err != nil {
			t.Fatalf("dense(%s): %v", q, err)
		}

		sparse, sst, err := CompiledStats(q, db, &Options{Backend: BackendSparse, Observe: ssink.Observer})
		if err != nil {
			if strings.Contains(err.Error(), "sparse backend:") {
				continue // outside the sparse fragment (GFP/PFP, negative fix body)
			}
			t.Fatalf("sparse(%s): %v", q, err)
		}
		kept++
		if !sparse.Equal(dense) {
			t.Fatalf("sparse disagrees on %s:\nsparse %v\ndense  %v\n%s", q, sparse, dense, db)
		}
		// One stage loop over two representations: the same plan must take the
		// same stages with the same per-stage tuple counts on both.
		if sst.FixIterations != dst.FixIterations {
			t.Fatalf("%s: sparse took %d stages, dense %d", q, sst.FixIterations, dst.FixIterations)
		}
		if ds, ss := pinTrace(dsink.Log), pinTrace(ssink.Log); ds != ss {
			t.Fatalf("%s: stage sequences differ\ndense  %s\nsparse %s", q, ds, ss)
		}

		asink := newSink()
		auto, ast, err := CompiledStats(q, db, &Options{Observe: asink.Observer})
		if err != nil {
			t.Fatalf("auto(%s): %v", q, err)
		}
		if !auto.Equal(dense) {
			t.Fatalf("auto disagrees with dense on %s", q)
		}
		want, have := finalStages(dsink.Log), finalStages(asink.Log)
		for binder, tuples := range want {
			if have[binder] != tuples {
				t.Fatalf("%s: auto ends binder %d at %d tuples, dense at %d", q, binder, have[binder], tuples)
			}
		}
		if as := pinTrace(asink.Log); ast.RepSwitches == 0 && as != pinTrace(dsink.Log) {
			t.Fatalf("%s: auto never left its route, yet its stage sequence differs from dense's\nauto  %s", q, as)
		}
	}
	if kept < trials/8 {
		t.Fatalf("generator kept only %d/%d formulas in the sparse fragment; tighten it", kept, trials)
	}
}

// TestFilteredShapesVsNaive holds the texts the serving benchmark's miss-direct
// sends down the sparse route — a set on the source, the target or the middle
// node of a 2-hop path, on the source of a 3-hop one, and fo-neg's edge without
// a 2-hop path — to the naive oracle by name, on every backend, store-less and
// through a node store as bvqd runs them (the third pass filters the stored
// path body).
func TestFilteredShapesVsNaive(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	const n = 11
	b := database.NewBuilder().Relation("E0", 2).Relation("E1", 2).Relation("E2", 2).Relation("S0", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
		for _, e := range []string{"E0", "E1", "E2"} {
			for _, j := range r.Perm(n)[:3] {
				b.Add(e, i, j)
			}
		}
	}
	b.Add("S0", 2).Add("S0", 3).Add("S0", n-1)
	db := b.MustBuild()
	for _, c := range []struct{ name, text string }{
		{"hop2+src", "(x, y). S0(x) & (exists z. (E0(x, z) & E1(z, y)))"},
		{"hop2+dst", "(x, y). S0(y) & (exists z. (E0(x, z) & E1(z, y)))"},
		{"hop2+mid", "(x, y). exists z. (E0(x, z) & S0(z) & E1(z, y))"},
		{"hop3+src", "(x, y). S0(x) & (exists z. (E0(x, z) & (exists x. (E1(z, x) & (E2(x, y))))))"},
		{"fo-neg", "(x, y). E0(x, y) & !(exists z. (E1(x, z) & E2(z, y)))"},
		{"fo-neg-alt", "(x, y). (exists z. (E0(x, z) & E1(z, y))) & !E2(x, y)"},
	} {
		q, err := parser.ParseQuery(c.text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 || want.Len() == n*n {
			t.Fatalf("%s: a trivial answer of %d tuples checks nothing", c.name, want.Len())
		}
		p := mustCompile(t, q)
		for _, backend := range []Backend{BackendSparse, BackendAuto, BackendDense} {
			store := NewNodeStore(1 << 20)
			for pass, nodes := range []*NodeStore{nil, store, store, store} {
				got, _, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: backend, Nodes: nodes})
				if err != nil {
					t.Fatalf("%s, %s, pass %d: %v", c.name, backend, pass, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s, %s, pass %d:\n got %v\nwant %v", c.name, backend, pass, got, want)
				}
			}
		}
	}
}

// treeCQ draws a random tree-shaped (hence acyclic) conjunctive query over E
// and P, written flat with one variable per tree node: width 3 to 8.
func treeCQ(r *rand.Rand) logic.Query {
	m := 2 + r.Intn(6)
	vars := make([]logic.Var, m+1)
	for i := range vars {
		vars[i] = logic.Var(fmt.Sprintf("a%d", i))
	}
	var conj []logic.Formula
	for i := 1; i <= m; i++ {
		conj = append(conj, logic.R("E", vars[r.Intn(i)], vars[i]))
	}
	if r.Intn(2) == 0 {
		conj = append(conj, logic.R("P", vars[r.Intn(m+1)]))
	}
	var head, bound []logic.Var
	for _, v := range vars {
		if r.Intn(3) == 0 {
			head = append(head, v)
		} else {
			bound = append(bound, v)
		}
	}
	if len(head) == 0 {
		head, bound = []logic.Var{vars[0]}, bound[1:]
	}
	return logic.MustQuery(head, logic.Exists(logic.And(conj...), bound...))
}

// checkMiniscope holds the plan of one query to the naive oracle, which reads
// the text as written: whatever the miniscoping pass rewrote, every backend
// of the one executor answers as Naive does, the plan is no wider than the
// query's least width (leastWidth), Stats.AcyclicFastPath reports exactly a
// plan the pass narrowed (Plan.Narrowed), and the plan reads exactly the
// relations of the text, whose content the result key names. The sparse
// backend may refuse the plan (a gfp or pfp, a blocker) only where
// sparseMayRefuse. It returns the plan.
func checkMiniscope(t *testing.T, q logic.Query, db *database.Database, sparseMayRefuse bool) *plan.Plan {
	t.Helper()
	p := mustCompile(t, q)
	if got, least := len(p.Vars), leastWidth(q); got > least {
		t.Fatalf("%s: width %d, the least width is %d (lowered from %s)", q, got, least, p.Body)
	}
	var read []string
	for _, nd := range p.Nodes {
		if nd.Op == plan.OpAtom && nd.Binder < 0 && !slices.Contains(read, nd.Rel) {
			read = append(read, nd.Rel)
		}
	}
	if slices.Sort(read); !slices.Equal(read, logic.Footprint(q.Body)) || !slices.Equal(p.Maint.Rels, logic.Footprint(q.Body)) {
		t.Fatalf("%s: the plan reads %v, footprint %v, Maint.Rels %v", q, read, logic.Footprint(q.Body), p.Maint.Rels)
	}
	want, err := Naive(q, db)
	if err != nil {
		t.Fatalf("naive(%s): %v", q, err)
	}
	for _, b := range []Backend{BackendAuto, BackendDense, BackendSparse} {
		got, st, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: b})
		if b == BackendSparse && sparseMayRefuse && err != nil && strings.Contains(err.Error(), "sparse backend:") {
			continue
		}
		if err != nil {
			t.Fatalf("%s(%s): %v", b, q, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s disagrees with naive on %s, lowered from %s:\ngot  %v\nwant %v\n%s", b, q, p.Body, got, want, db)
		}
		if (st.AcyclicFastPath == 1) != p.Narrowed {
			t.Fatalf("%s(%s): AcyclicFastPath = %d, Narrowed = %v", b, q, st.AcyclicFastPath, p.Narrowed)
		}
	}
	return p
}

// miniscopeInput is one input of FuzzMiniscope and FuzzMinimizeWidth: the
// text if it parses, else a formula diffGen draws from seed — filters beside
// ∃ and fixpoints, rebinding quantifiers, aliased parameters and wide acyclic
// and cyclic ∃∧ bodies — through checkMiniscope over a graph drawn from seed,
// which lets the sparse backend refuse a drawn formula but not a text. The
// domain shrinks as the width grows, so that the naive oracle's n^width
// assignments stay a few thousand.
func miniscopeInput(t *testing.T, text string, seed int64) {
	r := rand.New(rand.NewSource(seed))
	q, err := parser.ParseQuery(text)
	drawn := err != nil
	if drawn {
		f := (&diffGen{r: r, filters: true, aliases: true, wide: true}).formula(3, nil)
		if logic.Validate(f, nil) != nil {
			return
		}
		if q, err = logic.NewQuery(logic.SortedVars(logic.FreeVars(f)), f); err != nil {
			return
		}
	}
	if q.Width() > 8 {
		return
	}
	n := 2 + r.Intn(4)
	if q.Width() > 5 {
		n = 2 + r.Intn(2)
	}
	db := randomGraph(t, r, n)
	if q.Validate(db.Arities()) != nil {
		return
	}
	checkMiniscope(t, q, db, drawn)
}

// FuzzMiniscope: the miniscoping pass keeps every answer and never widens a
// plan (miniscopeInput). The seeds draw from diffGen; the corpus under
// testdata adds texts: a triangle with a tail (width 5 as written, 3
// scoped), a chain in a fixpoint body (4, 3) and a one-point equality (3, 2).
func FuzzMiniscope(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add("", seed)
	}
	f.Fuzz(miniscopeInput)
}

// FuzzMinimizeWidth is miniscopeInput on conjunctive-query texts: treeCQ's
// trees, a unified equality, a triangle and, under testdata, a cyclic query
// with three vacuous quantifiers.
func FuzzMinimizeWidth(f *testing.F) {
	r := rand.New(rand.NewSource(229))
	for i := 0; i < 24; i++ {
		f.Add(treeCQ(r).String(), int64(i))
	}
	f.Add("(x, y). exists z. exists w. (E(x, z) & (z = w & E(w, y)))", int64(1))
	f.Add("(x). exists y. exists z. (E(x, y) & (E(y, z) & E(z, x)))", int64(2))
	f.Fuzz(miniscopeInput)
}

// TestFromQueryEqualities pins the equality corners of the pass: a
// bound=head equality is substituted away (the one-point rule), so a width-3
// text runs as its width-2 scoped plan; a head=head equality is a conjunct
// like any other, and the query keeps the plan it was written with.
func TestFromQueryEqualities(t *testing.T) {
	db := lineDB(6)
	unified := logic.MustQuery([]logic.Var{"x", "y"},
		logic.Exists(logic.And(logic.R("E", "x", "z"), logic.Equal("z", "y")), "z"))
	kept := logic.MustQuery([]logic.Var{"x", "y"},
		logic.And(logic.Equal("x", "y"), logic.R("E", "x", "x")))
	if p := checkMiniscope(t, unified, db, false); p.MinimizedFrom() != 3 || len(p.Vars) != 2 {
		t.Fatalf("%s: minimized from %d to %d, want 3 to 2", unified, p.MinimizedFrom(), len(p.Vars))
	}
	if p := checkMiniscope(t, kept, db, false); p.Narrowed || p.Body.String() != kept.Body.String() {
		t.Fatalf("%s: lowered from %s (narrowed %t)", kept, p.Body, p.Narrowed)
	}
}

// TestAcyclicBeyondSparseCodeLimit: a 7-hop chain written with eight
// variables over 2,000 elements has no sparse code space (2000⁸ > 2⁶²) and no
// dense one; its minimised width-3 plan has both a sparse route and an
// answer, which must be the pairs joined by a 7-step walk over E's tuples.
func TestAcyclicBeyondSparseCodeLimit(t *testing.T) {
	db := forestDB(2000, 10)
	q, err := queryopt.ChainCQ(7).ToFO()
	if err != nil {
		t.Fatal(err)
	}
	e, err := db.Rel("E")
	if err != nil {
		t.Fatal(err)
	}
	succ := make(map[int][]int)
	e.ForEach(func(t relation.Tuple) { succ[t[0]] = append(succ[t[0]], t[1]) })
	want := relation.NewSet(2)
	for x := 0; x < db.Size(); x++ {
		ends := []int{x}
		for step := 0; step < 7; step++ {
			var next []int
			for _, u := range ends {
				next = append(next, succ[u]...)
			}
			ends = next
		}
		for _, y := range ends {
			want.Add(relation.Tuple{x, y})
		}
	}
	if want.Len() != 600 { // 200 paths on 10 nodes: 3 pairs at distance 7 each
		t.Fatalf("oracle found %d pairs, want 600", want.Len())
	}
	for _, b := range []Backend{BackendAuto, BackendSparse} {
		got, st, err := CompiledStats(q, db, &Options{Backend: b})
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if !got.Equal(want) || st.AcyclicFastPath != 1 {
			t.Fatalf("%s: %d tuples, want %d; stats %+v", b, got.Len(), want.Len(), st)
		}
	}
}

// tcQuerySparse is transitive closure as a width-3 LFP — the k=3 shape that
// hits the n^k wall on large domains.
func tcQuerySparse() logic.Query {
	return logic.MustQuery([]logic.Var{"x", "y"},
		logic.Lfp("T", []logic.Var{"x", "y"},
			logic.Or(logic.R("E", "x", "y"),
				logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
			"x", "y"))
}

// peakHeapDuring samples HeapAlloc while fn runs and returns fn's error and
// the observed high-water mark in bytes.
func peakHeapDuring(fn func() error) (uint64, error) {
	var peak uint64
	done := make(chan struct{})
	tick := make(chan struct{})
	go func() {
		defer close(tick)
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > atomic.LoadUint64(&peak) {
					atomic.StoreUint64(&peak, ms.HeapAlloc)
				}
			}
		}
	}()
	err := fn()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > atomic.LoadUint64(&peak) {
		atomic.StoreUint64(&peak, ms.HeapAlloc)
	}
	close(done)
	<-tick
	return atomic.LoadUint64(&peak), err
}

// TestSparseLargeDomainTC is the acceptance criterion of the sparse
// backend: transitive closure (k=3) over a 10,000-node forest, a query the
// dense engine cannot even allocate (10¹² bits), evaluated sparsely with
// the correct answer and under 1 GiB of peak heap.
func TestSparseLargeDomainTC(t *testing.T) {
	const n, block = 10000, 8
	db := forestDB(n, block)
	q := tcQuerySparse()

	if _, _, err := CompiledStats(q, db, &Options{Backend: BackendDense}); err == nil {
		t.Fatalf("dense backend must reject a 10000^3 space")
	}

	var got *relation.Set
	peak, err := peakHeapDuring(func() error {
		set, st, err := CompiledStats(q, db, nil) // auto: space infeasible → sparse
		if err != nil {
			return err
		}
		if st.TuplesTouched == 0 {
			return fmt.Errorf("sparse run reported zero TuplesTouched")
		}
		got = set
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 1<<30 {
		t.Fatalf("peak heap %d bytes exceeds the 1 GiB budget", peak)
	}

	// The forest closure is exactly the within-block ascending pairs.
	want := 0
	for start := 0; start < n; start += block {
		end := start + block
		if end > n {
			end = n
		}
		sz := end - start
		want += sz * (sz - 1) / 2
	}
	if got.Len() != want {
		t.Fatalf("closure has %d pairs, want %d", got.Len(), want)
	}
	probe := func(a, b int, member bool) {
		if got.Contains(relation.Tuple{a, b}) != member {
			t.Fatalf("closure membership (%d,%d) = %v, want %v", a, b, !member, member)
		}
	}
	probe(0, 7, true)
	probe(8, 15, true)
	probe(7, 8, false)
	probe(0, 9999, false)
}

// gfpTwoHop is "x starts an infinite walk of two-hop steps": a GFP over a
// recursion-free join.
func gfpTwoHop() logic.Query {
	twoHop := logic.Exists(logic.And(logic.R("E", "x", "y"), logic.R("E", "y", "z")), "y")
	return logic.MustQuery([]logic.Var{"y"},
		logic.Gfp("S", []logic.Var{"x"},
			logic.Exists(logic.And(twoHop, logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"), "y"))
}

// TestGfpTwoHopDenseMatchesBottomUp drives the auto backend on a plan with no
// sparse route (a GFP) over a space large enough that its recursion-free
// two-hop subtree is modelled cheaper as tuples than as 200³-bit kernels —
// what the hybrid frontier was for. One run is over one algebra: auto is the
// dense run, and both agree with the formula walker exactly.
func TestGfpTwoHopDenseMatchesBottomUp(t *testing.T) {
	db := forestDB(200, 10)
	q := gfpTwoHop()
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if den, route := ExplainRoute(p, db, nil); route != "dense" || den.SparseOK {
		t.Fatalf("a GFP at 200^3 has the dense route only: route %q, %+v", route, den)
	}

	want, err := BottomUp(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendDense, BackendAuto} {
		got, st, err := CompiledStats(q, db, &Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s run disagrees with bottomup: %d vs %d tuples", backend, got.Len(), want.Len())
		}
		if st.RepSwitches != 0 || st.TuplesTouched != 0 {
			t.Fatalf("%s run left the dense algebra (stats %+v)", backend, st)
		}
	}
}

// TestSparseCancellation checks the stage-boundary cancellation contract of
// the sparse fixpoint loop: cancelling mid-iteration surfaces
// context.Canceled and leaves no binding behind (reusing the plan
// afterwards must work). Run under -race this also saturates the
// cancel/cleanup paths the Release-discipline audit cares about.
func TestSparseCancellation(t *testing.T) {
	db := forestDB(5000, 50)
	q := tcQuerySparse()
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		stages := 0
		obs := NewObserver(false)
		obs.onStage = func(TraceEvent) {
			stages++
			if stages == 2 {
				cancel()
			}
		}
		opts := &Options{Backend: BackendSparse, Observe: obs}
		_, _, err := EvalPlanContext(ctx, p, db, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
		}
		// The plan must be cleanly reusable after a cancelled run.
		ans, _, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: BackendSparse})
		if err != nil {
			t.Fatalf("trial %d: rerun after cancel: %v", trial, err)
		}
		if ans.Len() == 0 {
			t.Fatalf("trial %d: rerun returned empty closure", trial)
		}
	}
}

// TestSparseBudgetFallsBackToDense forces a tiny budget on a feasible space:
// the explicit sparse backend must fail with ErrSparseBudget, while auto —
// on the dense route from the start or after a sparse attempt
// (TestDifferentialAbandonedRunStats) — still answers.
func TestSparseBudgetFallsBackToDense(t *testing.T) {
	db := randomGraph(t, rand.New(rand.NewSource(5)), 6)
	// ¬E forces a complement whose block exceeds a budget of 2 tuples.
	q := logic.MustQuery([]logic.Var{"x", "y"}, logic.Neg(logic.R("E", "x", "y")))
	_, _, err := CompiledStats(q, db, &Options{Backend: BackendSparse, sparseBudget: 2})
	if !errors.Is(err, ErrSparseBudget) {
		t.Fatalf("err = %v, want ErrSparseBudget", err)
	}
	dense, _, err := CompiledStats(q, db, &Options{Backend: BackendDense})
	if err != nil {
		t.Fatal(err)
	}
	auto, _, err := CompiledStats(q, db, &Options{sparseBudget: 2})
	if err != nil {
		t.Fatalf("auto with tiny budget must fall back to dense: %v", err)
	}
	if !auto.Equal(dense) {
		t.Fatalf("auto fallback disagrees with dense")
	}
}
