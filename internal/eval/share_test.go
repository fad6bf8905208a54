package eval

import (
	"container/list"
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

// sharedQueries draws count valid queries from the differential generator.
func sharedQueries(r *rand.Rand, count int) []logic.Query {
	g := &diffGen{r: r}
	var out []logic.Query
	for len(out) < count {
		f := g.formula(3, nil)
		if logic.Validate(f, nil) != nil {
			continue
		}
		if q, err := logic.NewQuery(logic.SortedVars(logic.FreeVars(f)), f); err == nil {
			out = append(out, q)
		}
	}
	return out
}

// TestDifferentialSharedStore runs the differential generator's queries
// through one store shared by every run — dense, sparse and auto, each query
// three times so that its own nodes are offered, admitted and then hit — and
// holds every answer to the store-less run's and to Naive's. A second store
// sees the routes in the order sparse, dense, auto: what either admits first,
// the other reads.
func TestDifferentialSharedStore(t *testing.T) {
	r := rand.New(rand.NewSource(181))
	dbs := []*database.Database{randomGraph(t, r, 3), randomGraph(t, r, 4), randomGraph(t, r, 5)}
	orders := [][]Backend{{BackendDense, BackendSparse, BackendAuto}, {BackendSparse, BackendDense, BackendAuto}}
	stores := []*NodeStore{NewNodeStore(1 << 20), NewNodeStore(1 << 20)}
	shared := make([]int64, len(stores))
	for i, q := range sharedQueries(r, 150) {
		db := dbs[i%len(dbs)]
		want, err := Naive(q, db)
		if err != nil {
			t.Fatalf("Naive(%s): %v", q, err)
		}
		for o, order := range orders {
			for _, backend := range order {
				plain, pst, err := CompiledStats(q, db, &Options{Backend: backend, Parallelism: 1})
				if err != nil {
					if strings.Contains(err.Error(), "sparse backend:") {
						continue
					}
					t.Fatalf("%s %s: %v", backend, q, err)
				}
				if !plain.Equal(want) {
					t.Fatalf("%s disagrees with Naive on %s", backend, q)
				}
				for pass := 0; pass < 3; pass++ {
					got, st, err := CompiledStats(q, db, &Options{Backend: backend, Parallelism: 1, Nodes: stores[o]})
					if err != nil {
						t.Fatalf("%s %s, pass %d through the store: %v", backend, q, pass, err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s %s, pass %d through the store:\n got %v\nwant %v\n%s", backend, q, pass, got, want, db)
					}
					if st.SubformulaEvals > pst.SubformulaEvals || st.FixIterations > pst.FixIterations {
						t.Fatalf("%s %s: sharing added work: %+v, plain %+v", backend, q, st, pst)
					}
					shared[o] += st.NodesShared
				}
			}
		}
	}
	for o, store := range stores {
		if st := store.Stats(); shared[o] == 0 || st.Hits != shared[o] || st.Admitted == 0 || st.Bytes > 1<<20 {
			t.Fatalf("order %v: runs took %d shared nodes, store says %+v", orders[o], shared[o], st)
		}
	}
}

// TestSharedStoreDenseOnly drives a plan the sparse algebra cannot take — a
// whole least fixpoint under a GFP conjunct, which the hybrid frontier used to
// hand to a sparse sub-run — through a store on the auto route: every pass
// agrees with the formula walker, and the third takes its closed subtrees from
// the store.
func TestSharedStoreDenseOnly(t *testing.T) {
	q, err := parser.ParseQuery("(x, y). [gfp S(x). (exists y. E(x, y)) & S(x)](x) & " +
		"[lfp T(x, y). E(x, y) | (exists z. (E(x, z) & T(z, y)))](x, y)")
	if err != nil {
		t.Fatal(err)
	}
	db := forestDB(200, 10)
	want, err := BottomUp(q, db)
	if err != nil {
		t.Fatal(err)
	}
	store := NewNodeStore(64 << 20)
	for pass := 0; pass < 3; pass++ {
		got, st, err := CompiledStats(q, db, &Options{Parallelism: 1, Nodes: store})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("pass %d: auto run through the store disagrees with bottomup", pass)
		}
		if st.RepSwitches != 0 || st.TuplesTouched != 0 {
			t.Fatalf("pass %d left the dense algebra: %+v", pass, st)
		}
		if pass == 2 && st.NodesShared < 2 {
			t.Fatalf("third pass recomputed its closed subtrees: %+v", st)
		}
	}
}

func twoRelDB(t *testing.T) *database.Database {
	b := database.NewBuilder().Relation("A", 2).Relation("B", 2).Domain(0, 1, 2, 3, 4, 5)
	for i := 0; i < 5; i++ {
		b.Add("A", i, i+1).Add("B", i+1, i)
	}
	return b.MustBuild()
}

// TestSharedStoreAcrossApply: values are keyed by the content they read, and an
// update retires nothing. After an update to A, a value that reads only B is
// still hit and one that reads A is not; a reader of the old snapshot that
// finishes late still finds all of its own; and after the inverse update A's
// content, and with it every value, is back.
func TestSharedStoreAcrossApply(t *testing.T) {
	q, err := parser.ParseQuery("(x, y). (exists z. (A(x, z) & A(z, y))) | (exists z. (B(x, z) & B(z, y)))")
	if err != nil {
		t.Fatal(err)
	}
	p := mustCompile(t, q)
	old := twoRelDB(t)
	store := NewNodeStore(1 << 20)
	// One forced backend: a value is shared per algebra, and at six elements
	// the inserted tuple would move auto from one to the other.
	run := func(db *database.Database) *Stats {
		t.Helper()
		got, st, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: BackendDense, Parallelism: 1, Nodes: store})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := EvalPlanContext(context.Background(), p, db, &Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("version %d through the store:\n got %v\nwant %v", db.Version(), got, want)
		}
		return st
	}
	run(old)
	run(old)
	all := run(old).NodesShared // both sides: atoms, joins, projections
	if all == 0 || all%2 != 0 {
		t.Fatalf("third run shared %d nodes, want the A side and as many on the B side", all)
	}
	next, _, err := old.Apply([]database.Update{{Relation: "A", Insert: []relation.Tuple{{5, 0}}}})
	if err != nil {
		t.Fatal(err)
	}
	if next.RelID("B") != old.RelID("B") || next.RelID("A") == old.RelID("A") {
		t.Fatal("Apply must carry B's identity over and mint a new one for A")
	}
	if st := run(next); st.NodesShared != all/2 {
		t.Fatalf("new snapshot shared %d nodes, want the B side's %d and nothing that read the old A", st.NodesShared, all/2)
	}
	if st := run(old); st.NodesShared != all {
		t.Fatalf("old snapshot shared %d nodes after the update, want all %d", st.NodesShared, all)
	}
	back, _, err := next.Apply([]database.Update{{Relation: "A", Delete: []relation.Tuple{{5, 0}}}})
	if err != nil || back.RelID("A") != old.RelID("A") {
		t.Fatalf("the inverse update did not restore A's identity: %v", err)
	}
	if st := run(back); st.NodesShared != all {
		t.Fatalf("the returned content shared %d nodes, want all %d", st.NodesShared, all)
	}
}

// TestNodeStoreRetiredContentAgesOut: a stream of updates whose content never
// returns leaves the values of every retired A behind, and the byte budget
// evicts them least recently used first: the store never holds more than its
// budget, and the B values read between the updates survive them all.
func TestNodeStoreRetiredContentAgesOut(t *testing.T) {
	q, err := parser.ParseQuery("(x, y). (exists z. (A(x, z) & A(z, y))) | (exists z. (B(x, z) & B(z, y)))")
	if err != nil {
		t.Fatal(err)
	}
	p, db := mustCompile(t, q), twoRelDB(t)
	const budget = 4 << 10
	store := NewNodeStore(budget)
	run := func() int64 {
		t.Helper()
		_, st, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: BackendDense, Parallelism: 1, Nodes: store})
		if err != nil {
			t.Fatal(err)
		}
		return st.NodesShared
	}
	run()
	run()
	bSide := run() / 2
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			next, delta, err := db.Apply([]database.Update{{Relation: "A", Insert: []relation.Tuple{{x, y}}}})
			if err != nil {
				t.Fatal(err)
			} else if delta.Empty() {
				continue
			}
			db = next
			if got := run(); got != bSide {
				t.Fatalf("A grew by (%d, %d): the first run shared %d nodes, want the B side's %d", x, y, got, bSide)
			}
			run() // the A side's second offer: admitted
			if st := store.Stats(); st.Bytes > budget {
				t.Fatalf("%d bytes held, budget %d", st.Bytes, budget)
			}
		}
	}
	if st := store.Stats(); st.Evictions == 0 {
		t.Fatalf("the retired values never filled the store: %+v", st)
	}
}

// TestSharedStoreMaintained: a captured state is complete whether its
// fixpoint was computed or taken from the store, so maintenance restarts from
// the same stage and does the same work either way.
func TestSharedStoreMaintained(t *testing.T) {
	q, err := parser.ParseQuery("(x, y). P(x) & [lfp T(x, y). E(x, y) | (exists z. (E(x, z) & T(z, y)))](x, y)")
	if err != nil {
		t.Fatal(err)
	}
	p := mustCompile(t, q)
	db := forestDB(12, 4)
	db, _, err = db.Apply([]database.Update{{Relation: "P", Insert: []relation.Tuple{{0}, {5}}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, _, plain, err := EvalPlanCapture(ctx, p, db, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := NewNodeStore(1 << 20)
	var viaStore *MaintState
	var st *Stats
	for pass := 0; pass < 3; pass++ {
		if _, st, viaStore, err = EvalPlanCapture(ctx, p, db, &Options{Parallelism: 1, Nodes: store}); err != nil {
			t.Fatal(err)
		}
	}
	if st.NodesShared == 0 || st.FixIterations != 0 {
		t.Fatalf("third run did not take the fixpoint from the store: %+v", st)
	}
	if stateTuples(viaStore) != stateTuples(plain) || stateTuples(plain) == 0 {
		t.Fatalf("state from a store hit holds %d tuples, computed state %d", stateTuples(viaStore), stateTuples(plain))
	}
	next, delta, err := db.Apply([]database.Update{{Relation: "E", Insert: []relation.Tuple{{3, 4}}}})
	if err != nil || !CanMaintain(p, delta) {
		t.Fatalf("update not maintainable: %v", err)
	}
	want, wst, _, err := EvalPlanMaintained(ctx, p, next, &Options{Parallelism: 1}, plain)
	if err != nil {
		t.Fatal(err)
	}
	got, gst, _, err := EvalPlanMaintained(ctx, p, next, &Options{Parallelism: 1}, viaStore)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || *gst != *wst {
		t.Fatalf("maintenance from a store-hit state diverged: %+v vs %+v", gst, wst)
	}
}

// functionalGraph is a random graph of out-degree 1 over n elements with P on
// every fourth: one on which auto models the sparse route cheaper and the dense
// one is feasible.
func functionalGraph(r *rand.Rand, n int) *database.Database {
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
		b.Add("E", i, r.Intn(n))
		if i%4 == 0 {
			b.Add("P", i)
		}
	}
	return b.MustBuild()
}

// TestSharedStageAcrossRoutes: a closed seedable fixpoint is one element of
// the algebra whichever route computed it. Once two runs on one route have
// admitted the closure, a run on the other route and an auto run read it off
// the stored final stage — no stage, no hand-off — and a capturing run that
// did so returns the state its own route captures, from which maintenance
// resumes. At a store keyed per algebra the other route reran the loop.
func TestSharedStageAcrossRoutes(t *testing.T) {
	q, err := parser.ParseQuery("(x, y). P(x) & [lfp T(x, y). E(x, y) | (exists z. (E(x, z) & T(z, y)))](x, y)")
	if err != nil {
		t.Fatal(err)
	}
	p, db, ctx := mustCompile(t, q), functionalGraph(rand.New(rand.NewSource(233)), 12), context.Background()
	if _, route := ExplainRoute(p, db, nil); route != "sparse" {
		t.Fatalf("auto routes %q on the test graph, want sparse", route)
	}
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	next, delta, err := db.Apply([]database.Update{{Relation: "E", Insert: []relation.Tuple{{0, 11}, {11, 1}}}})
	if err != nil || !CanMaintain(p, delta) {
		t.Fatalf("update not maintainable: %v", err)
	}
	wantNext, err := Naive(q, next)
	if err != nil {
		t.Fatal(err)
	}
	for _, admit := range []Backend{BackendDense, BackendSparse} {
		other := BackendDense
		if admit == BackendDense {
			other = BackendSparse
		}
		_, _, own, err := EvalPlanCapture(ctx, p, db, &Options{Backend: other, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		store := NewNodeStore(1 << 20)
		for pass := 0; pass < 2; pass++ {
			if _, _, _, err := EvalPlanCapture(ctx, p, db, &Options{Backend: admit, Parallelism: 1, Nodes: store}); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range []Backend{other, BackendAuto} {
			got, st, state, err := EvalPlanCapture(ctx, p, db, &Options{Backend: b, Parallelism: 1, Nodes: store})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s after %s admitted: %d pairs, Naive %d", b, admit, got.Len(), want.Len())
			}
			if st.FixIterations != 0 || st.RepSwitches != 0 || st.NodesShared < 1 {
				t.Fatalf("%s after %s admitted did not read the stored stage: %+v", b, admit, st)
			}
			if b != other {
				continue
			}
			for i, stage := range own.stages {
				if (stage == nil) != (state.stages[i] == nil) || stage != nil && !stage.Equal(state.stages[i]) {
					t.Fatalf("%s after %s admitted: binder %d's captured stage is not the route's own", b, admit, i)
				}
			}
			got, st, _, err = EvalPlanMaintained(ctx, p, next, &Options{Backend: b, Parallelism: 1}, state)
			if err != nil || !got.Equal(wantNext) || st.MaintainedFromDelta != 1 {
				t.Fatalf("%s maintained from an adopted stage: %v, %+v", b, err, st)
			}
		}
		checkCharges(t, store) // a sparse value read off the stage is its block
	}
}

// filteredPaths is a sparse run's filter of a stored path body on its second
// axis: the join a stored layout serves (sparseAlg.filterSv).
const filteredPaths = "(x, y). P(y) & (exists z. (E(x, z) & E(z, y)))"

// TestStoredLayoutBuiltOnce: across runs, a stored value is laid out for a
// probing support once; the layout is charged to the store with its entry and
// leaves with it, an entry that could not keep it is not laid out, and the
// answers stay Naive's.
func TestStoredLayoutBuiltOnce(t *testing.T) {
	q, err := parser.ParseQuery(filteredPaths)
	if err != nil {
		t.Fatal(err)
	}
	p := mustCompile(t, q)
	db := forestDB(400, 40) // 390 edges, 380 paths, P on every 40th element
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	store := NewNodeStore(1 << 20)
	built, before := 0, NodeStoreStats{}
	store.onLayout = func() { built, before = built+1, store.st } // before the charge
	for pass := 0; pass < 5; pass++ {
		got, _, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: BackendSparse, Nodes: store})
		if err != nil || !got.Equal(want) {
			t.Fatalf("pass %d: %v, %d pairs, Naive %d", pass, err, got.Len(), want.Len())
		}
		if wantBuilt := min(pass, 1); built != wantBuilt { // pass 1 admits the body and then lays it out
			t.Fatalf("after pass %d the body was laid out %d times, want %d", pass, built, wantBuilt)
		}
	}
	var ix *joinIndex
	var body *list.Element
	for el := store.ll.Front(); el != nil; el = el.Next() {
		for _, l := range el.Value.(*storeEntry).layouts {
			ix, body = l, el
		}
	}
	after := store.Stats()
	if ix == nil || after.Bytes-before.Bytes != ix.bytes() || after.Admitted != before.Admitted {
		t.Fatalf("the layout is not charged as its own size %d: %+v, then %+v", ix.bytes(), before, after)
	}
	store.mu.Lock()
	store.remove(body)
	store.mu.Unlock()
	held := store.pinned
	for el := store.ll.Front(); el != nil; el = el.Next() {
		held += el.Value.(*storeEntry).bytes
	}
	if st := store.Stats(); st.Bytes != after.Bytes-body.Value.(*storeEntry).bytes || st.Bytes != held || st.Entries != after.Entries-1 {
		t.Fatalf("evicting the laid-out value left %+v of %+v, entries holding %d bytes", st, after, held)
	}
	got, _, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: BackendSparse, Nodes: store})
	if err != nil || !got.Equal(want) || built != 1 {
		t.Fatalf("after the eviction: %v, %d layouts built", err, built)
	}

	// Runs racing for one stored value install one layout between them, and
	// read it (run under -race).
	store = NewNodeStore(1 << 20)
	var builds atomic.Int64
	store.onLayout = func() { builds.Add(1) }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 4; pass++ {
				if got, _, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: BackendSparse, Nodes: store}); err != nil || !got.Equal(want) {
					t.Errorf("a concurrent run: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	installed := 0
	for el := store.ll.Front(); el != nil; el = el.Next() {
		installed += len(el.Value.(*storeEntry).layouts)
	}
	if n := builds.Load(); installed != 1 || n < 1 || n > 4 {
		t.Errorf("concurrent runs built %d layouts and installed %d, want one installed", n, installed)
	}
	checkCharges(t, store)

	// Under a 32 KiB budget the body (380 paths) is admitted, but an entry of
	// at most 8 KiB has no room for a layout that may take three words a
	// path: the runs filter without one and build none.
	store, built = NewNodeStore(32<<10), 0
	store.onLayout = func() { built++ }
	for pass := 0; pass < 3; pass++ {
		if got, _, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: BackendSparse, Nodes: store}); err != nil || !got.Equal(want) {
			t.Fatalf("under a small budget, pass %d: %v", pass, err)
		}
	}
	bodies := 0
	for el := store.ll.Front(); el != nil; el = el.Next() {
		if sv, ok := el.Value.(*storeEntry).vals[slot(true)].(*sval); ok && slices.Equal(sv.sup, []int{0, 1}) && sv.rel.Count() == 380 {
			bodies++
		}
	}
	if bodies != 1 || built != 0 {
		t.Fatalf("under a small budget: %d path bodies stored, %d layouts built", bodies, built)
	}
	checkCharges(t, store)
}

// TestSharedStoreConcurrent shares one small store between 8 goroutines, so
// that look-ups, admissions and evictions interleave (run under -race).
func TestSharedStoreConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(191))
	db := randomGraph(t, r, 5)
	qs := sharedQueries(r, 40)
	want := make([]*relation.Set, len(qs))
	for i, q := range qs {
		var err error
		if want[i], _, err = CompiledStats(q, db, &Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	store := NewNodeStore(16 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 4; pass++ {
				for i := range qs {
					i = (i + 5*w) % len(qs)
					got, _, err := CompiledStats(qs[i], db, &Options{Parallelism: 2, Nodes: store})
					if err != nil || !got.Equal(want[i]) {
						t.Errorf("worker %d: %s through the shared store: %v, err %v", w, qs[i], got, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := store.Stats(); st.Hits == 0 || st.Evictions == 0 || st.Bytes > 16<<10 {
		t.Fatalf("the store was not exercised: %+v", st)
	}

	// Two runs at once extend forks of one stored closure: each restarts the
	// loop from the stage the store holds, on a successor snapshot that adds an
	// edge, and unions what that derives — in a block of its own. The stored
	// blocks must come out byte for byte what they were.
	tc, err := parser.ParseQuery("(x, y). P(x) & [lfp T(x, y). E(x, y) | (exists z. (E(x, z) & T(z, y)))](x, y)")
	if err != nil {
		t.Fatal(err)
	}
	p, tdb, ctx := mustCompile(t, tc), forestDB(40, 8), context.Background()
	big := NewNodeStore(1 << 20)
	var state *MaintState
	for pass := 0; pass < 3; pass++ {
		_, st, ms, err := EvalPlanCapture(ctx, p, tdb, &Options{Backend: BackendSparse, Nodes: big})
		if err != nil || (pass == 2 && st.NodesShared == 0) {
			t.Fatalf("pass %d: %v, %+v", pass, err, st)
		}
		state = ms
	}
	held := map[*relation.Sparse]*relation.Sparse{}
	for el := big.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*storeEntry)
		held[e.vals[1].(*sval).rel] = e.vals[1].(*sval).rel.Clone()
		if e.stage != nil {
			held[e.stage] = e.stage.Clone()
		}
	}
	if len(held) == 0 || held[state.stages[0]] == nil {
		t.Fatalf("the closure's stage is not the store's: %d blocks held", len(held))
	}
	for w, edge := range []relation.Tuple{{7, 8}, {15, 16}} {
		wg.Add(1)
		go func(w int, edge relation.Tuple) {
			defer wg.Done()
			next, delta, err := tdb.Apply([]database.Update{{Relation: "E", Insert: []relation.Tuple{edge}}})
			if err != nil || !CanMaintain(p, delta) {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			want, _, err := EvalPlanContext(ctx, p, next, &Options{Backend: BackendDense, Parallelism: 1})
			for i := 0; i < 20 && err == nil; i++ {
				var got *relation.Set
				if got, _, _, err = EvalPlanMaintained(ctx, p, next, &Options{Backend: BackendSparse, Nodes: big}, state); err == nil && !got.Equal(want) {
					t.Errorf("worker %d: maintained closure has %d pairs, want %d", w, got.Len(), want.Len())
				}
			}
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w, edge)
	}
	wg.Wait()
	for rel, was := range held {
		if !rel.Equal(was) || rel.Cap() != was.Count() {
			t.Fatalf("a stored block changed under the runs that forked it: %d tuples in room for %d, was %d", rel.Count(), rel.Cap(), was.Count())
		}
	}
}

// TestNodeStoreAccounting pins the store's policy on a fixed sequence:
// admission on the second offer, refusal of a value over an eighth of the
// budget, least-recently-used eviction by bytes, interned Spaces, and a byte
// count that never passes the budget.
func TestNodeStoreAccounting(t *testing.T) {
	const budget = 8 << 10
	s := NewNodeStore(budget)
	size := func(key string, bytes int64) int64 { return bytes + int64(len(key)) + entryOverhead }
	held := func(key string) any { v, _ := s.get(key, false); return v }
	check := func(want NodeStoreStats) {
		t.Helper()
		if got := s.Stats(); got != want {
			t.Fatalf("stats %+v, want %+v", got, want)
		}
	}
	if s.put("a", false, 1, nil, 800) || held("a") != nil {
		t.Fatal("a value was kept on its first offer")
	}
	kept := s.put("a", false, 1, nil, 800)
	if again := s.put("a", false, 2, nil, 800); !kept || again || held("a") != 1 { // already held: the first value stays
		t.Fatal("a value was not kept on its second offer, or was replaced on its third")
	}
	check(NodeStoreStats{Hits: 1, Misses: 1, Admitted: 1, Entries: 1, Bytes: size("a", 800)})
	for i := 0; i < 2; i++ {
		if s.put("big", false, 0, nil, budget/8) {
			t.Fatal("a value over an eighth of the budget was kept")
		}
	}
	check(NodeStoreStats{Hits: 1, Misses: 1, Admitted: 1, Entries: 1, Bytes: size("a", 800)})
	// A stage is charged with its value: 8 bytes a tuple.
	stage, err := relation.SparseOf(1, 4, relation.Tuple{0}, relation.Tuple{3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s.put("fix", false, "v", stage, 100)
	}
	if v, st := s.get("fix", false); v != "v" || st != stage {
		t.Fatal("a stage did not come back with its value")
	}
	check(NodeStoreStats{Hits: 2, Misses: 1, Admitted: 2, Entries: 2, Bytes: size("a", 800) + size("fix", 100+16)})
	// Eight more 800-byte values pass the budget: "fix" and then b, the
	// least recently used once a was read again, go first.
	for _, key := range []string{"b", "c", "d", "e", "f", "g", "h", "i"} {
		if key == "h" {
			held("a")
		}
		for j := 0; j < 2; j++ {
			s.put(key, false, key, nil, 800)
			if st := s.Stats(); st.Bytes > budget {
				t.Fatalf("%d bytes held, budget %d", st.Bytes, budget)
			}
		}
	}
	if held("fix") != nil || held("b") != nil || held("a") != 1 || held("c") != "c" {
		t.Fatal("eviction did not take the least recently used entries")
	}
	check(NodeStoreStats{Hits: 5, Misses: 3, Admitted: 10, Evictions: 2, Entries: 8, Bytes: 8 * size("a", 800)})

	// Spaces: a 3-ary space over 8 elements is 64 bytes a mask, six masks;
	// over 32 elements it would take more than an eighth of the budget.
	sp, interned, err := s.space(3, 8)
	if again, _, _ := s.space(3, 8); err != nil || !interned || again != sp {
		t.Fatalf("space(3, 8) was not interned: %v", err)
	}
	if _, interned, err := s.space(3, 32); err != nil || interned {
		t.Fatalf("space(3, 32) interned beyond an eighth of the budget: %v", err)
	}
	check(NodeStoreStats{Hits: 5, Misses: 3, Admitted: 10, Evictions: 2, Entries: 8, Bytes: 8*size("a", 800) + 384})
	// 750 more bytes of masks do not fit beside eight values: one goes.
	if _, interned, err := s.space(3, 10); err != nil || !interned {
		t.Fatalf("space(3, 10) was not interned: %v", err)
	}
	check(NodeStoreStats{Hits: 5, Misses: 3, Admitted: 10, Evictions: 3, Entries: 7, Bytes: 7*size("a", 800) + 384 + 750})
	if _, interned, err := (*NodeStore)(nil).space(3, 8); err != nil || interned {
		t.Fatal("the nil store interns nothing")
	}
	if (*NodeStore)(nil).Stats() != (NodeStoreStats{}) {
		t.Fatal("the nil store has counted something")
	}

	// A value offered into another algebra's entry adds what the entry lacks:
	// the stage, if it had none, and of a sparse value that is the stage's
	// block its header only. So does such a value offered first.
	s = NewNodeStore(budget)
	sv := &sval{sup: []int{0}, rel: stage, shared: true}
	frozen := 8*int64(stage.Cap()+len(sv.sup)) + 64 // sparseAlg.freeze's charge
	for i := 0; i < 2; i++ {
		s.put("g", false, "v", nil, 100)
		s.put("h", true, sv, stage, frozen)
	}
	if !s.put("g", true, sv, stage, frozen) || s.put("g", true, sv, stage, frozen) {
		t.Fatal("a sparse value was not kept beside a dense one, or was kept twice")
	}
	if v, st := s.get("g", true); v != sv || st != stage {
		t.Fatal("the stage did not come with the value that brought it")
	}
	check(NodeStoreStats{Hits: 1, Admitted: 2, Entries: 2, Bytes: size("g", 100+16+72) + size("h", 16+72)})

	// What a sparse run leaves in a store is charged for what it occupies: a
	// value grown in place has room to spare until it is frozen, and a block
	// kept with that room would hold up to twice the bytes the budget counts.
	q, err := parser.ParseQuery("(x, y). S(x) & [lfp T(x, y). E(x, y) | (exists z. (E(x, z) & T(z, y)))](x, y)")
	if err != nil {
		t.Fatal(err)
	}
	store := NewNodeStore(1 << 20)
	for _, c := range sparseFixCases(t)[:2] { // forest and out-degree 3
		for pass := 0; pass < 2; pass++ {
			if _, _, _, err := EvalPlanCapture(context.Background(), mustCompile(t, q), c.db, &Options{Backend: BackendSparse, Nodes: store}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fixpoints := 0
	for el := store.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*storeEntry).stage != nil {
			fixpoints++
		}
	}
	if fixpoints != 2 {
		t.Fatalf("%d fixpoints with their stages were stored, want one per database", fixpoints)
	}
	checkCharges(t, store)
}

// checkCharges holds each entry of s to what it occupies: its key and
// overhead, its dense value, its sparse value's header and layouts, and every
// block among its sparse value and its stage once, frozen to its length.
func checkCharges(t *testing.T, s *NodeStore) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	held := s.pinned
	for el := s.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*storeEntry)
		want, blocks := int64(len(e.key))+entryOverhead, map[*relation.Sparse]bool{}
		if e.stage != nil {
			blocks[e.stage] = true
		}
		if d, ok := e.vals[0].(*relation.Dense); ok {
			want += int64(d.Space().Size()+7) / 8
		}
		if sv, ok := e.vals[1].(*sval); ok {
			if !sv.shared {
				t.Fatal("a stored sparse value is not marked shared")
			}
			want += 8*int64(len(sv.sup)) + 64
			blocks[sv.rel] = true
		}
		for _, ix := range e.layouts {
			want += ix.bytes()
		}
		for b := range blocks {
			if b.Cap() != b.Count() {
				t.Fatalf("a stored block has room for %d tuples, holds %d", b.Cap(), b.Count())
			}
			want += 8 * int64(b.Cap())
		}
		if e.bytes != want {
			t.Fatalf("an entry charged %d bytes occupies %d", e.bytes, want)
		}
		held += e.bytes
	}
	if held != s.st.Bytes {
		t.Fatalf("entries and Spaces hold %d bytes, the store counts %d", held, s.st.Bytes)
	}
}

// TestStoredValuesStayFrozen runs queries through a store small enough to
// evict, and checks every stored dense value after every run against the
// copy taken when it was first seen there: a run that mutated a stored value
// or released it to a pool would show up before the value is evicted.
func TestStoredValuesStayFrozen(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	db := randomGraph(t, r, 6)
	store := NewNodeStore(12 << 10)
	copies := map[*relation.Dense]*relation.Dense{}
	for _, q := range sharedQueries(r, 120) {
		for pass := 0; pass < 2; pass++ {
			if _, _, err := CompiledStats(q, db, &Options{Backend: BackendDense, Nodes: store}); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for el := store.ll.Front(); el != nil; el = el.Next() {
				d := el.Value.(*storeEntry).vals[0].(*relation.Dense)
				if was, ok := copies[d]; !ok {
					copies[d] = d.Clone()
				} else if !d.Equal(was) {
					t.Fatalf("a stored value changed while %s ran", q)
				}
			}
		}
	}
	if st := store.Stats(); st.Evictions == 0 || len(copies) < 20 {
		t.Fatalf("nothing was evicted (%+v) or too few values were watched (%d)", st, len(copies))
	}
}

// TestRefusedValuesStayOwned checks that a run gives up only what the store
// took: a closed node's value the store refused (first offer) is the run's to
// release to its Space pool, the one it kept (second offer) is not.
func TestRefusedValuesStayOwned(t *testing.T) {
	db := twoRelDB(t)
	q, err := parser.ParseQuery("(x, y). A(y, x) & (exists z. (A(x, z) & B(z, y)))")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	store := NewNodeStore(1 << 20)
	for pass, wantOwned := range []bool{true, false} {
		alg, _, err := newDenseAlg(db, len(p.Vars), nil)
		if err != nil {
			t.Fatal(err)
		}
		r := newRun[*relation.Dense](context.Background(), p, db, &Options{Parallelism: 1, Nodes: store}, alg, &Stats{}, p.DeltaOK, false)
		shared := 0
		for n, c := range p.Closed {
			if c == nil || n == p.Root {
				continue
			}
			if _, err := r.evalNode(n); err != nil {
				t.Fatal(err)
			}
			if shared++; r.owned[n] != wantOwned {
				t.Fatalf("pass %d: node %d owned = %v, want %v", pass, n, r.owned[n], wantOwned)
			}
		}
		if shared == 0 {
			t.Fatal("the plan has no shared node")
		}
	}
}

// closedValues evaluates every shared node of p over db, densely, and returns
// the values by key.
func closedValues(t testing.TB, p *plan.Plan, db *database.Database) map[plan.NodeKey]*relation.Dense {
	alg, _, err := newDenseAlg(db, len(p.Vars), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun[*relation.Dense](context.Background(), p, db, &Options{Parallelism: 1}, alg, &Stats{}, p.DeltaOK, false)
	out := map[plan.NodeKey]*relation.Dense{}
	for n, c := range p.Closed {
		if c == nil {
			continue
		}
		v, err := r.evalNode(n)
		if err != nil {
			t.Fatalf("node %d of %s: %v", n, p.Query, err)
		}
		out[c.Key] = v
	}
	return out
}

// FuzzNodeKey checks what sharing rests on: closed nodes of two formulas that
// carry the same key have the same value over any database. The seed corpus
// is pairs from the differential generator, written both as drawn and with a
// formula against a commuted, renamed or re-nested variant of itself.
func FuzzNodeKey(f *testing.F) {
	r := rand.New(rand.NewSource(223))
	qs := sharedQueries(r, 24)
	for i := 0; i+1 < len(qs); i += 2 {
		f.Add(qs[i].String(), qs[i+1].String(), int64(i))
	}
	f.Add("(x, y). exists z. (E(x, z) & E(z, y))", "(x, y). P(x) & (exists z. (E(z, y) & E(x, z)))", int64(1))
	f.Add("(x). [lfp S(x). P(x) | (exists y. (E(y, x) & S(y)))](x)", "(x). [lfp T(x). (exists y. (T(y) & E(y, x))) | P(x)](x)", int64(2))
	f.Add("(x). [lfp S(x). P(x) | [lfp S(x). S(x) | P(x)](x)](x)", "(x). [gfp S(x). P(x) | [lfp T(x). S(x) | P(x)](x)](x)", int64(3))
	f.Fuzz(func(t *testing.T, a, b string, seed int64) {
		var plans [2]*plan.Plan
		for i, text := range []string{a, b} {
			q, err := parser.ParseQuery(text)
			if err != nil || q.Width() > 3 {
				return
			}
			if plans[i], err = plan.Compile(q); err != nil {
				return
			}
		}
		r := rand.New(rand.NewSource(seed))
		db := randomGraph(t, r, 2+r.Intn(3))
		for _, p := range plans {
			if p.Query.Validate(db.Arities()) != nil {
				return
			}
		}
		va, vb := closedValues(t, plans[0], db), closedValues(t, plans[1], db)
		for key, x := range va {
			if y, ok := vb[key]; ok && !x.Equal(y) {
				t.Fatalf("one key, two values:\n%s\n%s\n%s\n%v\n%v", a, b, db, x, y)
			}
		}
	})
}

func TestFuzzNodeKeySeedsShare(t *testing.T) {
	// The hand-written seeds must actually meet: a fuzz target whose pairs
	// never share a key checks nothing.
	keys := func(text string) map[plan.NodeKey]bool {
		q, err := parser.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		out := map[plan.NodeKey]bool{}
		for _, c := range mustCompile(t, q).Closed {
			if c != nil {
				out[c.Key] = true
			}
		}
		return out
	}
	common := 0
	for key := range keys("(x, y). exists z. (E(x, z) & E(z, y))") {
		if keys("(x, y). P(x) & (exists z. (E(z, y) & E(x, z)))")[key] {
			common++
		}
	}
	if common < 4 { // two atoms, the join, the projection
		t.Fatalf("commuted two-hop bodies share %d keys, want at least 4", common)
	}
}
