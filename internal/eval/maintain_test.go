package eval

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/relation"
)

func tcLFP() logic.Query {
	body := logic.Lfp("T", []logic.Var{"x", "y"},
		logic.Or(logic.R("E", "x", "y"),
			logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
		"x", "y")
	return logic.MustQuery([]logic.Var{"x", "y"}, body)
}

func tcIFP() logic.Query {
	body := logic.Ifp("T", []logic.Var{"x", "y"},
		logic.Or(logic.R("E", "x", "y"),
			logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
		"x", "y")
	return logic.MustQuery([]logic.Var{"x", "y"}, body)
}

func mustCompile(t testing.TB, q logic.Query) *plan.Plan {
	t.Helper()
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var denseOpts = &Options{Backend: BackendDense}

// stateTuples is the number of tuples s keeps over its stages.
func stateTuples(s *MaintState) int {
	n := 0
	for _, st := range s.stages {
		if st != nil {
			n += st.Count()
		}
	}
	return n
}

func TestMaintainTCInsert(t *testing.T) {
	ctx := context.Background()
	db := lineGraph(t, 30)
	p := mustCompile(t, tcLFP())

	base, st0, state, err := EvalPlanCapture(ctx, p, db, denseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if state == nil || stateTuples(state) == 0 {
		t.Fatalf("dense capture of a maintainable plan returned no state")
	}
	if st0.MaintainedFromDelta != 0 {
		t.Fatalf("capture run flagged as maintained")
	}

	db2, delta, err := db.Apply([]database.Update{{Relation: "E", Insert: []relation.Tuple{{15, 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !CanMaintain(p, delta) {
		t.Fatalf("insert-only delta on a positive relation should be maintainable")
	}
	got, mst, state2, err := EvalPlanMaintained(ctx, p, db2, denseOpts, state)
	if err != nil {
		t.Fatal(err)
	}
	if mst.MaintainedFromDelta != 1 {
		t.Fatalf("MaintainedFromDelta = %d, want 1", mst.MaintainedFromDelta)
	}
	want, sst, err := EvalPlanContext(ctx, p, db2, denseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("maintained answer differs from scratch:\n got %s\nwant %s", got, want)
	}
	if base.String() == want.String() {
		t.Fatalf("test edge did not change the answer; pick a better delta")
	}
	if mst.FixIterations > sst.FixIterations {
		t.Errorf("maintained run used %d stages, scratch %d — restart did not help",
			mst.FixIterations, sst.FixIterations)
	}

	// The fresh state chains: a second update maintains from it.
	db3, delta3, err := db2.Apply([]database.Update{{Relation: "E", Insert: []relation.Tuple{{29, 0}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !CanMaintain(p, delta3) {
		t.Fatal("second insert should be maintainable")
	}
	got3, _, _, err := EvalPlanMaintained(ctx, p, db3, denseOpts, state2)
	if err != nil {
		t.Fatal(err)
	}
	want3, _, err := EvalPlanContext(ctx, p, db3, denseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got3.String() != want3.String() {
		t.Fatalf("chained maintenance diverged from scratch")
	}
}

func TestCanMaintainPolarity(t *testing.T) {
	p := mustCompile(t, tcLFP())
	db := lineGraph(t, 6)

	ins := func(rel string, ts ...relation.Tuple) database.Update {
		return database.Update{Relation: rel, Insert: ts}
	}
	del := func(rel string, ts ...relation.Tuple) database.Update {
		return database.Update{Relation: rel, Delete: ts}
	}

	_, dIns, err := db.Apply([]database.Update{ins("E", relation.Tuple{3, 0})})
	if err != nil {
		t.Fatal(err)
	}
	if !CanMaintain(p, dIns) {
		t.Errorf("insert into positively-read E should be maintainable")
	}
	_, dDel, err := db.Apply([]database.Update{del("E", relation.Tuple{0, 1})})
	if err != nil {
		t.Fatal(err)
	}
	if CanMaintain(p, dDel) {
		t.Errorf("delete from positively-read E must force recomputation")
	}
	// P is outside the plan's footprint entirely.
	_, dP, err := db.Apply([]database.Update{del("P", relation.Tuple{0})})
	if err != nil {
		t.Fatal(err)
	}
	if !CanMaintain(p, dP) {
		t.Errorf("delta on an unreferenced relation should be maintainable (it cannot change the answer)")
	}
}

// TestMaintainNegatedAtomDelete exercises the negative-polarity direction:
// deleting from a relation read only under ¬ grows the stage operator, so the
// delta is maintainable even though it is a delete.
func TestMaintainNegatedAtomDelete(t *testing.T) {
	ctx := context.Background()
	body := logic.Lfp("T", []logic.Var{"x", "y"},
		logic.Or(
			logic.And(logic.R("E", "x", "y"), logic.Neg(logic.R("P", "x"))),
			logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
		"x", "y")
	q := logic.MustQuery([]logic.Var{"x", "y"}, body)
	p := mustCompile(t, q)

	db := lineGraph(t, 12) // P = {0}
	_, _, state, err := EvalPlanCapture(ctx, p, db, denseOpts)
	if err != nil {
		t.Fatal(err)
	}
	db2, delta, err := db.Apply([]database.Update{{Relation: "P", Delete: []relation.Tuple{{0}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !CanMaintain(p, delta) {
		t.Fatalf("delete from negatively-read P should be maintainable")
	}
	got, mst, _, err := EvalPlanMaintained(ctx, p, db2, denseOpts, state)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := EvalPlanContext(ctx, p, db2, denseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("maintained answer differs from scratch:\n got %s\nwant %s", got, want)
	}
	if mst.MaintainedFromDelta != 1 {
		t.Fatalf("MaintainedFromDelta = %d, want 1", mst.MaintainedFromDelta)
	}
	// The insert direction on P must be rejected.
	_, dIns, err := db2.Apply([]database.Update{{Relation: "P", Insert: []relation.Tuple{{0}}}})
	if err != nil {
		t.Fatal(err)
	}
	if CanMaintain(p, dIns) {
		t.Fatalf("insert into negatively-read P must force recomputation")
	}
}

// TestChurnDifferentialMaintained is the randomized churn harness: a stream
// of ≥200 tuple-level updates against maintained evaluation, differentially
// checked for byte-identical answers against from-scratch dense, sparse and
// auto runs at every step. The maintaining run alternates between the forced
// dense and the forced sparse route, step by step and query by query, so that
// every state is captured on one route and seeds the other. It runs under
// -race in `make check`.
func TestChurnDifferentialMaintained(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	db := randomGraph(t, r, 7)
	n := db.Size()

	type tracked struct {
		p     *plan.Plan
		state *MaintState
	}
	qs := []*tracked{
		{p: mustCompile(t, tcLFP())},
		{p: mustCompile(t, tcIFP())},
	}
	for _, q := range qs {
		_, _, state, err := EvalPlanCapture(ctx, q.p, db, denseOpts)
		if err != nil {
			t.Fatal(err)
		}
		if state == nil {
			t.Fatal("capture returned no state for a maintainable plan")
		}
		q.state = state
	}

	const steps = 220
	maintainedRuns := 0
	for step := 0; step < steps; step++ {
		// Insert-biased random churn over E, with occasional P updates and
		// deletes that force the recompute path.
		var ups []database.Update
		for k := 0; k < 1+r.Intn(3); k++ {
			tup := relation.Tuple{r.Intn(n), r.Intn(n)}
			if r.Intn(10) < 7 {
				ups = append(ups, database.Update{Relation: "E", Insert: []relation.Tuple{tup}})
			} else {
				ups = append(ups, database.Update{Relation: "E", Delete: []relation.Tuple{tup}})
			}
		}
		if r.Intn(5) == 0 {
			ups = append(ups, database.Update{Relation: "P", Insert: []relation.Tuple{{r.Intn(n)}}})
		}
		next, delta, err := db.Apply(ups)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		db = next

		for qi, q := range qs {
			var got *relation.Set
			routeOpts := []*Options{denseOpts, {Backend: BackendSparse}}[(step+qi)%2]
			if q.state != nil && CanMaintain(q.p, delta) {
				ans, st, state, err := EvalPlanMaintained(ctx, q.p, db, routeOpts, q.state)
				if err != nil {
					t.Fatalf("step %d query %d: maintain: %v", step, qi, err)
				}
				if st.MaintainedFromDelta != 1 {
					t.Fatalf("step %d query %d: maintained run not flagged", step, qi)
				}
				got, q.state = ans, state
				maintainedRuns++
			} else {
				ans, _, state, err := EvalPlanCapture(ctx, q.p, db, routeOpts)
				if err != nil {
					t.Fatalf("step %d query %d: recompute: %v", step, qi, err)
				}
				if state == nil {
					t.Fatalf("step %d query %d: no state captured on the %s route", step, qi, routeOpts.Backend)
				}
				got, q.state = ans, state
			}

			wantDense, _, err := EvalPlanContext(ctx, q.p, db, denseOpts)
			if err != nil {
				t.Fatalf("step %d query %d: dense scratch: %v", step, qi, err)
			}
			if got.String() != wantDense.String() {
				t.Fatalf("step %d query %d: maintained ≠ dense scratch\n got %s\nwant %s",
					step, qi, got, wantDense)
			}
			wantAuto, _, err := EvalPlanContext(ctx, q.p, db, nil)
			if err != nil {
				t.Fatalf("step %d query %d: auto scratch: %v", step, qi, err)
			}
			if got.String() != wantAuto.String() {
				t.Fatalf("step %d query %d: maintained ≠ auto scratch", step, qi)
			}
			if den := q.p.Density(db.Size(), cardOf(db)); den.SparseOK {
				wantSparse, _, err := EvalPlanContext(ctx, q.p, db, &Options{Backend: BackendSparse})
				if err != nil {
					t.Fatalf("step %d query %d: sparse scratch: %v", step, qi, err)
				}
				if got.String() != wantSparse.String() {
					t.Fatalf("step %d query %d: maintained ≠ sparse scratch", step, qi)
				}
			}
		}
	}
	if maintainedRuns < steps/2 {
		t.Fatalf("only %d maintained runs over %d steps — the harness is not exercising maintenance", maintainedRuns, steps)
	}
}
