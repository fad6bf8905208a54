// Tests of the seams the cost-routed auto backend adds: a stage loop handed
// from one algebra to the other at a stage boundary, the Stats of a run that
// left its route, and a fuzz target holding dense ≡ auto ≡ sparse under
// hand-offs at arbitrary stages.
package eval

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
)

// withHandOffScale runs fn with the hand-off price multiplied by scale: 0
// moves a loop as soon as the model prefers the other algebra at all, a
// negative scale at its first growing stage whatever the model says.
func withHandOffScale(scale float64, fn func()) {
	defer func(old float64) { handOffScale = old }(handOffScale)
	handOffScale = scale
	fn()
}

// finalStages is, per binder, the size of the last stage the events report.
func finalStages(events []TraceEvent) map[int]int {
	out := map[int]int{}
	for _, ev := range events {
		out[ev.Binder] = ev.Tuples
	}
	return out
}

// startOn evaluates p as auto would if it had chosen the named route.
func startOn(t *testing.T, name string, p *plan.Plan, db *database.Database, opts *Options) (planResult, error) {
	t.Helper()
	rt := routePlan(p, db, opts)
	if !rt.free {
		t.Fatalf("%s: only one route is feasible", p.Query)
	}
	rt.name = name
	return evalRoute(context.Background(), p, db, opts, rt, nil, false)
}

// TestDifferentialHandOff starts a transitive closure over a near-complete graph on
// the sparse route and a reachability over a path on the dense one — the wrong
// route each — with the hand-off price lowered: the loop must move once, at a
// stage boundary, and the other algebra must continue the stage sequence where
// it stopped, to the byte-identical answer.
func TestDifferentialHandOff(t *testing.T) {
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < 12; i++ {
		b.Domain(i)
		for j := 0; j < 12; j++ {
			if (i+2*j)%7 != 0 {
				b.Add("E", i, j)
			}
		}
	}
	nearComplete := b.MustBuild()
	for _, tc := range []struct {
		name, start string
		q           logic.Query
		db          *database.Database
		scale       float64
		after       int // the hand-off follows a stage later than this
	}{
		{"tc-near-complete", "sparse", tcQuery(), nearComplete, 0, 0},
		{"reach-path", "dense", reachQuery(), lineDB(24), 0, 0},
		{"reach-path-late", "dense", reachQuery(), lineDB(24), 1.5, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustCompile(t, tc.q)
			want, sink := newSink(), newSink()
			ref, rst, err := EvalPlanContext(context.Background(), p, tc.db, &Options{Backend: BackendDense, Observe: want.Observer})
			if err != nil {
				t.Fatal(err)
			}
			var res planResult
			withHandOffScale(tc.scale, func() {
				res, err = startOn(t, tc.start, p, tc.db, &Options{Observe: sink.Observer})
			})
			if err != nil {
				t.Fatal(err)
			}
			if setOf(res.head).String() != ref.String() {
				t.Fatalf("answer differs from dense:\n got %s\nwant %s", setOf(res.head), ref)
			}
			if res.stats.RepSwitches != 1 || res.stats.FixIterations != rst.FixIterations {
				t.Fatalf("RepSwitches = %d, want 1; %d stages, dense took %d", res.stats.RepSwitches, res.stats.FixIterations, rst.FixIterations)
			}
			events := sink.Log
			if got, want := pinTrace(events), pinTrace(want.Log); got != want {
				t.Fatalf("the stage sequence restarted or diverged:\n got %s\nwant %s", got, want)
			}
			moved := 0
			for _, ev := range events {
				if ev.HandOff {
					moved++
					if ev.Stage <= tc.after {
						t.Fatalf("hand-off after stage %d, want after stage %d at the earliest", ev.Stage, tc.after+1)
					}
				}
			}
			if moved != 1 {
				t.Fatalf("%d stage events carry HandOff, want 1", moved)
			}
		})
	}
}

// TestDifferentialAbandonedRunStats: a free sparse run that overruns its budget
// outside any stage loop is rerun dense, and what it did before giving up —
// node constructions, tuples touched — stays in the Stats, with the switch
// counted; a run that overruns inside a seedable loop hands the loop over from
// its last whole stage instead of starting again from ∅.
func TestDifferentialAbandonedRunStats(t *testing.T) {
	db := randomGraph(t, rand.New(rand.NewSource(5)), 9)
	twoHop := logic.MustQuery([]logic.Var{"x", "y"},
		logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("E", "z", "y")), "z"))
	for _, tc := range []struct {
		name   string
		q      logic.Query
		budget int
	}{{"join", twoHop, 30}, {"tc-loop", tcQuery(), 40}} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustCompile(t, tc.q)
			ref, dst, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: BackendDense})
			if err != nil {
				t.Fatal(err)
			}
			res, err := startOn(t, "sparse", p, db, &Options{sparseBudget: tc.budget})
			if err != nil {
				t.Fatal(err)
			}
			st := res.stats
			if setOf(res.head).String() != ref.String() || st.RepSwitches != 1 {
				t.Fatalf("answer equal: %v, RepSwitches %d (want 1)", setOf(res.head).String() == ref.String(), st.RepSwitches)
			}
			if st.TuplesTouched == 0 || st.SubformulaEvals <= dst.SubformulaEvals {
				t.Fatalf("the abandoned sparse attempt left no trace: %+v (dense alone: %+v)", st, dst)
			}
			if tc.name == "tc-loop" && st.FixIterations > dst.FixIterations+1 {
				t.Fatalf("the loop restarted from ∅: %d stages, dense alone %d", st.FixIterations, dst.FixIterations)
			}
		})
	}
}

// autoRouteCheck evaluates one generated formula under dense, auto — with the
// hand-off price scaled — and, where the fragment admits it, sparse: equal
// answers and, fixpoint by fixpoint, equal final stages. Dense answers as
// Naive, which reads the text by its semantics, does: whatever the compiler
// rewrote (filters landed in joins, regions scoped, axes shared by variables
// never live together) denotes the text.
func autoRouteCheck(t *testing.T, seed int64, scale float64) {
	r := rand.New(rand.NewSource(seed))
	f := (&diffGen{r: r, filters: true, aliases: true}).formula(3, nil)
	if logic.Validate(f, nil) != nil {
		return
	}
	q, err := logic.NewQuery(logic.SortedVars(logic.FreeVars(f)), f)
	if err != nil {
		return
	}
	db := randomGraph(t, r, 2+r.Intn(5))
	p := mustCompile(t, q)
	dsink := newSink()
	dense, _, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: BackendDense, Observe: dsink.Observer})
	if err != nil {
		t.Fatalf("dense(%s): %v", q, err)
	}
	if want, err := Naive(q, db); err != nil || !dense.Equal(want) {
		t.Fatalf("dense disagrees with Naive on %s (%v):\n got %s\nwant %s\n%s", q, err, dense, want, db)
	}
	backends := []Backend{BackendAuto}
	if p.Density(db.Size(), cardOf(db)).SparseOK {
		backends = append(backends, BackendSparse)
	}
	for _, b := range backends {
		sink := newSink()
		var got interface{ String() string }
		withHandOffScale(scale, func() {
			got, _, err = EvalPlanContext(context.Background(), p, db, &Options{Backend: b, Observe: sink.Observer})
		})
		if err != nil {
			t.Fatalf("%s(%s): %v", b, q, err)
		}
		if got.String() != dense.String() {
			t.Fatalf("%s disagrees with dense on %s (scale %g):\n got %s\nwant %s\n%s", b, q, scale, got, dense, db)
		}
		want, have := finalStages(dsink.Log), finalStages(sink.Log)
		for binder, tuples := range want {
			if have[binder] != tuples {
				t.Fatalf("%s(%s): binder %d ends at %d tuples, dense at %d", b, q, binder, have[binder], tuples)
			}
		}
	}
	// Renamed to fresh names in a seeded order, the text answers the same, and
	// either spelling compiles at its least width, which exceeds the text's
	// names where a parameter's name is rebound below an atom reading it,
	// or below it where the miniscoping pass narrowed a region.
	sigma := map[logic.Var]logic.Var{}
	for i, v := range r.Perm(len(diffVars)) {
		sigma[diffVars[i]] = logic.Var(fmt.Sprintf("w%d", v))
	}
	rq, err := logic.NewQuery(renameVars(q.Head, sigma), renameAll(q.Body, sigma))
	if err != nil {
		t.Fatalf("renaming %s: %v", q, err)
	}
	rp := mustCompile(t, rq)
	if got, _, err := EvalPlanContext(context.Background(), rp, db, &Options{Backend: BackendDense}); err != nil || !got.Equal(dense) {
		t.Fatalf("%s renamed %s (%v):\n got %s\nwant %s", q, rq, err, got, dense)
	}
	want := leastWidth(q)
	for _, p := range []*plan.Plan{p, rp} {
		if got := len(p.Vars); got != want && !(p.Narrowed && got < want) {
			t.Fatalf("%s: width %d, want the least width %d (written %d)", p.Query, got, want, q.Width())
		}
	}
}

// renameVars renames every variable of vs by sigma.
func renameVars(vs []logic.Var, sigma map[logic.Var]logic.Var) []logic.Var {
	out := make([]logic.Var, len(vs))
	for i, v := range vs {
		out[i] = sigma[v]
	}
	return out
}

// renameAll renames every variable of f, bound or free, by sigma.
func renameAll(f logic.Formula, sigma map[logic.Var]logic.Var) logic.Formula {
	switch g := f.(type) {
	case logic.Atom:
		return logic.Atom{Rel: g.Rel, Args: renameVars(g.Args, sigma)}
	case logic.Eq:
		return logic.Eq{L: sigma[g.L], R: sigma[g.R]}
	case logic.Not:
		return logic.Not{F: renameAll(g.F, sigma)}
	case logic.Binary:
		return logic.Binary{Op: g.Op, L: renameAll(g.L, sigma), R: renameAll(g.R, sigma)}
	case logic.Quant:
		return logic.Quant{Kind: g.Kind, V: sigma[g.V], F: renameAll(g.F, sigma)}
	case logic.Fix:
		return logic.Fix{Op: g.Op, Rel: g.Rel, Vars: renameVars(g.Vars, sigma), Body: renameAll(g.Body, sigma), Args: renameVars(g.Args, sigma)}
	}
	return f
}

// leastWidth is the width a plan of q needs when variables share an axis
// only if they are never live together: the head's, or at a binder the
// variables it binds plus those live there — the binder's free ones and,
// through an atom of a recursion relation in scope, the parameters the atom
// reads that relation's stage with. A fixpoint's parameters are what its body
// reads from around it, so a nested one takes those of an enclosing relation
// it reads. Variables are told apart by the binder that introduces them,
// never by name.
func leastWidth(q logic.Query) int {
	type rec struct {
		rel    string
		params []int
	}
	width, next := len(q.Head), 0
	fresh := func(env map[logic.Var]int, v logic.Var) map[logic.Var]int {
		out := map[logic.Var]int{v: next}
		for w, id := range env {
			if w != v {
				out[w] = id
			}
		}
		next++
		return out
	}
	env := map[logic.Var]int{}
	for _, v := range q.Head {
		env = fresh(env, v)
	}
	// live returns the variables f reads from around it.
	var live func(f logic.Formula, env map[logic.Var]int, recs []rec) map[int]bool
	live = func(f logic.Formula, env map[logic.Var]int, recs []rec) map[int]bool {
		out := map[int]bool{}
		add := func(vs ...logic.Var) {
			for _, v := range vs {
				out[env[v]] = true
			}
		}
		switch g := f.(type) {
		case logic.Atom:
			add(g.Args...)
			for i := len(recs) - 1; i >= 0; i-- {
				if recs[i].rel == g.Rel {
					for _, id := range recs[i].params {
						out[id] = true
					}
					break
				}
			}
		case logic.Eq:
			add(g.L, g.R)
		case logic.Not:
			return live(g.F, env, recs)
		case logic.Binary:
			out = live(g.L, env, recs)
			for id := range live(g.R, env, recs) {
				out[id] = true
			}
		case logic.Quant:
			inner := fresh(env, g.V)
			out = live(g.F, inner, recs)
			delete(out, inner[g.V])
			width = max(width, len(out)+1)
		case logic.Fix:
			inner := env
			for _, v := range g.Vars {
				inner = fresh(inner, v)
			}
			var params []int
			for id := range live(g.Body, inner, append(slices.Clip(recs), rec{g.Rel, nil})) {
				if !slices.ContainsFunc(g.Vars, func(v logic.Var) bool { return inner[v] == id }) {
					params = append(params, id)
				}
			}
			out = live(g.Body, inner, append(slices.Clip(recs), rec{g.Rel, params}))
			for _, v := range g.Vars {
				delete(out, inner[v])
			}
			width = max(width, len(out)+len(g.Vars))
			add(g.Args...)
		}
		return out
	}
	live(q.Body, env, nil)
	return width
}

// FuzzAutoRoute: whatever route auto takes and wherever its loops change
// algebra, the answer is dense's. The price scale is drawn from the input, so
// hand-offs fire at the first stage, never, and in between.
func FuzzAutoRoute(f *testing.F) {
	// Seeds 24, 36, 73, 87 and 103 draw a filtered closure
	// (diffGen.filteredClosure), whose semi-naive stages filter a delta unless
	// the filter is negated; 18, 38, 71, 79, 104, 113 and 116 a parameter read
	// where its name is rebound (diffGen.aliased). The corpus under testdata
	// adds seed 897, a 3-name GFP that needs 4 axes.
	for seed := int64(0); seed < 120; seed++ {
		f.Add(seed, uint8(seed))
	}
	scales := []float64{-1, 0, 0.05, 0.5, 1, 4, 64, 1e12}
	f.Fuzz(func(t *testing.T, seed int64, scale uint8) {
		autoRouteCheck(t, seed, scales[int(scale)%len(scales)])
	})
}
