// Differential testing of the Compiled engine: randomized FP/IFP queries over
// random small databases, with BottomUp as the oracle and Monotone as a
// second opinion where it is admitted. Beyond answer equality the harness
// checks the Stats invariants that make the compiled engine's counters
// trustworthy: incremental evaluation never takes more fixpoint stages than
// the tree-walking evaluator, and parallel schedules change nothing.
package eval

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/logic"
)

// diffGen generates random NNF-positive FP/IFP formulas over variables
// x, y, z and relations E (binary), P (unary), with nested LFP/GFP/IFP
// operators whose recursion atoms appear only positively (plus the
// occasional legally-negative IFP self-reference).
type diffGen struct {
	r    *rand.Rand
	next int // fresh recursion-relation counter
	// filters adds the (anti-)semijoin shapes of filtered to formula's draw.
	filters bool
}

var diffVars = []logic.Var{"x", "y", "z"}

func (g *diffGen) v() logic.Var { return diffVars[g.r.Intn(len(diffVars))] }

// leaf emits an atom over the database or one of the recursion relations in
// scope.
func (g *diffGen) leaf(recs []string) logic.Formula {
	if len(recs) > 0 && g.r.Intn(3) == 0 {
		return logic.R(recs[g.r.Intn(len(recs))], g.v())
	}
	switch g.r.Intn(4) {
	case 0:
		return logic.R("P", g.v())
	case 1:
		return logic.Equal(g.v(), g.v())
	default:
		return logic.R("E", g.v(), g.v())
	}
}

func (g *diffGen) formula(depth int, recs []string) logic.Formula {
	if depth == 0 || g.r.Intn(5) == 0 {
		return g.leaf(recs)
	}
	sub := func() logic.Formula { return g.formula(depth-1, recs) }
	cases := 9
	if g.filters {
		cases = 11
	}
	switch g.r.Intn(cases) {
	case 0:
		return logic.And(sub(), sub())
	case 1:
		return logic.Or(sub(), sub())
	case 2:
		return logic.Exists(sub(), g.v())
	case 3:
		return logic.Forall(sub(), g.v())
	case 4:
		// Negation stays off recursion relations to keep bodies positive.
		return logic.Neg(g.leaf(nil))
	case 5, 6:
		return g.fixpoint(depth-1, recs)
	case 9:
		return g.filtered(recs)
	case 10:
		return g.filteredClosure()
	default:
		return logic.And(sub(), g.leaf(recs))
	}
}

// filtered emits a conjunct over all three variables under a filter on one of
// them or on two — the leading, a middle or the trailing axes of its support —
// positive or, off the recursion relations, negated: the sparse algebra's
// semijoin and antijoin, by ranges and by keys. Inside a fixpoint body a
// recursion relation may be the filter, sit in the conjunct, or both, so that a
// semi-naive stage meets the shape with a delta on either side (deltaAnd →
// joinSv → filterSv).
func (g *diffGen) filtered(recs []string) logic.Formula {
	v := g.r.Perm(3)
	a, b, c := diffVars[v[0]], diffVars[v[1]], diffVars[v[2]]
	wide := logic.And(logic.R("E", a, b), logic.R("E", b, c))
	if len(recs) > 0 && g.r.Intn(2) == 0 {
		wide = logic.And(logic.R(recs[g.r.Intn(len(recs))], g.v()), wide)
	}
	filter, stored := logic.Formula(logic.R("P", g.v())), true
	switch pick := g.r.Intn(4); {
	case pick == 0:
		filter = logic.R("E", a, c) // {a, c} is any two of the three axes
	case pick == 1 && len(recs) > 0:
		filter, stored = logic.R(recs[g.r.Intn(len(recs))], g.v()), false
	}
	if stored && g.r.Intn(3) == 0 {
		filter = logic.Neg(filter)
	}
	if g.r.Intn(2) == 0 {
		return logic.And(wide, filter)
	}
	return logic.And(filter, wide)
}

// filteredClosure emits a transitive closure whose step is filtered inside the
// body: T(x, y) ← E(x, y) ∨ ∃z (step(x, z, y) ∧ filter). A stored filter,
// unary or binary on any of the step's axes, meets each stage's delta of the
// step (deltaAnd → joinSv → filterSv, the delta the filtered side); ∃x T(x, y)
// as the filter grows with the stages itself, so the step is filtered by a
// delta as well; a negated one takes the body off the semi-naive regime and the
// antijoin runs once a stage.
func (g *diffGen) filteredClosure() logic.Formula {
	name := g.fresh("T")
	x, y, z := diffVars[0], diffVars[1], diffVars[2]
	step := logic.And(logic.R("E", x, z), logic.R(name, z, y))
	if g.r.Intn(2) == 0 {
		step = logic.And(logic.R(name, x, z), logic.R("E", z, y))
	}
	filter, stored := logic.Formula(logic.R("P", g.v())), true
	switch g.r.Intn(4) {
	case 0:
		filter, stored = logic.Exists(logic.R(name, x, y), x), false
	case 1:
		filter = logic.R("E", g.v(), g.v())
	}
	if stored && g.r.Intn(3) == 0 {
		filter = logic.Neg(filter)
	}
	body := logic.And(step, filter)
	if g.r.Intn(2) == 0 {
		body = logic.And(filter, step)
	}
	return logic.Lfp(name, []logic.Var{x, y}, logic.Or(logic.R("E", x, y), logic.Exists(body, z)), x, y)
}

// fresh names a recursion relation no other binder of this generator has.
func (g *diffGen) fresh(prefix string) string {
	g.next++
	return prefix + string(rune('a'+(g.next-1)%26)) + string(rune('a'+((g.next-1)/26)%26))
}

// fixpoint wraps a generated body in a fresh LFP/GFP/IFP binder. The body is
// seeded with S(v) ∨ … so the recursion relation is actually read.
func (g *diffGen) fixpoint(depth int, recs []string) logic.Formula {
	name := g.fresh("S")
	rv := g.v()
	inner := g.formula(depth, append(append([]string(nil), recs...), name))
	var body logic.Formula
	op := g.r.Intn(3)
	if op == 2 && g.r.Intn(3) == 0 {
		// IFP may mention its own relation negatively — the non-monotone
		// path where delta evaluation must disable itself.
		body = logic.Or(logic.And(logic.R("P", rv), logic.Neg(logic.R(name, rv))), inner)
	} else {
		body = logic.Or(logic.R(name, rv), inner)
	}
	switch op {
	case 0:
		return logic.Lfp(name, []logic.Var{rv}, body, g.v())
	case 1:
		return logic.Gfp(name, []logic.Var{rv}, logic.And(logic.R(name, rv), logic.Or(inner, logic.True)), g.v())
	default:
		return logic.Ifp(name, []logic.Var{rv}, body, g.v())
	}
}

func TestDifferentialCompiledVsBottomUp(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	g := &diffGen{r: r}
	trials, kept := 400, 0
	for trial := 0; trial < trials; trial++ {
		f := g.formula(3, nil)
		if logic.Validate(f, nil) != nil {
			continue // e.g. a GFP body that came out non-positive
		}
		q, err := logic.NewQuery(logic.SortedVars(logic.FreeVars(f)), f)
		if err != nil {
			continue
		}
		kept++
		db := randomGraph(t, r, 2+r.Intn(4))

		bu, bst, err := BottomUpStats(q, db, nil)
		if err != nil {
			t.Fatalf("BottomUp(%s): %v", q, err)
		}
		co, cst, err := CompiledStats(q, db, &Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("Compiled(%s): %v", q, err)
		}
		if !co.Equal(bu) {
			t.Fatalf("Compiled disagrees on %s:\ncompiled %v\nbottomup %v\n%s", q, co, bu, db)
		}
		// Delta/hoisted evaluation reproduces BottomUp's stage sequences;
		// hoisting closed inner fixpoints can only remove stages.
		if cst.FixIterations > bst.FixIterations {
			t.Fatalf("%s: compiled FixIterations %d > bottomup %d", q, cst.FixIterations, bst.FixIterations)
		}

		// A parallel schedule must be observationally identical.
		cp, pst, err := CompiledStats(q, db, &Options{Parallelism: 4})
		if err != nil {
			t.Fatalf("Compiled parallel(%s): %v", q, err)
		}
		if !cp.Equal(co) || *pst != *cst {
			t.Fatalf("%s: parallel evaluation diverged (stats %+v vs %+v)", q, pst, cst)
		}

		// Monotone, when the fragment admits it, is a third independent
		// implementation.
		mo, _, err := MonotoneContext(context.Background(), q, db, nil)
		if err != nil {
			if strings.Contains(err.Error(), "alternation") || strings.Contains(err.Error(), "Monotone evaluates") {
				continue
			}
			t.Fatalf("Monotone(%s): %v", q, err)
		}
		if !mo.Equal(bu) {
			t.Fatalf("Monotone disagrees on %s:\nmonotone %v\nbottomup %v\n%s", q, mo, bu, db)
		}
	}
	if kept < trials/4 {
		t.Fatalf("generator kept only %d/%d formulas; tighten it", kept, trials)
	}
}

// TestDifferentialPFP drives the three PFP-capable paths (serial compiled,
// parallel compiled, BottomUp) over randomized parametrized PFP queries,
// where each engine must either produce the identical answer or fail with
// the identical budget error.
func TestDifferentialPFP(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	bodies := []logic.Formula{
		// Convergent: grow S along E edges.
		logic.Or(logic.R("S", "x"),
			logic.Exists(logic.And(logic.R("E", "z", "x"),
				logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z")),
		// Parametrized by y.
		logic.Or(logic.R("S", "x"),
			logic.Exists(logic.And(logic.R("E", "z", "x"),
				logic.And(logic.R("E", "z", "y"),
					logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x"))), "z")),
		// Possibly divergent: P ∧ ¬S flip-flops where P holds.
		logic.And(logic.R("P", "x"), logic.Neg(logic.R("S", "x"))),
	}
	for bi, body := range bodies {
		head := logic.SortedVars(logic.FreeVars(logic.Pfp("S", []logic.Var{"x"}, body, "u")))
		q := logic.MustQuery(head, logic.Pfp("S", []logic.Var{"x"}, body, "u"))
		for trial := 0; trial < 5; trial++ {
			db := randomGraph(t, r, 2+r.Intn(4))
			opts := &Options{pfpBudget: 64}
			bu, _, buErr := BottomUpStats(q, db, opts)
			for _, par := range []int{1, 4} {
				co, _, coErr := CompiledStats(q, db, &Options{pfpBudget: 64, Parallelism: par})
				if (buErr == nil) != (coErr == nil) {
					t.Fatalf("body %d par %d: error mismatch: bottomup=%v compiled=%v", bi, par, buErr, coErr)
				}
				if buErr == nil && !co.Equal(bu) {
					t.Fatalf("body %d par %d: %v vs %v on\n%s", bi, par, co, bu, db)
				}
			}
		}
	}
}
