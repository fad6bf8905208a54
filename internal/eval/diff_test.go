// Differential testing of the Compiled engine: randomized FP/IFP queries over
// random small databases, with BottomUp as the oracle and Monotone as a
// second opinion where it is admitted. Beyond answer equality the harness
// checks the Stats invariants that make the compiled engine's counters
// trustworthy: incremental evaluation never takes more fixpoint stages than
// the tree-walking evaluator.
package eval

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
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
	// aliases lets half of the closures filters draws be aliased's shapes,
	// whose answers only Naive gives.
	aliases bool
	// wide adds wideJoin's ∃∧ bodies to formula's draw.
	wide bool
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
		cases = 12
	}
	if g.wide {
		cases = 14
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
		if g.aliases && g.r.Intn(2) == 0 {
			return g.aliased(depth-1, recs)
		}
		return g.filteredClosure()
	case 11:
		return g.besideExists(recs)
	case 12, 13:
		return g.wideJoin(recs)
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

// aliased emits a fixpoint R(a) with a parameter b that is read where b does
// not name it: a quantifier rebinds b below an atom of R, or a fixpoint T
// nested in R's body reads R, so that b is T's parameter too, rebound below
// T's atom or not. The formula walker's environment goes by name and aliases
// a rebound parameter with the variable that rebinds it.
func (g *diffGen) aliased(depth int, recs []string) logic.Formula {
	v := g.r.Perm(3)
	a, b, c := diffVars[v[0]], diffVars[v[1]], diffVars[v[2]]
	name := g.fresh("R")
	step := logic.Formula(logic.Exists(logic.And(logic.R("E", a, b), logic.R(name, b)), b))
	if g.r.Intn(2) == 0 {
		nested, w := g.fresh("T"), []logic.Var{a, b}[g.r.Intn(2)]
		step = logic.Lfp(nested, []logic.Var{c}, logic.Or(logic.R(name, c),
			logic.Exists(logic.And(logic.R("E", c, w), logic.R(nested, w)), w)), a)
	}
	body := logic.Or(logic.And(logic.R("P", a), logic.R("E", a, b)), step)
	if g.r.Intn(2) == 0 {
		body = logic.Or(body, g.formula(depth, append(append([]string(nil), recs...), name)))
	}
	if g.r.Intn(3) == 0 {
		return logic.Gfp(name, []logic.Var{a}, logic.And(logic.R(name, a), body), g.v())
	}
	return logic.Lfp(name, []logic.Var{a}, body, g.v())
}

// besideExists emits a filter beside an ∃: the shape plan.Compile's filter
// pushdown moves (a unary or binary filter beside a 2-hop join), in every
// variant where the filter must stop or stay — a recursion atom in its place,
// the ∃ or a nested one rebinding its variable, a binary filter's variables
// split across the join's conjuncts, the variable only under a negation or in
// a fixpoint application — and with a conjunct more.
func (g *diffGen) besideExists(recs []string) logic.Formula {
	v := g.r.Perm(3)
	a, b, c := diffVars[v[0]], diffVars[v[1]], diffVars[v[2]]
	filter := logic.Formula(logic.R("P", a))
	switch pick := g.r.Intn(4); {
	case pick == 0:
		filter = logic.R("E", a, b) // E(a, c) ∧ E(c, b) splits it
	case pick == 1 && len(recs) > 0:
		filter = logic.R(recs[g.r.Intn(len(recs))], a)
	}
	parts := []logic.Formula{logic.R("E", a, c), logic.R("E", c, b)}
	switch g.r.Intn(5) {
	case 0:
		parts[0] = logic.Neg(parts[0])
	case 1:
		name, x, y, z := g.fresh("C"), diffVars[0], diffVars[1], diffVars[2]
		parts[0] = logic.Lfp(name, []logic.Var{x, y}, logic.Or(logic.R("E", x, y),
			logic.Exists(logic.And(logic.R("E", x, z), logic.R(name, z, y)), z)), a, c)
	case 2:
		parts[1] = logic.Exists(logic.And(logic.R("E", c, a), logic.R("E", a, b)), a)
	case 3:
		parts = append(parts, g.leaf(recs))
	}
	g.r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	bound := c
	if g.r.Intn(4) == 0 {
		bound = a
	}
	beside := logic.Exists(logic.And(parts...), bound)
	if g.r.Intn(2) == 0 {
		return logic.And(filter, beside)
	}
	return logic.And(beside, filter)
}

// wideJoin emits an ∃∧ body over two to five fresh bound variables hung off a
// free one: a tree of edges, half the time with a chord that closes a cycle,
// an edge on to another free variable, an equality the one-point rule takes,
// an atom of a recursion relation in scope, and a filter beside it — the
// regions the miniscoping pass narrows.
func (g *diffGen) wideJoin(recs []string) logic.Formula {
	nodes := []logic.Var{g.v()}
	var conj []logic.Formula
	for k := 2 + g.r.Intn(4); len(nodes) <= k; {
		v := logic.Var(g.fresh("w"))
		conj = append(conj, logic.R("E", nodes[g.r.Intn(len(nodes))], v))
		nodes = append(nodes, v)
	}
	pick := func() logic.Var { return nodes[g.r.Intn(len(nodes))] }
	if g.r.Intn(2) == 0 {
		conj = append(conj, logic.R("E", pick(), pick()))
	}
	if g.r.Intn(2) == 0 {
		conj = append(conj, logic.R("E", pick(), g.v()))
	}
	if g.r.Intn(3) == 0 {
		conj = append(conj, logic.Equal(nodes[1+g.r.Intn(len(nodes)-1)], g.v()))
	}
	if len(recs) > 0 && g.r.Intn(2) == 0 {
		conj = append(conj, logic.R(recs[g.r.Intn(len(recs))], pick()))
	}
	g.r.Shuffle(len(conj), func(i, j int) { conj[i], conj[j] = conj[j], conj[i] })
	body := logic.Exists(logic.And(conj...), nodes[1:]...)
	if g.r.Intn(2) == 0 {
		return logic.And(logic.R("P", nodes[0]), body)
	}
	return body
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
		co, cst, err := CompiledStats(q, db, &Options{})
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

// TestDifferentialPushedFilters holds the plans of filters beside an ∃
// (diffGen.besideExists), on their own and inside a fixpoint body beside its
// recursion atoms, to BottomUp, which walks the formula as written: wherever
// plan.Compile's pushdown put a filter, or left it, every route answers as the
// text does.
func TestDifferentialPushedFilters(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	g := &diffGen{r: r}
	sparse := 0
	for trial := 0; trial < 300; trial++ {
		f := g.besideExists(nil)
		if trial%3 == 0 {
			name := g.fresh("S")
			f = logic.Lfp(name, []logic.Var{"x"}, logic.Or(logic.R(name, "x"), g.besideExists([]string{name})), g.v())
		}
		q, err := logic.NewQuery(logic.SortedVars(logic.FreeVars(f)), f)
		if err != nil {
			t.Fatal(err)
		}
		db := randomGraph(t, r, 2+r.Intn(5))
		want, _, err := BottomUpStats(q, db, nil)
		if err != nil {
			t.Fatalf("BottomUp(%s): %v", q, err)
		}
		for _, b := range []Backend{BackendDense, BackendSparse, BackendAuto} {
			got, _, err := CompiledStats(q, db, &Options{Backend: b})
			if b == BackendSparse && err != nil && strings.Contains(err.Error(), "sparse backend:") {
				continue
			}
			if err != nil {
				t.Fatalf("%s(%s): %v", b, q, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s disagrees with BottomUp on %s:\n got %v\nwant %v\n%s", b, q, got, want, db)
			}
			if b == BackendSparse {
				sparse++
			}
		}
	}
	if sparse < 200 {
		t.Fatalf("only %d of 300 texts ran sparse", sparse)
	}
}

// TestDifferentialPFP drives the two PFP-capable paths (compiled, BottomUp)
// over randomized parametrized PFP queries, where each engine must either produce the identical answer or fail with
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
			co, _, coErr := CompiledStats(q, db, opts)
			if (buErr == nil) != (coErr == nil) {
				t.Fatalf("body %d: error mismatch: bottomup=%v compiled=%v", bi, buErr, coErr)
			}
			if buErr == nil && !co.Equal(bu) {
				t.Fatalf("body %d: %v vs %v on\n%s", bi, co, bu, db)
			}
		}
	}
}

// TestDifferentialPositivePFP: a PFP whose body is positive in its relation
// compiles as an LFP (plan.Compile's lowering) and must still answer as the
// naive PFP iteration does — without and with parameters, negated, beside a
// rebinding, and nested under another fixpoint — on every backend.
func TestDifferentialPositivePFP(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for _, text := range []string{
		"(u). [pfp S(x). P(x) | (exists z. (E(z, x) & (exists x. (x = z & S(x)))))](u)",
		"(u, y). [pfp S(x). x = y | (exists z. (E(z, x) & (exists x. (x = z & S(x)))))](u)",
		"(u, y). [pfp S(x). S(x) | (exists z. (E(z, x) & (E(z, y) & (exists x. (x = z & S(x))))))](u)",
		"(x, y). [pfp S(x, y). E(x, y) | (exists z. (E(x, z) & S(z, y)))](x, y)",
		"(x). ![pfp S(x). P(x) | (exists y. (E(x, y) & (exists x. (x = y & S(x)))))](x)",
		"(x). [pfp S(x). !P(x) | (P(x) -> S(x))](x)",
		"(x). [pfp S(x). P(x) | [gfp U(y). S(y) & (exists z. (E(y, z) & (exists y. (y = z & U(y)))))](x)](x)",
		"(x). [pfp S(x). P(x) | [pfp S(y). P(y) & !S(y)](x)](x)",
		"(x). [pfp T(x). P(x) & [pfp S(y). T(y) | (exists z. (E(y, z) & (exists y. (y = z & S(y)))))](x)](x)",
		"(x). [ifp T(x). P(x) | [pfp S(y). T(y) | (exists z. (E(z, y) & (exists y. (y = z & S(y)))))](x)](x)",
		"(x, y). [lfp T(x, y). E(x, y) | [pfp S(u). u = y | (exists z. (E(z, u) & (exists u. (u = z & S(u)))))](x)](x, y)",
	} {
		p := naiveDifferential(t, r, text)
		lowered := false
		for _, n := range p.FixOf {
			lowered = lowered || p.Nodes[n].Fix.Op == logic.LFP && strings.Contains(text, "pfp "+p.Nodes[n].Fix.Rel+"(")
		}
		if !lowered {
			t.Fatalf("%s: no positive PFP was lowered", text)
		}
	}
}

// TestDifferentialNegatedFixpoints: plan.Compile lowers a negated LFP or GFP
// as the dual fixpoint logic.NNF writes, whose recursion atoms stand negated
// in the body, and must answer as naive does, nested, under ↔ and under →.
func TestDifferentialNegatedFixpoints(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	for _, text := range []string{
		"(x). ![lfp S(x). P(x) | (exists y. (E(x, y) & (exists x. (x = y & S(x)))))](x)",
		"(x). ![gfp S(x). P(x) & (exists y. (E(x, y) & (exists x. (x = y & S(x)))))](x)",
		"(x). ![lfp S(x). P(x) | [gfp T(y). S(y) & (exists z. (E(y, z) & (exists y. (y = z & T(y)))))](x)](x)",
		"(x). [lfp S(x). P(x) | (exists y. (E(x, y) & (exists x. (x = y & S(x)))))](x) <-> P(x)",
		"(x, y). [gfp S(x). (exists y. (E(x, y) & (exists x. (x = y & S(x)))))](x) -> E(x, y)",
		"(x). !(exists y. (E(x, y) & ![lfp S(x). P(x) | (exists z. (E(z, x) & (exists x. (x = z & S(x)))))](y)))",
	} {
		naiveDifferential(t, r, text)
	}
}

// TestRecursionParameters: a recursion relation's parameters are values, not
// names. A fixpoint nested in another's body that reads the outer relation
// takes the outer parameters as its own, and a quantifier that rebinds a
// parameter's name below a recursion atom binds a second value beside it.
// Both texts answer as Naive on every route of the compiled engine and on
// the formula walker under each of its rules: the walker's environment goes
// by name, so its entry renames the rebinding quantifier apart (unshadow).
func TestRecursionParameters(t *testing.T) {
	db, err := database.Parse(`
domain = {0, 1, 2, 3}
E/2 = {(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)}
P/1 = {(0), (2)}
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		"(z, p). [lfp R(x). (P(x) & E(x, p)) | [lfp T(y). R(y) | exists w. (E(y, w) & T(w))](x)](z)",
		"(z, p). [lfp R(x). (P(x) & E(x, p)) | exists p. (E(x, p) & R(p))](z)",
	} {
		q, err := parser.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() != 8 {
			t.Fatalf("%s: naive answers %v, want 8 tuples", text, want)
		}
		for _, b := range []Backend{BackendDense, BackendSparse, BackendAuto} {
			if got, _, err := CompiledStats(q, db, &Options{Backend: b}); err != nil || !got.Equal(want) {
				t.Errorf("%s on %s (%v): %v, naive %v", text, b, err, got, want)
			}
		}
		got, _, err := BottomUpStats(q, db, nil)
		if err != nil || !got.Equal(want) {
			t.Errorf("%s on bottomup (%v): %v, naive %v", text, err, got, want)
		}
		if got, _, err = MonotoneContext(context.Background(), q, db, nil); err != nil || !got.Equal(want) {
			t.Errorf("%s on monotone (%v): %v, naive %v", text, err, got, want)
		}
		if _, res, err := FindCertificate(context.Background(), q, db); err != nil || !res.Answer.Equal(want) {
			t.Errorf("%s on certified (%v): %v, naive %v", text, err, res, want)
		}
	}
}

// naiveDifferential compiles text and checks its answers against naive on six
// random graphs, on every backend (forced sparse may refuse a plan outside
// its fragment). It returns the plan.
func naiveDifferential(t *testing.T, r *rand.Rand, text string) *plan.Plan {
	t.Helper()
	q, err := parser.ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 6; trial++ {
		db := randomGraph(t, r, 2+r.Intn(5))
		want, err := Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range []Backend{BackendAuto, BackendDense, BackendSparse} {
			got, _, err := CompiledStats(q, db, &Options{Backend: be})
			if be == BackendSparse && !p.Density(db.Size(), cardOf(db)).SparseOK {
				if err == nil {
					t.Fatalf("%s: forced sparse answered a plan outside its fragment", text)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s backend %v: %v", text, be, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s backend %v: %v, naive %v on\n%s", text, be, got, want, db)
			}
		}
	}
	return p
}
