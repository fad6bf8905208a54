package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/queryopt"
)

// tcQuery is the transitive-closure staple: T(x,y) ≡ E(x,y) ∨ ∃z(E(x,z) ∧ T(z,y)).
func tcQuery(t *testing.T) logic.Query {
	t.Helper()
	body := logic.Lfp("T", []logic.Var{"x", "y"},
		logic.Or(logic.R("E", "x", "y"),
			logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
		"x", "y")
	return logic.MustQuery([]logic.Var{"x", "y"}, body)
}

func TestCompileCSEFoldsDuplicates(t *testing.T) {
	// E(x,y) appears twice, and the two conjunctions are the same up to
	// commutation — everything folds onto single nodes.
	f := logic.Or(
		logic.And(logic.R("E", "x", "y"), logic.R("P", "x")),
		logic.And(logic.R("P", "x"), logic.R("E", "x", "y")))
	p, err := Compile(logic.MustQuery([]logic.Var{"x", "y"}, f))
	if err != nil {
		t.Fatal(err)
	}
	if p.CSEHits < 3 { // second E atom, second P atom, commuted And
		t.Fatalf("CSEHits = %d, want >= 3", p.CSEHits)
	}
	// Atoms E, P, one And, one Or (the Or of two identical kids still has
	// two slots, but only one And node exists).
	ands := 0
	for _, n := range p.Nodes {
		if n.Op == OpAnd {
			ands++
		}
	}
	if ands != 1 {
		t.Fatalf("got %d And nodes, want 1 after commutative CSE", ands)
	}
}

func TestCompileEqCanonicalization(t *testing.T) {
	f := logic.And(logic.Equal("x", "y"), logic.Equal("y", "x"))
	p, err := Compile(logic.MustQuery([]logic.Var{"x", "y"}, f))
	if err != nil {
		t.Fatal(err)
	}
	eqs := 0
	for _, n := range p.Nodes {
		if n.Op == OpEq {
			eqs++
		}
	}
	if eqs != 1 {
		t.Fatalf("got %d Eq nodes, want 1 (x=y and y=x are the same diagonal)", eqs)
	}
}

func TestCompileTCAnalysis(t *testing.T) {
	p, err := Compile(tcQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBinders != 1 {
		t.Fatalf("NumBinders = %d, want 1", p.NumBinders)
	}
	// The database atoms are hoisted; the recursion atom and its ancestors
	// are dirty.
	for n, nd := range p.Nodes {
		switch {
		case nd.Op == OpAtom && nd.Binder < 0:
			if p.Deps[n] != 0 {
				t.Errorf("db atom %s has deps %b, want recursion-free", nd.Rel, p.Deps[n])
			}
		case nd.Op == OpAtom && nd.Binder == 0:
			if p.Deps[n] != 1 {
				t.Errorf("recursion atom has deps %b, want 1", p.Deps[n])
			}
		}
	}
	if len(p.Dirty[0]) == 0 || len(p.PreEval[0]) == 0 {
		t.Fatalf("Dirty=%v PreEval=%v, want both nonempty", p.Dirty[0], p.PreEval[0])
	}
	// Hoisted frontier must be recursion-free and disjoint from Dirty.
	dirty := map[int]bool{}
	for _, n := range p.Dirty[0] {
		dirty[n] = true
	}
	for _, n := range p.PreEval[0] {
		if dirty[n] {
			t.Fatalf("PreEval node %d is dirty", n)
		}
	}
	if !p.DeltaOK[0] {
		t.Fatal("transitive closure must admit semi-naive evaluation")
	}
	// With no nested fixpoints, Sched covers Dirty exactly.
	if len(p.Sched[0]) != len(p.Dirty[0]) {
		t.Fatalf("Sched=%v Dirty=%v, want equal", p.Sched[0], p.Dirty[0])
	}
	checkSched(t, p, 0)
}

// checkSched asserts Sched is in topological order, the order the delta pass
// walks it in: every child of a node that is in Sched sits before it.
func checkSched(t *testing.T, p *Plan, b int) {
	t.Helper()
	at := map[int]int{}
	for i, n := range p.Sched[b] {
		at[n] = i
	}
	for i, n := range p.Sched[b] {
		for _, m := range p.Nodes[n].Kids {
			if j, ok := at[m]; ok && j >= i {
				t.Fatalf("child %d (position %d) not before node %d (position %d)", m, j, n, i)
			}
		}
	}
}

func TestCompileGFPNoDelta(t *testing.T) {
	body := logic.Gfp("S", []logic.Var{"x"},
		logic.And(logic.R("P", "x"),
			logic.Exists(logic.And(logic.R("E", "x", "y"), logic.R("S", "y")), "y")),
		"x")
	p, err := Compile(logic.MustQuery([]logic.Var{"x"}, body))
	if err != nil {
		t.Fatal(err)
	}
	if p.DeltaOK[0] {
		t.Fatal("GFP stages shrink; semi-naive union deltas must be disabled")
	}
}

func TestCompileNestedFixCoverage(t *testing.T) {
	// Inner fixpoint depends on the outer binder (reads S), so it is dirty
	// for the outer loop; its own dirty subtree must be covered — recomputed
	// by the inner loop, not scheduled by the outer one — and the outer
	// binder loses delta admissibility.
	inner := logic.Lfp("U", []logic.Var{"y"},
		logic.Or(logic.R("S", "y"),
			logic.Exists(logic.And(logic.R("E", "y", "z"), logic.R("U", "z")), "z")),
		"x")
	body := logic.Lfp("S", []logic.Var{"x"},
		logic.Or(logic.R("P", "x"), inner), "x")
	p, err := Compile(logic.MustQuery([]logic.Var{"x"}, body))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBinders != 2 {
		t.Fatalf("NumBinders = %d, want 2", p.NumBinders)
	}
	// Binders are allocated at fix entry: 0 is the outer S, 1 the inner U.
	innerFix := p.FixOf[1]
	if p.Deps[innerFix]&(1<<0) == 0 {
		t.Fatal("inner fix must be dirty for the outer binder")
	}
	if p.DeltaOK[0] {
		t.Fatal("outer binder with a nested dirty fixpoint cannot run semi-naive")
	}
	sched := map[int]bool{}
	for _, n := range p.Sched[0] {
		sched[n] = true
	}
	if !sched[innerFix] {
		t.Fatal("outer Sched must contain the inner fix node itself")
	}
	for _, n := range p.Dirty[1] {
		if sched[n] {
			t.Fatalf("inner dirty node %d leaked into outer Sched", n)
		}
	}
	checkSched(t, p, 0)
	checkSched(t, p, 1)
}

func TestCompileSiblingBindersNotShared(t *testing.T) {
	// Two sibling fixpoints with byte-identical bodies binding the same name:
	// CSE must keep their recursion atoms distinct (different binder ids),
	// the compiled counterpart of the monotone engine's memo-keying hazard.
	mk := func() logic.Formula {
		return logic.Lfp("S", []logic.Var{"x"},
			logic.Or(logic.R("P", "x"),
				logic.Exists(logic.And(logic.R("E", "x", "y"), logic.R("S", "y")), "y")),
			"x")
	}
	p, err := Compile(logic.MustQuery([]logic.Var{"x"}, logic.And(mk(), mk())))
	if err != nil {
		t.Fatal(err)
	}
	binders := map[int]bool{}
	for _, n := range p.Nodes {
		if n.Op == OpAtom && n.Rel == "S" && n.Binder >= 0 {
			binders[n.Binder] = true
		}
	}
	if len(binders) != 2 {
		t.Fatalf("sibling fixpoints share recursion-atom nodes: binders %v", binders)
	}
}

func TestCompileRejectsSOQuant(t *testing.T) {
	f := logic.SOExists(logic.R("A", "x"), logic.RelVar{Name: "A", Arity: 1})
	_, err := Compile(logic.MustQuery([]logic.Var{"x"}, f))
	if err == nil || !strings.Contains(err.Error(), "second-order") {
		t.Fatalf("err = %v, want second-order rejection", err)
	}
}

// TestCompileMaxVariables: a body may bind any number of names; what is
// bounded is the number live at once, the plan's axes, which go in 64-bit
// masks. Past 64 names in scope the scoping pass leaves the body as written,
// and the liveness allocation still lowers it by what is live at each
// binder: 65 nested binders over two atoms compile at width 3 (a vacuous ∃
// keeps its axis), and a 70-hop path written with a name per hop, each
// nested in the last, at width 2. Sixty-five head variables are refused, not
// miscompiled.
func TestCompileMaxVariables(t *testing.T) {
	vars := make([]logic.Var, 71)
	for i := range vars {
		vars[i] = logic.Var(fmt.Sprintf("v%d", i))
	}
	flat := logic.Exists(logic.And(logic.R("E", "x", vars[0]), logic.R("E", vars[64], "x")), vars[:65]...)
	path := logic.Formula(logic.R("E", vars[69], vars[70]))
	for i := 69; i >= 1; i-- {
		path = logic.And(logic.R("E", vars[i-1], vars[i]), logic.Exists(path, vars[i+1]))
	}
	for _, c := range []struct {
		q     logic.Query
		width int
	}{
		{logic.MustQuery([]logic.Var{"x"}, flat), 3},
		{logic.MustQuery([]logic.Var{vars[0]}, logic.Exists(path, vars[1])), 2},
	} {
		q, width := c.q, c.width
		p, err := Compile(q)
		if err != nil {
			t.Fatalf("%.60s…: %v", q, err)
		}
		if len(p.Vars) != width || p.Narrowed {
			t.Fatalf("%.60s…: width %d, narrowed %t; want %d as written", q, len(p.Vars), p.Narrowed, width)
		}
	}
	wide := logic.Formula(logic.R("P", vars[0]))
	for _, v := range vars[1:65] {
		wide = logic.And(wide, logic.R("P", v))
	}
	_, err := Compile(logic.MustQuery(vars[:65], wide))
	if err == nil || !strings.Contains(err.Error(), "64 variables") {
		t.Fatalf("err = %v, want the 64-variable refusal", err)
	}
}

// TestCompileNestedParameters: a fixpoint's parameters are found by one walk
// of its body, so compiling d nested fixpoints that each read an outer
// variable, (p). [lfp R1(x). E(x, p) | [lfp R2(x). E(x, p) | …](x)](p),
// costs about d times as much as one, not 2^d.
func TestCompileNestedParameters(t *testing.T) {
	nested := func(d int) logic.Query {
		f := logic.Formula(logic.R("E", "x", "p"))
		for i := d; i >= 1; i-- {
			at := logic.Var("x")
			if i == 1 {
				at = "p"
			}
			f = logic.Lfp(fmt.Sprintf("R%d", i), []logic.Var{"x"}, logic.Or(logic.R("E", "x", "p"), f), at)
		}
		return logic.MustQuery([]logic.Var{"p"}, f)
	}
	for _, d := range []int{1, 40} {
		p, err := Compile(nested(d))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Vars) != 2 || p.NumBinders != d {
			t.Fatalf("depth %d: width %d, %d binders; want 2, %d", d, len(p.Vars), p.NumBinders, d)
		}
	}
	one := testing.AllocsPerRun(3, func() { Compile(nested(1)) })
	forty := testing.AllocsPerRun(3, func() { Compile(nested(40)) })
	if forty > 60*one {
		t.Fatalf("40 nested fixpoints take %.0f allocations, one takes %.0f", forty, one)
	}
}

func TestCompileMaxBinders(t *testing.T) {
	f := logic.Formula(logic.R("P", "x"))
	for i := 0; i <= MaxBinders; i++ {
		f = logic.Or(f, logic.Lfp("S", []logic.Var{"x"},
			logic.Or(logic.R("S", "x"), logic.R("P", "x")), "x"))
	}
	_, err := Compile(logic.MustQuery([]logic.Var{"x"}, f))
	if err == nil || !strings.Contains(err.Error(), "binders") {
		t.Fatalf("err = %v, want MaxBinders rejection", err)
	}
}

// TestCompileMinimizesAcyclicCQ: an ∃∧ region written wider than its
// variables need compiles from its scoped form — head names and order kept,
// the written query kept — acyclic or cyclic, in a fixpoint body or not; a
// text that is already minimal, or whose regions cannot narrow, compiles
// exactly as written.
func TestCompileMinimizesAcyclicCQ(t *testing.T) {
	chain, err := queryopt.ChainCQ(7).ToFO()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(chain)
	if err != nil {
		t.Fatal(err)
	}
	if p.MinimizedFrom() != 8 || len(p.Vars) != 3 || p.Vars[0] != "v0" || p.Vars[1] != "v7" || !p.Narrowed {
		t.Fatalf("7-hop chain: minimized from %d, axes %v, narrowed %t", p.MinimizedFrom(), p.Vars, p.Narrowed)
	}
	if p.Query.Width() != 8 || len(p.HeadAxes) != 2 || p.HeadAxes[0] != 0 || p.HeadAxes[1] != 1 {
		t.Fatalf("7-hop chain: Query width %d, head axes %v", p.Query.Width(), p.HeadAxes)
	}
	var tree strings.Builder
	p.Explain(nil).Render(&tree)
	if !strings.Contains(tree.String(), "minimized: width 8 → 3\n") {
		t.Fatalf("rendered explain:\n%s", tree.String())
	}
	for _, c := range []struct {
		text  string
		width int
	}{
		// A triangle with a tail: the cycle needs 3, the tail 2.
		{"(x). exists a. exists b. exists c. exists d. (E(x, a) & E(a, b) & E(b, x) & E(x, c) & E(c, d))", 3},
		// A chain in a fixpoint body.
		{"(x, y). [lfp T(x, y). E(x, y) | exists a. exists b. (E(x, a) & E(a, b) & T(b, y))](x, y)", 3},
		// The one-point rule: z is y.
		{"(x, y). exists z. (E(x, z) & z = y)", 2},
	} {
		q, err := parser.ParseQuery(c.text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Vars) != c.width || !p.Narrowed || p.MinimizedFrom() != q.Width() {
			t.Errorf("%s: width %d (narrowed %t, minimized from %d), want %d from %d", c.text, len(p.Vars), p.Narrowed, p.MinimizedFrom(), c.width, q.Width())
		}
	}

	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	for name, q := range map[string]logic.Query{
		"two-hop (minimal)": logic.MustQuery([]logic.Var{x, y},
			logic.Exists(logic.And(logic.R("E", x, z), logic.R("E", z, y)), z)),
		"triangle (cyclic)": logic.MustQuery([]logic.Var{x},
			logic.Exists(logic.And(logic.R("E", x, y), logic.And(logic.R("E", y, z), logic.R("E", z, x))), y, z)),
		"three-hop (rebinds x)": logic.MustQuery([]logic.Var{x, y},
			logic.Exists(logic.And(logic.R("E", x, z),
				logic.Exists(logic.And(logic.R("E", z, x), logic.R("E", x, y)), x)), z)),
		"tc (fixpoint)": tcQuery(t),
	} {
		p, err := Compile(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.MinimizedFrom() != 0 || len(p.Vars) != q.Width() || p.Narrowed || p.Body.String() != q.Body.String() {
			t.Errorf("%s: minimized from %d, %d axes for width %d, lowered from %s", name, p.MinimizedFrom(), len(p.Vars), q.Width(), p.Body)
		}
	}
}

// TestCompileAllocatesByLiveness: a text that names more variables than are
// live at once compiles narrower, its axes going to variables by liveness,
// and under any names; a text whose names are all live at one binder keeps
// one axis per name, and a name rebound where a recursion atom reads the
// parameter it names takes one more.
func TestCompileAllocatesByLiveness(t *testing.T) {
	for _, c := range []struct {
		text, vars string // vars: Plan.Vars
		from       int    // Plan.MinimizedFrom()
	}{
		// The FPᵏ renaming idiom: the tuple's x takes the head's axis (no
		// parameter is live), z the next, and the inner x the tuple's again.
		{"(u). [lfp R(x). S(x) | (exists z. (E(z, x) & (exists x. (x = z & R(x)))))](u)", "[u z]", 3},
		// A parameter is live wherever an atom of its relation reads the
		// stage: z cannot take y's axis, though y is not free under ∃z.
		{"(u, y). [lfp S(x). x = y | (exists z. (E(z, x) & (exists x. (x = z & S(x)))))](u)", "[u y z]", 4},
		// Nested binders whose variables are never live together.
		{"(x). exists z. (P(z) & (exists y. !(E(x, y))))", "[x z]", 3},
		// Every name is live at ∃z: one axis per name, in name order.
		{"(y, x). exists z. (E(x, z) & E(z, y))", "[y x z]", 0},
		{"(x, y). exists z. (E(x, z) & (exists x. (E(z, x) & E(x, y))))", "[x y z]", 0},
		// R(p) reads R's stage at the parameter p while the p bound above
		// the atom ranges: two values under one name take two axes.
		{"(z, p). [lfp R(x). (P(x) & E(x, p)) | exists p. (E(x, p) & R(p))](z)", "[z p p]", 0},
		{"(p). [lfp R(x). E(x, p) | exists p. (E(x, p) & R(p))](p)", "[p x p]", 0},
	} {
		q, err := parser.ParseQuery(c.text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(p.Vars); got != c.vars || p.MinimizedFrom() != c.from || p.Narrowed {
			t.Errorf("%s: axes %s, minimized from %d (narrowed %v); want %s from %d", c.text, got, p.MinimizedFrom(), p.Narrowed, c.vars, c.from)
		}
	}
	// The reach text written with the head x, which names only the variables
	// live at once, is the plan the head u gets, but for the names and
	// MinimizedFrom.
	digest := func(text string) string {
		q, err := parser.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		p.Vars, p.WrittenWidth = nil, 0
		return planDigest(p)
	}
	u := digest("(u). [lfp R(x). S(x) | (exists z. (E(z, x) & (exists x. (x = z & R(x)))))](u)")
	if x := digest("(x). [lfp R(x). S(x) | (exists z. (E(z, x) & (exists x. (x = z & R(x)))))](x)"); x != u {
		t.Errorf("head u and head x compile apart: %s, %s", u, x)
	}
}

// TestPushFilters pins where the miniscoping pass puts a filter written
// beside an ∃ — in front of the join it filters, the selection before the
// join — and where it must leave one: "" wants the body as written.
func TestPushFilters(t *testing.T) {
	for _, c := range []struct{ text, want string }{
		{"(x, y). S(x) & (exists z. (E(x, z) & E(z, y)))",
			"(exists z. ((S(x) & E(x, z)) & E(z, y)))"},
		{"(x, y). (exists z. (E(x, z) & E(z, y))) & S(x) & T(y)", // two filters, two landings
			"(exists z. ((S(x) & E(x, z)) & (T(y) & E(z, y))))"},
		{"(x, y). S(x) & (exists z. (E(x, z) & (exists x. (E(z, x) & E(x, y)))))", // not past ∃x
			"(exists z. ((S(x) & E(x, z)) & (exists x. (E(z, x) & E(x, y)))))"},
		{"(x, y). S(y) & (exists z. (E(x, z) & (exists x. (E(z, x) & E(x, y)))))", // the innermost conjunct
			"(exists z. (E(x, z) & (exists x. (E(z, x) & (S(y) & E(x, y))))))"},
		{"(x). [lfp R(x). P(x) & (exists z. (E(x, z) & R(z)))](x)", // within a fixpoint body
			"[lfp R(x). (exists z. ((P(x) & E(x, z)) & R(z)))](x)"},
		{"(x, y). S(x) & (exists x. (E(x, y) & E(y, x)))", ""},                   // the ∃ rebinds x
		{"(x, y). F(x, y) & (exists z. (E(x, z) & E(z, y)))", ""},                // the join splits x, y
		{"(x, y). S(x) & (exists z. (!E(x, z) & E(z, y)))", ""},                  // x only under ¬
		{"(x). P(x) & (exists y. E(x, y))", ""},                                  // no join to filter
		{"(x, y). S(x) & (exists z. (E(x, z) | E(z, y)))", ""},                   // nor an ∨
		{"(x). [lfp R(x). P(x) | (R(x) & (exists z. (E(x, z) & P(z))))](x)", ""}, // a recursion atom
		{"(x, y). P(x) & [lfp T(x, y). E(x, y) | (exists z. (E(x, z) & T(z, y)))](x, y)", ""},
		{"(x, y). S(x) & (exists z. ([lfp T(x, z). E(x, z) | (exists y. (E(x, y) & T(y, z)))](x, z) & E(z, y)))", ""},
	} {
		q, err := parser.ParseQuery(c.text)
		if err != nil {
			t.Fatal(err)
		}
		body, err := logic.NNF(q.Body)
		if err != nil {
			t.Fatal(err)
		}
		var s scoper
		got, narrowed := s.scope(q.Head, body)
		if narrowed {
			t.Errorf("%s: narrowed", c.text)
		}
		if want := c.want; want == "" && got.String() != body.String() || want != "" && got.String() != want {
			t.Errorf("%s:\n got %s\nwant %s", c.text, got, want)
		}
	}
}

// TestScopeNoWiderThanJoinTree: on acyclic conjunctive queries the pass is
// never wider than the GYO join-tree rewrite it replaced. The widths are that
// rewrite's (queryopt.Minimize, which kept every head variable live
// throughout), recorded before it was deleted; of 808 acyclic queries drawn
// then, the pass matched it on 392 and undercut it on 416.
func TestScopeNoWiderThanJoinTree(t *testing.T) {
	for _, c := range []struct {
		text     string
		joinTree int
	}{
		{"(a0, a2, a3). (exists a1. (exists a4. (exists a5. (E(a0, a1) & (E(a1, a2) & (E(a1, a3) & (E(a0, a4) & E(a4, a5))))))))", 5},
		{"(v6, v4, v1). (exists v2. (exists v3. (exists v5. (exists v7. (T3(v1, v2, v3) & (R(v4) & (R(v5) & (R(v1) & (S2(v4, v4) & S2(v6, v7))))))))))", 4},
		{"(v2, v5). (exists v1. (exists v3. (exists v4. (S2(v1, v2) & (T3(v3, v4, v2) & R(v5))))))", 3},
		{"(v4, v2, v1). (exists v3. (exists v5. (R(v1) & (S2(v1, v2) & (T3(v2, v1, v2) & (S2(v1, v1) & (T3(v3, v4, v2) & T3(v1, v1, v5))))))))", 4},
		{"(a1, a3). (exists a0. (exists a2. (E(a0, a1) & (E(a0, a2) & E(a2, a3)))))", 3},
		{"(a1, a3, a4). (exists a0. (exists a2. (E(a0, a1) & (E(a1, a2) & (E(a0, a3) & E(a1, a4))))))", 3},
		{"(v4, v5, v2). (exists v1. (exists v3. (exists v6. (S2(v1, v2) & (T3(v1, v3, v4) & (R(v5) & T3(v6, v1, v2)))))))", 5},
		{"(v2, v3, v4). (exists v1. (T3(v1, v2, v3) & S2(v2, v4)))", 3},
		{"(v1, v2). (exists v3. (exists v4. (exists v5. (S2(v1, v2) & (R(v1) & (T3(v3, v1, v4) & (R(v4) & S2(v5, v1))))))))", 4},
		{"(v4, v3, v1). (exists v2. (exists v5. (exists v6. (R(v1) & (T3(v2, v3, v4) & (S2(v1, v5) & (R(v6) & R(v6))))))))", 4},
		{"(v1, v3). (exists v2. (exists v4. (S2(v1, v2) & T3(v3, v4, v1))))", 3},
		{"(v1). (exists v2. (exists v3. (exists v4. (T3(v1, v2, v3) & (S2(v1, v1) & T3(v1, v1, v4))))))", 3},
		{"(a1, a4). (exists a0. (exists a2. (exists a3. (E(a0, a1) & (E(a1, a2) & (E(a1, a3) & E(a3, a4)))))))", 3},
		{"(v2, v4, v3). (exists v1. (S2(v1, v2) & (R(v1) & (T3(v1, v1, v3) & (R(v3) & (R(v2) & (T3(v4, v2, v2) & S2(v2, v2))))))))", 3},
		{"(a1, a4, a5, a6). (exists a0. (exists a2. (exists a3. (E(a0, a1) & (E(a1, a2) & (E(a0, a3) & (E(a0, a4) & (E(a1, a5) & E(a0, a6)))))))))", 5},
		{"(v3, v1, v2). (exists v4. (R(v1) & (R(v2) & (R(v3) & R(v4)))))", 4},
		{"(v3, v2, v1). (exists v4. (exists v5. (exists v6. (S2(v1, v2) & (T3(v1, v2, v1) & (R(v3) & T3(v4, v5, v6)))))))", 6},
		{"(v1, v5, v6). (exists v2. (exists v3. (exists v4. (exists v7. (R(v1) & (T3(v1, v2, v1) & (T3(v3, v4, v5) & (R(v6) & R(v7)))))))))", 4},
		{"(v4, v3, v2). (exists v1. (S2(v1, v2) & S2(v3, v4)))", 3},
		{"(a1, a5). (exists a0. (exists a2. (exists a3. (exists a4. (E(a0, a1) & (E(a0, a2) & (E(a1, a3) & (E(a3, a4) & (E(a0, a5) & P(a3))))))))))", 3},
		{"(e, se, ss). (exists d. (exists m. (exists s. (EMP(e, d) & (MGR(d, m) & (SCY(m, s) & (SAL(e, se) & SAL2(s, ss))))))))", 4},
	} {
		q, err := parser.ParseQuery(c.text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Vars) > c.joinTree {
			t.Errorf("%s: width %d, the join tree's %d", c.text, len(p.Vars), c.joinTree)
		}
	}
}
