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

// TestCompileMinimizesAcyclicCQ: an acyclic ∃∧-CQ written wider than its join
// tree needs is lowered from its minimised form — head names and order kept,
// the written query kept — and a text that is already minimal, cyclic, or
// outside the flat ∃∧ form compiles exactly as written.
func TestCompileMinimizesAcyclicCQ(t *testing.T) {
	chain, err := queryopt.ChainCQ(7).ToFO()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(chain)
	if err != nil {
		t.Fatal(err)
	}
	if p.MinimizedFrom() != 8 || len(p.Vars) != 3 || p.Vars[0] != "v0" || p.Vars[1] != "v7" {
		t.Fatalf("7-hop chain: minimized from %d, axes %v", p.MinimizedFrom(), p.Vars)
	}
	if p.Query.Width() != 8 || len(p.HeadAxes) != 2 || p.HeadAxes[0] != 0 || p.HeadAxes[1] != 1 {
		t.Fatalf("7-hop chain: Query width %d, head axes %v", p.Query.Width(), p.HeadAxes)
	}
	var tree strings.Builder
	p.Explain(nil).Render(&tree)
	if !strings.Contains(tree.String(), "minimized: width 8 → 3\n") {
		t.Fatalf("rendered explain:\n%s", tree.String())
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
		if p.MinimizedFrom() != 0 || len(p.Vars) != q.Width() {
			t.Errorf("%s: minimized from %d, %d axes for width %d", name, p.MinimizedFrom(), len(p.Vars), q.Width())
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
		{"(x). exists z. (exists y. !(P(x)))", "[x z]", 3},
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
		if got := fmt.Sprint(p.Vars); got != c.vars || p.MinimizedFrom() != c.from || p.Acyclic {
			t.Errorf("%s: axes %s, minimized from %d (acyclic %v); want %s from %d", c.text, got, p.MinimizedFrom(), p.Acyclic, c.vars, c.from)
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

// TestPushFilters pins where the selection-before-join rewrite puts a filter
// and where it must leave one: "" wants the body as written.
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
		got, moved := pushFilters(body, nil)
		if want := c.want; want == "" && (moved || got.String() != body.String()) || want != "" && got.String() != want {
			t.Errorf("%s:\n got %s (moved %t)\nwant %s", c.text, got, moved, want)
		}
	}
}
