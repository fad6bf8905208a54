package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/relation"
)

// lineGraph builds the path 0 → 1 → … → n−1 with P = {0}.
func lineGraph(t testing.TB, n int) *database.Database {
	t.Helper()
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	for i := 0; i+1 < n; i++ {
		b.Add("E", i, i+1)
	}
	b.Add("P", 0)
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// randomGraph builds a random digraph over n nodes with edge probability ~1/3
// and a random unary P.
func randomGraph(t testing.TB, r *rand.Rand, n int) *database.Database {
	t.Helper()
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Intn(3) == 0 {
				b.Add("E", i, j)
			}
		}
		if r.Intn(2) == 0 {
			b.Add("P", i)
		}
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBottomUpAtomAndEquality(t *testing.T) {
	db := lineGraph(t, 4)
	q := logic.MustQuery([]logic.Var{"x", "y"}, logic.R("E", "x", "y"))
	got, err := BottomUp(q, db)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.SetOf(2, relation.Tuple{0, 1}, relation.Tuple{1, 2}, relation.Tuple{2, 3})
	if !got.Equal(want) {
		t.Fatalf("E = %v, want %v", got, want)
	}
	qe := logic.MustQuery([]logic.Var{"x", "y"}, logic.Equal("x", "y"))
	got, err = BottomUp(qe, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Fatalf("x=y has %d tuples, want 4", got.Len())
	}
}

func TestBottomUpTwoHopQuery(t *testing.T) {
	db := lineGraph(t, 5)
	q := logic.MustQuery([]logic.Var{"x", "y"},
		logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("E", "z", "y")), "z"))
	got, err := BottomUp(q, db)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.SetOf(2, relation.Tuple{0, 2}, relation.Tuple{1, 3}, relation.Tuple{2, 4})
	if !got.Equal(want) {
		t.Fatalf("two-hop = %v, want %v", got, want)
	}
}

// pathFormula is the §2.2 FO³ family: φ_m(x,y) ≡ ∃ path of length m.
func pathFormula(m int) logic.Formula {
	f := logic.Formula(logic.R("E", "x", "y"))
	for i := 1; i < m; i++ {
		f = logic.Exists(logic.And(logic.R("E", "x", "z"),
			logic.Exists(logic.And(logic.Equal("x", "z"), f), "x")), "z")
	}
	return f
}

func TestPathFormulaFO3(t *testing.T) {
	db := lineGraph(t, 6)
	for m := 1; m <= 5; m++ {
		q := logic.MustQuery([]logic.Var{"x", "y"}, pathFormula(m))
		if q.Width() > 3 {
			t.Fatalf("φ_%d has width %d > 3", m, q.Width())
		}
		got, err := BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		want := relation.NewSet(2)
		for i := 0; i+m < 6; i++ {
			want.Add(relation.Tuple{i, i + m})
		}
		if !got.Equal(want) {
			t.Fatalf("φ_%d = %v, want %v", m, got, want)
		}
	}
}

func TestCrossValidateFOEvaluators(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		db := randomGraph(t, r, 2+r.Intn(4))
		f := randFO(r, 3)
		head := logic.SortedVars(logic.FreeVars(f))
		q, err := logic.NewQuery(head, f)
		if err != nil {
			t.Fatal(err)
		}
		bu, err := BottomUp(q, db)
		if err != nil {
			t.Fatalf("BottomUp(%s): %v", q, err)
		}
		nv, err := Naive(q, db)
		if err != nil {
			t.Fatalf("Naive(%s): %v", q, err)
		}
		if !bu.Equal(nv) {
			t.Fatalf("BottomUp %v != Naive %v on %s\n%s", bu, nv, q, db)
		}
	}
}

// randFO generates a random FO formula over variables x,y,z and relations
// E/2, P/1.
func randFO(r *rand.Rand, depth int) logic.Formula {
	vars := []logic.Var{"x", "y", "z"}
	v := func() logic.Var { return vars[r.Intn(len(vars))] }
	if depth == 0 || r.Intn(5) == 0 {
		switch r.Intn(4) {
		case 0:
			return logic.R("E", v(), v())
		case 1:
			return logic.R("P", v())
		case 2:
			return logic.Equal(v(), v())
		default:
			return logic.Truth{Value: r.Intn(2) == 0}
		}
	}
	sub := func() logic.Formula { return randFO(r, depth-1) }
	switch r.Intn(6) {
	case 0:
		return logic.Not{F: sub()}
	case 1:
		return logic.Binary{Op: logic.AndOp, L: sub(), R: sub()}
	case 2:
		return logic.Binary{Op: logic.OrOp, L: sub(), R: sub()}
	case 3:
		return logic.Binary{Op: logic.BinOp(2 + r.Intn(2)), L: sub(), R: sub()}
	default:
		return logic.Quant{Kind: logic.QuantKind(r.Intn(2)), V: v(), F: sub()}
	}
}

func TestBottomUpWidthBound(t *testing.T) {
	db := lineGraph(t, 3)
	q := logic.MustQuery([]logic.Var{"x", "y"},
		logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("E", "z", "y")), "z"))
	if _, _, err := BottomUpStats(q, db, &Options{MaxWidth: 2}); err == nil {
		t.Fatal("width-3 query accepted under k=2")
	}
	if _, _, err := BottomUpStats(q, db, &Options{MaxWidth: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestBottomUpRejectsUnknownRelation(t *testing.T) {
	db := lineGraph(t, 3)
	q := logic.MustQuery([]logic.Var{"x"}, logic.R("Nope", "x"))
	if _, err := BottomUp(q, db); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

// TestPlanAdmissionMatchesValidate: the plan executor's admission, made over
// the plan's atom nodes, refuses what the formula walk refuses with the same
// error, and a recursion relation that shares a stored relation's name is
// not read as the stored one.
func TestPlanAdmissionMatchesValidate(t *testing.T) {
	db := lineGraph(t, 3)
	for _, text := range []string{
		"(x). Nope(x)",
		"(x, y). P(x) & E(x, y, y)",
		"(u). [lfp S(x). P(x) | (exists z. (E(z) & S(z)))](u)",
		"(u). [lfp E(x). P(x) | (exists z. (E(z) & z = x))](u)",
		"(x, y). E(x, y) & P(y)",
	} {
		q, err := parser.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Validate(db.Arities())
		_, _, _, got := EvalPlan(context.Background(), mustCompile(t, q), db, nil, nil, false)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: admitted with %v, Validate says %v", text, got, want)
		}
	}
}

func TestReachabilityLFP(t *testing.T) {
	db := lineGraph(t, 5)
	// Reach(x,y): [lfp S(x). x=y ∨ ∃z(E(x,z) ∧ S(z)/...)] — use param y.
	body := logic.Or(
		logic.Equal("x", "y"),
		logic.Exists(logic.And(logic.R("E", "x", "z"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))
	reach := logic.Lfp("S", []logic.Var{"x"}, body, "x")
	q := logic.MustQuery([]logic.Var{"x", "y"}, reach)
	if q.Width() != 3 {
		t.Fatalf("reachability width = %d, want 3", q.Width())
	}
	got, err := BottomUp(q, db)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NewSet(2)
	for i := 0; i < 5; i++ {
		for j := i; j < 5; j++ {
			want.Add(relation.Tuple{i, j})
		}
	}
	if !got.Equal(want) {
		t.Fatalf("reach = %v, want %v", got, want)
	}
	nv, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !nv.Equal(want) {
		t.Fatalf("naive reach = %v", nv)
	}
}

func TestGFPLargestSet(t *testing.T) {
	// [gfp S(x). P(x) ∧ ∃y(E(x,y) ∧ S(y)...)](u): greatest set of nodes with
	// an infinite (or terminating-in-cycle) P-path. On the 3-cycle with all P
	// it is everything; removing P(1) empties it stepwise.
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	b.Add("E", 0, 1).Add("E", 1, 2).Add("E", 2, 0)
	b.Add("P", 0).Add("P", 1).Add("P", 2)
	db := b.MustBuild()
	body := logic.And(logic.R("P", "x"),
		logic.Exists(logic.And(logic.R("E", "x", "y"),
			logic.Exists(logic.And(logic.Equal("x", "y"), logic.R("S", "x")), "x")), "y"))
	q := logic.MustQuery([]logic.Var{"u"}, logic.Gfp("S", []logic.Var{"x"}, body, "u"))
	got, err := BottomUp(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("gfp on full cycle = %v, want all 3", got)
	}

	b2 := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	b2.Add("E", 0, 1).Add("E", 1, 2).Add("E", 2, 0).Add("P", 0).Add("P", 2).Domain(1)
	db2 := b2.MustBuild()
	got2, err := BottomUp(q, db2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Len() != 0 {
		t.Fatalf("gfp with broken P-cycle = %v, want empty", got2)
	}
	// Cross-check both against Naive.
	for _, d := range []*database.Database{db, db2} {
		nv, err := Naive(q, d)
		if err != nil {
			t.Fatal(err)
		}
		bu, _ := BottomUp(q, d)
		if !nv.Equal(bu) {
			t.Fatalf("naive/bottomup disagree on gfp: %v vs %v", nv, bu)
		}
	}
}

func TestNestedAlternatingFixpoint(t *testing.T) {
	// The paper's §2.2 sentence: [gfp S(x). [lfp T(z). ∀y(E(z,y) →
	// (S(y) ∨ (P(y) ∧ T(y))))](x)](u): "no infinite E-path starting at u on
	// which P fails infinitely often."
	inner := logic.Lfp("T", []logic.Var{"z"},
		logic.Forall(logic.Implies(logic.R("E", "z", "y"),
			logic.Or(logic.R("S", "y"), logic.And(logic.R("P", "y"), logic.R("T", "y")))), "y"),
		"x")
	outer := logic.Gfp("S", []logic.Var{"x"}, inner, "u")
	q := logic.MustQuery([]logic.Var{"u"}, outer)

	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		db := randomGraph(t, r, 2+r.Intn(3))
		bu, err := BottomUp(q, db)
		if err != nil {
			t.Fatalf("BottomUp: %v", err)
		}
		nv, err := Naive(q, db)
		if err != nil {
			t.Fatalf("Naive: %v", err)
		}
		if !bu.Equal(nv) {
			t.Fatalf("alternating fixpoint disagrees: %v vs %v on\n%s", bu, nv, db)
		}
	}
}

func TestPFPConvergentAndDivergent(t *testing.T) {
	db := lineGraph(t, 3)
	// Convergent: [pfp S(x). true](u) reaches D in one step and stays.
	conv := logic.MustQuery([]logic.Var{"u"}, logic.Pfp("S", []logic.Var{"x"}, logic.True, "u"))
	got, err := BottomUp(conv, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("convergent pfp = %v", got)
	}
	// Divergent: [pfp S(x). ¬S(x)](u) flips between ∅ and D: limit is ∅.
	div := logic.MustQuery([]logic.Var{"u"}, logic.Pfp("S", []logic.Var{"x"}, logic.Neg(logic.R("S", "x")), "u"))
	got, err = BottomUp(div, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("divergent pfp = %v, want empty", got)
	}
	// Both cycle modes agree, and with Naive.
	for _, q := range []logic.Query{conv, div} {
		hash, _, err := BottomUpStats(q, db, &Options{PFPCycle: CycleHash})
		if err != nil {
			t.Fatal(err)
		}
		brent, _, err := BottomUpStats(q, db, &Options{PFPCycle: CycleBrent})
		if err != nil {
			t.Fatal(err)
		}
		nv, err := Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !hash.Equal(brent) || !hash.Equal(nv) {
			t.Fatalf("pfp modes disagree on %s: %v / %v / %v", q, hash, brent, nv)
		}
	}
}

func TestPFPGrowingCounter(t *testing.T) {
	// [pfp S(x). S-is-empty ? P : grow by E-successors] — converges to the
	// reachable set from P, like an lfp but via pfp.
	db := lineGraph(t, 5)
	grow := logic.Or(
		logic.R("S", "x"),
		logic.Or(logic.R("P", "x"),
			logic.Exists(logic.And(logic.R("E", "z", "x"),
				logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z")))
	q := logic.MustQuery([]logic.Var{"u"}, logic.Pfp("S", []logic.Var{"x"}, grow, "u"))
	got, err := BottomUp(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 { // P={0} reaches everything on the line
		t.Fatalf("pfp reachability = %v", got)
	}
	nv, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !nv.Equal(got) {
		t.Fatalf("naive disagrees: %v", nv)
	}
}

func TestPFPBudget(t *testing.T) {
	db := lineGraph(t, 3)
	div := logic.MustQuery([]logic.Var{"u"}, logic.Pfp("S", []logic.Var{"x"}, logic.Neg(logic.R("S", "x")), "u"))
	_, _, err := BottomUpStats(div, db, &Options{pfpBudget: 1})
	if err == nil || !errors.Is(err, ErrBudget) {
		t.Fatalf("expected budget error, got %v", err)
	}
}

func TestCrossValidateFPRandom(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		db := randomGraph(t, r, 2+r.Intn(3))
		f := randFP(r)
		q, err := logic.NewQuery(logic.SortedVars(logic.FreeVars(f)), f)
		if err != nil {
			t.Fatal(err)
		}
		if err := logic.Validate(f, nil); err != nil {
			continue
		}
		bu, err := BottomUp(q, db)
		if err != nil {
			t.Fatalf("BottomUp(%s): %v", q, err)
		}
		nv, err := Naive(q, db)
		if err != nil {
			t.Fatalf("Naive(%s): %v", q, err)
		}
		if !bu.Equal(nv) {
			t.Fatalf("FP disagreement on %s:\nBottomUp %v\nNaive %v\n%s", q, bu, nv, db)
		}
	}
}

// randFP generates a random FP formula: an FO skeleton with a fixpoint
// spliced in (possibly with a parameter variable).
func randFP(r *rand.Rand) logic.Formula {
	inner := logic.Or(
		logic.R("P", "x"),
		logic.Exists(logic.And(logic.R("E", "x", "z"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))
	var fix logic.Formula
	switch r.Intn(3) {
	case 0:
		fix = logic.Lfp("S", []logic.Var{"x"}, inner, "y")
	case 1:
		fix = logic.Gfp("S", []logic.Var{"x"},
			logic.And(inner, logic.R("S", "x")), "y")
	default:
		// Parameterized: body mentions free y.
		fix = logic.Lfp("S", []logic.Var{"x"},
			logic.Or(logic.Equal("x", "y"), inner), "y")
	}
	switch r.Intn(3) {
	case 0:
		return fix
	case 1:
		return logic.And(fix, logic.R("P", "y"))
	default:
		return logic.Exists(fix.(logic.Formula), "y")
	}
}

func TestNaiveSOEnumeration(t *testing.T) {
	db := lineGraph(t, 2)
	// ∃S ∀x (S(x) ↔ P(x)) — trivially true.
	f := logic.SOExists(logic.Forall(logic.Iff(logic.R("S", "x"), logic.R("P", "x")), "x"), logic.RelVar{Name: "S", Arity: 1})
	h, err := NaiveHolds(f, db)
	if err != nil {
		t.Fatal(err)
	}
	if !h {
		t.Fatal("∃S(S=P) should hold")
	}
	// ∃S ∀x (S(x) ∧ ¬S(x)) — unsatisfiable.
	g := logic.SOExists(logic.Forall(logic.And(logic.R("S", "x"), logic.Neg(logic.R("S", "x"))), "x"), logic.RelVar{Name: "S", Arity: 1})
	h, err = NaiveHolds(g, db)
	if err != nil {
		t.Fatal(err)
	}
	if h {
		t.Fatal("contradictory SO formula holds")
	}
}

func TestNaiveSOCapRefusesLargeSearch(t *testing.T) {
	db := lineGraph(t, 4)
	f := logic.SOExists(logic.True, logic.RelVar{Name: "S", Arity: 3}) // 4^3 = 64 bits > cap
	if _, err := NaiveHolds(f, db); err == nil {
		t.Fatal("oversized SO enumeration accepted")
	}
}

func TestBottomUpStatsArities(t *testing.T) {
	db := lineGraph(t, 4)
	// x,y,z,w chain: every intermediate has the query's width, 4...
	f := logic.Exists(logic.And(logic.R("E", "x", "y"),
		logic.And(logic.R("E", "y", "z"), logic.R("E", "z", "w"))), "y", "z", "w")
	q := logic.MustQuery([]logic.Var{"x"}, f)
	_, st, err := BottomUpStats(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxIntermediateArity != 4 {
		t.Fatalf("bottom-up max arity = %d, want 4", st.MaxIntermediateArity)
	}
	// ...while the width-3 rewrite of the same path stays at 3.
	q3 := logic.MustQuery([]logic.Var{"x"}, logic.Exists(pathFormula(3), "y"))
	_, st3, err := BottomUpStats(q3, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st3.MaxIntermediateArity != 3 {
		t.Fatalf("bottom-up max arity = %d, want 3", st3.MaxIntermediateArity)
	}
}

func TestEmptyDomainRejected(t *testing.T) {
	db, err := database.NewBuilder().Relation("P", 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	q := logic.MustQuery(nil, logic.Forall(logic.R("P", "x"), "x"))
	if _, err := BottomUp(q, db); err == nil {
		t.Fatal("BottomUp accepted an empty domain")
	}
	if _, err := Naive(q, db); err == nil {
		t.Fatal("Naive accepted an empty domain")
	}
}

func TestBooleanQueryProjection(t *testing.T) {
	db := lineGraph(t, 3)
	q := logic.MustQuery(nil, logic.Exists(logic.R("P", "x"), "x"))
	got, err := BottomUp(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Arity() != 0 || got.Len() != 1 {
		t.Fatalf("Boolean true query = %v", got)
	}
	q2 := logic.MustQuery(nil, logic.Forall(logic.R("P", "x"), "x"))
	got, err = BottomUp(q2, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("Boolean false query = %v", got)
	}
}
