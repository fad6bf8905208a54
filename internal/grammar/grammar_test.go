package grammar

import (
	"math/rand"
	"testing"

	"repro/internal/boolexpr"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/prop"
)

func TestParenGrammarBasics(t *testing.T) {
	// Balanced-parenthesis counting grammar: A → (), A → (A), A → (A A)
	// over the "bracket-only" alphabet, encoded with nested segments.
	g := New("A")
	g.MustAdd("A")                 // A → ( )
	g.MustAdd("A", N("A"))         // A → ( A )
	g.MustAdd("A", N("A"), N("A")) // A → ( A A )

	yes := [][]string{
		{"(", ")"},
		{"(", "(", ")", ")"},
		{"(", "(", ")", "(", ")", ")"},
	}
	for _, w := range yes {
		ok, err := g.Recognize(w)
		if err != nil {
			t.Fatalf("Recognize(%v): %v", w, err)
		}
		if !ok {
			t.Fatalf("%v not recognized", w)
		}
	}
	bad := [][]string{
		{"("},
		{")", "("},
		{"(", ")", "(", ")"}, // two segments
		{"(", "x", ")"},      // unknown terminal
	}
	for _, w := range bad {
		ok, err := g.Recognize(w)
		if err == nil && ok {
			t.Fatalf("%v recognized", w)
		}
	}
}

func TestAddValidation(t *testing.T) {
	g := New("A")
	if err := g.Add("", T("x")); err == nil {
		t.Fatal("empty nonterminal accepted")
	}
	if err := g.Add("A", T("(")); err == nil {
		t.Fatal("parenthesis in body accepted")
	}
}

func fixedDB(t testing.TB) *database.Database {
	t.Helper()
	return database.NewBuilder().
		Domain(0, 1).
		Relation("P", 1).Add("P", 0).
		Relation("E", 2).Add("E", 0, 1).
		MustBuild()
}

func TestCompileAndEvalWordMatchesBottomUp(t *testing.T) {
	db := fixedDB(t)
	r := rand.New(rand.NewSource(61))
	vars := []logic.Var{"x", "y"}
	ev, err := NewWordEvaluator(db, vars)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 80; trial++ {
		f := randFO2(r, 4)
		word, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.Eval(word)
		if err != nil {
			t.Fatalf("Eval(%v): %v", word, err)
		}
		q := logic.MustQuery(vars, cylindrified(f))
		want, err := eval.BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ToSet().Equal(want) {
			t.Fatalf("word eval %v != bottom-up %v for %s", got.ToSet(), want, f)
		}
	}
}

// cylindrified conjoins a tautology mentioning both variables so the query
// head (x, y) is legal regardless of which variables f uses.
func cylindrified(f logic.Formula) logic.Formula {
	return logic.And(f, logic.Or(logic.Equal("x", "x"), logic.Equal("y", "y")))
}

func randFO2(r *rand.Rand, depth int) logic.Formula {
	vars := []logic.Var{"x", "y"}
	v := func() logic.Var { return vars[r.Intn(2)] }
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
	sub := func() logic.Formula { return randFO2(r, depth-1) }
	switch r.Intn(7) {
	case 0:
		return logic.Not{F: sub()}
	case 1:
		return logic.Binary{Op: logic.AndOp, L: sub(), R: sub()}
	case 2:
		return logic.Binary{Op: logic.OrOp, L: sub(), R: sub()}
	case 3:
		return logic.Binary{Op: logic.ImpliesOp, L: sub(), R: sub()}
	case 4:
		return logic.Binary{Op: logic.IffOp, L: sub(), R: sub()}
	default:
		return logic.Quant{Kind: logic.QuantKind(r.Intn(2)), V: v(), F: sub()}
	}
}

func TestLemma42GrammarAgreesWithEvaluation(t *testing.T) {
	// k = 1 over the 2-element database: 2² = 4 cells... n^k = 2 cells,
	// 2² = 4 relations; use k = 2: n^k = 4 cells, 16 relations.
	db := fixedDB(t)
	vars := []logic.Var{"x", "y"}
	alg, err := NewAlgebra(db, vars)
	if err != nil {
		t.Fatal(err)
	}
	if alg.Len() != 16 {
		t.Fatalf("algebra size %d, want 16", alg.Len())
	}
	g, err := alg.BuildGrammar()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() == 0 {
		t.Fatal("empty grammar")
	}
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 40; trial++ {
		f := randFO2(r, 3)
		idx, err := alg.EvalFormula(f)
		if err != nil {
			t.Fatal(err)
		}
		word, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		// The membership word with the right answer is in L(G)…
		ok, err := g.Recognize(alg.MembershipWord(word, idx))
		if err != nil {
			t.Fatalf("Recognize: %v", err)
		}
		if !ok {
			t.Fatalf("correct membership word rejected for %s (index %d)", f, idx)
		}
		// …and with any wrong answer it is not.
		wrong := (idx + 1 + r.Intn(alg.Len()-1)) % alg.Len()
		ok, err = g.Recognize(alg.MembershipWord(word, wrong))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("wrong membership word accepted for %s (claimed %d, true %d)", f, wrong, idx)
		}
	}
}

func TestAlgebraCap(t *testing.T) {
	big := database.NewBuilder().Domain(0, 1, 2, 3, 4).Relation("P", 1).Add("P", 0).MustBuild()
	if _, err := NewAlgebra(big, []logic.Var{"x", "y"}); err == nil {
		t.Fatal("oversized algebra accepted")
	}
}

func TestBFVPThroughGrammar(t *testing.T) {
	// Theorem 4.4 in action: a Boolean formula value instance becomes an
	// FO¹ sentence over the fixed database; the grammar decides its value.
	db := boolexpr.FixedDatabase()
	vars := []logic.Var{"x"}
	alg, err := NewAlgebra(db, vars)
	if err != nil {
		t.Fatal(err)
	}
	g, err := alg.BuildGrammar()
	if err != nil {
		t.Fatal(err)
	}
	full, err := alg.IndexOf(alg.eval.sp.Full())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		bf := prop.RandomValue(r, 5)
		want, err := boolexpr.Eval(bf)
		if err != nil {
			t.Fatal(err)
		}
		fo, err := boolexpr.ToFO(bf)
		if err != nil {
			t.Fatal(err)
		}
		word, err := Compile(fo)
		if err != nil {
			t.Fatal(err)
		}
		// A sentence evaluates to the full unary relation iff it is true
		// (its denotation is cylindric in x).
		ok, err := g.Recognize(alg.MembershipWord(word, full))
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Fatalf("grammar evaluates %s to %v, want %v", bf, ok, want)
		}
	}
}

func TestEvalWordErrors(t *testing.T) {
	db := fixedDB(t)
	ev, err := NewWordEvaluator(db, []logic.Var{"x"})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]string{
		{"("},
		{")"},
		{"(", "nosuch", ")"},
		{"(", "!", ")"},
		{"(", "(", "true", ")", "(", "true", ")", ")"},
		{"(", "E:zz", "(", "true", ")", ")"},
		{"true"},
	}
	for _, w := range bad {
		if _, err := ev.Eval(w); err == nil {
			t.Errorf("Eval(%v) succeeded", w)
		}
	}
}
