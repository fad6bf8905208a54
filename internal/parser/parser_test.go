package parser

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

func mustParse(t *testing.T, s string) logic.Formula {
	t.Helper()
	f, err := ParseFormula(s)
	if err != nil {
		t.Fatalf("ParseFormula(%q): %v", s, err)
	}
	return f
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in, out string
	}{
		{"E(x, y)", "E(x, y)"},
		{"P()", "P()"},
		{"x = y", "x = y"},
		{"true", "true"},
		{"false", "false"},
		{"!P(x)", "!(P(x))"},
		{"!!P(x)", "!(!(P(x)))"},
		{"P(x) & Q(x)", "(P(x) & Q(x))"},
		{"P(x) | Q(x) & R(x)", "(P(x) | (Q(x) & R(x)))"},
		{"P(x) -> Q(x) -> S(x)", "(P(x) -> (Q(x) -> S(x)))"},
		{"P(x) <-> Q(x)", "(P(x) <-> Q(x))"},
		{"exists x. P(x)", "(exists x. P(x))"},
		{"exists x, y. E(x, y)", "(exists x. (exists y. E(x, y)))"},
		{"forall x. P(x) & Q(x)", "(forall x. (P(x) & Q(x)))"},
		{"(forall x. P(x)) & Q(y)", "((forall x. P(x)) & Q(y))"},
		{"[lfp S(x). P(x) | S(x)](u)", "[lfp S(x). (P(x) | S(x))](u)"},
		{"[gfp S(x, y). E(x, y)](u, v)", "[gfp S(x, y). E(x, y)](u, v)"},
		{"[pfp W(). !W()]()", "[pfp W(). !(W())]()"},
		{"[ifp S(x). !S(x)](u)", "[ifp S(x). !(S(x))](u)"},
		{"exists2 S/2. forall x. S(x, x)", "(exists2 S/2. (forall x. S(x, x)))"},
		{"!x = y", "!(x = y)"},
	}
	for _, c := range cases {
		f := mustParse(t, c.in)
		if f.String() != c.out {
			t.Errorf("ParseFormula(%q).String() = %q, want %q", c.in, f.String(), c.out)
		}
	}
}

func TestOperatorPrecedence(t *testing.T) {
	// <-> binds loosest, then ->, |, &, !.
	f := mustParse(t, "!P(x) & Q(x) | S(x) -> T(x) <-> U(x)")
	want := "((((!(P(x)) & Q(x)) | S(x)) -> T(x)) <-> U(x))"
	if f.String() != want {
		t.Fatalf("got %q, want %q", f.String(), want)
	}
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery("(x, y). exists z. E(x, z) & E(z, y)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Arity() != 2 || q.Width() != 3 {
		t.Fatalf("arity=%d width=%d", q.Arity(), q.Width())
	}
	if q.String() != "(x, y). (exists z. (E(x, z) & E(z, y)))" {
		t.Fatalf("String = %q", q.String())
	}
	// Boolean query.
	b, err := ParseQuery("(). exists x. P(x)")
	if err != nil {
		t.Fatal(err)
	}
	if b.Arity() != 0 {
		t.Fatalf("Boolean query arity = %d", b.Arity())
	}
}

func TestParseQueryRejectsUnboundVars(t *testing.T) {
	if _, err := ParseQuery("(x). E(x, y)"); err == nil {
		t.Fatal("free body variable not in head accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"P(x",
		"P x",
		"x =",
		"P(x) &",
		"exists . P(x)",
		"exists x P(x)",
		"[lfp S(x). S(x)](u",
		"[foo S(x). S(x)](u)",
		"[lfp S(x). S(x)]",
		"exists2 S. P(x)",
		"exists2 S/two. P(x)",
		"P(x) @ Q(x)",
		"P(x) - Q(x)",
		"P(x) < Q(x)",
		"P(x)) ",
		"(P(x)",
		"x",
	}
	for _, s := range bad {
		if _, err := ParseFormula(s); err == nil {
			t.Errorf("ParseFormula(%q) succeeded", s)
		}
	}
}

func TestParsePaperExample(t *testing.T) {
	// The paper's §2.2 FP sentence: "no infinite E-path from u on which P
	// fails infinitely often":
	// [gfp S(x). [lfp T(z). forall y (E(z,y) -> (S(y) | (P(y) & T(y))))](x)](u)
	in := "[gfp S(x). [lfp T(z). forall y. E(z, y) -> (S(y) | P(y) & T(y))](x)](u)"
	f := mustParse(t, in)
	if err := logic.Validate(f, nil); err != nil {
		t.Fatalf("paper example invalid: %v", err)
	}
	if logic.Classify(f) != logic.FragFP {
		t.Fatalf("Classify = %v", logic.Classify(f))
	}
	if logic.AlternationDepth(f) != 2 {
		t.Fatalf("AlternationDepth = %d, want 2", logic.AlternationDepth(f))
	}
	if logic.Width(f) != 4 {
		t.Fatalf("Width = %d", logic.Width(f))
	}
}

// randFormula generates a random formula over the given variables and
// relation signature, for the round-trip property test.
func randFormula(r *rand.Rand, depth int) logic.Formula {
	vars := []logic.Var{"x", "y", "z"}
	v := func() logic.Var { return vars[r.Intn(len(vars))] }
	if depth == 0 {
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
	sub := func() logic.Formula { return randFormula(r, depth-1) }
	switch r.Intn(8) {
	case 0:
		return logic.Not{F: sub()}
	case 1, 2:
		return logic.Binary{Op: logic.BinOp(r.Intn(4)), L: sub(), R: sub()}
	case 3:
		return logic.Quant{Kind: logic.QuantKind(r.Intn(2)), V: v(), F: sub()}
	case 4:
		// Positive body for lfp/gfp: S used positively or not at all.
		body := logic.Or(logic.R("P", "x"), logic.R("S", "x"))
		op := logic.LFP
		if r.Intn(2) == 0 {
			op = logic.GFP
		}
		return logic.Fix{Op: op, Rel: "S", Vars: []logic.Var{"x"}, Body: body, Args: []logic.Var{v()}}
	case 5:
		return logic.Fix{Op: logic.PFP, Rel: "W", Vars: []logic.Var{"x"}, Body: sub(), Args: []logic.Var{v()}}
	case 6:
		return logic.SOQuant{Rel: "T", Arity: r.Intn(3), F: sub()}
	default:
		return sub()
	}
}

func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		f := randFormula(r, 4)
		s := f.String()
		g, err := ParseFormula(s)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", s, err)
		}
		if g.String() != s {
			t.Fatalf("round trip changed %q to %q", s, g.String())
		}
	}
}

// FuzzParseQuery holds the parser to its printer on arbitrary text: no input
// panics, and a text it accepts prints to one that parses to the same print.
// The seeds are TestRoundTripProperty's generator; the six fixpoint and
// second-order shapes are the corpus in testdata/fuzz/FuzzParseQuery.
func FuzzParseQuery(f *testing.F) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 32; i++ {
		g := randFormula(r, 4)
		f.Add(logic.Query{Head: logic.SortedVars(logic.FreeVars(g)), Body: g}.String())
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := ParseQuery(text)
		if err != nil {
			return
		}
		printed := q.String()
		again, err := ParseQuery(printed)
		if err != nil {
			t.Fatalf("%q is accepted and prints %q, which is not: %v", text, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("%q prints %q, which prints %q", text, printed, again.String())
		}
	})
}
