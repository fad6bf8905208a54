package mucalc

import (
	"math/rand"
	"testing"
)

func randomCTL(r *rand.Rand, depth int) CTL {
	if depth == 0 || r.Intn(5) == 0 {
		switch r.Intn(3) {
		case 0:
			return CTLProp{Name: "p"}
		case 1:
			return CTLProp{Name: "q"}
		default:
			return CTLLit{Value: r.Intn(2) == 0}
		}
	}
	sub := func() CTL { return randomCTL(r, depth-1) }
	switch r.Intn(11) {
	case 0:
		return CTLNot{F: sub()}
	case 1:
		return CTLAnd{L: sub(), R: sub()}
	case 2:
		return CTLOr{L: sub(), R: sub()}
	case 3:
		return EX{F: sub()}
	case 4:
		return AX{F: sub()}
	case 5:
		return EF_{F: sub()}
	case 6:
		return AF_{F: sub()}
	case 7:
		return EG_{F: sub()}
	case 8:
		return AG_{F: sub()}
	case 9:
		return EU{L: sub(), R: sub()}
	default:
		return AU{L: sub(), R: sub()}
	}
}

func TestCTLTranslationAgreesWithDirectSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	for trial := 0; trial < 60; trial++ {
		k := randomKripke(r, 2+r.Intn(4))
		f := randomCTL(r, 3)
		direct, err := CheckCTL(k, f)
		if err != nil {
			t.Fatalf("CheckCTL(%s): %v", f, err)
		}
		mu, err := CTLToMu(f)
		if err != nil {
			t.Fatalf("CTLToMu(%s): %v", f, err)
		}
		if err := Validate(mu); err != nil {
			t.Fatalf("translation of %s invalid: %v", f, err)
		}
		viaMu, err := Check(k, mu)
		if err != nil {
			t.Fatalf("Check(%s): %v", mu, err)
		}
		if !direct.Equal(viaMu) {
			t.Fatalf("CTL %s: direct %v != µ-translation %v (%s)", f, direct, viaMu, mu)
		}
	}
}

func TestCTLTranslationIsAlternationFree(t *testing.T) {
	// CTL translations may nest fixpoints syntactically, but the nested
	// fixpoints are closed — the Emerson–Lei (dependent) alternation depth
	// stays at 1.
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		f := randomCTL(r, 4)
		mu, err := CTLToMu(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, d := fp2Depths(t, mu); d > 1 {
			t.Fatalf("CTL translation has dependent alternation depth %d: %s → %s", d, f, mu)
		}
	}
}

func TestDependentVsSyntacticAlternation(t *testing.T) {
	// νX.(µY.(p ∨ ◇Y) ∧ □X): the inner µ is closed — dependent depth 1,
	// syntactic depth 2.
	closed := Nu{Var: "X", F: Conj{
		L: Mu{Var: "Y", F: Disj{L: Prop{Name: "p"}, R: Diamond{F: VarRef{"Y"}}}},
		R: Box{F: VarRef{"X"}}}}
	if syn, dep := fp2Depths(t, closed); dep != 1 || syn != 2 {
		t.Fatalf("closed nesting: dependent depth %d, syntactic %d, want 1 and 2", dep, syn)
	}
	// InfinitelyOften really alternates: both metrics say 2.
	real2 := InfinitelyOften(Prop{Name: "p"})
	if _, d := fp2Depths(t, real2); d != 2 {
		t.Fatalf("νµ with dependency: dependent depth %d, want 2", d)
	}
}

func TestCTLThroughFP2(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 15; trial++ {
		k := randomKripke(r, 2+r.Intn(3))
		f := randomCTL(r, 2)
		direct, err := CheckCTL(k, f)
		if err != nil {
			t.Fatal(err)
		}
		mu, err := CTLToMu(f)
		if err != nil {
			t.Fatal(err)
		}
		viaFP2, err := CheckViaFP2(k, mu)
		if err != nil {
			t.Fatal(err)
		}
		if !direct.Equal(viaFP2) {
			t.Fatalf("CTL %s via FP²: %v != %v", f, viaFP2, direct)
		}
	}
}

func TestCTLNegationDualities(t *testing.T) {
	k := mutex(t)
	pairs := []struct{ a, b CTL }{
		{CTLNot{F: EF_{F: CTLProp{Name: "c0"}}}, AG_{F: CTLNot{F: CTLProp{Name: "c0"}}}},
		{CTLNot{F: AG_{F: CTLProp{Name: "c0"}}}, EF_{F: CTLNot{F: CTLProp{Name: "c0"}}}},
		{CTLNot{F: EX{F: CTLProp{Name: "t0"}}}, AX{F: CTLNot{F: CTLProp{Name: "t0"}}}},
		{CTLNot{F: EG_{F: CTLProp{Name: "t0"}}}, AF_{F: CTLNot{F: CTLProp{Name: "t0"}}}},
	}
	for _, p := range pairs {
		a, err := CheckCTL(k, p.a)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CheckCTL(k, p.b)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("duality broken: %s = %v, %s = %v", p.a, a, p.b, b)
		}
	}
}

func TestCTLDeadlockConventions(t *testing.T) {
	k := NewKripke(1) // single deadlocked state
	cases := []struct {
		f    CTL
		want bool
	}{
		{AX{F: CTLLit{false}}, true},
		{EX{F: CTLLit{true}}, false},
		{AF_{F: CTLProp{Name: "p"}}, false}, // no successor, p not labeled
		{AG_{F: CTLLit{true}}, true},
		{AU{L: CTLLit{true}, R: CTLLit{true}}, true}, // ψ already holds
	}
	for _, c := range cases {
		direct, err := CheckCTL(k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Test(0) != c.want {
			t.Errorf("%s at deadlock: %v, want %v", c.f, direct.Test(0), c.want)
		}
		mu, err := CTLToMu(c.f)
		if err != nil {
			t.Fatal(err)
		}
		viaMu, err := Check(k, mu)
		if err != nil {
			t.Fatal(err)
		}
		if viaMu.Test(0) != c.want {
			t.Errorf("%s translation at deadlock: %v, want %v", c.f, viaMu.Test(0), c.want)
		}
	}
}

func TestParseMuRoundTrip(t *testing.T) {
	cases := []string{
		"p",
		"!p",
		"tt",
		"ff",
		"(p & q)",
		"(p | (q & !p))",
		"<>p",
		"[]<>p",
		"mu X. (p | <>X)",
		"nu X. (p & []X)",
		"nu X. mu Y. <>((p & X) | Y)",
	}
	for _, s := range cases {
		f, err := ParseMu(s)
		if err != nil {
			t.Fatalf("ParseMu(%q): %v", s, err)
		}
		g, err := ParseMu(f.String())
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", f.String(), err)
		}
		if g.String() != f.String() {
			t.Fatalf("round trip changed %q to %q", f.String(), g.String())
		}
	}
}

func TestParseMuGeneratedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		f := randomMuFormula(r, 4, nil)
		s := f.String()
		g, err := ParseMu(s)
		if err != nil {
			t.Fatalf("ParseMu(%q): %v", s, err)
		}
		if g.String() != s {
			t.Fatalf("round trip changed %q to %q", s, g.String())
		}
	}
}

func TestParseMuErrors(t *testing.T) {
	bad := []string{
		"",
		"X",      // looks like a prop — fine actually; use genuinely bad ones below
		"mu . p", // missing variable
		"mu X p", // missing dot
		"(p",
		"p)",
		"p &",
		"!X extra", // trailing
		"mu X. !X", // variable under negation
		"mu X. mu X. X",
		"<>",
		"@",
	}
	for _, s := range bad {
		if s == "X" {
			continue // bare identifier is a proposition, legal
		}
		if _, err := ParseMu(s); err == nil {
			t.Errorf("ParseMu(%q) succeeded", s)
		}
	}
}

func TestParseMuNeverPanicsOnGarbage(t *testing.T) {
	tokens := []string{"mu", "nu", "tt", "ff", "p", "q", "X", "<>", "[]", "&", "|", "!", "(", ")", ".", "@", "123abc"}
	r := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(10)
		var sb []byte
		for i := 0; i < n; i++ {
			sb = append(sb, []byte(tokens[r.Intn(len(tokens))])...)
			sb = append(sb, ' ')
		}
		_, _ = ParseMu(string(sb)) // must not panic
	}
}

func TestParseMuSemantics(t *testing.T) {
	k := mutex(t)
	f, err := ParseMu("mu X. (c0 | <>X)") // EF c0
	if err != nil {
		t.Fatal(err)
	}
	got, err := Check(k, f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Check(k, EF(Prop{Name: "c0"}))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("parsed EF differs: %v vs %v", got, want)
	}
}
