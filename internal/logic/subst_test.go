package logic

import (
	"slices"
	"testing"
)

func TestRenameFree(t *testing.T) {
	f := And(R("E", "x", "y"), Exists(R("E", "x", "y"), "x"))
	got := RenameFree(f, map[Var]Var{"x": "z"})
	// Outer free x renamed; x bound by ∃x untouched.
	want := "(E(z, y) & (exists x. E(x, y)))"
	if got.String() != want {
		t.Fatalf("RenameFree = %s, want %s", got, want)
	}
}

func TestRenameFreeIsTextual(t *testing.T) {
	// Renaming y→x inside ∃x deliberately captures: bounded-variable reuse.
	f := Exists(R("E", "x", "y"), "x")
	got := RenameFree(f, map[Var]Var{"y": "x"})
	want := "(exists x. E(x, x))"
	if got.String() != want {
		t.Fatalf("RenameFree = %s, want %s (capture is intended)", got, want)
	}
}

func TestRenameFreeFixpoint(t *testing.T) {
	f := Lfp("S", []Var{"x"}, And(R("S", "x"), R("E", "x", "y")), "u")
	got := RenameFree(f, map[Var]Var{"x": "w", "y": "z", "u": "v"})
	fx := got.(Fix)
	if fx.Args[0] != "v" {
		t.Fatalf("arg not renamed: %s", got)
	}
	// x is bound by the fixpoint; y is free in the body.
	want := "[lfp S(x). (S(x) & E(x, z))](v)"
	if got.String() != want {
		t.Fatalf("RenameFree = %s, want %s", got, want)
	}
}

func TestSubstAtom(t *testing.T) {
	// Replace P(u) by ∃w E(u, w), at an occurrence P(y).
	f := And(R("P", "y"), Exists(R("P", "x"), "x"))
	body := Exists(R("E", "u", "w"), "w")
	got, err := SubstAtom(f, "P", []Var{"u"}, body)
	if err != nil {
		t.Fatal(err)
	}
	want := "((exists w. E(y, w)) & (exists x. (exists w. E(x, w))))"
	if got.String() != want {
		t.Fatalf("SubstAtom = %s, want %s", got, want)
	}
}

func TestSubstAtomRespectsBinding(t *testing.T) {
	// P rebound by an inner fixpoint is not substituted.
	f := And(R("P", "x"), Lfp("P", []Var{"x"}, R("P", "x"), "x"))
	got, err := SubstAtom(f, "P", []Var{"x"}, True)
	if err != nil {
		t.Fatal(err)
	}
	want := "(true & [lfp P(x). P(x)](x))"
	if got.String() != want {
		t.Fatalf("SubstAtom = %s, want %s", got, want)
	}
}

func TestSubstAtomArityMismatch(t *testing.T) {
	if _, err := SubstAtom(R("P", "x", "y"), "P", []Var{"u"}, True); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestSubstAtomPathSystems(t *testing.T) {
	// The Proposition 3.2 iteration: φ(x) with P(x):=false, then P(x):=φ_{n-1}(x).
	phi := Or(
		R("S", "x"),
		Exists(And(R("Q", "x", "y", "z"),
			Forall(Implies(Or(Equal("x", "y"), Equal("x", "z")), R("P", "x")), "x")), "y", "z"))
	phi1, err := SubstAtom(phi, "P", []Var{"x"}, False)
	if err != nil {
		t.Fatal(err)
	}
	if Width(phi1) != 3 {
		t.Fatalf("Width(φ₁) = %d, want 3", Width(phi1))
	}
	phi2, err := SubstAtom(phi, "P", []Var{"x"}, phi1)
	if err != nil {
		t.Fatal(err)
	}
	if Width(phi2) != 3 {
		t.Fatalf("Width(φ₂) = %d, want 3 (bounded-variable iteration)", Width(phi2))
	}
	if Size(phi2) <= Size(phi1) {
		t.Fatal("φ₂ not larger than φ₁")
	}
	// φ₂ must use each relation with one arity, and P must not be free.
	rels, err := freeRels(phi2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if slices.ContainsFunc(rels, func(r relArity) bool { return r.name == "P" }) {
		t.Fatal("P still free after two substitutions")
	}
}

func TestNegateRel(t *testing.T) {
	f := And(R("S", "x"), Or(R("P", "x"), R("S", "x")))
	got := NegateRel(f, "S")
	want := "(!(S(x)) & (P(x) | !(S(x))))"
	if got.String() != want {
		t.Fatalf("NegateRel = %s, want %s", got, want)
	}
}

func TestNNFBasics(t *testing.T) {
	cases := []struct {
		in   Formula
		want string
	}{
		{Neg(And(R("P", "x"), R("Q", "x"))), "(!(P(x)) | !(Q(x)))"},
		{Neg(Exists(R("P", "x"), "x")), "(forall x. !(P(x)))"},
		{Neg(Neg(R("P", "x"))), "P(x)"},
		{Implies(R("P", "x"), R("Q", "x")), "(!(P(x)) | Q(x))"},
		{Neg(True), "false"},
		{Neg(Equal("x", "y")), "!(x = y)"},
	}
	for _, c := range cases {
		got, err := NNF(c.in)
		if err != nil {
			t.Fatalf("NNF(%s): %v", c.in, err)
		}
		if got.String() != c.want {
			t.Errorf("NNF(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestNNFDualizesFixpoints(t *testing.T) {
	// ¬[lfp S(x). P(x) ∨ S(x)](u) ≡ [gfp S(x). ¬P(x) ∧ S(x)](u)
	f := Neg(Lfp("S", []Var{"x"}, Or(R("P", "x"), R("S", "x")), "u"))
	got, err := NNF(f)
	if err != nil {
		t.Fatal(err)
	}
	fx, ok := got.(Fix)
	if !ok || fx.Op != GFP {
		t.Fatalf("NNF did not dualize to gfp: %s", got)
	}
	if fx.Body.String() != "(!(P(x)) & S(x))" {
		t.Fatalf("dual body = %s", fx.Body)
	}
	// The recursion relation must be positive in the dual body.
	if err := Validate(got, nil); err != nil {
		t.Fatalf("dualized formula invalid: %v", err)
	}
}

func TestNNFLeavesNegatedPFP(t *testing.T) {
	f := Neg(Pfp("S", []Var{"x"}, Neg(R("S", "x")), "u"))
	got, err := NNF(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(Not); !ok {
		t.Fatalf("negated PFP should remain a literal, got %s", got)
	}
}

func TestNNFRejectsNegatedSO(t *testing.T) {
	f := Neg(SOExists(R("S", "x"), RelVar{"S", 1}))
	if _, err := NNF(f); err == nil {
		t.Fatal("negated second-order quantifier accepted")
	}
}

func TestNNFIffExpansion(t *testing.T) {
	f := Iff(R("P", "x"), R("Q", "x"))
	got, err := NNF(f)
	if err != nil {
		t.Fatal(err)
	}
	want := "((P(x) & Q(x)) | (!(P(x)) & !(Q(x))))"
	if got.String() != want {
		t.Fatalf("NNF(iff) = %s", got)
	}
}
