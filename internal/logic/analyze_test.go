package logic

import (
	"slices"
	"testing"
)

// pathBody is the paper's §2.2 three-variable path formula family:
// φ₁(x,y) = E(x,y); φ_{n+1}(x,y) = ∃z(E(x,z) ∧ ∃x(x=z ∧ φ_n(x,y))).
func pathFormula(n int) Formula {
	f := Formula(R("E", "x", "y"))
	for i := 1; i < n; i++ {
		f = Exists(And(R("E", "x", "z"), Exists(And(Equal("x", "z"), f), "x")), "z")
	}
	return f
}

func TestFreeVars(t *testing.T) {
	cases := []struct {
		f    Formula
		want []Var
	}{
		{R("E", "x", "y"), []Var{"x", "y"}},
		{Equal("x", "x"), []Var{"x"}},
		{True, nil},
		{Exists(R("E", "x", "y"), "y"), []Var{"x"}},
		{Forall(Neg(R("P", "x")), "x"), nil},
		{And(R("P", "x"), Exists(R("Q", "y"), "y")), []Var{"x"}},
		// Fixpoint: body vars bound, args free.
		{Lfp("S", []Var{"x"}, Or(R("P", "x"), R("S", "x")), "u"), []Var{"u"}},
		// Body var y free inside body, not bound by the fixpoint.
		{Lfp("S", []Var{"x"}, And(R("E", "x", "y"), R("S", "x")), "u"), []Var{"u", "y"}},
		{SOExists(R("S", "x"), RelVar{"S", 1}), []Var{"x"}},
	}
	for _, c := range cases {
		got := FreeVars(c.f)
		if len(got) != len(c.want) {
			t.Errorf("FreeVars(%s) = %v, want %v", c.f, got, c.want)
			continue
		}
		for _, v := range c.want {
			if !got[v] {
				t.Errorf("FreeVars(%s) missing %s", c.f, v)
			}
		}
	}
}

func TestWidthOfPathFamily(t *testing.T) {
	for n := 1; n <= 6; n++ {
		f := pathFormula(n)
		want := 2
		if n > 1 {
			want = 3
		}
		if w := Width(f); w != want {
			t.Errorf("Width(φ_%d) = %d, want %d (the FO³ path family)", n, w, want)
		}
	}
}

func TestSizeGrowsLinearly(t *testing.T) {
	s5, s10 := Size(pathFormula(5)), Size(pathFormula(10))
	d1 := s10 - s5
	s15 := Size(pathFormula(15))
	if s15-s10 != d1 {
		t.Errorf("size growth not linear: %d, %d, %d", s5, s10, s15)
	}
}

func TestFreeRels(t *testing.T) {
	f := Lfp("S", []Var{"x"},
		Or(R("P", "x"), And(R("S", "x"), Exists(R("E", "x", "y"), "y"))), "u")
	rels, err := freeRels(f, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []relArity{{"P", 1}, {"E", 2}}; !slices.Equal(rels, want) {
		t.Fatalf("freeRels = %v, want %v (the bound recursion relation S is not free)", rels, want)
	}
	if got := Footprint(f); !slices.Equal(got, []string{"E", "P"}) {
		t.Fatalf("Footprint = %v", got)
	}
}

func TestFreeRelsArityConflict(t *testing.T) {
	f := And(R("P", "x"), R("P", "x", "y"))
	if _, err := freeRels(f, nil, nil); err == nil {
		t.Fatal("conflicting arities accepted")
	}
	// Conflict between binder arity and use arity.
	g := Lfp("S", []Var{"x"}, R("S", "x", "x"), "u")
	if _, err := freeRels(g, nil, nil); err == nil {
		t.Fatal("binder/use arity conflict accepted")
	}
}

func TestPolarity(t *testing.T) {
	cases := []struct {
		f        Formula
		pos, neg bool
	}{
		{R("S", "x"), true, false},
		{Neg(R("S", "x")), false, true},
		{Neg(Neg(R("S", "x"))), true, false},
		{Implies(R("S", "x"), R("P", "x")), false, true},
		{Implies(R("P", "x"), R("S", "x")), true, false},
		{Iff(R("S", "x"), R("P", "x")), true, true},
		{Forall(Implies(R("P", "x"), R("S", "x")), "x"), true, false},
		// Rebound: inner fixpoint shadows S.
		{Lfp("S", []Var{"x"}, R("S", "x"), "u"), false, false},
		// Inside a nested PFP or IFP body, any occurrence counts as both
		// polarities; a nested LFP or GFP body passes it through.
		{Pfp("T", []Var{"x"}, R("S", "x"), "u"), true, true},
		{Ifp("T", []Var{"x"}, Or(R("P", "x"), R("S", "x")), "u"), true, true},
		{Neg(Ifp("T", []Var{"x"}, R("S", "x"), "u")), true, true},
		{Lfp("T", []Var{"x"}, Or(R("S", "x"), R("T", "x")), "u"), true, false},
		{Gfp("T", []Var{"x"}, And(R("S", "x"), R("T", "x")), "u"), true, false},
		{Neg(Lfp("T", []Var{"x"}, Or(R("S", "x"), R("T", "x")), "u")), false, true},
		{Lfp("T", []Var{"x"}, Pfp("U", []Var{"y"}, R("S", "y"), "x"), "u"), true, true},
		{Pfp("T", []Var{"x"}, Lfp("U", []Var{"y"}, Neg(R("P", "y")), "x"), "u"), false, false},
		// ↔ puts both sides in both polarities, also under a fixpoint.
		{Iff(R("P", "x"), Neg(R("S", "x"))), true, true},
		{Lfp("T", []Var{"x"}, Or(R("T", "x"), Iff(R("P", "x"), R("S", "x"))), "u"), true, true},
		// Rebinding by any operator hides the inner occurrences.
		{Pfp("S", []Var{"x"}, Neg(R("S", "x")), "u"), false, false},
		{Ifp("S", []Var{"x"}, Neg(R("S", "x")), "u"), false, false},
		{SOExists(Neg(R("S", "x")), RelVar{"S", 1}), false, false},
		{Or(R("S", "x"), Pfp("S", []Var{"x"}, Neg(R("S", "x")), "u")), true, false},
		{And(Neg(R("S", "x")), Lfp("S", []Var{"x"}, R("S", "x"), "u")), false, true},
		// A rebinding deeper in a nested body hides only its own scope.
		{Pfp("T", []Var{"x"}, Or(R("T", "x"), Lfp("S", []Var{"y"}, R("S", "y"), "x")), "u"), false, false},
		{Lfp("T", []Var{"x"}, Or(R("S", "x"), Pfp("S", []Var{"y"}, Neg(R("S", "y")), "x")), "u"), true, false},
	}
	for _, c := range cases {
		pos, neg := Polarity(c.f, "S")
		if pos != c.pos || neg != c.neg {
			t.Errorf("Polarity(%s, S) = (%v,%v), want (%v,%v)", c.f, pos, neg, c.pos, c.neg)
		}
	}
}

func TestClassify(t *testing.T) {
	fo := pathFormula(3)
	fp := Lfp("S", []Var{"x"}, Or(R("P", "x"), R("S", "x")), "u")
	pfp := Pfp("S", []Var{"x"}, Neg(R("S", "x")), "u")
	eso := SOExists(Forall(R("S", "x"), "x"), RelVar{"S", 1})
	cases := []struct {
		f    Formula
		want Fragment
	}{
		{fo, FragFO},
		{fp, FragFP},
		{pfp, FragPFP},
		{eso, FragESO},
		{And(fp, fo), FragFP},
		{And(pfp, fp), FragPFP},
		// SO quantifier below first-order structure: not prenex ESO.
		{Neg(eso), FragOther},
		// SO prefix over a fixpoint matrix: beyond the four languages.
		{SOExists(fp, RelVar{"T", 1}), FragOther},
	}
	for _, c := range cases {
		if got := Classify(c.f); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := Lfp("S", []Var{"x"}, Or(R("P", "x"), R("S", "x")), "u")
	if err := Validate(good, nil); err != nil {
		t.Fatalf("valid formula rejected: %v", err)
	}
	bad := []Formula{
		// Recursion relation occurs negatively under lfp.
		Lfp("S", []Var{"x"}, Neg(R("S", "x")), "u"),
		// Argument count mismatch.
		Fix{Op: LFP, Rel: "S", Vars: []Var{"x"}, Body: R("S", "x"), Args: []Var{"u", "v"}},
		// Duplicate bound variable.
		Fix{Op: LFP, Rel: "S", Vars: []Var{"x", "x"}, Body: R("S", "x", "x"), Args: []Var{"u", "v"}},
		// Implication puts S on the left (negative).
		Lfp("S", []Var{"x"}, Implies(R("S", "x"), R("P", "x")), "u"),
	}
	for _, f := range bad {
		if err := Validate(f, nil); err == nil {
			t.Errorf("invalid formula accepted: %s", f)
		}
	}
	// PFP has no positivity requirement.
	pfp := Pfp("S", []Var{"x"}, Neg(R("S", "x")), "u")
	if err := Validate(pfp, nil); err != nil {
		t.Fatalf("negative PFP body rejected: %v", err)
	}
}

func TestValidateSignature(t *testing.T) {
	f := And(R("E", "x", "y"), R("P", "x"))
	sig := Signature{"E": 2, "P": 1}
	if err := Validate(f, sig); err != nil {
		t.Fatal(err)
	}
	if err := Validate(f, Signature{"E": 2}); err == nil {
		t.Fatal("missing relation accepted")
	}
	if err := Validate(f, Signature{"E": 3, "P": 1}); err == nil {
		t.Fatal("arity mismatch with signature accepted")
	}
}

func TestAlternationDepth(t *testing.T) {
	atom := R("P", "x")
	mu := func(body Formula) Formula { return Lfp("S", []Var{"x"}, Or(atom, body), "x") }
	nu := func(body Formula) Formula { return Gfp("T", []Var{"x"}, And(atom, body), "x") }
	cases := []struct {
		f    Formula
		want int
	}{
		{atom, 0},
		{mu(atom), 1},
		{mu(mu(atom)), 1},            // same polarity: no alternation
		{mu(nu(atom)), 2},            // µν
		{nu(mu(nu(atom))), 3},        // νµν — the paper's triply nested example
		{And(mu(atom), nu(atom)), 1}, // parallel, not nested
		{Pfp("W", []Var{"x"}, Pfp("V", []Var{"x"}, atom, "x"), "x"), 2},
	}
	for _, c := range cases {
		if got := AlternationDepth(c.f); got != c.want {
			t.Errorf("AlternationDepth(%s) = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	q, err := NewQuery([]Var{"x", "y"}, R("E", "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if q.Arity() != 2 || q.Width() != 2 {
		t.Fatalf("arity/width wrong: %d/%d", q.Arity(), q.Width())
	}
	if _, err := NewQuery([]Var{"x"}, R("E", "x", "y")); err == nil {
		t.Fatal("unbound body variable accepted")
	}
	if _, err := NewQuery([]Var{"x", "x"}, R("P", "x")); err == nil {
		t.Fatal("repeated head variable accepted")
	}
}

func TestQueryVarsOrder(t *testing.T) {
	q := MustQuery([]Var{"y", "x"}, Exists(And(R("E", "x", "z"), R("E", "z", "y")), "z"))
	vars := q.Vars()
	if len(vars) != 3 || vars[0] != "y" || vars[1] != "x" || vars[2] != "z" {
		t.Fatalf("Vars = %v", vars)
	}
	if q.Width() != 3 {
		t.Fatalf("Width = %d", q.Width())
	}
}

func TestFoldersAndConstructors(t *testing.T) {
	if And().String() != "true" || Or().String() != "false" {
		t.Fatal("empty folds wrong")
	}
	f := And(R("A"), R("B"), R("C"))
	if f.String() != "(A() & (B() & C()))" {
		t.Fatalf("And fold = %s", f)
	}
	g := Exists(R("E", "x", "y"), "x", "y")
	if g.String() != "(exists x. (exists y. E(x, y)))" {
		t.Fatalf("Exists fold = %s", g)
	}
}
