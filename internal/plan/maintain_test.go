package plan

import (
	"reflect"
	"testing"

	"repro/internal/logic"
)

func TestMaintInfoTC(t *testing.T) {
	p, err := Compile(tcQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	m := p.Maint
	if m == nil || !m.OK {
		t.Fatalf("transitive closure should be maintainable, got %+v", m)
	}
	if len(m.Seeded) != 1 || !m.Seeded[0] {
		t.Fatalf("Seeded = %v, want the single LFP binder seedable", m.Seeded)
	}
	if !reflect.DeepEqual(m.Rels, []string{"E"}) {
		t.Fatalf("footprint = %v, want [E]", m.Rels)
	}
	// E occurs only positively inside the seeded cone: inserts grow the
	// stage operator, deletes may shrink it.
	if !m.InsertSafe("E") {
		t.Errorf("InsertSafe(E) = false, want true")
	}
	if m.DeleteSafe("E") {
		t.Errorf("DeleteSafe(E) = true, want false")
	}
}

func TestMaintInfoNegatedAtomPolarity(t *testing.T) {
	// T(x,y) ≡ (E(x,y) ∧ ¬B(x)) ∨ ∃z(E(x,z) ∧ T(z,y)): B occurs negatively
	// inside the seeded cone, so deleting from B grows the operator and
	// inserting into it does not.
	body := logic.Lfp("T", []logic.Var{"x", "y"},
		logic.Or(
			logic.And(logic.R("E", "x", "y"), logic.Neg(logic.R("B", "x"))),
			logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
		"x", "y")
	p, err := Compile(logic.MustQuery([]logic.Var{"x", "y"}, body))
	if err != nil {
		t.Fatal(err)
	}
	m := p.Maint
	if !m.OK {
		t.Fatalf("plan should be maintainable (¬B is hoisted, the dirty set stays monotone)")
	}
	if !m.InsertSafe("E") || m.DeleteSafe("E") {
		t.Errorf("E polarity: ins=%v del=%v, want true/false", m.InsertSafe("E"), m.DeleteSafe("E"))
	}
	if m.InsertSafe("B") || !m.DeleteSafe("B") {
		t.Errorf("B polarity: ins=%v del=%v, want false/true", m.InsertSafe("B"), m.DeleteSafe("B"))
	}
}

func TestMaintInfoAtomOutsideConesUnconstrained(t *testing.T) {
	// TC(x,y) ∧ ¬P(x): P is read only outside the fixpoint cone, so its node
	// is hoisted and recomputed per run — deltas on P are unconstrained.
	tc := logic.Lfp("T", []logic.Var{"x", "y"},
		logic.Or(logic.R("E", "x", "y"),
			logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
		"x", "y")
	body := logic.And(tc, logic.Neg(logic.R("P", "x")))
	p, err := Compile(logic.MustQuery([]logic.Var{"x", "y"}, body))
	if err != nil {
		t.Fatal(err)
	}
	m := p.Maint
	if !m.OK {
		t.Fatalf("plan should be maintainable")
	}
	if !reflect.DeepEqual(m.Rels, []string{"E", "P"}) {
		t.Fatalf("P should be in the footprint")
	}
	if !m.InsertSafe("P") || !m.DeleteSafe("P") {
		t.Errorf("P outside all seeded cones should be unconstrained, got ins=%v del=%v",
			m.InsertSafe("P"), m.DeleteSafe("P"))
	}
}

func TestMaintInfoGFPNotSeedable(t *testing.T) {
	body := logic.Gfp("T", []logic.Var{"x", "y"},
		logic.And(logic.R("E", "x", "y"),
			logic.Forall(logic.Or(logic.Neg(logic.R("E", "y", "z")), logic.R("T", "y", "z")), "z")),
		"x", "y")
	p, err := Compile(logic.MustQuery([]logic.Var{"x", "y"}, body))
	if err != nil {
		t.Fatal(err)
	}
	if p.Maint.OK {
		t.Fatalf("GFP restarts from the full relation; it must not be seedable")
	}
}

func TestMaintInfoNestedDependentFixNotSeedable(t *testing.T) {
	// Inner fixpoint reads the outer recursion relation, so its fix node is
	// dirty for the outer binder: the outer binder loses DeltaOK and the
	// inner one is re-evaluated per outer stage — neither may be seeded.
	inner := logic.Lfp("S", []logic.Var{"u", "v"},
		logic.Or(logic.R("T", "u", "v"), logic.R("F", "u", "v")),
		"x", "y")
	body := logic.Lfp("T", []logic.Var{"x", "y"},
		logic.Or(logic.R("E", "x", "y"), inner),
		"x", "y")
	p, err := Compile(logic.MustQuery([]logic.Var{"x", "y"}, body))
	if err != nil {
		t.Fatal(err)
	}
	if p.Maint.OK {
		t.Fatalf("no binder is both delta-admissible and hoisted; Maint.OK must be false, got Seeded=%v", p.Maint.Seeded)
	}
}

func TestMaintInfoPFPPoisonsItsCone(t *testing.T) {
	// A closed PFP inside a seeded LFP cone: the PFP value is not monotone
	// in anything it reads, so Q becomes unsafe in both directions while E
	// keeps its positive polarity. The body is negative in P, so the PFP is
	// not lowered to an LFP.
	pfp := logic.Pfp("P", []logic.Var{"u"}, logic.And(logic.R("Q", "u"), logic.Neg(logic.R("P", "u"))), "x")
	body := logic.Lfp("T", []logic.Var{"x", "y"},
		logic.Or(
			logic.And(logic.R("E", "x", "y"), pfp),
			logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
		"x", "y")
	p, err := Compile(logic.MustQuery([]logic.Var{"x", "y"}, body))
	if err != nil {
		t.Fatal(err)
	}
	m := p.Maint
	if !m.OK {
		t.Fatalf("the LFP binder should stay seedable (the PFP is hoisted)")
	}
	if m.InsertSafe("Q") || m.DeleteSafe("Q") {
		t.Errorf("Q under a PFP must be unsafe both ways, got ins=%v del=%v",
			m.InsertSafe("Q"), m.DeleteSafe("Q"))
	}
	if !m.InsertSafe("E") {
		t.Errorf("E should remain insert-safe")
	}
}
