package bvq

import (
	"testing"
)

func testDB(t *testing.T) *Database {
	t.Helper()
	db, err := ParseDatabase(`
domain = {0, 1, 2, 3}
E/2 = {(0, 1), (1, 2), (2, 3)}
P/1 = {(0)}
`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFacadeEvalEngines(t *testing.T) {
	db := testDB(t)
	q, err := ParseQuery("(x, y). exists z. E(x, z) & E(z, y)")
	if err != nil {
		t.Fatal(err)
	}
	if Width(q) != 3 {
		t.Fatalf("Width = %d", Width(q))
	}
	var answers []*Relation
	for _, e := range []Engine{EngineBottomUp, EngineNaive, EngineCompiled, EngineMonotone} {
		ans, err := Eval(q, db, e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		answers = append(answers, ans)
	}
	for i := 1; i < len(answers); i++ {
		if !answers[0].Equal(answers[i]) {
			t.Fatalf("engines disagree: %v vs %v", answers[0], answers[i])
		}
	}
	if answers[0].Len() != 2 {
		t.Fatalf("two-hop answer = %v", answers[0])
	}
}

func TestFacadeESOEngine(t *testing.T) {
	db := testDB(t)
	q, err := ParseQuery("(). exists2 C/1. forall x. forall y. E(x,y) -> !(C(x) <-> C(y))")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := Eval(q, db, EngineESO)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatal("line graph should be 2-colorable")
	}
}

func TestFacadeFixpointAndCertificates(t *testing.T) {
	db := testDB(t)
	q, err := ParseQuery("(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := Eval(q, db, EngineBottomUp)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 4 {
		t.Fatalf("reachability from P: %v", ans)
	}
	cert, proved, err := FindCertificate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !proved.Equal(ans) {
		t.Fatal("prover answer differs")
	}
	verified, err := VerifyCertificate(q, db, cert)
	if err != nil {
		t.Fatal(err)
	}
	if !verified.Equal(ans) {
		t.Fatal("verified answer differs")
	}
	nq, err := NegateQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	nans, err := Eval(nq, db, EngineBottomUp)
	if err != nil {
		t.Fatal(err)
	}
	if nans.Len() != 0 {
		t.Fatalf("complement should be empty, got %v", nans)
	}
	// The certified engine bundles the prover/verifier round trip.
	cans, err := Eval(q, db, EngineCertified)
	if err != nil {
		t.Fatal(err)
	}
	if !cans.Equal(ans) {
		t.Fatalf("certified engine differs: %v vs %v", cans, ans)
	}
}

func TestFacadeHoldsAndEngineNames(t *testing.T) {
	db := testDB(t)
	f, err := ParseFormula("exists x. P(x)")
	if err != nil {
		t.Fatal(err)
	}
	h, err := Holds(f, db, EngineBottomUp)
	if err != nil {
		t.Fatal(err)
	}
	if !h {
		t.Fatal("∃x P(x) should hold")
	}
	for _, name := range []string{"bottomup", "naive", "monotone", "eso", "certified", "compiled"} {
		if _, err := EngineByName(name); err != nil {
			t.Errorf("EngineByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"nope", "algebra"} {
		if _, err := EngineByName(name); err == nil {
			t.Fatalf("unknown engine %q accepted", name)
		}
	}
}

func TestFacadeWidthBoundOption(t *testing.T) {
	db := testDB(t)
	q, err := ParseQuery("(x, y). exists z. E(x, z) & E(z, y)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EvalStats(q, db, EngineBottomUp, &Options{MaxWidth: 2}); err == nil {
		t.Fatal("width bound not enforced")
	}
}
