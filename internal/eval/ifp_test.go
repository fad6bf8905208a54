package eval

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// reachBody is the positive reachability body used by both the lfp and the
// ifp variants.
func reachBody() logic.Formula {
	return logic.Or(
		logic.R("P", "x"),
		logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))
}

func TestIFPEqualsLFPOnPositiveBodies(t *testing.T) {
	// For S-positive bodies the inflationary and the least fixpoint
	// coincide — the classical fact underlying FP ≡ IFP.
	r := rand.New(rand.NewSource(3))
	lfpQ := logic.MustQuery([]logic.Var{"u"}, logic.Lfp("S", []logic.Var{"x"}, reachBody(), "u"))
	ifpQ := logic.MustQuery([]logic.Var{"u"}, logic.Ifp("S", []logic.Var{"x"}, reachBody(), "u"))
	for trial := 0; trial < 20; trial++ {
		db := randomGraph(t, r, 2+r.Intn(4))
		l, err := BottomUp(lfpQ, db)
		if err != nil {
			t.Fatal(err)
		}
		i, err := BottomUp(ifpQ, db)
		if err != nil {
			t.Fatal(err)
		}
		if !l.Equal(i) {
			t.Fatalf("ifp %v != lfp %v on\n%s", i, l, db)
		}
	}
}

func TestIFPNonMonotoneBody(t *testing.T) {
	// [ifp S(x). ¬S(x) ∧ P-free] — the body is non-monotone (illegal under
	// lfp) but inflationary iteration converges: stage 1 adds everything.
	db := lineGraph(t, 4)
	body := logic.Neg(logic.R("S", "x"))
	if err := logic.Validate(logic.Lfp("S", []logic.Var{"x"}, body, "u"), nil); err == nil {
		t.Fatal("negative body accepted under lfp")
	}
	q := logic.MustQuery([]logic.Var{"u"}, logic.Ifp("S", []logic.Var{"x"}, body, "u"))
	if err := logic.Validate(q.Body, nil); err != nil {
		t.Fatalf("negative body rejected under ifp: %v", err)
	}
	got, err := BottomUp(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Fatalf("ifp of ¬S = %v, want everything", got)
	}
	nv, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !nv.Equal(got) {
		t.Fatalf("naive disagrees: %v", nv)
	}
}

func TestIFPStrictlyInflationary(t *testing.T) {
	// [ifp S(x). P(x) ∧ ¬S(x)]: stage 1 adds P; stage 2's φ is empty but
	// the union keeps P — the limit is P, while a pfp of the same body
	// diverges (P, ∅, P, ∅, …) and denotes ∅.
	db := lineGraph(t, 4)
	body := logic.And(logic.R("P", "x"), logic.Neg(logic.R("S", "x")))
	ifpQ := logic.MustQuery([]logic.Var{"u"}, logic.Ifp("S", []logic.Var{"x"}, body, "u"))
	got, err := BottomUp(ifpQ, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("ifp = %v, want P = {(0)}", got)
	}
	pfpQ := logic.MustQuery([]logic.Var{"u"}, logic.Pfp("S", []logic.Var{"x"}, body, "u"))
	pfpAns, err := BottomUp(pfpQ, db)
	if err != nil {
		t.Fatal(err)
	}
	if pfpAns.Len() != 0 {
		t.Fatalf("pfp of the same body should diverge to ∅, got %v", pfpAns)
	}
	// Naive agrees on both.
	for _, q := range []logic.Query{ifpQ, pfpQ} {
		nv, err := Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		bu, _ := BottomUp(q, db)
		if !nv.Equal(bu) {
			t.Fatalf("naive/bottomup disagree on %s", q)
		}
	}
}

func TestIFPWithParameters(t *testing.T) {
	// Parameterized inflationary reachability: [ifp S(x). x=y ∨ …](x) with
	// free y equals the lfp version.
	body := logic.Or(
		logic.Equal("x", "y"),
		logic.Exists(logic.And(logic.R("E", "x", "z"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))
	ifpQ := logic.MustQuery([]logic.Var{"x", "y"}, logic.Ifp("S", []logic.Var{"x"}, body, "x"))
	lfpQ := logic.MustQuery([]logic.Var{"x", "y"}, logic.Lfp("S", []logic.Var{"x"}, body, "x"))
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		db := randomGraph(t, r, 2+r.Intn(3))
		i, err := BottomUp(ifpQ, db)
		if err != nil {
			t.Fatal(err)
		}
		l, err := BottomUp(lfpQ, db)
		if err != nil {
			t.Fatal(err)
		}
		if !i.Equal(l) {
			t.Fatalf("parameterized ifp %v != lfp %v", i, l)
		}
		nv, err := Naive(ifpQ, db)
		if err != nil {
			t.Fatal(err)
		}
		if !nv.Equal(i) {
			t.Fatalf("naive disagrees: %v vs %v", nv, i)
		}
	}
}

func TestIFPClassificationAndCertificates(t *testing.T) {
	f := logic.Ifp("S", []logic.Var{"x"}, logic.Neg(logic.R("S", "x")), "u")
	if fr := logic.Classify(f); fr != logic.FragIFP {
		t.Fatalf("Classify = %v, want IFP", fr)
	}
	// §3.2: the Theorem 3.5 technique does not apply to IFP — the prover
	// must reject it.
	db := lineGraph(t, 3)
	q := logic.MustQuery([]logic.Var{"u"}, f)
	if _, _, err := FindCertificate(context.Background(), q, db); err == nil {
		t.Fatal("certificates accepted an IFP query")
	}
	// A lone IFP is fine under Monotone; so is a *closed* IFP nested under
	// an lfp (its environment never changes), but a dependent one is not.
	if _, _, err := MonotoneContext(context.Background(), q, db, nil); err != nil {
		t.Fatalf("Monotone rejected a lone ifp: %v", err)
	}
	closed := logic.MustQuery([]logic.Var{"u"},
		logic.Lfp("T", []logic.Var{"x"},
			logic.Or(logic.Ifp("S", []logic.Var{"x"}, logic.R("P", "x"), "x"), logic.R("T", "x")), "u"))
	mo, _, err := MonotoneContext(context.Background(), closed, db, nil)
	if err != nil {
		t.Fatalf("Monotone rejected closed nested ifp: %v", err)
	}
	bu, err := BottomUp(closed, db)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := Naive(closed, db)
	if err != nil {
		t.Fatal(err)
	}
	if !bu.Equal(nv) || !mo.Equal(nv) {
		t.Fatalf("closed nested ifp: bottomup %v, monotone %v, naive %v", bu, mo, nv)
	}
	// A dependent occurrence the other way: an lfp inside an ifp body that
	// mentions the ifp's relation. (The converse — a recursion relation of
	// an lfp used inside a nested ifp body — is ill-formed: ifp bodies are
	// non-monotone, so Validate rejects it for positivity.)
	dependent := logic.MustQuery([]logic.Var{"u"},
		logic.Ifp("T", []logic.Var{"x"},
			logic.Lfp("S", []logic.Var{"x"},
				logic.Or(logic.R("S", "x"), logic.R("T", "x")), "x"), "u"))
	if _, _, err := MonotoneContext(context.Background(), dependent, db, nil); err == nil {
		t.Fatal("Monotone accepted a dependent lfp nested under ifp")
	}
	illFormed := logic.Lfp("T", []logic.Var{"x"},
		logic.Or(logic.Ifp("S", []logic.Var{"x"},
			logic.And(logic.R("P", "x"), logic.R("T", "x")), "x"), logic.R("T", "x")), "u")
	if err := logic.Validate(illFormed, nil); err == nil {
		t.Fatal("lfp recursion relation inside an ifp body should fail positivity")
	}
}

func TestIfpToPfpEquivalence(t *testing.T) {
	// The §3.2/§3.4 bound: IFP evaluates through PFP after the rewrite
	// [ifp S.φ] ⇒ [pfp S. S ∨ φ]. Cross-validate on positive and
	// non-monotone bodies over random graphs.
	r := rand.New(rand.NewSource(4711))
	bodies := []logic.Formula{
		reachBody(),
		logic.Neg(logic.R("S", "x")),
		logic.And(logic.R("P", "x"), logic.Neg(logic.R("S", "x"))),
		logic.Or(logic.R("S", "x"), logic.Neg(logic.R("P", "x"))),
	}
	for _, body := range bodies {
		ifpQ := logic.MustQuery([]logic.Var{"u"}, logic.Ifp("S", []logic.Var{"x"}, body, "u"))
		rewritten, err := logic.IfpToPfp(ifpQ.Body)
		if err != nil {
			t.Fatal(err)
		}
		if fr := logic.Classify(rewritten); fr != logic.FragPFP {
			t.Fatalf("rewrite not PFP: %v", fr)
		}
		pfpQ := logic.MustQuery([]logic.Var{"u"}, rewritten)
		for trial := 0; trial < 10; trial++ {
			db := randomGraph(t, r, 2+r.Intn(3))
			a, err := BottomUp(ifpQ, db)
			if err != nil {
				t.Fatal(err)
			}
			b, err := BottomUp(pfpQ, db)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b) {
				t.Fatalf("IfpToPfp changed semantics of %s:\nifp %v\npfp %v\n%s",
					body, a, b, db)
			}
		}
	}
}

func TestIfpToPfpNested(t *testing.T) {
	// The rewrite recurses through other operators and nested fixpoints.
	inner := logic.Ifp("S", []logic.Var{"x"}, logic.Neg(logic.R("S", "x")), "x")
	f := logic.Exists(logic.And(inner, logic.Forall(logic.Or(logic.R("P", "x"), logic.True), "x")), "x")
	rewritten, err := logic.IfpToPfp(f)
	if err != nil {
		t.Fatal(err)
	}
	hasIfp := false
	logic.Walk(rewritten, func(g logic.Formula) {
		if fx, ok := g.(logic.Fix); ok && fx.Op == logic.IFP {
			hasIfp = true
		}
	})
	if hasIfp {
		t.Fatal("rewrite left an ifp behind")
	}
	db := lineGraph(t, 3)
	a, err := NaiveHolds(f, db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NaiveHolds(rewritten, db)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("nested rewrite changed semantics")
	}
}

func TestIFPAlternationDepth(t *testing.T) {
	inner := logic.Ifp("S", []logic.Var{"x"}, logic.R("P", "x"), "x")
	outer := logic.Ifp("T", []logic.Var{"x"}, inner, "x")
	if d := logic.AlternationDepth(outer); d != 2 {
		t.Fatalf("nested ifp depth = %d, want 2 (ifp always alternates)", d)
	}
}
