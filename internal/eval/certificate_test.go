package eval

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/relation"
)

// alternatingFormula builds a νµ formula of alternation depth d ≥ 1:
// depth 1 is a plain lfp reachability from P; each further level wraps in
// the opposite operator. All levels stay within 3 variables.
func alternatingFormula(d int) logic.Formula {
	// Level 1: lfp S₁(x). P(x) ∨ ∃z(E(z,x) ∧ ∃x(x=z ∧ S₁(x)))
	step := func(rel string, inner logic.Formula) logic.Formula {
		return logic.Or(inner,
			logic.Exists(logic.And(logic.R("E", "z", "x"),
				logic.Exists(logic.And(logic.Equal("x", "z"), logic.R(rel, "x")), "x")), "z"))
	}
	f := logic.Formula(logic.R("P", "x"))
	op := logic.LFP
	for i := 1; i <= d; i++ {
		rel := logic.Var("S" + string(rune('0'+i)))
		body := step(string(rel), f)
		if op == logic.GFP {
			// Keep the recursion relation positive and the operator ν:
			// νS. inner ∧ (S ∨ true) — degenerate but alternating.
			body = logic.And(step(string(rel), f), logic.Or(logic.R(string(rel), "x"), logic.True))
		}
		f = logic.Fix{Op: op, Rel: string(rel), Vars: []logic.Var{"x"}, Body: body, Args: []logic.Var{"x"}}
		if op == logic.LFP {
			op = logic.GFP
		} else {
			op = logic.LFP
		}
	}
	return f
}

func TestFindVerifyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		db := randomGraph(t, r, 2+r.Intn(3))
		d := 1 + r.Intn(3)
		q := logic.MustQuery([]logic.Var{"x"}, alternatingFormula(d))
		want, err := BottomUp(q, db)
		if err != nil {
			t.Fatalf("BottomUp: %v", err)
		}
		cert, res, err := FindCertificate(context.Background(), q, db)
		if err != nil {
			t.Fatalf("FindCertificate: %v", err)
		}
		if !res.Answer.Equal(want) {
			t.Fatalf("prover answer %v != BottomUp %v (depth %d)\n%s", res.Answer, want, d, db)
		}
		ver, err := VerifyCertificate(context.Background(), q, db, cert)
		if err != nil {
			t.Fatalf("VerifyCertificate: %v", err)
		}
		if !ver.Answer.Equal(want) {
			t.Fatalf("verified answer %v != %v", ver.Answer, want)
		}
	}
}

func TestVerifiedAnswerIsUnderApproximation(t *testing.T) {
	// Truncating a gfp chain must never produce extra tuples; it either
	// fails a check or yields a subset of the true answer.
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		db := randomGraph(t, r, 2+r.Intn(3))
		q := logic.MustQuery([]logic.Var{"x"}, alternatingFormula(2))
		want, err := BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		cert, _, err := FindCertificate(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		// Shrink every chain element to the first element.
		tampered := &Certificate{Chains: map[string][]*relation.Set{}}
		for path, chain := range cert.Chains {
			tampered.Chains[path] = chain[:1]
		}
		res, err := VerifyCertificate(context.Background(), q, db, tampered)
		if err != nil {
			continue // rejected: fine
		}
		if !res.Answer.SubsetOf(want) {
			t.Fatalf("under-approximation violated: %v vs true %v", res.Answer, want)
		}
	}
}

func TestVerifyRejectsInflatedChain(t *testing.T) {
	// A ν-node chain inflated beyond the true gfp must fail the
	// post-fixpoint check (soundness of Lemma 3.3).
	b := lineGraph(t, 4) // no cycles: gfp of "has E-successor in S" is empty
	body := logic.And(
		logic.Exists(logic.And(logic.R("E", "x", "y"),
			logic.Exists(logic.And(logic.Equal("x", "y"), logic.R("S", "x")), "x")), "y"),
		logic.Or(logic.R("S", "x"), logic.True))
	q := logic.MustQuery([]logic.Var{"u"}, logic.Gfp("S", []logic.Var{"x"}, body, "u"))
	want, err := BottomUp(q, b)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 0 {
		t.Fatalf("gfp on a dag should be empty, got %v", want)
	}
	cert, _, err := FindCertificate(context.Background(), q, b)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate every chain element to the full set.
	full := relation.NewSet(1)
	for i := 0; i < 4; i++ {
		full.Add(relation.Tuple{i})
	}
	for path := range cert.Chains {
		cert.Chains[path] = []*relation.Set{full}
	}
	if _, err := VerifyCertificate(context.Background(), q, b, cert); err == nil {
		t.Fatal("inflated certificate accepted")
	}
}

func TestVerifyRejectsMalformedCertificates(t *testing.T) {
	db := lineGraph(t, 3)
	q := logic.MustQuery([]logic.Var{"x"}, alternatingFormula(2))
	if _, err := VerifyCertificate(context.Background(), q, db, nil); err == nil {
		t.Fatal("nil certificate accepted")
	}
	if _, err := VerifyCertificate(context.Background(), q, db, &Certificate{Chains: map[string][]*relation.Set{}}); err == nil {
		t.Fatal("certificate with missing chains accepted")
	}
	// Non-increasing chain.
	cert, _, err := FindCertificate(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	for path, chain := range cert.Chains {
		if len(chain) >= 1 {
			bigger := relation.NewSet(chain[0].Arity())
			forEachAssignment(3, chain[0].Arity(), func(t []int) bool { bigger.Add(t); return true })
			cert.Chains[path] = []*relation.Set{bigger, relation.NewSet(chain[0].Arity())}
			break
		}
	}
	if _, err := VerifyCertificate(context.Background(), q, db, cert); err == nil {
		t.Fatal("non-increasing chain accepted")
	}
}

func TestCertificateSizePolynomial(t *testing.T) {
	// The witness must stay polynomial: for the depth-2 shrinking formula
	// over an n-node line graph, chain elements are ≤ #evaluations (here 1
	// per gfp node) and tuples ≤ elements·n.
	for _, n := range []int{4, 8, 16} {
		db := lineGraph(t, n)
		q := logic.MustQuery([]logic.Var{"x"}, alternatingFormula(2))
		cert, _, err := FindCertificate(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		nodes, elements, tuples := cert.Size()
		if nodes == 0 {
			t.Fatal("no gfp chains recorded")
		}
		if tuples > nodes*elements*n {
			t.Fatalf("n=%d: certificate has %d tuples across %d elements — super-polynomial?",
				n, tuples, elements)
		}
	}
	var nilCert *Certificate
	if a, b, c := nilCert.Size(); a != 0 || b != 0 || c != 0 {
		t.Fatal("nil certificate should have zero size")
	}
}

func TestCoNPRefutation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		db := randomGraph(t, r, 2+r.Intn(3))
		q := logic.MustQuery([]logic.Var{"x"}, alternatingFormula(2))
		want, err := BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		nq, err := NegateQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		cert, res, err := FindCertificate(context.Background(), nq, db)
		if err != nil {
			t.Fatalf("FindCertificate(¬q): %v", err)
		}
		ver, err := VerifyCertificate(context.Background(), nq, db, cert)
		if err != nil {
			t.Fatalf("VerifyCertificate(¬q): %v", err)
		}
		// The two certified answers partition the domain.
		for v := 0; v < db.Size(); v++ {
			tp := relation.Tuple{v}
			if want.Contains(tp) == ver.Answer.Contains(tp) {
				t.Fatalf("refutation overlaps answer at %v: q=%v ¬q=%v", tp, want, ver.Answer)
			}
		}
		_ = res
	}
}

func TestCertificateRejectsPFPAndESO(t *testing.T) {
	db := lineGraph(t, 3)
	pfpQ := logic.MustQuery([]logic.Var{"u"}, logic.Pfp("S", []logic.Var{"x"}, logic.Neg(logic.R("S", "x")), "u"))
	if _, _, err := FindCertificate(context.Background(), pfpQ, db); err == nil {
		t.Fatal("PFP accepted by certificate prover")
	}
	esoQ := logic.MustQuery(nil, logic.SOExists(logic.True, logic.RelVar{Name: "S", Arity: 1}))
	if _, _, err := FindCertificate(context.Background(), esoQ, db); err == nil {
		t.Fatal("ESO accepted by certificate prover")
	}
}

func TestMonotoneMatchesBottomUp(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		db := randomGraph(t, r, 2+r.Intn(3))
		q := logic.MustQuery([]logic.Var{"x"}, alternatingFormula(1))
		bu, err := BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		mo, _, err := MonotoneContext(context.Background(), q, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !mo.Equal(bu) {
			t.Fatalf("Monotone %v != BottomUp %v", mo, bu)
		}
	}
}

func TestMonotoneNestedSamePolarity(t *testing.T) {
	// µ inside µ: reach-from-P through two edge relations.
	r := rand.New(rand.NewSource(17))
	inner := logic.Lfp("T", []logic.Var{"x"},
		logic.Or(logic.R("P", "x"),
			logic.Exists(logic.And(logic.R("E", "z", "x"),
				logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("T", "x")), "x")), "z")), "x")
	outer := logic.Lfp("S", []logic.Var{"x"},
		logic.Or(inner,
			logic.Exists(logic.And(logic.R("E", "x", "z"),
				logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z")), "x")
	q := logic.MustQuery([]logic.Var{"x"}, outer)
	for trial := 0; trial < 15; trial++ {
		db := randomGraph(t, r, 2+r.Intn(3))
		bu, err := BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		mo, _, err := MonotoneContext(context.Background(), q, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !mo.Equal(bu) {
			t.Fatalf("nested µµ: Monotone %v != BottomUp %v", mo, bu)
		}
	}
}

func TestMonotoneRejectsDependentAlternation(t *testing.T) {
	db := lineGraph(t, 3)
	// νS.(∃succ ∈ S ∧ [µT. (P ∧ S) ∨ pred-step](x)) — the inner µ mentions
	// S, so the alternation is real and warm-starting would be unsound.
	hasSucc := logic.Exists(logic.And(logic.R("E", "x", "y"),
		logic.Exists(logic.And(logic.Equal("x", "y"), logic.R("S", "x")), "x")), "y")
	innerBody := logic.Or(
		logic.And(logic.R("P", "x"), logic.R("S", "x")),
		logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("T", "x")), "x")), "z"))
	q := logic.MustQuery([]logic.Var{"x"},
		logic.Gfp("S", []logic.Var{"x"},
			logic.And(hasSucc, logic.Lfp("T", []logic.Var{"x"}, innerBody, "x")), "x"))
	if _, _, err := MonotoneContext(context.Background(), q, db, nil); err == nil {
		t.Fatal("dependently alternating formula accepted by Monotone")
	}
}

func TestMonotoneAcceptsClosedOppositeNesting(t *testing.T) {
	// alternatingFormula nests µ and ν syntactically, but every inner
	// fixpoint is closed — Emerson–Lei depth 1 — so Monotone handles it
	// with memoization and must agree with BottomUp.
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 15; trial++ {
		db := randomGraph(t, r, 2+r.Intn(3))
		for d := 1; d <= 3; d++ {
			q := logic.MustQuery([]logic.Var{"x"}, alternatingFormula(d))
			bu, err := BottomUp(q, db)
			if err != nil {
				t.Fatal(err)
			}
			mo, _, err := MonotoneContext(context.Background(), q, db, nil)
			if err != nil {
				t.Fatalf("Monotone rejected closed nesting at depth %d: %v", d, err)
			}
			if !mo.Equal(bu) {
				t.Fatalf("Monotone %v != BottomUp %v at depth %d", mo, bu, d)
			}
		}
	}
}

func TestVerifyCheaperThanNaiveOnAlternation(t *testing.T) {
	// The point of Theorem 3.5: verification iterations scale like l·nᵏ while
	// naive nested evaluation scales like n^{kl}.
	db := lineGraph(t, 6)
	q := logic.MustQuery([]logic.Var{"x"}, alternatingFormula(3))
	_, naiveStats, err := BottomUpStats(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert, _, err := FindCertificate(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := VerifyCertificate(context.Background(), q, db, cert)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Stats.FixIterations >= naiveStats.FixIterations {
		t.Fatalf("verification (%d iterations) not cheaper than naive nested (%d)",
			ver.Stats.FixIterations, naiveStats.FixIterations)
	}
}
