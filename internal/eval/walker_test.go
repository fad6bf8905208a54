// Tests of the shared formula walker: the three fixpoint rules give one
// answer, the resume and certify rules never cost more stages than restart,
// a finished walk leaves no scratch bitmap out on any path, and the chain
// keys of a certificate are a stable wire object.
package eval

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/relation"
)

// outstanding sums the scratch balance over every space of a dense algebra.
func outstanding(alg *denseAlg) int64 {
	var n int64
	for _, sp := range alg.spaces {
		n += sp.ScratchOutstanding()
	}
	return n
}

// shrinkingNuMu is νS.(∃succ ∈ S ∧ µT.((P∧S) ∨ ∃pred ∈ T)): the µ depends on
// the ν, and on a line graph the ν is empty.
func shrinkingNuMu() logic.Query {
	hasSucc := logic.Exists(logic.And(logic.R("E", "x", "y"),
		logic.Exists(logic.And(logic.Equal("x", "y"), logic.R("S", "x")), "x")), "y")
	inner := logic.Lfp("T", []logic.Var{"x"}, logic.Or(
		logic.And(logic.R("P", "x"), logic.R("S", "x")),
		logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("T", "x")), "x")), "z")), "x")
	return logic.MustQuery([]logic.Var{"x"}, logic.Gfp("S", []logic.Var{"x"}, logic.And(hasSucc, inner), "x"))
}

// TestWalkerPoolBalance pins the ownership of memoised stages: the memo owns
// them between visits, a visit owns the one it resumes, and whichever holds a
// stage when the walk ends — normally, cancelled mid-fixpoint, or refused by
// a Lemma 3.3 check — releases it exactly once.
func TestWalkerPoolBalance(t *testing.T) {
	db := lineGraph(t, 6)
	closed := logic.MustQuery([]logic.Var{"x"}, alternatingFormula(3))
	dependent := shrinkingNuMu()
	found := func(q logic.Query) *Certificate {
		cert, _, err := FindCertificate(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		return cert
	}
	inflated := found(dependent)
	for path := range inflated.Chains {
		full := relation.NewSet(1)
		for v := 0; v < db.Size(); v++ {
			full.Add(relation.Tuple{v})
		}
		inflated.Chains[path] = []*relation.Set{full}
	}
	fresh := func() *Certificate { return &Certificate{Chains: map[string][]*relation.Set{}} }

	cases := []struct {
		name    string
		q       logic.Query
		rule    fixRule
		cert    *Certificate // nil under resume
		prove   bool
		ctx     context.Context
		wantErr string
	}{
		{"monotone", closed, resume, nil, false, context.Background(), ""},
		{"prover", dependent, certify, fresh(), true, context.Background(), ""},
		{"verifier", closed, certify, found(closed), false, context.Background(), ""},
		{"monotone cancelled", closed, resume, nil, false, cancelAfter(4), "cancelled"},
		{"prover cancelled", dependent, certify, fresh(), true, cancelAfter(6), "cancelled"},
		{"verifier cancelled", closed, certify, found(closed), false, cancelAfter(3), "cancelled"},
		{"verifier tampered", dependent, certify, inflated, false, context.Background(), "post-fixpoint check failed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The entry points' own sequence, keeping the walker.
			c, err := newWalker(tc.ctx, &tc.q, db, nil, "", tc.rule)
			if err != nil {
				t.Fatal(err)
			}
			body, err := positiveBody(tc.q, false, "")
			if err != nil {
				t.Fatal(err)
			}
			c.cert, c.prove, c.cursor = tc.cert, tc.prove, make(map[string]int)
			_, err = c.answer(tc.q.Head, body)
			if tc.wantErr == "" && err != nil {
				t.Fatal(err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
			if c.stats.FixIterations == 0 {
				t.Fatal("the walk never reached a fixpoint stage")
			}
			if n := outstanding(c.alg); n != 0 {
				t.Fatalf("%d scratch bitmaps outstanding after the walk", n)
			}
		})
	}
}

// TestFailedSweepPoolBalance: a parametrised PFP that overruns its stage
// budget fails with ErrBudget and its sweep gives its output bitmap back — on
// the walker, where a finished walk leaves nothing out; and on the executor's
// dense route, where what is out afterwards is the run's node cache and
// nothing else.
func TestFailedSweepPoolBalance(t *testing.T) {
	db := lineGraph(t, 6)
	q := paramOscillatingPFP()
	c, err := newWalker(context.Background(), &q, db, &Options{pfpBudget: 1}, "bottomup", restart)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.answer(q.Head, q.Body); !errors.Is(err, ErrBudget) {
		t.Fatalf("walker: err = %v, want ErrBudget", err)
	}
	if n := outstanding(c.alg); n != 0 {
		t.Fatalf("walker: %d scratch bitmaps outstanding after the walk", n)
	}

	p := mustCompile(t, q)
	alg, _, err := newDenseAlg(db, len(p.Vars), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun[*relation.Dense](context.Background(), p, db, &Options{pfpBudget: 1}, alg, &Stats{}, p.DeltaOK, false)
	if _, err := r.answer(r.start(nil, nil, false)); !errors.Is(err, ErrBudget) {
		t.Fatalf("compiled: err = %v, want ErrBudget", err)
	}
	for n := range r.val {
		r.invalidate(n)
	}
	if n := outstanding(alg); n != 0 {
		t.Fatalf("compiled: %d scratch bitmaps outstanding beyond the node cache", n)
	}
}

// TestFixRulesAgree holds the three rules of the walker, the compiled engine
// and the naive oracle to one answer on random FP queries, and the two rules
// that remember to never more stages than the one that starts over.
func TestFixRulesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	g := &diffGen{r: r}
	ctx := context.Background()
	var kept, resumed, proved int
	for trial := 0; trial < 300; trial++ {
		f := g.formula(3, nil)
		if logic.Validate(f, nil) != nil {
			continue
		}
		q, err := logic.NewQuery(logic.SortedVars(logic.FreeVars(f)), f)
		if err != nil {
			continue
		}
		kept++
		db := randomGraph(t, r, 2+r.Intn(3))
		want, bst, err := BottomUpStats(q, db, nil)
		if err != nil {
			t.Fatalf("BottomUp(%s): %v", q, err)
		}
		if nv, err := Naive(q, db); err != nil || !nv.Equal(want) {
			t.Fatalf("Naive on %s: %v, err %v; bottomup %v\n%s", q, nv, err, want, db)
		}
		if co, err := Compiled(q, db); err != nil || !co.Equal(want) {
			t.Fatalf("Compiled on %s: %v, err %v; bottomup %v\n%s", q, co, err, want, db)
		}

		mo, mst, err := MonotoneContext(context.Background(), q, db, nil)
		switch {
		case err == nil:
			resumed++
			if !mo.Equal(want) {
				t.Fatalf("Monotone on %s: %v; bottomup %v\n%s", q, mo, want, db)
			}
			if mst.FixIterations > bst.FixIterations {
				t.Fatalf("%s: resume took %d stages, restart %d", q, mst.FixIterations, bst.FixIterations)
			}
		case !strings.Contains(err.Error(), "alternation"):
			t.Fatalf("Monotone(%s): %v", q, err)
		}

		cert, res, err := FindCertificate(ctx, q, db)
		if err != nil {
			if strings.Contains(err.Error(), "certificates apply to FP queries") {
				continue // an IFP somewhere in it
			}
			t.Fatalf("FindCertificate(%s): %v", q, err)
		}
		proved++
		ver, err := VerifyCertificate(ctx, q, db, cert)
		if err != nil {
			t.Fatalf("VerifyCertificate(%s): %v", q, err)
		}
		if !res.Answer.Equal(want) || !ver.Answer.Equal(want) {
			t.Fatalf("certified on %s: prover %v, verifier %v; bottomup %v\n%s", q, res.Answer, ver.Answer, want, db)
		}
		if ver.Stats.FixIterations > bst.FixIterations {
			t.Fatalf("%s: the verifier took %d stages, restart %d", q, ver.Stats.FixIterations, bst.FixIterations)
		}
	}
	if kept < 75 || resumed < kept/4 || proved < kept/4 {
		t.Fatalf("generator kept %d formulas, Monotone admitted %d, certificates cover %d; tighten it", kept, resumed, proved)
	}
}

// TestCertificateChainKeys pins the keys of Certificate.Chains literally: a
// chain is found by the path of its ν occurrence from the root of the NNF
// body, and a stored certificate must keep verifying.
func TestCertificateChainKeys(t *testing.T) {
	step := func(rel string) logic.Formula {
		return logic.Exists(logic.And(logic.R("E", "x", "y"),
			logic.Exists(logic.And(logic.Equal("x", "y"), logic.R(rel, "x")), "x")), "y")
	}
	// νA.(step(A) ∧ µT.(P ∨ νB.(B ∧ (T ∨ step(B))))) beside a negated µ, which
	// NNF turns into a third ν.
	nuB := logic.Gfp("B", []logic.Var{"x"}, logic.And(logic.R("B", "x"), logic.Or(logic.R("T", "x"), step("B"))), "x")
	muT := logic.Lfp("T", []logic.Var{"x"}, logic.Or(logic.R("P", "x"), nuB), "x")
	nuA := logic.Gfp("A", []logic.Var{"x"}, logic.And(step("A"), muT), "x")
	negMu := logic.Neg(logic.Lfp("R", []logic.Var{"x"}, logic.Or(logic.R("P", "x"), step("R")), "x"))
	q := logic.MustQuery([]logic.Var{"x"}, logic.Or(nuA, logic.Exists(negMu, "x")))

	db := lineGraph(t, 5)
	cert, res, err := FindCertificate(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range cert.Chains {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"r.l", "r.l.b.r.b.r", "r.r.q"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("chain keys = %q, want %q", keys, want)
	}
	want, err := BottomUp(q, db)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := VerifyCertificate(context.Background(), q, db, cert)
	if err != nil || !ver.Answer.Equal(want) || !res.Answer.Equal(want) {
		t.Fatalf("prover %v, verifier %v (err %v), bottomup %v", res.Answer, ver, err, want)
	}
}

// TestPFPStagesReturnToPool: a partial-fixpoint run gives every stage it
// remembered (pfpHash) or dropped (pfpBrent) back to the space's pool,
// whichever way it ends — converged, periodic, over budget or on a failed
// step — so the balance is back at its start once the limit is released.
func TestPFPStagesReturnToPool(t *testing.T) {
	msp := relation.MustSpace(1, 8)
	stepOf := func(next func(idx int, s *relation.Dense) bool, failAt int) func(*relation.Dense) (*relation.Dense, error) {
		calls := 0
		return func(s *relation.Dense) (*relation.Dense, error) {
			if calls++; calls == failAt {
				return nil, context.Canceled
			}
			out := msp.Empty()
			for idx := 0; idx < msp.Size(); idx++ {
				if next(idx, s) {
					out.AddIndex(idx)
				}
			}
			return out, nil
		}
	}
	grow := func(idx int, s *relation.Dense) bool { return idx <= s.Count() && idx < 5 }         // ∅, {0}, …, {0..4}: converges
	flipAll := func(idx int, s *relation.Dense) bool { return !s.Contains(relation.Tuple{idx}) } // ∅, D, ∅: period 2
	counter := func(idx int, s *relation.Dense) bool {                                           // binary increment: 2⁸ stages
		for lower := 0; lower < idx; lower++ {
			if !s.Contains(relation.Tuple{lower}) {
				return s.Contains(relation.Tuple{idx})
			}
		}
		return !s.Contains(relation.Tuple{idx})
	}
	cases := []struct {
		name      string
		next      func(int, *relation.Dense) bool
		failAt    int
		budget    int
		wantCount int // of the limit; −1 for an error
	}{
		{"converged", grow, 0, 100, 5},
		{"period 2", flipAll, 0, 100, 0},
		{"over budget", counter, 0, 20, -1},
		{"failed step", counter, 7, 100, -1},
		{"failed first step", grow, 1, 100, -1},
	}
	for _, tc := range cases {
		for name, run := range map[string]func(func(*relation.Dense) (*relation.Dense, error), *relation.Space, int) (*relation.Dense, error){
			"hash": pfpHash, "brent": pfpBrent,
		} {
			before := msp.ScratchOutstanding()
			limit, err := run(stepOf(tc.next, tc.failAt), msp, tc.budget)
			if (err != nil) != (tc.wantCount < 0) {
				t.Fatalf("%s/%s: err = %v", tc.name, name, err)
			}
			if err == nil {
				if limit.Count() != tc.wantCount {
					t.Fatalf("%s/%s: limit has %d tuples, want %d", tc.name, name, limit.Count(), tc.wantCount)
				}
				limit.Release()
			}
			if after := msp.ScratchOutstanding(); after != before {
				t.Errorf("%s/%s: scratch balance %d → %d", tc.name, name, before, after)
			}
		}
	}
}
