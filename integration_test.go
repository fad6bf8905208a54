package bvq

// Cross-module integration tests: whole pipelines (text → parse → evaluate
// through several engines → certificates), semantic preservation of the
// transformations, and robustness of the parser against garbage input.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/workload"
)

// randFO3 builds a random FO formula over x, y, z and relations E/2, P/1.
func randFO3(r *rand.Rand, depth int) logic.Formula {
	vars := []logic.Var{"x", "y", "z"}
	v := func() logic.Var { return vars[r.Intn(len(vars))] }
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
	sub := func() logic.Formula { return randFO3(r, depth-1) }
	switch r.Intn(7) {
	case 0:
		return logic.Not{F: sub()}
	case 1, 2:
		return logic.Binary{Op: logic.BinOp(r.Intn(4)), L: sub(), R: sub()}
	default:
		return logic.Quant{Kind: logic.QuantKind(r.Intn(2)), V: v(), F: sub()}
	}
}

func TestPipelineTextToAnswerAllEngines(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	for trial := 0; trial < 40; trial++ {
		db := workload.RandomGraph(int64(trial), 2+r.Intn(4), 3)
		f := randFO3(r, 3)
		head := logic.SortedVars(logic.FreeVars(f))
		q, err := logic.NewQuery(head, f)
		if err != nil {
			t.Fatal(err)
		}
		// Through the text round trip.
		reparsed, err := ParseQuery(q.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", q.String(), err)
		}
		var answers []*Relation
		for _, e := range []Engine{EngineBottomUp, EngineNaive, EngineCompiled, EngineMonotone} {
			ans, err := Eval(reparsed, db, e)
			if err != nil {
				t.Fatalf("%v on %s: %v", e, q, err)
			}
			answers = append(answers, ans)
		}
		for i := 1; i < len(answers); i++ {
			if !answers[0].Equal(answers[i]) {
				t.Fatalf("engine disagreement on %s:\n%v\nvs\n%v", q, answers[0], answers[i])
			}
		}
	}
}

func TestNNFPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(733))
	for trial := 0; trial < 50; trial++ {
		db := workload.RandomGraph(int64(trial)+1000, 2+r.Intn(3), 3)
		f := randFO3(r, 3)
		head := logic.SortedVars(logic.FreeVars(f))
		q := logic.MustQuery(head, f)
		nnf, err := logic.NNF(f)
		if err != nil {
			t.Fatal(err)
		}
		qn := logic.MustQuery(head, nnf)
		a, err := eval.BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eval.BottomUp(qn, db)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("NNF changed semantics of %s:\n%s\n%v vs %v", f, nnf, a, b)
		}
	}
}

func TestCertificatePipelineOnFixpointFamilies(t *testing.T) {
	// reach-from-P under lfp, with and without negation on top (co-NP
	// side), against three graph families.
	reach := "[lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)"
	for _, src := range []string{
		"(u). " + reach,
		"(u). !" + reach,
	} {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, db := range []*Database{
			workload.LineGraph(6),
			workload.CycleGraph(5),
			workload.RandomGraph(9, 5, 3),
		} {
			want, err := Eval(q, db, EngineBottomUp)
			if err != nil {
				t.Fatal(err)
			}
			cert, proved, err := FindCertificate(q, db)
			if err != nil {
				t.Fatalf("FindCertificate(%s): %v", src, err)
			}
			if !proved.Equal(want) {
				t.Fatalf("prover differs on %s: %v vs %v", src, proved, want)
			}
			verified, err := VerifyCertificate(q, db, cert)
			if err != nil {
				t.Fatal(err)
			}
			if !verified.Equal(want) {
				t.Fatalf("verifier differs on %s", src)
			}
		}
	}
}

func TestParserNeverPanicsOnGarbage(t *testing.T) {
	tokens := []string{
		"exists", "forall", "lfp", "gfp", "pfp", "ifp", "exists2", "true", "false",
		"E", "P", "x", "y", "(", ")", "[", "]", ".", ",", "&", "|", "!", "->",
		"<->", "=", "/", "2", "S",
	}
	r := rand.New(rand.NewSource(4096))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(12)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(tokens[r.Intn(len(tokens))])
			sb.WriteByte(' ')
		}
		// Must not panic; errors are expected and fine.
		_, _ = ParseFormula(sb.String())
		_, _ = ParseQuery(sb.String())
	}
}

func TestDatabaseParserNeverPanicsOnGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(8192))
	pieces := []string{"domain", "=", "{", "}", "(", ")", ",", "E", "/", "1", "2", "-3", "x", "\n"}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(16)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(pieces[r.Intn(len(pieces))])
		}
		_, _ = ParseDatabase(sb.String())
	}
}

func TestWidthEnforcementAcrossEngines(t *testing.T) {
	db := workload.LineGraph(4)
	q, err := ParseQuery("(x). exists y. exists z. E(x, y) & E(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	if w := Width(q); w != 3 {
		t.Fatalf("width = %d", w)
	}
	if _, _, err := EvalStats(q, db, EngineBottomUp, &Options{MaxWidth: 2}); err == nil {
		t.Fatal("k=2 accepted a width-3 query")
	}
	if _, _, err := EvalStats(q, db, EngineBottomUp, &Options{MaxWidth: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestMixedFixpointQueryEndToEnd(t *testing.T) {
	// An FP² query with a closed ν inside a µ, parsed from text, across
	// BottomUp / Monotone / Naive plus certificates.
	src := "(u). [lfp S(x). P(x) | ([gfp T(x). (exists y. E(x, y) & (exists x. x = y & T(x)))](x) & (exists z. E(z, x) & (exists x. x = z & S(x))))](u)"
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		db := workload.RandomGraph(seed, 4, 2)
		bu, err := Eval(q, db, EngineBottomUp)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := Eval(q, db, EngineNaive)
		if err != nil {
			t.Fatal(err)
		}
		mo, err := Eval(q, db, EngineMonotone)
		if err != nil {
			t.Fatal(err)
		}
		if !bu.Equal(nv) || !bu.Equal(mo) {
			t.Fatalf("engines disagree on seed %d: %v / %v / %v", seed, bu, nv, mo)
		}
		cert, _, err := FindCertificate(q, db)
		if err != nil {
			t.Fatal(err)
		}
		ver, err := VerifyCertificate(q, db, cert)
		if err != nil {
			t.Fatal(err)
		}
		if !ver.Equal(bu) {
			t.Fatalf("certificate pipeline differs on seed %d", seed)
		}
	}
}
