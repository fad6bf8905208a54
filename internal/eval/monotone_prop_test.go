package eval

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// randMonotoneFP generates random FP formulas that are dependently
// alternation-free: same-polarity dependent nesting plus closed
// opposite-polarity subformulas, combined with FO structure.
func randMonotoneFP(r *rand.Rand, depth int, outerMu string, outerNu string) logic.Formula {
	leaf := func() logic.Formula {
		switch r.Intn(4) {
		case 0:
			return logic.R("P", "x")
		case 1:
			return logic.R("E", "x", "y")
		case 2:
			if outerMu != "" {
				return logic.R(outerMu, "x")
			}
			return logic.Equal("x", "x")
		default:
			if outerNu != "" {
				return logic.R(outerNu, "x")
			}
			return logic.Truth{Value: r.Intn(2) == 0}
		}
	}
	if depth == 0 || r.Intn(4) == 0 {
		return leaf()
	}
	sub := func() logic.Formula { return randMonotoneFP(r, depth-1, outerMu, outerNu) }
	switch r.Intn(8) {
	case 0:
		return logic.And(sub(), sub())
	case 1:
		return logic.Or(sub(), sub())
	case 2:
		return logic.Exists(sub(), "y")
	case 3:
		return logic.Forall(sub(), "y")
	case 4:
		// Same-polarity dependent µ: may reference outerMu.
		rel := logic.Var("M" + string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26))))
		body := logic.Or(logic.R(string(rel), "x"), randMonotoneFP(r, depth-1, string(rel), ""))
		return logic.Lfp(string(rel), []logic.Var{"x"}, body, "x")
	case 5:
		// Closed ν: its body must not reference any outer µ (pass no outer
		// relations down), so it never truly alternates.
		rel := logic.Var("N" + string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26))))
		body := logic.And(logic.Or(logic.R(string(rel), "x"), logic.True),
			randMonotoneFP(r, depth-1, "", string(rel)))
		return logic.Gfp(string(rel), []logic.Var{"x"}, body, "x")
	default:
		return logic.Not{F: leaf()}
	}
}

func TestMonotonePropertyAgainstBottomUp(t *testing.T) {
	r := rand.New(rand.NewSource(60221))
	accepted := 0
	for trial := 0; trial < 150; trial++ {
		f := randMonotoneFP(r, 3, "", "")
		if logic.Validate(f, nil) != nil {
			continue // generator may produce a non-positive occurrence via Not(leaf)
		}
		head := logic.SortedVars(logic.FreeVars(f))
		q, err := logic.NewQuery(head, f)
		if err != nil {
			t.Fatal(err)
		}
		db := randomGraph(t, r, 2+r.Intn(3))
		mo, _, err := MonotoneContext(context.Background(), q, db, nil)
		if err != nil {
			// Dependent alternation can still arise (e.g. an outer µ
			// referenced inside a closed ν's dependent µ chain); those are
			// correctly rejected.
			continue
		}
		accepted++
		bu, err := BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !mo.Equal(bu) {
			t.Fatalf("Monotone %v != BottomUp %v on %s\n", mo, bu, q)
		}
	}
	if accepted < 50 {
		t.Fatalf("only %d formulas exercised Monotone; generator too restrictive", accepted)
	}
}
