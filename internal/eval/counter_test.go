package eval

import (
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
)

// CounterQuery builds the PFP² binary-counter query over an ordered domain:
// the recursion relation S encodes a binary number (element x ∈ S = bit x
// set), and the stage operator is increment:
//
//	θ(S)(x) = (¬S(x) ∧ ∀y(Less(y,x) → S(y))) ∨ (S(x) ∧ ∃y(Less(y,x) ∧ ¬S(y)))
//
// The run walks through all 2ⁿ values and cycles, so the partial fixpoint
// is the empty relation — reached only after Θ(2ⁿ) stages. This is the
// canonical witness that PFP runs are exponentially long in the data
// (PSPACE data complexity, Table 1) even at width 2.
func counterQuery() logic.Query {
	body := logic.Or(
		logic.And(
			logic.Neg(logic.R("S", "x")),
			logic.Forall(logic.Implies(logic.R(database.OrderLess, "y", "x"),
				logic.Exists(logic.And(logic.Equal("x", "y"), logic.R("S", "x")), "x")), "y")),
		logic.And(
			logic.R("S", "x"),
			logic.Exists(logic.And(logic.R(database.OrderLess, "y", "x"),
				logic.Neg(logic.Exists(logic.And(logic.Equal("x", "y"), logic.R("S", "x")), "x"))), "y")))
	return logic.MustQuery([]logic.Var{"x"}, logic.Pfp("S", []logic.Var{"x"}, body, "x"))
}

func orderedDomain(t testing.TB, n int) *database.Database {
	t.Helper()
	b := database.NewBuilder()
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	odb, err := db.WithOrder()
	if err != nil {
		t.Fatal(err)
	}
	return odb
}

func TestPFPCounterTakesExponentialStages(t *testing.T) {
	q := counterQuery()
	if q.Width() != 2 {
		t.Fatalf("counter width = %d, want 2", q.Width())
	}
	var prev int64
	for _, n := range []int{2, 3, 4, 5} {
		db := orderedDomain(t, n)
		ans, st, err := BottomUpStats(q, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Len() != 0 {
			t.Fatalf("n=%d: counter limit should be empty (divergent run), got %v", n, ans)
		}
		// The run revisits ∅ after exactly 2ⁿ increments.
		if st.FixIterations < (1 << n) {
			t.Fatalf("n=%d: only %d stages, want ≥ 2^%d", n, st.FixIterations, n)
		}
		if st.FixIterations <= prev {
			t.Fatalf("stage count not growing: %d after %d", st.FixIterations, prev)
		}
		prev = st.FixIterations
	}
}

func TestPFPCounterNaiveAgrees(t *testing.T) {
	q := counterQuery()
	db := orderedDomain(t, 3)
	bu, err := BottomUp(q, db)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !bu.Equal(nv) {
		t.Fatalf("counter: bottomup %v != naive %v", bu, nv)
	}
}

func TestPFPCounterBudget(t *testing.T) {
	// n=16 would need 65536 stages; a budget of 1000 must trip.
	q := counterQuery()
	db := orderedDomain(t, 16)
	if _, _, err := BottomUpStats(q, db, &Options{pfpBudget: 1000}); err == nil {
		t.Fatal("expected budget exhaustion")
	}
}
