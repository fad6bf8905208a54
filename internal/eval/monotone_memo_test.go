package eval

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
)

// memoHazardDB builds a graph with an extra unary relation R, so that the
// name "R" can denote a database relation in one subformula and a recursion
// relation in a byte-identical sibling.
func memoHazardDB(t *testing.T, r *rand.Rand, n int) *database.Database {
	t.Helper()
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1).Relation("R", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Intn(3) == 0 {
				b.Add("E", i, j)
			}
		}
		if r.Intn(2) == 0 {
			b.Add("P", i)
		}
		if r.Intn(2) == 0 {
			b.Add("R", i)
		}
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMonotoneMemoNoCrossOccurrenceReplay pins down the memo-keying
// invariant documented on monoCtx.memo: two byte-identical fixpoint
// subformulas evaluated under different environments must never share a memo
// entry. The formula places the same text
//
//	[lfp T(x). R(x) ∨ ∃z(E(z,x) ∧ ∃x(x=z ∧ T(x)))](x)
//
// once at top level — where R is the database relation — and once inside
// [lfp R(x). P(x) ∨ …](x) — where R is the enclosing recursion relation. A
// memo keyed by formula text (or any position-free scheme) would replay the
// first occurrence's value, which is computed from a different R; position
// paths keep the occurrences separate. BottomUp, which never memoizes, is
// the oracle.
func TestMonotoneMemoNoCrossOccurrenceReplay(t *testing.T) {
	reachViaR := func() logic.Formula {
		return logic.Lfp("T", []logic.Var{"x"},
			logic.Or(logic.R("R", "x"),
				logic.Exists(logic.And(logic.R("E", "z", "x"),
					logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("T", "x")), "x")), "z")),
			"x")
	}
	outer := logic.Lfp("R", []logic.Var{"x"},
		logic.Or(logic.R("P", "x"), reachViaR()), "x")
	for _, f := range []logic.Formula{
		logic.And(reachViaR(), outer),
		logic.And(outer, reachViaR()),
		logic.Or(reachViaR(), outer),
	} {
		q := logic.MustQuery([]logic.Var{"x"}, f)
		r := rand.New(rand.NewSource(47))
		for trial := 0; trial < 10; trial++ {
			db := memoHazardDB(t, r, 2+r.Intn(4))
			bu, err := BottomUp(q, db)
			if err != nil {
				t.Fatal(err)
			}
			mo, _, err := MonotoneContext(context.Background(), q, db, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !mo.Equal(bu) {
				t.Fatalf("memo replay across occurrences: Monotone %v != BottomUp %v on\n%s",
					mo, bu, db)
			}
			// The compiled engine keeps occurrences apart through binder ids;
			// hold it to the same oracle.
			co, err := Compiled(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if !co.Equal(bu) {
				t.Fatalf("compiled CSE conflated occurrences: %v != %v on\n%s", co, bu, db)
			}
		}
	}
}
