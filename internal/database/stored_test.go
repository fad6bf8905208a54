package database_test

import (
	"testing"

	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/relation"
)

// TestCompiledRunsBuildNoSet: the plan executor, on either algebra, and the
// formula walker read a database through its stored codes. The tuple set Rel
// hands the exhibit engines is built by the first of them that asks, not
// before; and a snapshot shares every relation an update left alone as it is
// stored, codes and (once built) set alike.
func TestCompiledRunsBuildNoSet(t *testing.T) {
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < 12; i++ {
		b.Domain(i).Add("E", i, (i+1)%12).Add("E", (5*i)%12, i)
	}
	db := b.Add("P", 0).Add("P", 7).MustBuild()
	unbuilt := func(what string, db *database.Database) {
		t.Helper()
		for _, name := range db.Names() {
			if db.SetBuilt(name) {
				t.Fatalf("%s built the tuple set of %s", what, name)
			}
		}
	}
	texts := []string{
		"(x, y). [lfp T(x, y). E(x, y) | (exists z. (E(x, z) & T(z, y)))](x, y)",
		"(x). P(x) & !(exists y. (E(y, x) & E(x, x)))",   // a repeated argument: decoded, selected, re-encoded
		"(y, x). E(x, y) & (exists x. (E(y, x) & P(x)))", // non-ascending arguments
		"(u). [gfp S(x). exists y. (E(x, y) & exists x. (x = y & S(x)))](u)",
	}
	queries, answers := map[string]logic.Query{}, map[string]*relation.Set{}
	for _, text := range texts {
		q, err := parser.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		queries[text], answers[text] = q, want
		unbuilt("bottomup", db)
		for _, backend := range []eval.Backend{eval.BackendDense, eval.BackendSparse, eval.BackendAuto} {
			got, _, err := eval.CompiledStats(q, db, &eval.Options{Backend: backend})
			if err != nil {
				if backend == eval.BackendSparse {
					continue // the GFP
				}
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s %s: %v, bottomup %v", backend, text, got, want)
			}
			unbuilt("compiled "+backend.String(), db)
		}
	}
	for _, text := range texts {
		if naive, err := eval.Naive(queries[text], db); err != nil || !naive.Equal(answers[text]) {
			t.Fatalf("naive %s: %v, %v", text, naive, err)
		}
	}
	if !db.SetBuilt("E") || !db.SetBuilt("P") {
		t.Fatal("naive reads tuple sets: Rel must have built them")
	}

	next, _, err := db.Apply([]database.Update{{Relation: "P", Insert: []relation.Tuple{{3}}}})
	if err != nil {
		t.Fatal(err)
	}
	oldE, _ := db.Codes("E")
	newE, _ := next.Codes("E")
	oldP, _ := db.Codes("P")
	newP, _ := next.Codes("P")
	if oldE != newE || oldP == newP || !next.SetBuilt("E") || next.SetBuilt("P") {
		t.Fatal("Apply must share E as stored, set included, and store a new P")
	}
	if oldP.Count() != 2 || newP.Count() != 3 || newP.Cap() != 3 {
		t.Fatalf("P: parent %d tuples, child %d in a block of %d", oldP.Count(), newP.Count(), newP.Cap())
	}
}
