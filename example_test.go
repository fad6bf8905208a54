package bvq_test

import (
	"context"
	"errors"
	"time"

	"fmt"
	"log"

	"repro"
)

// The godoc examples double as end-to-end smoke tests of the public API.

func exampleDB() *bvq.Database {
	db, err := bvq.ParseDatabase(`
domain = {0, 1, 2, 3}
E/2 = {(0, 1), (1, 2), (2, 3)}
P/1 = {(0)}
`)
	if err != nil {
		log.Fatal(err)
	}
	return db
}

func ExampleEval() {
	db := exampleDB()
	q, _ := bvq.ParseQuery("(x, y). exists z. E(x, z) & E(z, y)")
	ans, _ := bvq.Eval(q, db, bvq.EngineBottomUp)
	fmt.Println(ans)
	// Output: {(0, 2), (1, 3)}
}

func ExampleEval_fixpoint() {
	db := exampleDB()
	q, _ := bvq.ParseQuery(
		"(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)")
	ans, _ := bvq.Eval(q, db, bvq.EngineBottomUp)
	fmt.Println(ans)
	// Output: {(0), (1), (2), (3)}
}

func ExampleFindCertificate() {
	db := exampleDB()
	q, _ := bvq.ParseQuery(
		"(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)")
	cert, proved, _ := bvq.FindCertificate(q, db)
	verified, _ := bvq.VerifyCertificate(q, db, cert)
	fmt.Println(proved.Equal(verified))
	// Output: true
}

func ExampleEval_eso() {
	db := exampleDB()
	// Is the graph 2-colorable? (A line always is.)
	q, _ := bvq.ParseQuery("(). exists2 C/1. forall x. forall y. E(x,y) -> !(C(x) <-> C(y))")
	ans, _ := bvq.Eval(q, db, bvq.EngineESO)
	fmt.Println(ans.Len() > 0)
	// Output: true
}

func ExampleWidth() {
	q, _ := bvq.ParseQuery("(x, y). exists z. E(x, z) & E(z, y)")
	fmt.Println(bvq.Width(q))
	// Output: 3
}

func ExampleMinimizeWidth() {
	// A length-4 path query: naively 5 variables, minimized to 3.
	q := &bvq.ConjunctiveQuery{
		Head: []bvq.Var{"a", "e"},
		Atoms: []bvq.CQAtom{
			{Rel: "E", Vars: []bvq.Var{"a", "b"}},
			{Rel: "E", Vars: []bvq.Var{"b", "c"}},
			{Rel: "E", Vars: []bvq.Var{"c", "d"}},
			{Rel: "E", Vars: []bvq.Var{"d", "e"}},
		},
	}
	_, width, _ := bvq.MinimizeWidth(q)
	fmt.Println(width)
	// Output: 3
}

func ExampleParseDatabase() {
	db, err := bvq.ParseDatabase(`
domain = {10, 20, 30}
E/2 = {(10, 20), (20, 30)}
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(db.Size(), db.Names())
	// Output: 3 [E]
}

func ExampleParseQuery() {
	q, err := bvq.ParseQuery("(x, y). exists z. E(x, z) & E(z, y)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(q.Arity(), bvq.Width(q))
	// Output: 2 3
}

func ExampleEvalContext() {
	db := exampleDB()
	q, _ := bvq.ParseQuery("(x, y). exists z. E(x, z) & E(z, y)")
	// A deadline bounds the evaluation; cancellation is observed at
	// iteration boundaries, so any returned answer is byte-identical to an
	// uncancelled run. An already-expired context cancels before any work.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	ans, err := bvq.EvalContext(ctx, q, db, bvq.EngineBottomUp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ans)

	cancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	_, err = bvq.EvalContext(cancelled, q, db, bvq.EngineBottomUp)
	fmt.Println(errors.Is(err, context.Canceled))
	// Output:
	// {(0, 2), (1, 3)}
	// true
}

func ExampleVerifyCertificate() {
	db := exampleDB()
	q, _ := bvq.ParseQuery(
		"(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)")
	cert, _, _ := bvq.FindCertificate(q, db)
	// The verifier replays the evaluation against the certificate's chains
	// in l·nᵏ stages — the cheap half of the Theorem 3.5 NP ∩ co-NP bound.
	ans, err := bvq.VerifyCertificate(q, db, cert)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ans)
	// Output: {(0), (1), (2), (3)}
}

func ExampleEngineByName() {
	for _, name := range []string{"bottomup", "naive", "monotone", "eso", "certified", "compiled"} {
		e, err := bvq.EngineByName(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(e)
	}
	_, err := bvq.EngineByName("warpdrive")
	fmt.Println(err != nil)
	// Output:
	// bottomup
	// naive
	// monotone
	// eso
	// certified
	// compiled
	// true
}

func ExampleHolds() {
	db := exampleDB()
	f, _ := bvq.ParseFormula("exists x. P(x)")
	holds, err := bvq.Holds(f, db, bvq.EngineBottomUp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(holds)
	// Output: true
}

func ExampleModelCheck() {
	// A three-state cycle where p holds in state 0: "infinitely often p"
	// holds everywhere on the cycle.
	k := bvq.NewKripke(3)
	k.AddEdge(0, 1)
	k.AddEdge(1, 2)
	k.AddEdge(2, 0)
	k.Label(0, "p")
	f, _ := bvq.ParseMu("nu X. mu Y. ((p & <>X) | <>Y)")
	states, err := bvq.ModelCheck(k, f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(states)
	// Output: [0 1 2]
}

func ExampleDatabase_Apply() {
	db := exampleDB() // path 0→1→2→3, P = {0}
	reach, _ := bvq.ParseQuery("(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)")
	before, _ := bvq.Eval(reach, db, bvq.EngineBottomUp)

	// Apply never mutates: it returns a new snapshot plus the effective
	// delta. Holders of the old snapshot (in-flight queries, caches) keep
	// evaluating against byte-identical data.
	next, delta, err := db.Apply([]bvq.Update{
		{Relation: "E", Insert: []bvq.Tuple{{3, 0}}, Delete: []bvq.Tuple{{0, 1}}},
	})
	if err != nil {
		log.Fatal(err)
	}
	after, _ := bvq.Eval(reach, next, bvq.EngineBottomUp)

	ins, del := delta.Counts()
	fmt.Println("changed:", delta.Relations(), "inserted:", ins, "deleted:", del)
	fmt.Println("versions:", db.Version(), "->", next.Version())
	fmt.Println("old snapshot still:", before)
	fmt.Println("new snapshot:", after)
	// Output:
	// changed: [E] inserted: 1 deleted: 1
	// versions: 0 -> 1
	// old snapshot still: {(0), (1), (2), (3)}
	// new snapshot: {(0)}
}
