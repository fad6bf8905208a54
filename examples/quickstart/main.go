// Quickstart: build a database, parse bounded-variable queries, and run
// them through several engines of the public API.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A small social graph: Follows edges and a Verified flag.
	db, err := bvq.NewDatabase().
		Relation("Follows", 2).
		Add("Follows", 1, 2).Add("Follows", 2, 3).Add("Follows", 3, 1).
		Add("Follows", 3, 4).Add("Follows", 4, 5).
		Relation("Verified", 1).
		Add("Verified", 1).Add("Verified", 5).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("Database:\n", db)

	// An FO³ query: pairs connected by a path of length 2, using only
	// three variables.
	q, err := bvq.ParseQuery("(x, y). exists z. Follows(x, z) & Follows(z, y)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQuery: %s  (width %d)\n", q, bvq.Width(q))
	for _, engine := range []bvq.Engine{bvq.EngineCompiled, bvq.EngineBottomUp, bvq.EngineNaive} {
		ans, err := bvq.Eval(q, db, engine)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s → %d tuples: %s\n", engine, ans.Len(), ans)
	}

	// A fixpoint query: everyone transitively followed by a verified user,
	// still within three variables.
	reach, err := bvq.ParseQuery(
		"(u). [lfp S(x). Verified(x) | (exists z. Follows(z, x) & (exists x. x = z & S(x)))](u)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFixpoint query: %s\n", reach)
	ans, err := bvq.Eval(reach, db, bvq.EngineBottomUp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  reachable from a verified user: %s\n", ans)

	// Certify the fixpoint evaluation (Theorem 3.5): the prover emits
	// under-approximation chains; the polynomial verifier replays them.
	cert, proved, err := bvq.FindCertificate(reach, db)
	if err != nil {
		log.Fatal(err)
	}
	verified, err := bvq.VerifyCertificate(reach, db, cert)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  certificate verified: prover %s, verifier %s, agree: %v\n",
		proved, verified, proved.Equal(verified))

	// An ESO query: is the follows graph 2-colorable?
	two, err := bvq.ParseQuery("(). exists2 C/1. forall x. forall y. Follows(x, y) -> !(C(x) <-> C(y))")
	if err != nil {
		log.Fatal(err)
	}
	sat, err := bvq.Eval(two, db, bvq.EngineESO)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n2-colorable: %v (it has a 3-cycle, so it should not be)\n", sat.Len() > 0)
}
