package eval

import (
	"context"
	"fmt"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/relation"
)

// This file implements Theorem 3.5: the combined complexity of FPᵏ is in
// NP ∩ co-NP. It is the formula walker of bottomup.go under the certify rule,
// which approximates least AND greatest fixpoints from below (Lemmas 3.3 and
// 3.4):
//
//   - Lemma 3.3: a ∈ gfp(f) iff there is a post-fixpoint Q (Q ⊆ f′(Q) for
//     some monotone f′ ⊑ f) with a ∈ Q. The certificate *guesses* Q; the
//     verifier checks the inclusion with one body evaluation.
//
//   - Lemma 3.4: a ∈ lfp(f) iff a ∈ ⋃ Qᵢ for an increasing chain
//     Q₀ = ∅, Qᵢ = fᵢ(Q_{i−1}) with monotone f₁ ⊑ f₂ ⊑ … ⊑ f. The chain
//     need not be guessed: the verifier *computes* it — the walker's resume
//     rule, each least fixpoint continuing from its previous value whenever
//     the evaluation context has grown (the fᵢ of the lemma are the body
//     operators with the current, growing under-approximations of the
//     guessed gfp nodes plugged in).
//
// Every re-evaluation in the run happens under a non-decreasing environment
// (outer lfp stages grow; guessed gfp chains grow), so each fixpoint node's
// value advances at most nᵏ times across the entire run: the iteration count
// drops from the naive n^{kl} (l = alternation depth) to l·nᵏ, at the cost
// of nondeterminism — realized here as an explicit Certificate found by a
// (deterministic, possibly expensive) prover and checked by a polynomial
// verifier.
//
// Certificate identifies fixpoint nodes by their syntactic path from the
// root, so Find and Verify traverse identically.

// Certificate is the NP witness for an FPᵏ query evaluation: one increasing
// chain of (extended-arity) relation values per GFP node, indexed by the
// node's syntactic path. The i-th evaluation of the node uses chain element
// min(i, len−1).
type Certificate struct {
	Chains map[string][]*relation.Set
}

// Size reports the certificate's bulk: the number of gfp nodes covered, the
// total number of chain elements, and the total number of tuples across all
// chain elements. The tuple total is bounded by (#gfp nodes)·(chain length)
// ·nᵏ — polynomial in the query and the database, which is what makes the
// Theorem 3.5 witness an NP certificate.
func (c *Certificate) Size() (nodes, elements, tuples int) {
	if c == nil {
		return 0, 0, 0
	}
	for _, chain := range c.Chains {
		nodes++
		elements += len(chain)
		for _, s := range chain {
			tuples += s.Len()
		}
	}
	return nodes, elements, tuples
}

// CertResult is the outcome of a certified evaluation.
type CertResult struct {
	Answer *relation.Set
	Stats  Stats
}

// FindCertificate evaluates q and constructs a certificate for the answer.
// The body is normalized to NNF first (Verify does the same). Only the FP
// fragment is supported. The prover computes each greatest fixpoint exactly
// (paying the nested-iteration price); the certificate it emits lets Verify
// redo the evaluation with l·nᵏ cheap stages. The context is checked once per
// fixpoint stage; when it fires the error wraps ctx.Err() and the result
// holds the Stats of the work done so far and no answer.
func FindCertificate(ctx context.Context, q logic.Query, db *database.Database) (*Certificate, *CertResult, error) {
	cert := &Certificate{Chains: make(map[string][]*relation.Set)}
	res, err := certified(ctx, q, db, cert, true)
	if err != nil {
		return nil, res, err
	}
	return cert, res, nil
}

// VerifyCertificate replays the evaluation of q using the guessed gfp chains
// in cert, checking the Lemma 3.3 post-fixpoint condition at every use. On
// success it returns the certified answer, which is guaranteed to be a
// subset of the true answer (and equals it for certificates produced by
// FindCertificate). A tampered certificate fails either a chain check or
// the final comparison made by the caller. The context is honored as by
// FindCertificate.
func VerifyCertificate(ctx context.Context, q logic.Query, db *database.Database, cert *Certificate) (*CertResult, error) {
	if err := cert.checkChainsIncreasing(); err != nil {
		return nil, err
	}
	return certified(ctx, q, db, cert, false)
}

// certified runs the walker under the certify rule, recording ν chains into
// cert (prove) or replaying them from it.
func certified(ctx context.Context, q logic.Query, db *database.Database, cert *Certificate, prove bool) (*CertResult, error) {
	c, err := newWalker(ctx, &q, db, nil, "certified", certify)
	if err != nil {
		return nil, err
	}
	body, err := positiveBody(q, false, "certificates apply to FP queries")
	if err != nil {
		return nil, err
	}
	c.cert, c.prove, c.cursor = cert, prove, make(map[string]int)
	ans, err := c.answer(q.Head, body)
	return &CertResult{Answer: ans, Stats: *c.stats}, err
}

// NegateQuery returns the query whose answer is the complement of q's:
// (x̄). ¬body, normalized. Certifying a tuple into the negated query's
// answer refutes its membership in q — the co-NP half of Theorem 3.5.
func NegateQuery(q logic.Query) (logic.Query, error) {
	body, err := logic.NNF(logic.Not{F: q.Body})
	if err != nil {
		return logic.Query{}, err
	}
	return logic.NewQuery(q.Head, body)
}

func (cert *Certificate) checkChainsIncreasing() error {
	if cert == nil || cert.Chains == nil {
		return fmt.Errorf("eval: nil certificate")
	}
	for path, chain := range cert.Chains {
		if len(chain) == 0 {
			return fmt.Errorf("eval: empty chain at %s", path)
		}
		for i := 1; i < len(chain); i++ {
			if !chain[i-1].SubsetOf(chain[i]) {
				return fmt.Errorf("eval: chain at %s not increasing at step %d", path, i)
			}
		}
	}
	return nil
}

// evalGfp is the certify rule at a greatest fixpoint occurrence: the verifier
// takes the next element of the occurrence's guessed chain and checks the
// Lemma 3.3 post-fixpoint condition; the prover computes the true fixpoint —
// the restart rule, applied to this occurrence and everything under it, no
// certificate state touched — records it on the chain, and then performs the
// same mirror check so both modes advance inner occurrences identically.
// Chain elements cross into and out of the stage space here, as sets.
func (c *buCtx) evalGfp(g logic.Fix, params []logic.Var, esp *relation.Space, extCols, out []int) (*relation.Dense, error) {
	if err := checkCtx(c.ctx); err != nil {
		return nil, err
	}
	path := string(c.path)
	n := c.cursor[path]
	c.cursor[path] = n + 1

	var q *relation.Dense
	if c.prove {
		c.rule = restart
		val, err := c.stages(g, params, esp, extCols, esp.Full())
		c.rule = certify
		if err != nil {
			return nil, err
		}
		c.cert.Chains[path] = append(c.cert.Chains[path], val.ToSet())
		q = val
	} else {
		chain := c.cert.Chains[path]
		if len(chain) == 0 {
			return nil, fmt.Errorf("eval: certificate has no chain for gfp node %s", path)
		}
		if n >= len(chain) {
			n = len(chain) - 1
		}
		if chain[n].Arity() != esp.Arity() {
			return nil, fmt.Errorf("eval: chain at %s has arity %d, want %d", path, chain[n].Arity(), esp.Arity())
		}
		cols := make([]int, esp.Arity())
		for i := range cols {
			cols[i] = i
		}
		var err error
		if q, err = esp.FromAtom(chain[n], cols); err != nil {
			return nil, err
		}
	}
	defer q.Release()

	// Mirror check (Lemma 3.3): Q ⊆ f′(Q), evaluated with the certified
	// under-approximations of everything inside the body.
	restore := c.env.bind(g.Rel, boundRel{dense: q, params: params})
	c.stats.FixIterations++
	body, err := c.child('b', g.Body)
	restore()
	if err != nil {
		return nil, err
	}
	image := body.ProjectAt(esp, extCols, nil, nil)
	body.Release()
	post := q.SubsetOf(image)
	image.Release()
	if !post {
		return nil, fmt.Errorf("eval: post-fixpoint check failed for gfp node %s", path)
	}
	return c.alg.stageAtom(q, out)
}
