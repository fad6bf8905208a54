package eval

import (
	"context"
	"fmt"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/relation"
)

// MonotoneContext evaluates a (dependently) alternation-free FP query with
// fixpoint memoization: when a fixpoint node is re-evaluated (because an
// enclosing fixpoint iterated), it warm-starts from its previous value
// instead of restarting from ∅ (lfp) or Dᵏ (gfp). Within a same-polarity
// nest the environment moves in one direction only — upward for lfp-only
// formulas, downward for gfp-only formulas — so the restart is sound and
// every node advances at most nᵏ times in total: l·nᵏ iterations instead of
// n^{kl} (the footnote-5 observation of the paper). Opposite-polarity
// subformulas are fine as long as they are *closed* (they do not mention the
// enclosing recursion relation): their environment never changes, so the
// memo just replays their value. Admission is therefore by
// logic.DependentAlternationDepth ≤ 1 — the Emerson–Lei notion, under which
// all of CTL is alternation-free.
//
// Queries whose NNF truly alternates µ and ν are rejected; they need the
// nondeterministic machinery of Theorem 3.5 (FindCertificate /
// VerifyCertificate) or the naive BottomUp evaluator.
//
// It returns the answer and the work statistics. Of Options it honors the
// width bound and the observer; its fragment has no PFP. Cancellation is
// checked once per fixpoint iteration, like BottomUpContext; on cancellation
// the returned Stats hold the work completed so far.
func MonotoneContext(ctx context.Context, q logic.Query, db *database.Database, opts *Options) (*relation.Set, *Stats, error) {
	c, err := newWalker(ctx, q, db, opts, "monotone", resume)
	if err != nil {
		return nil, nil, err
	}
	body, err := positiveBody(q, true, "Monotone evaluates FP/IFP only")
	if err != nil {
		return nil, nil, err
	}
	if d := logic.DependentAlternationDepth(body); d > 1 {
		return nil, nil, fmt.Errorf("eval: Monotone requires a (dependently) alternation-free formula, alternation depth is %d", d)
	}
	ans, err := c.answer(q.Head, body)
	return ans, c.stats, err
}

// positiveBody returns q's body in negation normal form, which is what lets a
// fixpoint occurrence resume: every recursion relation occurs positively, so
// a stage chain that only grows (or only shrinks) stays one. The body must be
// FO or FP — or IFP where ifp says so; what names the caller in the refusal.
func positiveBody(q logic.Query, ifp bool, what string) (logic.Formula, error) {
	body, err := logic.NNF(q.Body)
	if err != nil {
		return nil, err
	}
	if fr := logic.Classify(body); fr != logic.FragFO && fr != logic.FragFP && !(ifp && fr == logic.FragIFP) {
		return nil, fmt.Errorf("eval: %s, got %v", what, fr)
	}
	if err := logic.Validate(body, nil); err != nil {
		return nil, err
	}
	return body, nil
}
