package eval

import (
	"context"
	"fmt"

	"repro/internal/database"
	"repro/internal/plan"
	"repro/internal/relation"
)

// Delta-restart maintenance. When a database snapshot evolves by a tuple
// delta (database.Apply), a cached answer for a maintainable plan does not
// have to be recomputed from scratch: the compiled engine restarts each
// seedable fixpoint's stage loop from the previous snapshot's fixpoint
// (plan.MaintInfo documents why that is sound) and lets the ordinary
// semi-naive machinery absorb the change. The hoisted frontier — database
// atoms, recursion-free subtrees — is recomputed against the new snapshot as
// usual, so the first stage of each seeded loop re-derives exactly what the
// delta adds; stages after it run semi-naive on the (usually tiny) growth.
//
// The maintained state is deliberately small: one block of sorted tuple codes
// per seedable binder (the final fixpoint stage, 8 bytes a tuple). Sorted
// codes are no algebra's own form, so a state captured on one route seeds a
// run on the other: maintenance is routed like any other evaluation.

// MaintState is the reusable state captured from one evaluation of a
// maintainable plan: the final stage of every seedable binder, as sorted
// tuple codes in the extended stage arity. It is immutable after capture and
// may be shared across goroutines; it is only meaningful for the exact
// (plan, database snapshot) pair it was captured from, or a successor
// snapshot reached through deltas admitted by CanMaintain.
type MaintState struct {
	stages []*relation.Sparse // indexed by binder; nil for unseeded binders
	// at, in the seed of a hand-off only, is how many stages of each binder's
	// loop ran before the stage it resumes from.
	at []int
}

// from returns the stage binder b restarts from, nil for none, and the number
// of stages of its loop that already ran.
func (s *MaintState) from(b int) (*relation.Sparse, int) {
	switch {
	case s == nil || b >= len(s.stages):
		return nil, 0
	case s.at == nil:
		return s.stages[b], 0
	}
	return s.stages[b], s.at[b]
}

// CanMaintain reports whether a cached result for p, captured on the delta's
// parent snapshot, may be maintained by delta-restart rather than recomputed:
// the plan must have seedable binders, and every effectively changed relation
// must change in a direction that can only grow the seeded stage operators
// (inserts into positively-read relations, deletes from negatively-read ones —
// plan.MaintInfo's polarity analysis, which marks only relations the seeded
// cones read).
func CanMaintain(p *plan.Plan, d *database.Delta) bool {
	m := p.Maint
	if m == nil || !m.OK || d == nil {
		return false
	}
	for name, rd := range d.Rels {
		if len(rd.Ins) > 0 && !m.InsertSafe(name) || len(rd.Del) > 0 && !m.DeleteSafe(name) {
			return false
		}
	}
	return true
}

// EvalPlanCapture is EvalPlanContext additionally capturing maintenance
// state, on whichever route the evaluation takes: nil exactly when the plan
// has no seedable binders.
func EvalPlanCapture(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options) (*relation.Set, *Stats, *MaintState, error) {
	v, stats, state, err := EvalPlan(ctx, p, db, opts, nil, true)
	return setOf(v), stats, state, err
}

// EvalPlanMaintained is EvalPlan restarted from prev — the state
// EvalPlanCapture (or a previous EvalPlanMaintained) returned for the parent
// snapshot — with the answer materialized as a Set and a fresh state for the
// new snapshot.
func EvalPlanMaintained(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options, prev *MaintState) (*relation.Set, *Stats, *MaintState, error) {
	if prev == nil {
		return nil, nil, nil, fmt.Errorf("eval: no maintenance state to restart from")
	}
	v, stats, state, err := EvalPlan(ctx, p, db, opts, prev, true)
	return setOf(v), stats, state, err
}
