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
// per seedable binder (the final fixpoint stage, 8 bytes a tuple), never the
// full DAG of n^k-bit node values. Maintenance is a dense-route optimization;
// sparse runs return no state and fall back to recomputation after a delta.

// MaintState is the reusable state captured from one dense evaluation of a
// maintainable plan: the final stage of every seedable binder, as sorted
// tuple codes in the extended stage arity. It is immutable after capture and
// may be shared across goroutines; it is only meaningful for the exact
// (plan, database snapshot) pair it was captured from, or a successor
// snapshot reached through deltas admitted by CanMaintain.
type MaintState struct {
	stages []*relation.Sparse // indexed by binder; nil for unseeded binders
}

// Tuples returns the total tuple count of the maintained state — the
// footprint maintenance keeps alive per cached result.
func (s *MaintState) Tuples() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, st := range s.stages {
		if st != nil {
			n += st.Count()
		}
	}
	return n
}

// CanMaintain reports whether a cached result for p, captured on the delta's
// parent snapshot, may be maintained by delta-restart rather than recomputed:
// the plan must have seedable binders, and every effectively changed relation
// the plan reads must change in a direction that can only grow the seeded
// stage operators (inserts into positively-read relations, deletes from
// negatively-read ones — plan.MaintInfo's polarity analysis).
func CanMaintain(p *plan.Plan, d *database.Delta) bool {
	m := p.Maint
	if m == nil || !m.OK || d == nil {
		return false
	}
	for name, rd := range d.Rels {
		if !m.References(name) {
			continue
		}
		if len(rd.Ins) > 0 && !m.InsertSafe(name) {
			return false
		}
		if len(rd.Del) > 0 && !m.DeleteSafe(name) {
			return false
		}
	}
	return true
}

// EvalPlanCapture is EvalPlanContext additionally capturing maintenance
// state. The state is non-nil only when the run took the dense route and the
// plan has seedable binders; callers treat a nil state as "not maintainable,
// recompute on change".
func EvalPlanCapture(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options) (*relation.Set, *Stats, *MaintState, error) {
	res, err := evalPlan(ctx, p, db, opts, nil, true, false)
	return res.set, res.stats, res.state, err
}

// EvalPlanMaintained re-evaluates p against a successor snapshot by
// delta-restart: prev is the state EvalPlanCapture (or a previous
// EvalPlanMaintained) returned for the parent snapshot, and the caller has
// checked CanMaintain for the connecting delta. The answer is byte-identical
// to a from-scratch evaluation; Stats.MaintainedFromDelta is 1 and a fresh
// state for the new snapshot is returned.
//
// Maintenance runs dense regardless of Options.Backend routing — that is the
// route the state was captured on — so it fails if the plan's space is dense-
// infeasible (callers fall back to plain recomputation).
func EvalPlanMaintained(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options, prev *MaintState) (*relation.Set, *Stats, *MaintState, error) {
	if p.Maint == nil || !p.Maint.OK {
		return nil, nil, nil, fmt.Errorf("eval: plan has no seedable fixpoints, cannot maintain")
	}
	if prev == nil {
		return nil, nil, nil, fmt.Errorf("eval: no maintenance state to restart from")
	}
	if len(prev.stages) != p.NumBinders {
		return nil, nil, nil, fmt.Errorf("eval: maintenance state has %d binders, plan has %d", len(prev.stages), p.NumBinders)
	}
	if err := validatePlanRun(ctx, p, db, opts); err != nil {
		return nil, nil, nil, err
	}
	// The dense leg of the auto route, hybrid frontier included.
	rt := routePlan(p, db, nil)
	if !rt.den.SpaceFeasible {
		return nil, nil, nil, fmt.Errorf("eval: dense space %d^%d exceeds %d bits; maintenance requires the dense route",
			db.Size(), len(p.Vars), relation.MaxDenseBits)
	}
	res, err := runDense(ctx, p, db, opts, rt.frontier, prev, true, false)
	if err == nil {
		res.stats.MaintainedFromDelta = 1
	}
	return res.set, res.stats, res.state, err
}
