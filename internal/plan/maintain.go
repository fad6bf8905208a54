package plan

import "repro/internal/logic"

// Maintenance analysis: which database deltas a compiled plan's fixpoints can
// absorb by restarting the stage loop from the previous fixpoint instead of
// from ∅ (internal/eval's delta-restart maintenance).
//
// A binder is *seedable* when its operator is LFP or IFP, it admits
// semi-naive evaluation (DeltaOK), and its fix node is hoisted (recursion-free
// with respect to every enclosing binder, so the executor evaluates it exactly
// once per run — a fix node inside another binder's dirty set is re-evaluated
// per stage under changing bindings, and a single captured stage would not
// mean anything). Seeding S₀ = lfp_old is sound whenever the new stage
// operator dominates the old one pointwise, because the increasing chain
// S₀ ⊆ φ(S₀) ⊆ … then still converges to lfp_new (for IFP, DeltaOK implies a
// monotone body, so IFP coincides with LFP and the same argument applies).
// GFP restarts from the full relation and PFP is non-monotone; neither can
// reuse a previous fixpoint, so they are recomputed in full — which is still
// correct, just not incremental.
//
// Whether φ_new ≥ φ_old holds depends on the delta's *polarity*: inserting
// into a relation that occurs only positively inside the seeded cones grows
// every stage operator; deleting from a relation that occurs only negatively
// does too (¬R grows when R shrinks). The analysis walks each seeded binder's
// body cone tracking polarity — flipping at OpNot, passing through the
// monotone operators (∧, ∨, ∃, ∀, LFP/GFP/IFP applications), and poisoning
// both polarities under a PFP application, whose value is not monotone in
// anything. Atoms never reached from a seeded cone are unconstrained: their
// nodes are hoisted per run and recomputed from the new database anyway.

// polarity bitmask for the cone walk.
const (
	polPos uint8 = 1 << iota
	polNeg
)

// MaintInfo is the static maintenance profile of a plan, computed once by
// Compile. The per-delta decision (internal/eval.CanMaintain) combines it
// with a concrete database.Delta.
type MaintInfo struct {
	// OK reports that at least one binder is seedable — without one,
	// maintenance degenerates to full recomputation and is never attempted.
	OK bool
	// Seeded[b] marks the seedable binders: hoisted LFP/IFP with DeltaOK.
	// The executor captures and re-seeds exactly these binders' stages.
	Seeded []bool
	// Rels is the sorted dependency footprint, logic.Footprint of the query:
	// every database relation the plan reads anywhere. A delta touching none of
	// these cannot change the answer, so cached results survive it unchanged.
	Rels []string

	insUnsafe map[string]bool // negative (or PFP-poisoned) occurrence in a seeded cone
	delUnsafe map[string]bool // positive (or PFP-poisoned) occurrence in a seeded cone
}

// InsertSafe reports that inserting tuples into rel can only grow the seeded
// stage operators (rel has no negative occurrence inside any seeded cone).
func (m *MaintInfo) InsertSafe(rel string) bool { return !m.insUnsafe[rel] }

// DeleteSafe reports that deleting tuples from rel can only grow the seeded
// stage operators (rel has no positive occurrence inside any seeded cone).
func (m *MaintInfo) DeleteSafe(rel string) bool { return !m.delUnsafe[rel] }

// maintInfo computes the maintenance profile; called from analyze after
// DeltaOK is available.
func (p *Plan) maintInfo() *MaintInfo {
	m := &MaintInfo{Seeded: make([]bool, p.NumBinders), Rels: logic.Footprint(p.Query.Body)}

	for b := 0; b < p.NumBinders; b++ {
		op := p.Nodes[p.FixOf[b]].Fix.Op
		if (op == logic.LFP || op == logic.IFP) && p.DeltaOK[b] && p.Deps[p.FixOf[b]] == 0 {
			m.Seeded[b] = true
			m.OK = true
		}
	}
	if !m.OK {
		return m
	}

	// Polarity walk over the seeded cones. visited[n] records the polarity
	// masks node n has been expanded under, so the DAG walk is linear: each
	// node is expanded at most twice (once per new polarity bit).
	m.insUnsafe, m.delUnsafe = make(map[string]bool), make(map[string]bool)
	visited := make([]uint8, len(p.Nodes))
	var walk func(n int, pol uint8)
	walk = func(n int, pol uint8) {
		if visited[n]&pol == pol {
			return
		}
		visited[n] |= pol
		nd := &p.Nodes[n]
		switch nd.Op {
		case OpAtom:
			if nd.Binder < 0 {
				if pol&polPos != 0 {
					m.delUnsafe[nd.Rel] = true
				}
				if pol&polNeg != 0 {
					m.insUnsafe[nd.Rel] = true
				}
			}
		case OpNot:
			flipped := uint8(0)
			if pol&polPos != 0 {
				flipped |= polNeg
			}
			if pol&polNeg != 0 {
				flipped |= polPos
			}
			walk(nd.Kids[0], flipped)
		case OpFix:
			// LFP/GFP/IFP applications are monotone in their positive
			// parameters, so polarity passes through; a PFP value can move
			// either way under any change, so everything it reads is unsafe
			// in both directions.
			if nd.Fix.Op == logic.PFP {
				walk(nd.Fix.Body, polPos|polNeg)
			} else {
				walk(nd.Fix.Body, pol)
			}
		default:
			for _, k := range nd.Kids {
				walk(k, pol)
			}
		}
	}
	for b := 0; b < p.NumBinders; b++ {
		if m.Seeded[b] {
			walk(p.Nodes[p.FixOf[b]].Fix.Body, polPos)
		}
	}
	return m
}
