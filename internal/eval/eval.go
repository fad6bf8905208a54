// Package eval implements the query evaluators of Vardi (PODS 1995):
//
//   - BottomUp — the Proposition 3.1 algorithm: every subformula of a width-k
//     query denotes one k-ary dense relation over the full variable tuple, so
//     evaluation is a sequence of nᵏ-bit set operations. This realizes the
//     paper's PTIME combined-complexity upper bound for FOᵏ, and extends to
//     FPᵏ (fixpoint iteration with bounded-arity recursion relations) and
//     PFPᵏ (Theorem 3.8, with cycle detection for divergence).
//
//   - Monotone, FindCertificate and VerifyCertificate — the same formula
//     walker (buCtx, bottomup.go) under the two other answers to "what does a
//     fixpoint occurrence do when it is reached again": resume where it
//     stopped (Lemma 3.4 / footnote 5, l·nᵏ stages instead of n^{kl}), or take
//     the next element of a guessed chain and check Lemma 3.3 (Theorem 3.5,
//     NP ∩ co-NP for FPᵏ; certificate.go).
//
//   - Naive — the generic environment-recursion algorithm: the textbook
//     PSPACE procedure whose running time is exponential in quantifier
//     nesting. It is the paper's "unbounded" baseline and, being obviously
//     correct, the oracle for every cross-validation test in this repository.
//     It also evaluates ESO by enumerating the quantified relations (the
//     exponential guess of §3.3), guarded by a size cap.
//
//   - Compiled — the plan executor (executor.go) over hash-consed DAG plans,
//     on dense bitmaps or sorted sparse blocks: what bvqd serves with.
//
// The walker is a client of the executor's dense route: both evaluate over
// one denseAlg (compiled.go) — its per-arity spaces and bitmap pools, its PFP
// merge and cycle detectors — sweep a parametrized PFP with one function
// (sweepPFP) and are admitted alike (admit, after validatePlan or validateRun).
package eval

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/relation"
)

// ErrBudget is wrapped by errors reporting that an evaluation exceeded its
// configured iteration budget (only possible for PFP, whose runs may be
// exponentially long).
var ErrBudget = errors.New("iteration budget exceeded")

// CycleMode selects how the PFP evaluator detects non-convergence.
type CycleMode int

const (
	// CycleHash remembers a hash of every stage and stops at the first
	// repetition. Fast, but keeps O(#stages) state.
	CycleHash CycleMode = iota
	// CycleBrent uses Brent's cycle-finding algorithm: a constant number of
	// live relations regardless of run length — the PSPACE discipline of
	// Theorem 3.8 made literal.
	CycleBrent
)

// Options configures evaluation. An evaluation runs on its caller's
// goroutine, one fixpoint stage and one PFP parameter assignment at a time:
// bvqd's admission control counts one core per evaluation.
type Options struct {
	// MaxWidth caps the query width (0 means no cap beyond the dense-space
	// size limit). Callers enforcing a specific Lᵏ set this to k.
	MaxWidth int
	// PFPCycle selects the convergence detector.
	PFPCycle CycleMode
	// Backend selects the relation representation for the Compiled engine:
	// auto (the zero value), dense, or sparse. The formula walker (BottomUp,
	// Monotone, the certificate pair) ignores it — it is inherently
	// full-width dense. It participates in result cache keys (different
	// backends may report different Stats).
	Backend Backend
	// Observe, when non-nil, receives the run's fixpoint stages from the
	// BottomUp, Monotone and Compiled evaluators (every PFP stage of every
	// parameter assignment included) and, if it was built to, the plan
	// executor's per-node counts. See Observer.
	Observe *Observer
	// Nodes, when non-nil, shares closed node values between Compiled runs.
	Nodes *NodeStore

	// pfpBudget caps the stages a single PFP computation may take before
	// evaluation fails with ErrBudget; sparseBudget the tuple count of any
	// single sparse materialization (join result, widening, complement,
	// stage), past which it fails with ErrSparseBudget, except under
	// BackendAuto with a feasible dense space, where the engine continues on
	// the dense route. 0 means defaultPFPBudget and defaultSparseBudget;
	// only this package's tests set them.
	pfpBudget, sparseBudget int
}

// TraceEvent describes one completed fixpoint stage.
type TraceEvent struct {
	// Engine is the evaluator that ran the stage: bottomup, monotone or
	// compiled.
	Engine string
	// Fixpoint is the recursion relation bound by the fixpoint operator
	// (e.g. "S" in [lfp S(x). …]).
	Fixpoint string
	// Op is the operator: lfp, gfp, ifp or pfp.
	Op string
	// Stage is the 1-based stage index within one fixpoint run. PFP runs
	// restart the index per parameter assignment, and Brent cycle detection
	// re-executes stages it revisits — the trace reflects work actually
	// performed, not the abstract stage sequence.
	Stage int
	// Tuples is the stage relation's tuple count after this stage.
	Tuples int
	// Delta is the tuple-count change relative to the previous stage.
	// Non-negative for LFP/IFP (increasing chains) and non-positive for
	// GFP; PFP stages may move either way.
	Delta int
	// Elapsed is the wall-clock time this stage took, including the body
	// re-evaluation that produced it.
	Elapsed time.Duration
	// Binder is the plan binder id this fixpoint run belongs to for the
	// Compiled engine (on every backend route), so a trace consumer can
	// attach stage work to the exact plan.FixInfo it iterated. The formula
	// walker (bottomup, monotone) has no plan and reports -1.
	Binder int
	// HandOff marks the stage after which the Compiled engine moved the loop
	// to the other backend: the next stage is reported by that one's run.
	HandOff bool
}

// defaultPFPBudget bounds PFP stage counts when Options.pfpBudget is zero.
const defaultPFPBudget = 1 << 20

// pfpLimits resolves the PFP stage budget and cycle detector of opts.
func pfpLimits(opts *Options) (budget int, mode CycleMode) {
	budget = defaultPFPBudget
	if opts != nil {
		mode = opts.PFPCycle
		if opts.pfpBudget > 0 {
			budget = opts.pfpBudget
		}
	}
	return budget, mode
}

// checkCtx reports the context's error, wrapped for the eval layer. The
// evaluators call it at iteration boundaries only — one check per fixpoint
// stage (and per head assignment for Naive) — so cancellation never lands in
// the middle of a stage and serial answers stay deterministic: a request
// either completes a stage or returns with what it had. Callers can test the
// cause with errors.Is(err, context.DeadlineExceeded) or context.Canceled.
func checkCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("eval: cancelled: %w", err)
	}
	return nil
}

// Stats reports work done by an evaluation, which updates it from its own
// goroutine: read it after the evaluation returns. The json tags are bvqd's wire
// form of the statistics (server.StatsJSON is this type).
type Stats struct {
	// SubformulaEvals counts dense-relation constructions (one per
	// subformula visit, including re-visits inside fixpoint iterations).
	SubformulaEvals int64 `json:"subformula_evals"`
	// FixIterations counts fixpoint stages across all fixpoint operators.
	FixIterations int64 `json:"fix_iterations"`
	// MaxIntermediateArity is the largest arity of any intermediate
	// relation: the query width for the formula walker, the widest support
	// for a sparse Compiled run.
	MaxIntermediateArity int64 `json:"max_intermediate_arity"`
	// MaxIntermediateTuples is the largest tuple count of any intermediate
	// relation.
	MaxIntermediateTuples int64 `json:"max_intermediate_tuples"`
	// NodesReused counts plan-node values served from the Compiled engine's
	// DAG cache instead of being recomputed: per fixpoint stage, the size of
	// the hoisted frontier the stage read without re-evaluating (work the
	// formula walker redoes every iteration). Zero for other
	// engines. It depends only on the plan and the iteration counts.
	NodesReused int64 `json:"nodes_reused,omitempty"`
	// DeltaTuples counts tuples pushed through recursion-relation deltas by
	// the Compiled engine's semi-naive stages — the per-stage |ΔS| sum. A
	// value well below FixIterations × |S| is the semi-naive win made
	// visible. Zero for other engines and for fixpoints evaluated without
	// delta propagation (GFP, PFP, non-monotone dirty sets).
	DeltaTuples int64 `json:"delta_tuples,omitempty"`
	// TuplesTouched counts tuples written by sparse operations: the summed
	// block sizes of sparse node evaluations and delta updates. The sparse
	// analogue of dense word work; zero for pure dense runs.
	TuplesTouched int64 `json:"tuples_touched,omitempty"`
	// RepSwitches counts changes of representation inside one auto-routed
	// evaluation: a fixpoint's stage loop handed to the other backend at a
	// stage boundary, and a sparse attempt rerun dense after a budget overrun.
	RepSwitches int64 `json:"rep_switches,omitempty"`
	// AcyclicFastPath is 1 when the plan that ran is lowered from an ∃∧
	// region the miniscoping pass narrowed (plan.Plan.Narrowed), 0 otherwise:
	// the wire's name from when only acyclic conjunctive queries were.
	AcyclicFastPath int64 `json:"acyclic_fast_path,omitempty"`
	// MaintainedFromDelta is 1 when this evaluation restarted its fixpoint
	// stage loops from a previous snapshot's fixpoints (EvalPlanMaintained)
	// instead of recomputing from scratch, 0 otherwise. Aggregated by bvqd it
	// counts answers maintained incrementally across database updates.
	MaintainedFromDelta int64 `json:"maintained_from_delta,omitempty"`
	// TuplesStreamed counts answer tuples actually decoded and delivered by
	// an Enumerator (enum.go); zero for materializing evaluations, whose
	// extraction is not tuple-metered.
	TuplesStreamed int64 `json:"tuples_streamed,omitempty"`
	// TuplesSkipped counts answer tuples an Enumerator skipped without
	// decoding (OFFSET seeks; for the dense cursor these cost popcounts, not
	// decodes).
	TuplesSkipped int64 `json:"tuples_skipped,omitempty"`
	// NodesShared counts the node values taken from Options.Nodes, not computed.
	NodesShared int64 `json:"nodes_shared,omitempty"`
}

// observe folds one intermediate relation's shape into the maxima.
func (s *Stats) observe(arity, tuples int) {
	s.MaxIntermediateArity = max(s.MaxIntermediateArity, int64(arity))
	s.MaxIntermediateTuples = max(s.MaxIntermediateTuples, int64(tuples))
}

// boundRel is an interpreted relation symbol: a database relation
// (params nil) or a recursion relation extended with its parameter
// variables (buCtx.fixParams). The value is either a sparse set (Naive) or a
// dense relation (the formula walker, so its stage relations never
// round-trip through sparse tuple sets).
type boundRel struct {
	set    *relation.Set
	dense  *relation.Dense
	params []logic.Var
}

// env maps bound relation symbols to their current values, with scoping.
type env struct {
	rels map[string]boundRel
}

func newEnv() *env { return &env{rels: make(map[string]boundRel)} }

func (e *env) bind(name string, r boundRel) (restore func()) {
	prev, had := e.rels[name]
	e.rels[name] = r
	return func() {
		if had {
			e.rels[name] = prev
		} else {
			delete(e.rels, name)
		}
	}
}

// validateRun is the admission of the formula walker's and the naive
// oracle's evaluations: q fits db's signature, and admit's checks pass.
func validateRun(ctx context.Context, q logic.Query, db *database.Database, opts *Options) error {
	if err := q.Validate(db.Arities()); err != nil {
		return err
	}
	return admit(ctx, q, db, opts)
}

// admit is what every evaluation but eso's checks beside the signature: the
// domain is nonempty (first-order semantics over an empty one is degenerate —
// every existential false, every universal true, no variable assignments at
// all — and the paper's databases are nonempty, so all evaluators refuse
// uniformly rather than disagree); q is within the Lᵏ bound of opts; and ctx
// has not already fired, which a body with no fixpoint stage would never
// notice.
func admit(ctx context.Context, q logic.Query, db *database.Database, opts *Options) error {
	if db.Size() == 0 {
		return fmt.Errorf("eval: empty domain")
	}
	if opts != nil && opts.MaxWidth > 0 && q.Width() > opts.MaxWidth {
		return fmt.Errorf("eval: query width %d exceeds bound k=%d", q.Width(), opts.MaxWidth)
	}
	return checkCtx(ctx)
}
