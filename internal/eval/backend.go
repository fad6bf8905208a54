package eval

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/relation"
)

// Backend selects the relation representation the compiled engine evaluates
// over. The zero value is BackendAuto, so existing callers (and cached
// plans) keep their behavior without touching Options.
type Backend int

const (
	// BackendAuto picks per query by modelled cost (plan.Density): the sparse
	// executor when the space is infeasible or tuples are expected cheaper than
	// bits, the dense kernels otherwise — and hands a fixpoint's stage loop to
	// the other representation when its observed stages show the choice wrong.
	BackendAuto Backend = iota
	// BackendDense forces the full-width nᵏ-bit engine; queries whose space
	// exceeds relation.MaxDenseBits fail with the dense-space error.
	BackendDense
	// BackendSparse forces the sorted tuple-block engine; queries outside the
	// sparse-evaluable fragment (GFP/PFP, negatively represented fixpoint
	// bodies) fail with a typed explanation.
	BackendSparse
)

// String renders the backend in the wire spelling.
func (b Backend) String() string {
	switch b {
	case BackendDense:
		return "dense"
	case BackendSparse:
		return "sparse"
	default:
		return "auto"
	}
}

// BackendByName parses a wire spelling; the empty string means auto.
func BackendByName(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return BackendAuto, nil
	case "dense":
		return BackendDense, nil
	case "sparse":
		return BackendSparse, nil
	default:
		return BackendAuto, fmt.Errorf("eval: unknown backend %q (want auto, dense or sparse)", name)
	}
}

// ErrSparseBudget is wrapped by errors reporting that a sparse evaluation
// would materialize more tuples than its budget allows — the
// sparse analogue of the dense MaxDenseBits guard. Under BackendAuto with a
// feasible dense space the engine continues on the dense route instead of
// failing.
var ErrSparseBudget = errors.New("sparse materialization budget exceeded")

// defaultSparseBudget bounds the tuple count of any single sparse
// materialization when Options.sparseBudget is zero: 2²⁵ codes ≈ 256 MiB.
const defaultSparseBudget = 1 << 25

func sparseBudget(opts *Options) int {
	if opts != nil && opts.sparseBudget > 0 {
		return opts.sparseBudget
	}
	return defaultSparseBudget
}

func backendOf(opts *Options) Backend {
	if opts == nil {
		return BackendAuto
	}
	return opts.Backend
}

// cardOf adapts a database to the plan.Density cardinality callback.
func cardOf(db *database.Database) func(string) int { return db.Card }

// EvalPlan is the one plan evaluation: it validates, routes (routePlan) and
// runs p against db, and returns the answer in the form the executor leaves
// it — the root projected onto the head as a relation.View, the sparse
// route's sorted head codes (*relation.Sparse) or the dense route's head
// bitmap (*relation.Dense, decoded lazily by its cursors) — which is final,
// immutable and readable by any number of cursors. Every other EvalPlan*
// function is this one with a conversion at its boundary (View → Set, View →
// Enumerator). The plan is immutable and may be shared across evaluations
// and databases; all run state lives in the evaluation, so concurrent calls
// with the same plan are safe.
//
// prev and capture are delta-restart maintenance's (maintain.go), on either
// route. A non-nil prev — the state a capturing evaluation returned for the
// parent snapshot, the caller having checked CanMaintain for the connecting
// delta — restarts each seedable fixpoint from its previous final stage
// instead of from ∅; the answer is byte-identical to a from-scratch
// evaluation and Stats.MaintainedFromDelta is 1. capture asks for the state
// this evaluation leaves: nil exactly when the plan has no seedable binders
// ("not maintainable, recompute on change"). The Stats are partial on an
// evaluation error and nil on a validation error.
func EvalPlan(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options, prev *MaintState, capture bool) (relation.View, *Stats, *MaintState, error) {
	if prev != nil {
		if p.Maint == nil || !p.Maint.OK {
			return nil, nil, nil, fmt.Errorf("eval: plan has no seedable fixpoints, cannot maintain")
		}
		if len(prev.stages) != p.NumBinders {
			return nil, nil, nil, fmt.Errorf("eval: maintenance state has %d binders, plan has %d", len(prev.stages), p.NumBinders)
		}
	}
	if err := validatePlan(ctx, p, db, opts); err != nil {
		return nil, nil, nil, err
	}
	res, err := evalRoute(ctx, p, db, opts, routePlan(p, db, opts), prev, capture)
	if err == nil && prev != nil {
		res.stats.MaintainedFromDelta = 1
	}
	return res.head, res.stats, res.state, err
}

// validatePlan is the plan executor's admission. Compile validated p's text,
// so what is left of q.Validate is each database atom's arity against db's
// signature: checked over the plan's atom nodes (the first misfit in node
// order is the one named), not by another walk of the formula.
func validatePlan(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options) error {
	sig := logic.Signature(db.Arities())
	for i := range p.Nodes {
		if nd := &p.Nodes[i]; nd.Op == plan.OpAtom && nd.Binder < 0 {
			if err := sig.Admit(nd.Rel, len(nd.Args)); err != nil {
				return err
			}
		}
	}
	return admit(ctx, p.Query, db, opts)
}

// setOf is the View → Set conversion at the boundary of the materializing
// entry points, for the two forms a head has; a failed evaluation's nil View
// is a nil Set.
func setOf(v relation.View) *relation.Set {
	switch h := v.(type) {
	case *relation.Sparse:
		return h.ToSet()
	case *relation.Dense:
		return h.ToSet()
	}
	return nil
}

// EvalPlanContext is EvalPlan with the answer materialized as a Set.
func EvalPlanContext(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options) (*relation.Set, *Stats, error) {
	v, stats, _, err := EvalPlan(ctx, p, db, opts, nil, false)
	return setOf(v), stats, err
}

// planResult is the outcome of one routed plan evaluation: the answer (nil on
// error), the run's Stats — partial on error — and the maintenance state a
// capturing run of a maintainable plan leaves.
type planResult struct {
	head  relation.View
	stats *Stats
	state *MaintState
}

// route is the backend decision for one (plan, database, options) triple.
type route struct {
	// name is "dense" or "sparse": the one algebra the run is over. Empty means
	// the query is unevaluable under these options, and err says why.
	name string
	err  error
	den  *plan.Density
	// free marks a route auto chose by cost with the other one feasible: the
	// evaluation may leave it (evalRoute).
	free bool
}

// routePlan computes the route a plan evaluation takes — explain's too —
// without evaluating anything. Auto takes the route plan.Density models cheaper.
func routePlan(p *plan.Plan, db *database.Database, opts *Options) route {
	den := p.Density(db.Size(), cardOf(db))
	rt := route{den: den}
	switch backendOf(opts) {
	case BackendDense:
		// Forced dense is pure dense; an infeasible space fails with the
		// dense-space error itself.
		if _, rt.err = relation.NewSpace(len(p.Vars), db.Size()); rt.err == nil {
			rt.name = "dense"
		}
	case BackendSparse:
		if den.SparseOK {
			rt.name = "sparse"
		} else {
			rt.err = fmt.Errorf("eval: sparse backend: %s", den.Blocker)
		}
	default:
		rt.free = den.SpaceFeasible && den.SparseOK
		switch {
		case den.SparseOK && (!den.SpaceFeasible || den.SparseCost < den.DenseCost):
			rt.name = "sparse"
		case den.SpaceFeasible:
			rt.name = "dense"
		default:
			rt.err = fmt.Errorf("eval: dense space %d^%d exceeds %d bits and sparse evaluation is unavailable: %s",
				db.Size(), len(p.Vars), relation.MaxDenseBits, den.Blocker)
		}
	}
	return rt
}

// handOffScale multiplies the price of a hand-off: 1 outside tests.
var handOffScale = 1.0

// handOffs is what makes a wrong estimate cheap: the state by which the runs
// of one free-routed evaluation tell that a seedable fixpoint's loop is on the
// wrong representation. After every stage the run adds to the binder's regret
// what the stage is modelled to have cost here beyond what it would have cost
// there, given the size and delta it has just seen (plan.LoopCost); once that
// exceeds the price of moving, the loop stops at the stage boundary and the
// evaluation restarts on the other route seeded with the stage. Whatever the
// stages turn out to be, that costs at most about twice the better route plus
// one move; a binder moves at most once per direction.
type handOffs struct {
	den    *plan.Density
	regret []float64
	moved  [2][]bool // [0]: to sparse, [1]: to dense
}

// due reports whether binder b's loop, having completed a stage of count
// tuples, delta of them new, on the sparse or the dense algebra, now moves to
// the other: a true answer is final for the direction.
func (h *handOffs) due(b int, sparse bool, count, delta int) bool {
	lc := &h.den.Loop[b]
	dir, excess, price := 0, lc.DenseStage-lc.SparseNS(count, delta), lc.ToSparse+lc.SparseDelta*float64(count)
	if sparse {
		dir, excess, price = 1, -excess, lc.ToDense
	}
	if h.moved[dir][b] {
		return false
	}
	if h.regret[b] = max(0, h.regret[b]+excess); h.regret[b] > handOffScale*price {
		h.moved[dir][b], h.regret[b] = true, 0
	}
	return h.moved[dir][b]
}

// handOff is the error by which a run moves the evaluation to the other route.
type handOff struct{ seed *MaintState }

func (*handOff) Error() string { return "eval: internal: stage loop handed to the other backend" }

// evalRoute is EvalPlan after validation and the routing decision. A route auto
// chose freely is left on a hand-off, or on a sparse-budget overrun where no
// stage boundary can repair the estimate — the plan is rerun dense rather than
// failing a query dense can answer; either way the abandoned work stays in the
// Stats and counts one RepSwitches.
func evalRoute(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options, rt route, seed *MaintState, capture bool) (planResult, error) {
	if rt.err != nil {
		return planResult{}, rt.err
	}
	stats := &Stats{}
	var ho *handOffs
	if rt.free && p.Maint.OK { // nothing to watch without a seedable loop
		ho = &handOffs{den: rt.den, regret: make([]float64, p.NumBinders)}
		ho.moved[0], ho.moved[1] = make([]bool, p.NumBinders), make([]bool, p.NumBinders)
	}
	for {
		var res planResult
		var err error
		if rt.name == "sparse" {
			res, err = runSparse(ctx, p, db, opts, rt.den, stats, ho, seed, capture)
		} else {
			res, err = runDense(ctx, p, db, opts, stats, ho, seed, capture)
		}
		var h *handOff
		switch {
		case errors.As(err, &h):
			seed = h.seed
			if rt.name != "sparse" {
				rt.name = "sparse"
			} else {
				rt.name = "dense"
			}
		case rt.free && rt.name == "sparse" && errors.Is(err, ErrSparseBudget):
			rt.name, ho = "dense", nil
		default:
			return res, err
		}
		stats.RepSwitches++
	}
}

// ExplainRoute reports the route EvalPlan would take for this plan against
// this database — "dense" or "sparse"; empty when unevaluable — with
// the analysis behind it (DenseCost and SparseCost are the totals compared),
// without evaluating anything. A run may leave the route (Stats.RepSwitches).
func ExplainRoute(p *plan.Plan, db *database.Database, opts *Options) (*plan.Density, string) {
	rt := routePlan(p, db, opts)
	return rt.den, rt.name
}

// Explain is the annotated plan of one evaluation of p against db under opts:
// the DAG with the density analysis, the route and the two modelled costs it
// was chosen by and — after a run observed by opts.Observe, built with nodes
// — the per-node profile and the per-binder stage totals, hand-offs included.
func Explain(p *plan.Plan, db *database.Database, opts *Options) *plan.Explain {
	den, route := ExplainRoute(p, db, opts)
	ex := p.Explain(den)
	ex.Route = route
	if o := observerOf(opts); o != nil {
		ex.AttachProfile(o.Evals, o.NS)
		for _, fx := range o.Fix {
			ex.AttachBinderStages(fx.Binder, fx.Stages, fx.DeltaTuples, fx.Busy.Nanoseconds(), fx.HandOff)
		}
	}
	return ex
}
