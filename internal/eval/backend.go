package eval

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/database"
	"repro/internal/plan"
	"repro/internal/relation"
)

// Backend selects the relation representation the compiled engine evaluates
// over. The zero value is BackendAuto, so existing callers (and cached
// plans) keep their behavior without touching Options.
type Backend int

const (
	// BackendAuto picks per query: dense kernels for feasible hot spaces,
	// the sparse executor when the space is infeasible or the density
	// analysis says tuples are far cheaper than bits, and a hybrid in
	// between (dense fixpoints over a sparsely evaluated frontier).
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
// would materialize more tuples than Options.SparseBudget allows — the
// sparse analogue of the dense MaxDenseBits guard. Under BackendAuto with a
// feasible dense space the engine falls back to dense instead of failing.
var ErrSparseBudget = errors.New("sparse materialization budget exceeded")

// DefaultSparseBudget bounds the tuple count of any single sparse
// materialization when Options.SparseBudget is zero: 2²⁵ codes ≈ 256 MiB.
const DefaultSparseBudget = 1 << 25

func sparseBudget(opts *Options) int {
	if opts != nil && opts.SparseBudget > 0 {
		return opts.SparseBudget
	}
	return DefaultSparseBudget
}

func backendOf(opts *Options) Backend {
	if opts == nil {
		return BackendAuto
	}
	return opts.Backend
}

// cardOf adapts a database to the plan.Density cardinality callback.
func cardOf(db *database.Database) func(string) int {
	return func(name string) int {
		rel, err := db.Rel(name)
		if err != nil {
			return 0
		}
		return rel.Len()
	}
}

// EvalPlanContext evaluates a compiled plan against db. The plan is
// immutable and may be shared across evaluations and databases; all run
// state lives in the evaluation, so concurrent calls with the same plan are
// safe.
//
// The backend route is chosen here (routePlan). Dense is the historical
// engine and the default for every feasible small space; sparse is how
// queries beyond relation.MaxDenseBits — the n^k wall — evaluate at all.
// BackendAuto also runs a hybrid: a
// feasible-but-large dense evaluation whose recursion-free low-density
// subtrees are computed sparsely and cylindrified once at their boundary
// (Stats.RepSwitches).
func EvalPlanContext(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options) (*relation.Set, *Stats, error) {
	res, err := evalPlan(ctx, p, db, opts, nil, false, false)
	return res.set, res.stats, err
}

// validatePlanRun is the shared entry validation of every plan evaluation.
func validatePlanRun(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options) error {
	if err := p.Query.Validate(signatureOf(db)); err != nil {
		return err
	}
	if err := checkDomain(db); err != nil {
		return err
	}
	if err := checkWidth(p.Query, opts); err != nil {
		return err
	}
	return checkCtx(ctx)
}

// planResult is the outcome of one routed plan evaluation: the answer in the
// form the calling API asked for (set, or enum when streaming), the run's
// Stats — partial on error — and the maintenance state a capturing dense run
// of a maintainable plan leaves.
type planResult struct {
	set   *relation.Set
	enum  Enumerator
	stats *Stats
	state *MaintState
}

// route is the backend decision for one (plan, database, options) triple.
type route struct {
	// name is "dense", "hybrid" or "sparse"; empty means the query is
	// unevaluable under these options, and err says why.
	name string
	err  error
	den  *plan.Density
	// frontier is den when dense runs of this route evaluate den's
	// sparse-labeled subtrees sparsely (hybrid), nil for pure dense.
	frontier *plan.Density
	// fallback marks an auto-chosen sparse route over a feasible space: a
	// sparse-budget overrun means the density estimate was wrong, and the
	// plan is rerun dense rather than failing a query dense can answer.
	fallback bool
}

// routePlan computes the route every plan-evaluation entry point takes —
// materializing, streaming and explain alike — without evaluating anything.
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
		switch {
		case den.SpaceFeasible:
			rt.name = "dense"
			if den.HasSparseFrontier() {
				rt.name, rt.frontier = "hybrid", den
			}
			if den.PreferSparse() {
				rt.name, rt.fallback = "sparse", true
			}
		case den.SparseOK:
			rt.name = "sparse"
		default:
			rt.err = fmt.Errorf("eval: dense space %d^%d exceeds %d bits and sparse evaluation is unavailable: %s",
				db.Size(), len(p.Vars), relation.MaxDenseBits, den.Blocker)
		}
	}
	return rt
}

// evalPlan validates, routes and runs a plan evaluation. Dense routes thread
// the maintenance seed/capture through (maintain.go); sparse routes return no
// state — maintenance is a dense-route optimization.
func evalPlan(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options, seed *MaintState, capture, stream bool) (planResult, error) {
	if err := validatePlanRun(ctx, p, db, opts); err != nil {
		return planResult{}, err
	}
	rt := routePlan(p, db, opts)
	if rt.err != nil {
		return planResult{}, rt.err
	}
	if rt.name == "sparse" {
		res, err := newSparseRun(ctx, p, db, opts, rt.den, &Stats{}).answer(stream, false)
		if !rt.fallback || !errors.Is(err, ErrSparseBudget) {
			return res, err
		}
	}
	return runDense(ctx, p, db, opts, rt.frontier, seed, capture, stream)
}

// ExplainRoute reports the backend route evalPlan would take for this plan
// against this database — "dense", "sparse", or "hybrid" — together with the
// density analysis behind the decision, without evaluating anything. The
// route is the planned one: a sparse-budget overrun under BackendAuto falls
// back to dense. The empty
// route means the query is unevaluable (dense space infeasible and sparse
// unavailable, or a forced backend that cannot run it).
func ExplainRoute(p *plan.Plan, db *database.Database, opts *Options) (*plan.Density, string) {
	rt := routePlan(p, db, opts)
	return rt.den, rt.name
}
