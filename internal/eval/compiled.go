package eval

import (
	"context"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/relation"
)

// Compiled evaluates a query through a compiled plan (internal/plan): the
// body is lowered once to a hash-consed DAG of relation operators, and
// fixpoint iteration becomes incremental re-evaluation of that DAG by the
// plan executor (executor.go) over the dense or the sparse algebra.
//
// Two mechanisms make it faster than BottomUp while returning byte-identical
// answers on every admitted fragment (FO, FP, IFP, PFP):
//
//   - Hoisting. A node whose value cannot change while a fixpoint iterates
//     (database atoms, diagonals, recursion-free subtrees, closed inner
//     fixpoints) is evaluated once and served from the DAG cache on every
//     later visit; only the per-binder dirty nodes are re-evaluated per
//     stage. Stats.NodesReused counts the cache-served frontier reads.
//
//   - Semi-naive deltas. For an LFP/IFP binder whose dirty nodes are all
//     monotone operators, each stage pushes ΔS — the tuples added in the
//     previous stage — through the dirty nodes with sparse changed-word
//     kernels (relation.UnionSparse and friends), the tuple-level analogue of
//     semi-naive Datalog evaluation. Stats.DeltaTuples sums the |ΔS|.
//     GFP and PFP stages, and dirty sets containing negation or nested
//     fixpoints, fall back to full dirty-node re-evaluation (still hoisting
//     everything clean).
//
// Cancellation is checked at stage boundaries exactly like BottomUpContext.
func Compiled(q logic.Query, db *database.Database) (*relation.Set, error) {
	ans, _, err := CompiledStats(q, db, nil)
	return ans, err
}

// CompiledStats is Compiled with options and work statistics.
func CompiledStats(q logic.Query, db *database.Database, opts *Options) (*relation.Set, *Stats, error) {
	return CompiledContext(context.Background(), q, db, opts)
}

// CompiledContext is CompiledStats honoring a context. It compiles the plan
// and evaluates it; callers that evaluate the same query repeatedly (the bvqd
// daemon) compile once, keep the plan, and call EvalPlan directly.
func CompiledContext(ctx context.Context, q logic.Query, db *database.Database, opts *Options) (*relation.Set, *Stats, error) {
	p, err := plan.Compile(q)
	if err != nil {
		return nil, nil, err
	}
	return EvalPlanContext(ctx, p, db, opts)
}

// runDense evaluates the (already validated) plan over the dense algebra.
func runDense(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options, stats *Stats, ho *handOffs, seed *MaintState, capture bool) (planResult, error) {
	r := newRun[*relation.Dense](ctx, p, db, opts, nil, stats, p.DeltaOK, false)
	alg, store, err := newDenseAlg(db, len(p.Vars), r.store)
	if err != nil {
		return planResult{stats: stats}, err
	}
	r.alg, r.store = alg, store
	return r.answer(r.start(ho, seed, capture))
}

// denseAlg is the dense algebra: node values are nᵏ-bit bitmaps over the
// plan's full-width space, stages bitmaps over the run's narrower spaces, all
// drawn from and released to the spaces' scratch pools. Word-parallel kernels
// do the connectives; the delta rules use relation/delta.go's changed-word
// kernels in place. The formula walker (bottomup.go) evaluates over it too.
type denseAlg struct {
	db *database.Database
	// sp is the full-width space; spaces[k] the k-ary one, each with its own
	// scratch pool shared by every fixpoint visit of the run.
	sp     *relation.Space
	spaces []*relation.Space
}

// newDenseAlg builds the dense algebra of a width-ary evaluation over db: one
// space per arity up to the full width, widest first so an infeasible query
// fails naming its full-width space; the narrower stage and head spaces are
// feasible whenever that one is. A node store interns them, and it is
// returned as the store the run may share values through: nil once it has
// refused a space — a run with a space of its own shares no values, which
// would pin it.
func newDenseAlg(db *database.Database, width int, store *NodeStore) (*denseAlg, *NodeStore, error) {
	a := &denseAlg{db: db, spaces: make([]*relation.Space, width+1)}
	for k := width; k >= 0; k-- {
		sp, interned, err := store.space(k, db.Size())
		if err != nil {
			return nil, nil, err
		}
		if a.spaces[k] = sp; !interned {
			store = nil
		}
	}
	a.sp = a.spaces[width]
	return a, store, nil
}

// atom cylindrifies the database atom name(args): the stored codes decoded
// once — a sparse value made dense, the one place a relation changes
// representation on the way in. A relation without a code space is read
// through its Set. The (hash-consed) node is its memo.
func (a *denseAlg) atom(name string, args []int) (*relation.Dense, error) {
	codes, err := a.db.Codes(name)
	if err != nil {
		return nil, err
	}
	if codes != nil {
		return a.sp.FromSparse(codes, args)
	}
	rel, err := a.db.Rel(name)
	if err != nil {
		return nil, err
	}
	return a.sp.FromAtom(rel, args)
}

func (a *denseAlg) stageAtom(stage *relation.Dense, axes []int) (*relation.Dense, error) {
	return a.sp.FromDenseAtom(stage, axes)
}

func (a *denseAlg) eq(l, r int) (*relation.Dense, error) { return a.sp.Diagonal(l, r), nil }

func (a *denseAlg) constant(truth bool) (*relation.Dense, error) {
	if truth {
		return a.sp.Full(), nil
	}
	return a.sp.Empty(), nil
}

func (a *denseAlg) not(x *relation.Dense) (*relation.Dense, error) {
	out := x.Clone()
	out.Complement()
	return out, nil
}

func (a *denseAlg) and(x, y *relation.Dense) (*relation.Dense, error) {
	out := x.Clone()
	out.IntersectWith(y)
	return out, nil
}

func (a *denseAlg) or(x, y *relation.Dense) (*relation.Dense, error) {
	out := x.Clone()
	out.UnionWith(y)
	return out, nil
}

func (a *denseAlg) exists(x *relation.Dense, axis int) (*relation.Dense, error) {
	return x.ExistsAxis(axis), nil
}

func (a *denseAlg) forall(x *relation.Dense, axis int) (*relation.Dense, error) {
	return x.ForallAxis(axis), nil
}

func (a *denseAlg) deltaOr(_, dl, dr *relation.Dense) (*relation.Dense, error) {
	dv := a.sp.Empty()
	if dl != nil {
		dv.UnionSparse(dl)
	}
	if dr != nil {
		dv.UnionSparse(dr)
	}
	return dv, nil
}

func (a *denseAlg) deltaAnd(dl, r, dr, l *relation.Dense, _, _ bool) (*relation.Dense, error) {
	dv := a.sp.Empty()
	if dl != nil {
		dv.UnionAndSparse(dl, r)
	}
	if dr != nil {
		dv.UnionAndSparse(dr, l)
	}
	return dv, nil
}

func (a *denseAlg) deltaExists(dk *relation.Dense, axis int) (*relation.Dense, error) {
	return dk.ExistsAxisSparse(axis), nil
}

func (a *denseAlg) clone(x *relation.Dense) *relation.Dense { return x.Clone() }

func (a *denseAlg) union(x, y *relation.Dense) *relation.Dense {
	x.UnionSparse(y)
	return x
}

func (a *denseAlg) minus(x, y *relation.Dense) (*relation.Dense, int) {
	return x, x.DifferenceSparse(y)
}

func (a *denseAlg) equal(x, y *relation.Dense) bool { return x.Equal(y) }

func (a *denseAlg) empty(arity int) (*relation.Dense, error) { return a.spaces[arity].Empty(), nil }
func (a *denseAlg) full(arity int) (*relation.Dense, error)  { return a.spaces[arity].Full(), nil }

func (a *denseAlg) fromStage(s *relation.Sparse, arity int) (*relation.Dense, error) {
	return s.ToDense(a.spaces[arity])
}

func (a *denseAlg) stageOf(v *relation.Dense) *relation.Sparse { return v.ToSparse() }

// project is relation.Dense.ProjectAt into the run's space of arity
// len(cols): word-parallel when the source is dense, a bit walk when it is a
// thin delta.
func (a *denseAlg) project(v *relation.Dense, cols, pinned, pinnedVals []int) (*relation.Dense, error) {
	return v.ProjectAt(a.spaces[len(cols)], cols, pinned, pinnedVals), nil
}

// head is the head bitmap itself: its cursors decode set bits lazily, so a
// windowed read pays for its window, and the bitmap is the collector's from
// here on (never returned to the space pool: its readers outlive the run).
func (a *denseAlg) head(v *relation.Dense) relation.View { return v }

func (a *denseAlg) pfpLimit(step func(*relation.Dense) (*relation.Dense, error), arity int, opts *Options) (*relation.Dense, error) {
	budget, mode := pfpLimits(opts)
	if mode == CycleBrent {
		return pfpBrent(step, a.spaces[arity], budget)
	}
	return pfpHash(step, a.spaces[arity], budget)
}

// mergeParams: every stride of out's space over the recursion-tuple axes is
// the limit space's stride scaled by n^|ȳ|, so a limit index maps into the
// assignment's parameter section by one multiply-add.
func (a *denseAlg) mergeParams(out, limit *relation.Dense, assign []int) {
	esp, m := out.Space(), limit.Space().Arity()
	base, np := 0, 1
	for j, v := range assign {
		base += v * esp.Stride(m+j)
		np *= esp.Domain()
	}
	limit.ForEachIndex(func(idx int) { out.AddIndex(base + idx*np) })
	limit.Release()
}

func (a *denseAlg) count(v *relation.Dense) int              { return v.Count() }
func (a *denseAlg) arity(v *relation.Dense) int              { return v.Space().Arity() }
func (a *denseAlg) touched(int) int64                        { return 0 }
func (a *denseAlg) freeze(v *relation.Dense, _ string) int64 { return int64(v.Space().Size()+7) / 8 }
func (a *denseAlg) check(int, *relation.Dense) error         { return nil }
func (a *denseAlg) release(v *relation.Dense)                { v.Release() }
