package eval

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/relation"
)

// The plan executor is one scheduler over one relation algebra. Vardi's
// Thm 4.1 reads a bounded-variable query as an expression over a single
// finite algebra of k-ary relations, and Prop. 3.1 / Thm 3.5 evaluate it by
// one bottom-up stage loop: run is that loop, written once, and algebra is
// the carrier it is parameterised by. Everything about the plan lives in run
// (node cache, invalidation, op dispatch, stage loops, semi-naive regime,
// maintenance seeding and capture, PFP sweep, profiling, tracing,
// cancellation); everything about the representation lives in an algebra:
// dense nᵏ-bit bitmaps over pooled Spaces (compiled.go) or sorted tuple
// blocks over a node's support axes (sparse.go).

// algebra is the representation half of the executor. V is the value type,
// for a plan node's denotation and for a fixpoint stage (a relation over the
// binder's own, narrower space) alike; the zero V means "no value" (an empty
// delta, an unbound stage).
//
// Ownership is one discipline for both: a value an op returns belongs to the
// caller, an op that consumes an argument may reuse its storage (the caller
// continues with the result only), and release hands storage back — to a
// Space's bitmap pool, to a sparse run's free list of blocks. What the run
// does not own (owned[n] false: the node store has seen it) it neither
// consumes nor releases.
type algebra[V comparable] interface {
	// atom is the database atom rel(args).
	atom(rel string, args []int) (V, error)
	// stageAtom reads a stage — or a stage delta, the Δ S(x̄) rule — through a
	// recursion atom's axes.
	stageAtom(stage V, axes []int) (V, error)
	eq(l, r int) (V, error)
	constant(truth bool) (V, error)
	not(a V) (V, error)
	and(a, b V) (V, error)
	or(a, b V) (V, error)
	exists(a V, axis int) (V, error)
	forall(a V, axis int) (V, error)

	// The semi-naive delta rules (run.deltaStage; Δ∀ is forall on the new
	// child value, ΔS is stageAtom). One of dl, dr may be the zero V. old is
	// the node's current value, l and r the children's.
	deltaOr(old, dl, dr V) (V, error)
	// rFixed and lFixed say that r and l are no dirty node's: the same value in
	// every stage of the loop, so what an algebra derives from one may be kept.
	deltaAnd(dl, r, dr, l V, rFixed, lFixed bool) (V, error)
	deltaExists(dk V, axis int) (V, error)

	clone(a V) V
	// union is a ∪ b, consuming a.
	union(a, b V) V
	// minus is a \ b, consuming a, with the result's tuple count.
	minus(a, b V) (V, int)
	equal(a, b V) bool

	// Stage spaces: relations of the given arity over the domain.
	empty(arity int) (V, error)
	full(arity int) (V, error)
	// fromStage and stageOf convert a stage from and to sorted tuple codes,
	// which outlive the run: v stays readable, and is never written again.
	fromStage(s *relation.Sparse, arity int) (V, error)
	stageOf(v V) *relation.Sparse
	// project maps a node value onto the columns cols (a stage or the head
	// space), the axes pinned fixed to pinnedVals (PFP parameters).
	project(v V, cols, pinned, pinnedVals []int) (V, error)
	// head is v, the root projected onto the head columns, as the answer that
	// outlives the run: a View in canonical order that nothing writes again.
	head(v V) relation.View
	// pfpLimit iterates step from ∅ to the partial fixpoint (∅ on a cycle)
	// under opts' stage budget and cycle detector.
	pfpLimit(step func(V) (V, error), arity int, opts *Options) (V, error)
	// mergeParams adds limit, consuming it, to out's section for assign.
	mergeParams(out, limit V, assign []int)

	// count and arity are what v reports to Stats; touched is the
	// Stats.TuplesTouched charge for writing that many tuples.
	count(v V) int
	arity(v V) int
	touched(tuples int) int64
	// freeze readies v, node key's value, for the NodeStore, where other runs
	// read it, and returns its size there.
	freeze(v V, key string) int64
	// check asserts node n's fresh value against the algebra's static analysis.
	check(n int, v V) error
	release(v V)
}

// errStagesOnly is an algebra without top-down or partial stages refusing
// GFP/PFP (plan.Density.SparseOK, the routing gate, keeps such plans away).
var errStagesOnly = errors.New("eval: sparse backend cannot evaluate gfp/pfp fixpoints (bottom-up stages only)")

// run is one evaluation of a compiled plan over one algebra, on its caller's
// goroutine: only the node store and the spaces' pools are shared, and with
// other evaluations.
type run[V comparable] struct {
	ctx   context.Context
	p     *plan.Plan
	db    *database.Database
	alg   algebra[V]
	stats *Stats
	opts  *Options
	// deltaOK[b] admits binder b to the semi-naive regime under this algebra.
	deltaOK []bool
	// Per-node DAG cache. val[n] is node n's value; valid[n] marks it current;
	// owned[n] marks it releasable by this run (false for values the node
	// store has seen, never to be mutated or released).
	// valCnt[n] is val[n]'s tuple count, maintained incrementally by delta
	// passes.
	val    []V
	valid  []bool
	owned  []bool
	valCnt []int
	// deltas[n] is node n's delta during one semi-naive pass (zero = empty).
	deltas []V
	// binding[b] is binder b's current stage (extended arity for LFP/GFP/IFP,
	// recursion-tuple arity for PFP).
	binding []V
	// seed, when non-nil, holds stages seedable binders restart from instead
	// of from ∅: a previous snapshot's fixpoints (maintain.go) or the stage this
	// evaluation's previous run handed off at. captured, when allocated,
	// receives each seedable binder's final stage: for the run's MaintState,
	// the fix node's store entry, a hand-off's seed. ho, when non-nil, lets the
	// run hand such a loop to the other algebra (backend.go); sparse says which
	// algebra this one is.
	seed     *MaintState
	captured []*relation.Sparse
	ho       *handOffs
	sparse   bool
	// store, when non-nil, shares closed-node values across runs.
	store *NodeStore
	// obs, when non-nil, observes the run's stages and, if it times nodes,
	// its node computations.
	obs *Observer
}

func newRun[V comparable](ctx context.Context, p *plan.Plan, db *database.Database, opts *Options, alg algebra[V], stats *Stats, deltaOK []bool, sparse bool) *run[V] {
	r := &run[V]{
		ctx: ctx, p: p, db: db, alg: alg, stats: stats, opts: opts, deltaOK: deltaOK, sparse: sparse,
		val:     make([]V, len(p.Nodes)),
		valid:   make([]bool, len(p.Nodes)),
		owned:   make([]bool, len(p.Nodes)),
		valCnt:  make([]int, len(p.Nodes)),
		deltas:  make([]V, len(p.Nodes)),
		binding: make([]V, p.NumBinders),
		obs:     observerOf(opts),
	}
	r.obs.sizeNodes(len(p.Nodes))
	if opts != nil && opts.Nodes != nil {
		r.store = opts.Nodes
		r.captured = make([]*relation.Sparse, p.NumBinders)
	}
	return r
}

// start installs a top-level run's hand-off state, seed and capture request,
// and returns whether the run captures: a maintainable plan's only. A run that
// may hand off but does not capture keeps no stages for the hand-off: that
// would cost every loop that stays put a stageOf for the one that moves.
func (r *run[V]) start(ho *handOffs, seed *MaintState, capture bool) bool {
	r.ho, r.seed = ho, seed
	capture = capture && r.p.Maint != nil && r.p.Maint.OK
	if capture && r.captured == nil {
		r.captured = make([]*relation.Sparse, r.p.NumBinders)
	}
	return capture
}

// answer runs the plan to its head value — the root projected onto the
// (distinct, by logic.Query.Validate) head columns — and hands it out as the
// View every caller reads the answer from (Prop. 3.1: the answer is a
// projection of the root's k-ary relation).
func (r *run[V]) answer(capture bool) (planResult, error) {
	res := planResult{stats: r.stats}
	root, err := r.evalNode(r.p.Root)
	if err != nil {
		return res, err
	}
	h, err := r.alg.project(root, r.p.HeadAxes, nil, nil)
	if err != nil {
		return res, err
	}
	if capture {
		res.state = &MaintState{stages: r.captured}
	}
	if r.p.Narrowed {
		r.stats.AcyclicFastPath = 1
	}
	res.head = r.alg.head(h)
	return res, nil
}

// evalNode returns node n's value, computing it if the cached value is not
// current. The returned value is owned by the node cache: callers must not
// mutate or release it.
func (r *run[V]) evalNode(n int) (V, error) {
	if r.valid[n] {
		return r.val[n], nil
	}
	key, fx := r.storeKey(n), r.p.Nodes[n].Fix
	if key != "" {
		if stored, stage := r.store.get(key, r.sparse); stored != nil || stage != nil {
			v, ok := stored.(V)
			if !ok { // a seedable fixpoint the other algebra computed: read off its stage as a seeded loop's is
				cur, err := r.alg.fromStage(stage, fx.ExtArity)
				if err == nil {
					v, err = r.fixResult(fx, cur)
				}
				if err != nil {
					return v, err
				}
				r.owned[n] = !r.store.put(key, r.sparse, v, stage, r.alg.freeze(v, key)) // beside the other's
			}
			if fx != nil {
				r.captured[fx.Binder] = stage
			}
			r.stats.NodesShared++
			r.val[n], r.valid[n] = v, true // a closed node's count is never read
			return v, nil
		}
	}
	t0 := r.profStart()
	v, err := r.computeNode(n)
	r.profEnd(n, t0)
	if err == nil {
		err = r.alg.check(n, v)
	}
	if err != nil {
		var zero V
		return zero, err
	}
	var stage *relation.Sparse // a seedable fixpoint's: what a capturing run that hits will need
	if key != "" && fx != nil {
		stage = r.captured[fx.Binder]
	}
	cnt := r.alg.count(v)
	r.observe(v, cnt, cnt)
	owned := key == "" || !r.store.put(key, r.sparse, v, stage, r.alg.freeze(v, key)) // kept is frozen; refused stays this run's to release
	r.val[n], r.owned[n], r.valid[n], r.valCnt[n] = v, owned, true, cnt
	return v, nil
}

// storeKey returns node n's NodeStore key, either algebra's — domain, structure,
// identities of the relations read — or "" for a node the run does not share, as the root.
func (r *run[V]) storeKey(n int) string {
	c := r.p.Closed[n]
	if r.store == nil || c == nil || n == r.p.Root {
		return ""
	}
	key := append(append(strconv.AppendInt(nil, int64(r.db.Size()), 10), '|'), c.Key[:]...)
	for _, name := range c.Rels {
		id := r.db.RelID(name)
		key = append(key, id[:]...)
	}
	return string(key)
}

// profStart and profEnd time one computation of node n for explain mode;
// both are free unless the observer times nodes.
func (r *run[V]) profStart() (t0 time.Time) {
	if r.obs.timesNodes() {
		t0 = time.Now()
	}
	return t0
}

func (r *run[V]) profEnd(n int, t0 time.Time) {
	if r.obs.timesNodes() {
		r.obs.node(n, time.Since(t0))
	}
}

// observe charges one node construction to Stats: v now holds cnt tuples,
// written of them new.
func (r *run[V]) observe(v V, cnt, written int) {
	r.stats.SubformulaEvals++
	if t := r.alg.touched(written); t != 0 {
		r.stats.TuplesTouched += t
	}
	r.stats.observe(r.alg.arity(v), cnt)
}

// invalidate marks node n for re-evaluation, recycling an owned value.
func (r *run[V]) invalidate(n int) {
	if !r.valid[n] {
		return
	}
	r.valid[n] = false
	if r.owned[n] {
		r.alg.release(r.val[n])
	}
	var zero V
	r.val[n], r.owned[n] = zero, false
}

func (r *run[V]) computeNode(n int) (v V, err error) {
	var zero V
	nd := &r.p.Nodes[n]
	var kids [2]V
	if nd.Op != plan.OpFix {
		for i, k := range nd.Kids {
			if kids[i], err = r.evalNode(k); err != nil {
				return zero, err
			}
		}
	}
	switch nd.Op {
	case plan.OpAtom:
		if nd.Binder < 0 {
			return r.alg.atom(nd.Rel, nd.Args)
		}
		stage := r.binding[nd.Binder]
		if stage == zero {
			return zero, fmt.Errorf("eval: internal: recursion atom %s outside its fixpoint", nd.Rel)
		}
		v, err = r.alg.stageAtom(stage, r.p.AtomAxes(n))
	case plan.OpEq:
		v, err = r.alg.eq(nd.L, nd.R)
	case plan.OpConst:
		v, err = r.alg.constant(nd.Truth)
	case plan.OpNot:
		v, err = r.alg.not(kids[0])
	case plan.OpAnd:
		v, err = r.alg.and(kids[0], kids[1])
	case plan.OpOr:
		v, err = r.alg.or(kids[0], kids[1])
	case plan.OpExists:
		v, err = r.alg.exists(kids[0], nd.Axis)
	case plan.OpForall:
		v, err = r.alg.forall(kids[0], nd.Axis)
	case plan.OpFix:
		// Hoisted frontier: everything the stage loop reads but never
		// recomputes is made current once, before iterating.
		for _, m := range r.p.PreEval[nd.Fix.Binder] {
			if _, err := r.evalNode(m); err != nil {
				return zero, err
			}
		}
		if nd.Fix.Op == logic.PFP {
			v, err = r.evalPFP(nd.Fix)
		} else {
			v, err = r.evalFix(nd.Fix)
		}
	default:
		err = fmt.Errorf("eval: unknown plan op %d", nd.Op)
	}
	return v, err
}

// fixEvent is the TraceEvent of the stage-th completed stage, started at
// start, of the fixpoint that binds rel under op: plan binder binder of a
// compiled run, -1 on the formula walker.
func fixEvent(engine string, binder int, rel string, op logic.FixOp, stage, tuples, delta int, start time.Time) TraceEvent {
	return TraceEvent{Engine: engine, Fixpoint: rel, Op: op.String(), Binder: binder,
		Stage: stage, Tuples: tuples, Delta: delta, Elapsed: time.Since(start)}
}

// beginStage is every fixpoint operator's stage-boundary prologue: the
// cancellation check, the per-stage counters, binding the stage to read, and
// (traced runs only) the stage's start time.
func (r *run[V]) beginStage(b int, stage V) (start time.Time, err error) {
	if err := checkCtx(r.ctx); err != nil {
		return start, err
	}
	r.stats.FixIterations++
	r.stats.NodesReused += int64(len(r.p.PreEval[b]))
	r.binding[b] = stage
	if r.obs != nil {
		start = time.Now()
	}
	return start, nil
}

// evalFix runs the LFP/GFP/IFP stage loop for a fixpoint node, mirroring
// BottomUp's loop structure exactly (same initial stage, same extraction,
// same convergence test) so stage sequences — and answers — are identical;
// only the per-stage work is incremental.
func (r *run[V]) evalFix(fx *plan.FixInfo) (V, error) {
	var zero V
	b := fx.Binder
	var cur V
	var err error
	var stage int // completed stages: a hand-off's seed carries on where it left
	switch seed, at := r.seed.from(b); {
	case fx.Op == logic.GFP:
		cur, err = r.alg.full(fx.ExtArity)
	case seed != nil:
		// Seeded restart: resume the increasing chain from a stage reached
		// before — the previous snapshot's fixpoint (maintain.go) or where the
		// other algebra left this loop. The first iteration is a full stage
		// against the database; later ones run semi-naive on what it added.
		cur, err = r.alg.fromStage(seed, fx.ExtArity)
		stage = at
	default:
		cur, err = r.alg.empty(fx.ExtArity)
	}
	if err != nil {
		return zero, err
	}
	// watch: the loop may be handed to the other algebra at a stage boundary.
	watch := r.ho != nil && r.p.Maint.Seeded[b]
	var delta V // non-zero once the semi-naive regime is active
	var deltaCnt int
	fail := func(err error) (V, error) {
		if watch && errors.Is(err, ErrSparseBudget) && !r.ho.moved[1][b] {
			// The stage that overran is abandoned; the last whole one is kept.
			r.ho.moved[1][b] = true
			err = r.handOff(b, cur, stage)
		}
		r.alg.release(cur)
		if delta != zero {
			r.alg.release(delta)
		}
		r.binding[b] = zero
		return zero, err
	}
	var count int // cur's size, kept when someone looks
	if r.obs != nil || watch {
		count = r.alg.count(cur)
	}
	// staged closes a stage that left the binding at tuples: it reports it, and
	// says whether the loop now moves to the other algebra.
	staged := func(start time.Time, tuples int) bool {
		stage++
		moves := watch && tuples != count && r.ho.due(b, r.sparse, tuples, tuples-count)
		if r.obs != nil {
			ev := fixEvent("compiled", b, fx.Rel, fx.Op, stage, tuples, tuples-count, start)
			ev.HandOff = moves
			r.obs.stage(ev)
		}
		count = tuples
		return moves
	}
	for {
		stageStart, err := r.beginStage(b, cur)
		if err != nil {
			return fail(err)
		}

		if delta != zero {
			// Semi-naive stage: push ΔS through the dirty nodes.
			r.stats.DeltaTuples += int64(deltaCnt)
			nd, ndCnt, err := r.deltaStage(fx, delta)
			if err != nil {
				return fail(err)
			}
			r.alg.release(delta)
			delta, deltaCnt = nd, ndCnt
			if ndCnt == 0 {
				staged(stageStart, count) // converging stage: delta 0
				break                     // body gained nothing: cur is the fixpoint
			}
			cur = r.alg.union(cur, nd)
			if staged(stageStart, count+ndCnt) {
				return fail(r.handOff(b, cur, stage))
			}
			continue
		}

		// Full stage: re-evaluate the dirty nodes against the new binding.
		if err := r.evalStage(b); err != nil {
			return fail(err)
		}
		next, err := r.alg.project(r.val[fx.Body], fx.ExtCols, nil, nil)
		if err != nil {
			return fail(err)
		}
		if fx.Op == logic.IFP {
			// Inflationary stages: S_{i+1} = S_i ∪ φ(S_i).
			next = r.alg.union(next, cur)
		}
		nextCnt := count
		if r.obs != nil || watch {
			nextCnt = r.alg.count(next)
		}
		moves := staged(stageStart, nextCnt)
		if r.alg.equal(next, cur) {
			r.alg.release(next)
			break
		}
		if r.deltaOK[b] {
			delta, deltaCnt = r.alg.minus(r.alg.clone(next), cur)
		}
		r.alg.release(cur)
		if cur = next; moves {
			return fail(r.handOff(b, cur, stage))
		}
	}
	if delta != zero {
		r.alg.release(delta)
	}
	if r.captured != nil && r.p.Maint.Seeded[b] {
		// Seedable binders are hoisted, so this runs exactly once per
		// evaluation: keep the final stage as the maintenance state.
		r.captured[b] = r.alg.stageOf(cur)
	}
	r.binding[b] = zero
	return r.fixResult(fx, cur)
}

// handOff is the error that moves the evaluation to the other route with
// binder b's loop resuming after its stage-th stage, cur: the seed is that
// stage, the final stages of the seedable binders this run has finished — where
// it kept them (a capturing or node-sharing run; any other reruns those loops
// from what it was seeded with) — and the run's own seed for the others.
func (r *run[V]) handOff(b int, cur V, stage int) error {
	seed := &MaintState{stages: make([]*relation.Sparse, r.p.NumBinders), at: make([]int, r.p.NumBinders)}
	for i := range seed.stages {
		if r.captured != nil {
			seed.stages[i] = r.captured[i]
		}
		if seed.stages[i] == nil {
			seed.stages[i], _ = r.seed.from(i)
		}
	}
	seed.stages[b], seed.at[b] = r.alg.stageOf(cur), stage
	return &handOff{seed}
}

// deltaStage applies one semi-naive pass for fx's binder: deltaExt is ΔS in
// the extended stage space, and every dirty node's value is updated by
// unioning in its delta, computed from its children's deltas with the
// per-connective rules
//
//	Δ S(x̄)    = stageAtom(ΔS)                         (recursion atom)
//	Δ (φ ∨ ψ) = Δφ ∪ Δψ
//	Δ (φ ∧ ψ) = (Δφ ∩ ψ_new) ∪ (φ_new ∩ Δψ)
//	Δ (∃x φ)  = ∃x Δφ
//	Δ (∀x φ)  = ∀x φ_new \ old                        (recomputed, then diffed)
//
// each tightened by the node's old value, so deltas stay thin. Soundness
// needs exactly the admissibility the run's deltaOK records: stages grow
// monotonically and all dirty operators distribute over ∪ (∀ is handled by
// recomputation). Returns the body's delta projected to the stage space and
// tightened against the current stage, with its tuple count (zero V, 0 when
// nothing changed).
func (r *run[V]) deltaStage(fx *plan.FixInfo, deltaExt V) (V, int, error) {
	var zero V
	p := r.p
	sched := p.Sched[fx.Binder] // equals Dirty[b]: deltaOK forbids covered subtrees
	fixed := func(k int) bool { return p.Deps[k]&(1<<uint(fx.Binder)) == 0 }
	defer func() {
		for _, n := range sched {
			if r.deltas[n] != zero {
				r.alg.release(r.deltas[n])
				r.deltas[n] = zero
			}
		}
	}()
	for _, n := range sched {
		nd := &p.Nodes[n]
		var dk [2]V
		changed := nd.Op == plan.OpAtom
		for i, k := range nd.Kids {
			dk[i] = r.deltas[k]
			changed = changed || dk[i] != zero
		}
		if !changed {
			continue // children unchanged ⇒ value unchanged
		}
		t0 := r.profStart()
		var dv V
		var err error
		switch nd.Op {
		case plan.OpAtom:
			dv, err = r.alg.stageAtom(deltaExt, p.AtomAxes(n))
		case plan.OpOr:
			dv, err = r.alg.deltaOr(r.val[n], dk[0], dk[1])
		case plan.OpAnd:
			l, rt := nd.Kids[0], nd.Kids[1]
			dv, err = r.alg.deltaAnd(dk[0], r.val[rt], dk[1], r.val[l], fixed(rt), fixed(l))
		case plan.OpExists:
			dv, err = r.alg.deltaExists(dk[0], nd.Axis)
		case plan.OpForall:
			dv, err = r.alg.forall(r.val[nd.Kids[0]], nd.Axis)
		default:
			err = fmt.Errorf("eval: op %d in a delta pass (plan bug)", nd.Op)
		}
		if err != nil {
			return zero, 0, err
		}
		dv, added := r.alg.minus(dv, r.val[n])
		if added == 0 {
			r.alg.release(dv)
		} else {
			r.val[n] = r.alg.union(r.val[n], dv) // a dirty node is never the store's
			r.valCnt[n] += added
			r.observe(r.val[n], r.valCnt[n], added)
			r.deltas[n] = dv
		}
		r.profEnd(n, t0)
	}
	dB := r.deltas[fx.Body]
	if dB == zero {
		return zero, 0, nil
	}
	nd, err := r.alg.project(dB, fx.ExtCols, nil, nil)
	if err != nil {
		return zero, 0, err
	}
	nd, cnt := r.alg.minus(nd, r.binding[fx.Binder])
	return nd, cnt, nil
}

// evalStage fully re-evaluates binder b's dirty nodes against the current
// binding: invalidated, they are recomputed on demand from the body down.
func (r *run[V]) evalStage(b int) error {
	for _, d := range r.p.Dirty[b] {
		r.invalidate(d)
	}
	_, err := r.evalNode(r.p.Nodes[r.p.FixOf[b]].Fix.Body)
	return err
}

// fixResult reads a finished fixpoint's final stage, consuming it, through
// the application's argument (and parameter) axes.
func (r *run[V]) fixResult(fx *plan.FixInfo, stage V) (V, error) {
	axes := make([]int, 0, len(fx.ArgAxes)+len(fx.ParamAxes))
	axes = append(append(axes, fx.ArgAxes...), fx.ParamAxes...)
	res, err := r.alg.stageAtom(stage, axes)
	r.alg.release(stage)
	return res, err
}

// evalPFP mirrors BottomUp's per-parameter-assignment sweep (the same
// sweepPFP, the same cycle detection), with the plan's hoisted frontier
// shared across all assignments and stages.
func (r *run[V]) evalPFP(fx *plan.FixInfo) (V, error) {
	var zero V
	out, err := r.alg.empty(fx.ExtArity)
	if err != nil {
		return zero, err
	}
	err = sweepPFP(r.alg, out, r.db.Size(), len(fx.ParamAxes), func(assign []int) (V, error) {
		return r.pfpRun(fx, assign)
	})
	if err != nil {
		r.alg.release(out)
		return zero, err
	}
	return r.fixResult(fx, out)
}

// sweepPFP is the parametrized PFP sweep of both evaluators: for each of the
// n^params parameter assignments in row-major order (forEachAssignment: the
// first parameter is the most significant digit), one after the other, it
// adds the limit limitOf(assign) to out's section for the assignment
// (alg.mergeParams). A parameterless PFP is the sweep of its one (empty)
// assignment.
func sweepPFP[V comparable](alg algebra[V], out V, n, params int, limitOf func([]int) (V, error)) (err error) {
	forEachAssignment(n, params, func(assign []int) bool {
		var limit V
		if limit, err = limitOf(assign); err == nil {
			alg.mergeParams(out, limit, assign)
		}
		return err == nil
	})
	return err
}

// pfpRun runs the partial-fixpoint iteration for one parameter assignment
// over the compiled DAG.
func (r *run[V]) pfpRun(fx *plan.FixInfo, assign []int) (V, error) {
	var zero V
	b := fx.Binder
	var stage int
	step := func(s V) (V, error) {
		stageStart, err := r.beginStage(b, s)
		if err != nil {
			return zero, err
		}
		if err := r.evalStage(b); err != nil {
			return zero, err
		}
		next, err := r.alg.project(r.val[fx.Body], fx.VarAxes, fx.ParamAxes, assign)
		if err == nil && r.obs != nil {
			stage++
			nc := r.alg.count(next)
			r.obs.stage(fixEvent("compiled", b, fx.Rel, fx.Op, stage, nc, nc-r.alg.count(s), stageStart))
		}
		return next, err
	}
	defer func() { r.binding[b] = zero }()
	return r.alg.pfpLimit(step, len(fx.VarAxes), r.opts)
}
