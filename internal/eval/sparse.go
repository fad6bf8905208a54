package eval

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/database"
	"repro/internal/plan"
	"repro/internal/relation"
)

// The sparse algebra lets the plan executor evaluate a compiled plan without
// ever materializing the full nᵏ-point space. Each plan node's value is an
// sval: a sorted
// tuple-code block (relation.Sparse) over exactly the node's support axes —
// the axes its value actually constrains — plus a polarity flag. A node that
// is cylindric in an axis simply omits it, so the cylinders that dominate
// dense evaluation are never stored; a negated subformula is stored as its
// complement block with neg set, so complements are deferred until (and
// unless) a boundary forces them.
//
// The connective table is closed over polarity:
//
//	pos ∧ pos  = natural join            pos ∨ pos  = widened union
//	pos ∧ ¬b   = antijoin (widened a)    ¬a ∨ ¬b    = ¬(widened intersect)
//	¬a ∧ ¬b    = ¬(widened union)        ¬a ∨ b     = ¬(a′ \ b′)
//	∃x pos     = drop axis               ∃x ¬a      = ¬(all-axis a)
//	∀x pos     = all-axis                ∀x ¬a      = ¬(drop axis a)
//
// Widening (inserting a cylinder axis) and complementing multiply block
// sizes, so both are guarded by a tuple budget; exceeding it returns
// ErrSparseBudget, which the auto backend treats as "the estimate was wrong —
// continue dense" whenever the dense space is feasible.
type sval struct {
	// sup lists the support axes, strictly ascending.
	sup []int
	// rel holds the tuple block, one column per support axis, in sup order.
	rel *relation.Sparse
	// neg marks that rel is the complement block: the value contains exactly
	// the tuples whose sup-projection is NOT in rel.
	neg bool
	// shared marks rel as held by someone besides this value — another value an
	// op passed the block through to (alias), the node store, a captured stage,
	// a seed — and so never again written or released. An unshared value is its
	// one holder's: union and minus, which consume it, work in its block, and
	// release recycles that.
	shared bool
	key    string // the store key of the closed node whose value this is (NodeStore.layout)
}

// sparseAlg is the sparse algebra: node values are svals, stages svals over
// the stage space's own positions 0..arity−1. It honours the executor's
// ownership contract block by block: an op returns a value in a block of its
// own, drawn from the run's free list (blocks), or — where it has nothing to
// compute — an alias, which marks both values shared. Only bottom-up stages
// exist: GFP's full initial stage and PFP's per-parameter projection would
// complement whole stage spaces, so those ops return errStagesOnly
// (plan.Density.SparseOK keeps such plans on the dense route). A run is serial,
// so neither the free list nor the index cache is locked.
type sparseAlg struct {
	db     *database.Database
	n      int
	budget int
	// den is the static support/polarity analysis every computed value is
	// asserted against.
	den    *plan.Density
	blocks relation.Blocks
	// index holds, per operand a stage loop leaves fixed, the join layouts
	// built for it (joinIndex): once per loop, not once per stage.
	index map[*sval][]*joinIndex
	store *NodeStore // lays out stored values once per store (NodeStore.layout)
}

// poisonReleased makes every sparse run poison the blocks it releases
// (relation.Blocks.Poison); the package's tests run with it set.
var poisonReleased = false

// runSparse is runDense's twin: the whole plan over the sparse algebra. Its
// semi-naive regime additionally needs an all-positive dirty region
// (Density.DeltaSparse).
func runSparse(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options, den *plan.Density, stats *Stats, ho *handOffs, seed *MaintState, capture bool) (planResult, error) {
	alg := &sparseAlg{db: db, n: db.Size(), budget: sparseBudget(opts), den: den}
	if poisonReleased {
		alg.blocks.Poison()
	}
	r := newRun[*sval](ctx, p, db, opts, alg, stats, den.DeltaSparse, true)
	alg.store = r.store
	return r.answer(r.start(ho, seed, capture))
}

// stageAxes is the support of a stage (or head) value: its own positions
// (supports are 64-bit masks, so no space is wider than 64).
func stageAxes(arity int) []int { return stagePositions[:arity:arity] }

var stagePositions = func() (p [64]int) {
	for i := range p {
		p[i] = i
	}
	return p
}()

// stageSval wraps a block over a stage (or head) space as a value.
func stageSval(rel *relation.Sparse) *sval {
	return &sval{sup: stageAxes(rel.Arity()), rel: rel}
}

// alias returns a second value on x's block, for an op that passes its
// argument through; both are shared from here on. A frozen x is marked
// already, so that a value other runs read is never written.
func alias(x *sval) *sval {
	if !x.shared {
		x.shared = true
	}
	return &sval{sup: x.sup, rel: x.rel, neg: x.neg, shared: true}
}

// atom read through strictly ascending arguments is the stored block itself,
// shared with the database and every run on it: never written, never
// released. Any other pattern selects and permutes the decoded codes.
func (sa *sparseAlg) atom(name string, args []int) (*sval, error) {
	codes, err := sa.db.Codes(name)
	switch {
	case err != nil:
		return nil, err
	case codes == nil: // no code space at this arity: repeated arguments, or the builder refuses
		rel, err := sa.db.Rel(name)
		if err != nil {
			return nil, err
		}
		return sa.svalFromTuples(args, rel.ForEach)
	case !ascending(args):
		return sa.svalFromTuples(args, codes.ForEach)
	case codes.Count() > sa.budget:
		return nil, sa.overBudget("atom materialization", float64(codes.Count()))
	}
	return &sval{sup: args, rel: codes, shared: true}, nil
}

// stageAtom read through strictly ascending axes keeps columns and order: the
// stage's own block, no tuple decoded, encoded or sorted.
func (sa *sparseAlg) stageAtom(stage *sval, axes []int) (*sval, error) {
	if ascending(axes) {
		v := alias(stage)
		v.sup = axes
		return v, nil
	}
	return sa.svalFromTuples(axes, stage.rel.ForEach)
}

// eq is the equality value { (v, v) } over two distinct axes.
func (sa *sparseAlg) eq(l, r int) (*sval, error) {
	if l == r {
		return sa.constant(true)
	}
	bld, err := sa.blocks.Builder(2, sa.n)
	if err != nil {
		return nil, err
	}
	for v := 0; v < sa.n; v++ {
		bld.AddCode(uint64(v)*uint64(sa.n) + uint64(v))
	}
	return &sval{sup: []int{min(l, r), max(l, r)}, rel: bld.Build()}, nil
}

func (sa *sparseAlg) not(x *sval) (*sval, error) {
	v := alias(x)
	v.neg = !x.neg
	return v, nil
}

func (sa *sparseAlg) exists(x *sval, axis int) (*sval, error) { return sa.quantSv(x, axis, false), nil }
func (sa *sparseAlg) forall(x *sval, axis int) (*sval, error) { return sa.quantSv(x, axis, true), nil }

// The delta rules run only on all-positive dirty regions, so blocks combine
// by plain union; kid deltas are widened to the node's support.
func (sa *sparseAlg) deltaOr(old, dl, dr *sval) (*sval, error) {
	var dv *sval
	for _, dk := range []*sval{dl, dr} {
		if dk == nil {
			continue
		}
		wk, err := sa.widenTo(dk, old.sup)
		if err != nil {
			return nil, err
		}
		dv = sa.gather(dv, wk, wk != dk)
	}
	return dv, nil
}

// deltaAnd probes a side the loop leaves fixed with the other's delta alone.
func (sa *sparseAlg) deltaAnd(dl, r, dr, l *sval, rFixed, lFixed bool) (*sval, error) {
	var dv *sval
	for _, side := range []struct {
		d, other *sval
		fixed    bool
	}{{dl, r, rFixed}, {dr, l, lFixed}} {
		if side.d == nil {
			continue
		}
		j, err := sa.joinSv(side.d, side.other, side.fixed)
		if err != nil {
			return nil, err
		}
		dv = sa.gather(dv, j, true)
	}
	return dv, nil
}

// gather adds y to dv, a delta being put together (nil: nothing yet), and
// returns it: a value of the caller's own. made says that y is one too.
func (sa *sparseAlg) gather(dv, y *sval, made bool) *sval {
	switch {
	case dv == nil && made:
		return y
	case dv == nil:
		return alias(y)
	}
	dv = sa.union(dv, y)
	if made {
		sa.release(y)
	}
	return dv
}

func (sa *sparseAlg) deltaExists(dk *sval, axis int) (*sval, error) { return sa.exists(dk, axis) }

// clone copies on write: the value it returns is shared, so the union or minus
// that consumes it works in a block of its own. x is not marked — it may be a
// frozen value other runs read — which is sound because the executor clones
// only what it does not write while the clone lives.
func (sa *sparseAlg) clone(x *sval) *sval {
	return &sval{sup: x.sup, rel: x.rel, neg: x.neg, shared: true}
}

func (sa *sparseAlg) union(x, y *sval) *sval {
	delete(sa.index, x)
	if rel := sa.blocks.Accumulate(x.rel, y.rel, !x.shared); rel != x.rel {
		return &sval{sup: x.sup, rel: rel}
	}
	return x
}

func (sa *sparseAlg) minus(x, y *sval) (*sval, int) {
	if x.shared {
		x = &sval{sup: x.sup, rel: sa.blocks.Difference(x.rel, y.rel)}
	} else {
		x.rel.Subtract(y.rel)
	}
	return x, x.rel.Count()
}

func (sa *sparseAlg) equal(x, y *sval) bool { return x.rel.Equal(y.rel) }

func (sa *sparseAlg) empty(arity int) (*sval, error) {
	rel, err := sa.blocks.Empty(arity, sa.n)
	if err != nil {
		return nil, err
	}
	return stageSval(rel), nil
}

func (sa *sparseAlg) full(int) (*sval, error) { return nil, errStagesOnly }

// fromStage wraps a seed: a block a MaintState, a cache or the store holds.
func (sa *sparseAlg) fromStage(s *relation.Sparse, _ int) (*sval, error) {
	v := stageSval(s)
	v.shared = true
	return v, nil
}

// stageOf hands v's block out of the run, frozen.
func (sa *sparseAlg) stageOf(v *sval) *relation.Sparse {
	sa.freeze(v, "")
	return v.rel
}

// freeze is what happens to a value before anything outside the run sees it
// (the node store, a MaintState, a hand-off's seed): it is shared from now on
// and clipped to its length, so that what is held is what is charged, 8 bytes a
// tuple. Nothing frozen has room to spare, hence no frozen block is written
// here: a block with room is this run's, whoever aliases it.
func (sa *sparseAlg) freeze(v *sval, key string) int64 {
	sa.blocks.Clip(v.rel)
	v.shared, v.key = true, key // v is a value this run made: no other run reads its header yet
	return 8*int64(v.rel.Cap()+len(v.sup)) + 64
}

// project materializes sv over cols — the one place deferred complements are
// forced (see materialize).
func (sa *sparseAlg) project(sv *sval, cols, pinned, _ []int) (*sval, error) {
	if len(pinned) > 0 {
		return nil, errStagesOnly
	}
	rel, err := sa.materialize(sv, cols)
	if err != nil {
		return nil, err
	}
	if rel == sv.rel { // positive, over exactly its support in order
		v := alias(sv)
		v.sup = stageAxes(rel.Arity())
		return v, nil
	}
	return stageSval(rel), nil
}

// head is the sorted, deduplicated head codes as they are, frozen like any
// block that leaves the run.
func (sa *sparseAlg) head(v *sval) relation.View { return sa.stageOf(v) }

func (sa *sparseAlg) pfpLimit(func(*sval) (*sval, error), int, *Options) (*sval, error) {
	return nil, errStagesOnly
}

func (sa *sparseAlg) mergeParams(_, _ *sval, _ []int) {}

func (sa *sparseAlg) count(v *sval) int        { return v.rel.Count() }
func (sa *sparseAlg) arity(v *sval) int        { return len(v.sup) }
func (sa *sparseAlg) touched(tuples int) int64 { return int64(tuples) }

// release recycles the block of a value nobody shares.
func (sa *sparseAlg) release(v *sval) {
	if delete(sa.index, v); !v.shared {
		sa.blocks.Release(v.rel)
	}
}

func (sa *sparseAlg) check(n int, sv *sval) error {
	if got, want := plan.AxisMask(sv.sup), sa.den.Support[n]; got != want || sv.neg != sa.den.Neg[n] {
		return fmt.Errorf("eval: internal: node %d support %b/neg=%v, analysis says %b/neg=%v",
			n, got, sv.neg, want, sa.den.Neg[n])
	}
	return nil
}

func (sa *sparseAlg) overBudget(what string, need float64) error {
	return fmt.Errorf("eval: %w: %s needs ~%.3g tuples, budget %d",
		ErrSparseBudget, what, need, sa.budget)
}

// svalFromTuples builds a positive sval from a tuple stream whose column i
// carries axis axes[i]. Repeated axes select the diagonal: tuples whose
// repeated positions disagree are dropped, and each axis is stored once.
func (sa *sparseAlg) svalFromTuples(axes []int, each func(func(relation.Tuple))) (*sval, error) {
	sup := distinctSortedAxes(axes)
	bld, err := sa.blocks.Builder(len(sup), sa.n)
	if err != nil {
		return nil, err
	}
	buf := make(relation.Tuple, len(sup))
	col := make([]int, len(axes)) // col[i]: where axes[i] sits in sup
	for i, ax := range axes {
		col[i] = slices.Index(sup, ax)
	}
	var ferr error
	each(func(t relation.Tuple) {
		if ferr != nil {
			return
		}
		for i := range buf {
			buf[i] = -1
		}
		for i, j := range col {
			if buf[j] >= 0 && buf[j] != t[i] {
				return // diagonal selection: repeated axis disagrees
			}
			buf[j] = t[i]
		}
		if err := bld.Add(buf); err != nil {
			ferr = err
			return
		}
		if bld.Len() > sa.budget {
			ferr = sa.overBudget("atom materialization", float64(bld.Len()))
		}
	})
	if ferr != nil {
		return nil, ferr
	}
	return &sval{sup: sup, rel: bld.Build()}, nil
}

// constant is the 0-ary truth value: full (one empty tuple) or empty.
func (sa *sparseAlg) constant(truth bool) (*sval, error) {
	var tuples []relation.Tuple
	if truth {
		tuples = []relation.Tuple{{}}
	}
	s, err := relation.SparseOf(0, sa.n, tuples...)
	return &sval{rel: s}, err
}

// widenTo inserts cylinder axes so sv's support becomes target (a sorted
// superset of sv.sup). Each inserted axis multiplies the block by n, so the
// projected size is budget-checked up front. On an equal support the result is
// sv itself, not a value of the caller's: see drop.
func (sa *sparseAlg) widenTo(sv *sval, target []int) (*sval, error) {
	if len(target) == len(sv.sup) {
		return sv, nil
	}
	miss := len(target) - len(sv.sup)
	need := float64(sv.rel.Count()) * math.Pow(float64(sa.n), float64(miss))
	if need > float64(sa.budget) {
		return nil, sa.overBudget("widening", need)
	}
	rel := sv.rel
	j := 0
	for i, ax := range target {
		if j < len(sv.sup) && sv.sup[j] == ax {
			j++
			continue
		}
		wide, err := sa.blocks.CrossAxis(rel, i)
		if err != nil {
			return nil, err
		}
		if rel != sv.rel {
			sa.blocks.Release(rel)
		}
		rel = wide
	}
	if j != len(sv.sup) {
		return nil, fmt.Errorf("eval: internal: widening target %v does not cover support %v", target, sv.sup)
	}
	return &sval{sup: target, rel: rel, neg: sv.neg}, nil
}

// and evaluates conjunction by polarity.
func (sa *sparseAlg) and(a, b *sval) (*sval, error) {
	if !a.neg && !b.neg {
		return sa.joinSv(a, b, false)
	}
	if a.neg && !b.neg {
		a, b = b, a
	}
	sup := mergeAxes(a.sup, b.sup)
	wa, err := sa.widenTo(a, sup)
	if err != nil {
		return nil, err
	}
	defer sa.drop(wa, a)
	if !a.neg {
		// pos ∧ ¬b: the positive side, widened over the union support,
		// antijoined against the negative block (which is not widened).
		return sa.filterSv(wa, b, false)
	}
	// ¬a ∧ ¬b = ¬(a ∨ b): the stored block is the widened union.
	wb, err := sa.widenTo(b, sup)
	if err != nil {
		return nil, err
	}
	defer sa.drop(wb, b)
	return &sval{sup: sup, rel: wa.rel.Union(wb.rel), neg: true}, nil
}

// drop releases w, widenTo's result for sv, if widening made it.
func (sa *sparseAlg) drop(w, sv *sval) {
	if w != sv {
		sa.release(w)
	}
}

// or evaluates disjunction by polarity.
func (sa *sparseAlg) or(a, b *sval) (*sval, error) {
	sup := mergeAxes(a.sup, b.sup)
	wa, err := sa.widenTo(a, sup)
	if err != nil {
		return nil, err
	}
	defer sa.drop(wa, a)
	wb, err := sa.widenTo(b, sup)
	if err != nil {
		return nil, err
	}
	defer sa.drop(wb, b)
	switch {
	case !a.neg && !b.neg:
		return &sval{sup: sup, rel: wa.rel.Union(wb.rel)}, nil
	case a.neg && b.neg:
		// ¬a ∨ ¬b = ¬(a ∧ b).
		return &sval{sup: sup, rel: sa.blocks.Intersect(wa.rel, wb.rel), neg: true}, nil
	case a.neg:
		// ¬a ∨ b = ¬(a \ b).
		return &sval{sup: sup, rel: sa.blocks.Difference(wa.rel, wb.rel), neg: true}, nil
	default:
		// a ∨ ¬b = ¬(b \ a).
		return &sval{sup: sup, rel: sa.blocks.Difference(wb.rel, wa.rel), neg: true}, nil
	}
}

// joinSv is the natural join of two positive svals on their shared axes.
// bFixed says that b stays what it is for a whole stage loop, in which a is a
// delta: then b is laid out for probing once (indexOf) and never walked again.
func (sa *sparseAlg) joinSv(a, b *sval, bFixed bool) (*sval, error) {
	switch {
	case slices.Equal(a.sup, b.sup):
		return &sval{sup: a.sup, rel: sa.blocks.Intersect(a.rel, b.rel)}, nil
	case containsAxes(a.sup, b.sup):
		return sa.filterSv(a, b, true)
	case bFixed:
		return sa.probe(a, sa.indexOf(b, a.sup))
	case containsAxes(b.sup, a.sup):
		return sa.filterSv(b, a, true)
	}
	// Incomparable supports: index the smaller side, probe with the larger —
	// or, if the larger is stored and at least 16 times the smaller, probe its
	// stored layout with the smaller (as filterSv does).
	if a.rel.Count() < b.rel.Count() {
		a, b = b, a
	}
	if a.rel.Count() >= 16*b.rel.Count() {
		if ix := sa.store.layout(a, b.sup); ix != nil {
			return sa.probe(b, ix)
		}
	}
	return sa.probe(a, newIndex(b, a.sup))
}

// filterSv is the (anti-)semijoin: keep the tuples of a whose projection
// onto f's support is in (keep) or not in (!keep) f's block. Requires
// f.sup ⊆ a.sup. The result reuses a's codes, so no budget check is needed.
// A semijoin probes a's stored layout with f instead if a is at least 16
// times f's size and f's axes do not lead a.sup (there Semijoin gallops).
func (sa *sparseAlg) filterSv(a, f *sval, keep bool) (*sval, error) {
	if keep && a.rel.Count() >= 16*f.rel.Count() && !slices.Equal(a.sup[:len(f.sup)], f.sup) {
		if ix := sa.store.layout(a, f.sup); ix != nil {
			return sa.probe(f, ix)
		}
	}
	cols := make([]int, len(f.sup))
	for i, ax := range f.sup {
		if cols[i] = slices.Index(a.sup, ax); cols[i] < 0 {
			return nil, fmt.Errorf("eval: internal: filter axis %d outside support %v", ax, a.sup)
		}
	}
	return &sval{sup: a.sup, rel: sa.blocks.Semijoin(a.rel, f.rel, cols, keep)}, nil
}

// joinIndex is one side of a natural join laid out for the other to probe: its
// tuples sorted by key — the shared axes, packed base n — as runs keys[i] ↦
// add[off[i]:off[i+1]], where add is what a tuple's own axes contribute to the
// code of an output tuple; the prober's contribute the rest, the shared axes
// included. No Go map, and nothing of the side is decoded again per probe.
type joinIndex struct {
	probe uint64 // AxisMask of the probing support: with the side, all the layout depends on
	sup   []int  // the output support
	// pKey[c], pOut[c]: the weight of the digit in the prober's column c in the
	// key and in the output code.
	pKey, pOut []uint64
	keys, add  []uint64
	off        []int
}

// indexOf returns side's layout for probes over the support probe, built on
// first use, in the store if it holds side. union and release forget a value's layouts.
func (sa *sparseAlg) indexOf(side *sval, probe []int) *joinIndex {
	mask := plan.AxisMask(probe)
	for _, ix := range sa.index[side] {
		if ix.probe == mask {
			return ix
		}
	}
	if sa.index == nil {
		sa.index = map[*sval][]*joinIndex{}
	}
	ix := sa.store.layout(side, probe)
	if ix == nil {
		ix = newIndex(side, probe)
	}
	sa.index[side] = append(sa.index[side], ix)
	return ix
}

// newIndex lays side out. An output code space that does not fit uint64 only
// wraps the weights here: probe's builder is what refuses the shape. Side's
// codes, recoded shared axes first unless they lead, sort by key, then add.
func newIndex(side *sval, probe []int) *joinIndex {
	ix := &joinIndex{probe: plan.AxisMask(probe), sup: mergeAxes(probe, side.sup)}
	shared, n := sharedAxes(probe, side.sup), uint64(side.rel.Domain())
	ix.pKey, ix.pOut = weights(probe, shared, n), weights(probe, ix.sup, n)
	order := append(make([]int, 0, 64), shared...) // side's axes, shared first
	below := uint64(1)                             // the code space of side's own axes
	for _, ax := range side.sup {
		if !slices.Contains(shared, ax) {
			order, below = append(order, ax), below*n
		}
	}
	lead, rec, out := slices.Equal(side.sup, order), weights(side.sup, order, n), weights(order[len(shared):], ix.sup, n)
	ix.add = make([]uint64, 0, side.rel.Count())
	side.rel.ForEachCode(func(c uint64) { ix.add = append(ix.add, recode(c, n, rec)) })
	if !lead {
		slices.Sort(ix.add)
	}
	keys := 0 // keys and off sized to the runs: the 18,000 2-hop paths have about 2,000
	for i, c := range ix.add {
		if i == 0 || c/below != ix.add[i-1]/below {
			keys++
		}
	}
	ix.keys, ix.off = make([]uint64, 0, keys), make([]int, 0, keys+1)
	for i, c := range ix.add {
		if key := c / below; i == 0 || key != ix.keys[len(ix.keys)-1] {
			ix.keys, ix.off = append(ix.keys, key), append(ix.off, i)
		}
		ix.add[i] = recode(c%below, n, out)
	}
	ix.off = append(ix.off, len(ix.add))
	return ix
}

// recode moves the base-n digits of c, one per weight of w, to those weights.
func recode(c, n uint64, w []uint64) (r uint64) {
	for i := len(w) - 1; i >= 0; i-- {
		r += c % n * w[i]
		c /= n
	}
	return r
}

// bytes is what ix occupies, for the NodeStore's budget: at most 8·(3·count+1+3·64)+128.
func (ix *joinIndex) bytes() int64 {
	return 8*int64(cap(ix.keys)+cap(ix.add)+cap(ix.off)+3*len(ix.sup)) + 128
}

// weights returns, per axis of axes, the weight of its digit in a base-n code
// over the axis list within: 0 for an axis not in it.
func weights(axes, within []int, n uint64) []uint64 {
	out := make([]uint64, len(axes))
	for i, ax := range axes {
		if p := slices.Index(within, ax); p >= 0 {
			out[i] = 1
			for range within[p+1:] {
				out[i] *= n
			}
		}
	}
	return out
}

// probe joins a with the side ix lays out. It counts the matches first and
// fills one block of that size: no regrowth, and a block the head or the
// store keeps as it is. Where a's axes lead the output support, probe order
// is code order, and Build finds the block sorted.
func (sa *sparseAlg) probe(a *sval, ix *joinIndex) (*sval, error) {
	n, total := uint64(sa.n), 0
	a.rel.ForEachCode(func(c uint64) {
		if i, _, ok := ix.find(c, n); ok {
			total += ix.off[i+1] - ix.off[i]
		}
	})
	if total > sa.budget {
		return nil, sa.overBudget("join", float64(total))
	}
	bld, err := sa.blocks.Builder(len(ix.sup), sa.n)
	if err != nil {
		return nil, err
	}
	bld.Grow(total)
	a.rel.ForEachCode(func(c uint64) {
		if i, base, ok := ix.find(c, n); ok {
			for _, add := range ix.add[ix.off[i]:ix.off[i+1]] {
				bld.AddCode(base + add)
			}
		}
	})
	return &sval{sup: ix.sup, rel: bld.Build()}, nil
}

// find splits a prober code c into its key and its share of the output code,
// base, and looks the key up: i is its run when ok.
func (ix *joinIndex) find(c, n uint64) (i int, base uint64, ok bool) {
	var key uint64
	for col := len(ix.pKey) - 1; col >= 0; col-- {
		d := c % n
		c /= n
		key += d * ix.pKey[col]
		base += d * ix.pOut[col]
	}
	i, ok = slices.BinarySearch(ix.keys, key)
	return i, base, ok
}

// quantSv applies ∃ or ∀ on one axis. An axis outside the support is a
// no-op: the value is cylindric there and the domain is nonempty.
func (sa *sparseAlg) quantSv(kv *sval, axis int, forall bool) *sval {
	i := slices.Index(kv.sup, axis)
	if i < 0 {
		return alias(kv)
	}
	rest := slices.Delete(slices.Clone(kv.sup), i, i+1)
	// Under negative polarity the quantifiers swap roles on the stored
	// block: ∃x ¬φ = ¬∀x φ and ∀x ¬φ = ¬∃x φ.
	if forall != kv.neg {
		return &sval{sup: rest, rel: kv.rel.AllAxis(i), neg: kv.neg}
	}
	return &sval{sup: rest, rel: sa.blocks.DropAxis(kv.rel, i), neg: kv.neg}
}

// materialize turns an sval into a plain positive Sparse with the given
// distinct columns (in the given order). cols must cover the support; the
// remaining columns become cylinders. A negative sval is complemented here —
// the one place deferred complements are forced — under the budget. A positive
// one over exactly cols is returned as it is: sv.rel, for project to alias.
func (sa *sparseAlg) materialize(sv *sval, cols []int) (*relation.Sparse, error) {
	sorted := slices.Clone(cols)
	slices.Sort(sorted)
	if !containsAxes(sorted, sv.sup) {
		return nil, fmt.Errorf("eval: internal: materialization columns %v do not cover support %v", cols, sv.sup)
	}
	w, err := sa.widenTo(sv, sorted)
	if err != nil {
		return nil, err
	}
	rel := w.rel // sv's own block still, if there was nothing to widen
	if sv.neg {
		need := float64(rel.SpaceSize()) - float64(rel.Count())
		if need > float64(sa.budget) {
			return nil, sa.overBudget("complement", need)
		}
		rel = rel.Complement()
		sa.drop(w, sv)
	}
	if slices.Equal(cols, sorted) {
		return rel, nil
	}
	proj := make([]int, len(cols))
	for i, c := range cols {
		proj[i] = slices.Index(w.sup, c)
	}
	out := rel.Project(proj)
	if rel != sv.rel {
		sa.blocks.Release(rel)
	}
	return out, nil
}

// Axis-list helpers. Supports are small (≤ the query width), so linear scans
// beat any clever structure.

// ascending reports whether axes are strictly ascending: a support as written.
func ascending(axes []int) bool {
	for i := 1; i < len(axes); i++ {
		if axes[i] <= axes[i-1] {
			return false
		}
	}
	return true
}

func distinctSortedAxes(axes []int) []int {
	out := slices.Clone(axes)
	slices.Sort(out)
	return slices.Compact(out)
}

// mergeAxes is the sorted union of two sorted axis lists; sharedAxes their
// sorted intersection.
func mergeAxes(a, b []int) []int {
	out := append(append(make([]int, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

func sharedAxes(a, b []int) []int {
	var out []int
	for _, ax := range a {
		if slices.Contains(b, ax) {
			out = append(out, ax)
		}
	}
	return out
}

// containsAxes reports inner ⊆ outer.
func containsAxes(outer, inner []int) bool {
	for _, ax := range inner {
		if !slices.Contains(outer, ax) {
			return false
		}
	}
	return true
}
