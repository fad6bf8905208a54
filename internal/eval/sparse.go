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
// sizes, so both are guarded by Options.SparseBudget; exceeding it returns
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
}

// sparseAlg is the sparse algebra: node values are svals, stages svals over
// the stage space's own positions 0..arity−1. Blocks are immutable heap
// values (no pool), so nothing is consumed and release is a no-op. Only
// bottom-up stages exist: GFP's full initial stage and PFP's per-parameter
// projection would complement whole stage spaces, so those ops return
// errStagesOnly (plan.Density.SparseOK keeps such plans on the dense route).
type sparseAlg struct {
	db     *database.Database
	n      int
	budget int
	// den is the static support/polarity analysis every computed value is
	// asserted against.
	den *plan.Density
}

// newSparseRun is the plan executor over the sparse algebra. It gets no
// worker tokens — sparse stage work is tuple-bound, not word-bound, so the
// wave scheduler's speedup does not carry over — and its semi-naive regime
// additionally needs an all-positive dirty region (Density.DeltaSparse).
func newSparseRun(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options, den *plan.Density, stats *Stats) *run[*sval] {
	alg := &sparseAlg{db: db, n: db.Size(), budget: sparseBudget(opts), den: den}
	r := newRun[*sval](ctx, p, db, opts, alg, stats, den.DeltaSparse, "s")
	r.sparse = true
	return r
}

// runSparse is runDense's twin: the whole plan over the sparse algebra.
func runSparse(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options, den *plan.Density, stats *Stats, ho *handOffs, seed *MaintState, capture, stream bool) (planResult, error) {
	r := newSparseRun(ctx, p, db, opts, den, stats)
	return r.answer(stream, r.start(ho, seed, capture))
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

func (sa *sparseAlg) atom(name string, args []int) (*sval, error) {
	rel, err := sa.db.Rel(name)
	if err != nil {
		return nil, err
	}
	return sa.svalFromTuples(args, rel.ForEach)
}

func (sa *sparseAlg) stageAtom(stage *sval, axes []int) (*sval, error) {
	return sa.svalFromTuples(axes, stage.rel.ForEach)
}

// eq is the equality value { (v, v) } over two distinct axes.
func (sa *sparseAlg) eq(l, r int) (*sval, error) {
	if l == r {
		return sa.constant(true)
	}
	bld, err := relation.NewSparseBuilder(2, sa.n)
	if err != nil {
		return nil, err
	}
	for v := 0; v < sa.n; v++ {
		bld.AddCode(uint64(v)*uint64(sa.n) + uint64(v))
	}
	return &sval{sup: []int{min(l, r), max(l, r)}, rel: bld.Build()}, nil
}

func (sa *sparseAlg) not(x *sval) (*sval, error) {
	return &sval{sup: x.sup, rel: x.rel, neg: !x.neg}, nil
}

func (sa *sparseAlg) exists(x *sval, axis int) (*sval, error) { return quantSv(x, axis, false), nil }
func (sa *sparseAlg) forall(x *sval, axis int) (*sval, error) { return quantSv(x, axis, true), nil }

// The delta rules run only on all-positive dirty regions, so blocks combine
// by plain union (nil is the empty delta); kid deltas are widened to the
// node's support.
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
		dv = sa.union(dv, wk)
	}
	return dv, nil
}

func (sa *sparseAlg) deltaAnd(dl, r, dr, l *sval) (*sval, error) {
	var dv *sval
	for _, side := range [][2]*sval{{dl, r}, {dr, l}} {
		if side[0] == nil {
			continue
		}
		j, err := sa.joinSv(side[0], side[1])
		if err != nil {
			return nil, err
		}
		dv = sa.union(dv, j)
	}
	return dv, nil
}

func (sa *sparseAlg) deltaExists(dk *sval, axis int) (*sval, error) { return sa.exists(dk, axis) }

func (sa *sparseAlg) clone(x *sval) *sval { return x }

func (sa *sparseAlg) union(x, y *sval) *sval {
	if x == nil {
		return y
	}
	return &sval{sup: x.sup, rel: x.rel.Union(y.rel)}
}

func (sa *sparseAlg) minus(x, y *sval) (*sval, int) {
	d := x.rel.Difference(y.rel)
	return &sval{sup: x.sup, rel: d}, d.Count()
}

func (sa *sparseAlg) equal(x, y *sval) bool { return x.rel.Equal(y.rel) }

func (sa *sparseAlg) empty(arity int) (*sval, error) {
	rel, err := relation.NewSparse(arity, sa.n)
	return stageSval(rel), err
}

func (sa *sparseAlg) full(int) (*sval, error) { return nil, errStagesOnly }

func (sa *sparseAlg) fromStage(s *relation.Sparse, _ int) (*sval, error) { return stageSval(s), nil }
func (sa *sparseAlg) stageOf(v *sval) *relation.Sparse                   { return v.rel }

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
	return stageSval(rel), nil
}

func (sa *sparseAlg) toSet(v *sval) *relation.Set { return v.rel.ToSet() }

// cursor streams the sorted, deduplicated head codes directly, skipping the
// Set round-trip.
func (sa *sparseAlg) cursor(v *sval) relation.Cursor { return v.rel.Cursor() }

func (sa *sparseAlg) pfpLimit(func(*sval) (*sval, error), int, *Options) (*sval, error) {
	return nil, errStagesOnly
}

func (sa *sparseAlg) mergeParams(_, _ *sval, _ []int) {}

func (sa *sparseAlg) count(v *sval) int        { return v.rel.Count() }
func (sa *sparseAlg) arity(v *sval) int        { return len(v.sup) }
func (sa *sparseAlg) touched(tuples int) int64 { return int64(tuples) }
func (sa *sparseAlg) bytes(v *sval) int64      { return 8*int64(v.rel.Count()+len(v.sup)) + 64 }
func (sa *sparseAlg) release(*sval)            {}

func (sa *sparseAlg) check(n int, sv *sval) error {
	if got, want := plan.AxisMask(sv.sup), sa.den.Support[n]; got != want || sv.neg != sa.den.Neg[n] {
		return fmt.Errorf("eval: internal: node %d support %b/neg=%v, analysis says %b/neg=%v",
			n, got, sv.neg, want, sa.den.Neg[n])
	}
	return nil
}

func (sa *sparseAlg) overBudget(what string, need float64) error {
	return fmt.Errorf("eval: %w: %s needs ~%.3g tuples, budget %d (raise Options.SparseBudget)",
		ErrSparseBudget, what, need, sa.budget)
}

// svalFromTuples builds a positive sval from a tuple stream whose column i
// carries axis axes[i]. Repeated axes select the diagonal: tuples whose
// repeated positions disagree are dropped, and each axis is stored once.
func (sa *sparseAlg) svalFromTuples(axes []int, each func(func(relation.Tuple))) (*sval, error) {
	sup := distinctSortedAxes(axes)
	bld, err := relation.NewSparseBuilder(len(sup), sa.n)
	if err != nil {
		return nil, err
	}
	buf := make(relation.Tuple, len(sup))
	var ferr error
	each(func(t relation.Tuple) {
		if ferr != nil {
			return
		}
		for i := range buf {
			buf[i] = -1
		}
		for i, ax := range axes {
			j := slices.Index(sup, ax)
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
// projected size is budget-checked up front.
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
		var err error
		rel, err = rel.CrossAxis(i)
		if err != nil {
			return nil, err
		}
	}
	if j != len(sv.sup) {
		return nil, fmt.Errorf("eval: internal: widening target %v does not cover support %v", target, sv.sup)
	}
	return &sval{sup: target, rel: rel, neg: sv.neg}, nil
}

// and evaluates conjunction by polarity.
func (sa *sparseAlg) and(a, b *sval) (*sval, error) {
	if !a.neg && !b.neg {
		return sa.joinSv(a, b)
	}
	if a.neg && !b.neg {
		a, b = b, a
	}
	sup := mergeAxes(a.sup, b.sup)
	wa, err := sa.widenTo(a, sup)
	if err != nil {
		return nil, err
	}
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
	return &sval{sup: sup, rel: wa.rel.Union(wb.rel), neg: true}, nil
}

// or evaluates disjunction by polarity.
func (sa *sparseAlg) or(a, b *sval) (*sval, error) {
	sup := mergeAxes(a.sup, b.sup)
	wa, err := sa.widenTo(a, sup)
	if err != nil {
		return nil, err
	}
	wb, err := sa.widenTo(b, sup)
	if err != nil {
		return nil, err
	}
	switch {
	case !a.neg && !b.neg:
		return &sval{sup: sup, rel: wa.rel.Union(wb.rel)}, nil
	case a.neg && b.neg:
		// ¬a ∨ ¬b = ¬(a ∧ b).
		return &sval{sup: sup, rel: wa.rel.Intersect(wb.rel), neg: true}, nil
	case a.neg:
		// ¬a ∨ b = ¬(a \ b).
		return &sval{sup: sup, rel: wa.rel.Difference(wb.rel), neg: true}, nil
	default:
		// a ∨ ¬b = ¬(b \ a).
		return &sval{sup: sup, rel: wb.rel.Difference(wa.rel), neg: true}, nil
	}
}

// joinSv is the natural join of two positive svals on their shared axes.
func (sa *sparseAlg) joinSv(a, b *sval) (*sval, error) {
	if slices.Equal(a.sup, b.sup) {
		return &sval{sup: a.sup, rel: a.rel.Intersect(b.rel)}, nil
	}
	if containsAxes(a.sup, b.sup) {
		return sa.filterSv(a, b, true)
	}
	if containsAxes(b.sup, a.sup) {
		return sa.filterSv(b, a, true)
	}
	return sa.hashJoin(a, b)
}

// filterSv is the (anti-)semijoin: keep the tuples of a whose projection
// onto f's support is in (keep) or not in (!keep) f's block. Requires
// f.sup ⊆ a.sup. The result reuses a's codes, so no budget check is needed.
func (sa *sparseAlg) filterSv(a, f *sval, keep bool) (*sval, error) {
	pos := make([]int, len(f.sup))
	for i, ax := range f.sup {
		p := slices.Index(a.sup, ax)
		if p < 0 {
			return nil, fmt.Errorf("eval: internal: filter axis %d outside support %v", ax, a.sup)
		}
		pos[i] = p
	}
	bld, err := relation.NewSparseBuilder(len(a.sup), sa.n)
	if err != nil {
		return nil, err
	}
	abuf := make(relation.Tuple, len(a.sup))
	fbuf := make(relation.Tuple, len(f.sup))
	a.rel.ForEachCode(func(c uint64) {
		a.rel.DecodeInto(c, abuf)
		for i, p := range pos {
			fbuf[i] = abuf[p]
		}
		if f.rel.Contains(fbuf) == keep {
			bld.AddCode(c)
		}
	})
	return &sval{sup: a.sup, rel: bld.Build()}, nil
}

// hashJoin joins two positive svals with genuinely incomparable supports:
// index the smaller side by its shared-axes key, probe with the larger.
func (sa *sparseAlg) hashJoin(a, b *sval) (*sval, error) {
	sup := mergeAxes(a.sup, b.sup)
	shared := sharedAxes(a.sup, b.sup)
	small, big := a, b
	if small.rel.Count() > big.rel.Count() {
		small, big = big, small
	}
	// Key codec: base-n packing of the shared axes (⊆ the full width, so the
	// key fits uint64 whenever full-width codes do).
	kst := make([]uint64, len(shared))
	s := uint64(1)
	for i := len(shared) - 1; i >= 0; i-- {
		kst[i] = s
		s *= uint64(sa.n)
	}
	keyOf := func(t relation.Tuple, pos []int) uint64 {
		var key uint64
		for i, p := range pos {
			key += uint64(t[p]) * kst[i]
		}
		return key
	}
	sPos := make([]int, len(shared))
	bPos := make([]int, len(shared))
	for i, ax := range shared {
		sPos[i] = slices.Index(small.sup, ax)
		bPos[i] = slices.Index(big.sup, ax)
	}
	idx := make(map[uint64][]uint64, small.rel.Count())
	sbuf := make(relation.Tuple, len(small.sup))
	small.rel.ForEachCode(func(c uint64) {
		small.rel.DecodeInto(c, sbuf)
		k := keyOf(sbuf, sPos)
		idx[k] = append(idx[k], c)
	})

	fromBig := make([]int, len(sup))
	fromSmall := make([]int, len(sup))
	for i, ax := range sup {
		fromBig[i] = slices.Index(big.sup, ax)
		fromSmall[i] = slices.Index(small.sup, ax)
	}
	bld, err := relation.NewSparseBuilder(len(sup), sa.n)
	if err != nil {
		return nil, err
	}
	out := make(relation.Tuple, len(sup))
	bbuf := make(relation.Tuple, len(big.sup))
	var ferr error
	big.rel.ForEachCode(func(c uint64) {
		if ferr != nil {
			return
		}
		big.rel.DecodeInto(c, bbuf)
		matches := idx[keyOf(bbuf, bPos)]
		if len(matches) == 0 {
			return
		}
		for i := range out {
			if fromBig[i] >= 0 {
				out[i] = bbuf[fromBig[i]]
			}
		}
		for _, sc := range matches {
			small.rel.DecodeInto(sc, sbuf)
			for i := range out {
				if fromBig[i] < 0 {
					out[i] = sbuf[fromSmall[i]]
				}
			}
			if err := bld.Add(out); err != nil {
				ferr = err
				return
			}
			if bld.Len() > sa.budget {
				ferr = sa.overBudget("join", float64(bld.Len()))
				return
			}
		}
	})
	if ferr != nil {
		return nil, ferr
	}
	return &sval{sup: sup, rel: bld.Build()}, nil
}

// quantSv applies ∃ or ∀ on one axis. An axis outside the support is a
// no-op: the value is cylindric there and the domain is nonempty.
func quantSv(kv *sval, axis int, forall bool) *sval {
	i := slices.Index(kv.sup, axis)
	if i < 0 {
		return kv
	}
	rest := slices.Delete(slices.Clone(kv.sup), i, i+1)
	// Under negative polarity the quantifiers swap roles on the stored
	// block: ∃x ¬φ = ¬∀x φ and ∀x ¬φ = ¬∃x φ.
	if forall != kv.neg {
		return &sval{sup: rest, rel: kv.rel.AllAxis(i), neg: kv.neg}
	}
	return &sval{sup: rest, rel: kv.rel.DropAxis(i), neg: kv.neg}
}

// materialize turns an sval into a plain positive Sparse with the given
// distinct columns (in the given order). cols must cover the support; the
// remaining columns become cylinders. A negative sval is complemented here —
// the one place deferred complements are forced — under the budget.
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
	rel := w.rel
	if sv.neg {
		need := float64(rel.SpaceSize()) - float64(rel.Count())
		if need > float64(sa.budget) {
			return nil, sa.overBudget("complement", need)
		}
		rel = rel.Complement()
	}
	if slices.Equal(cols, sorted) {
		return rel, nil
	}
	proj := make([]int, len(cols))
	for i, c := range cols {
		proj[i] = slices.Index(w.sup, c)
	}
	return rel.Project(proj), nil
}

// Axis-list helpers. Supports are small (≤ the query width), so linear scans
// beat any clever structure.

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
