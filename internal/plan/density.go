package plan

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/relation"
)

// Cost is what a route's running time is modelled as linear in: the node
// values constructed and two volumes. Densely: the words the kernels pass over
// (nᵏ/64 per node whatever it holds) and the bits atoms set cylindrifying
// their tuples; sparsely: the tuples read or written, and the tuples of the
// values a semi-naive stage merges its delta into.
type Cost [3]float64

// NS is c in nanoseconds under coef.
func (c Cost) NS(coef Cost) float64 { return c[0]*coef[0] + c[1]*coef[1] + c[2]*coef[2] }

func (c Cost) plus(o Cost) Cost     { return Cost{c[0] + o[0], c[1] + o[1], c[2] + o[2]} }
func (c Cost) times(k float64) Cost { return Cost{c[0] * k, c[1] * k, c[2] * k} }

// The coefficients, in nanoseconds: the reweighted least-squares fit of the
// model's totals to the committed crossover sweep (CROSSOVER_22.jsonl, `make
// crossover`; EXPERIMENTS.md "PR 22" has the residuals) — the one place the
// choice between representations is calibrated.
var (
	DenseCoef  = Cost{430, 11, 3.1}
	SparseCoef = Cost{190, 35, 17}
)

// simStages bounds the stages the sizing pass runs one fixpoint for, simBudget
// the node estimates of all of them (nested fixpoints multiply): past it a
// fixpoint is sized by its first stage.
const simStages, simBudget = 64, 4096

// Density is the per-node representation analysis of a plan against one
// domain size: which axes each node's value constrains (its support), how
// many tuples it is expected to hold, whether it can be evaluated sparsely at
// all, and what either representation is modelled to cost — so which one the
// run should take. A plan is domain-independent; Density is the per-run sizing
// pass, rerun on every evaluation: linear in the plan but for the fixpoints,
// whose stage loops it runs over the estimates.
type Density struct {
	// N is the domain size the analysis was computed for; K the plan width.
	N, K int
	// SpaceFeasible reports nᴷ ≤ relation.MaxDenseBits: whether the dense
	// full-width engine can run at all.
	SpaceFeasible bool

	// Support[n] is the axis bitmask outside of which node n's value is
	// cylindric: the axes a sparse materialization must store.
	Support []uint64
	// Neg[n]: the sparse evaluator represents node n negatively, as the
	// complement block over its support — the polarity is static.
	Neg []bool
	// Est[n] is the estimated stored-block size (tuples) of node n's sparse
	// value; for a node inside a fixpoint, at the fixpoint's last stage.
	Est []float64

	// SparseOK reports that every node is sparse-evaluable, so the all-sparse
	// executor can run the plan; Blocker names the first obstruction otherwise.
	SparseOK bool
	Blocker  string
	RootEst  float64

	// DenseCost and SparseCost are the modelled times, in nanoseconds, of the
	// all-dense and of the all-sparse route (+Inf without one): the products of
	// DenseFeat and SparseFeat.
	DenseCost, SparseCost float64
	DenseFeat, SparseFeat Cost

	// DeltaSparse[b] reports that binder b's semi-naive delta regime is
	// admissible under sparse evaluation: DeltaOK and every dirty node and
	// dirty-node operand is positively represented. Loop[b] models its loop.
	DeltaSparse []bool
	Loop        []LoopCost

	p       *Plan
	card    func(string) int
	capable []bool
	work    []float64 // sparse tuples read and written by one construction of the node
	dense   []Cost    // one construction of the node: a fixpoint's is its whole loop
	sparse  []Cost
	stage   []float64 // binder → the stage size its recursion atoms are estimated at
	budget  int
	words   float64
}

// LoopCost models one fixpoint's stage loop on both routes: what a run
// compares its observed stages against to tell that it is on the wrong route
// (eval's hand-off). Stages is the modelled stage count; a dense stage costs
// DenseStage whatever it holds, a sparse one that adds delta tuples to a stage
// of count SparseStage + SparseDelta·delta + SparseCount·count; ToDense and
// ToSparse are the price of a move: a run set up, and the loop's hoisted
// frontier re-established in the other representation.
type LoopCost struct {
	Stages, DenseStage                    float64
	SparseStage, SparseDelta, SparseCount float64
	ToDense, ToSparse                     float64
}

// SparseNS is the modelled time of one sparse stage.
func (l *LoopCost) SparseNS(count, delta int) float64 {
	return l.SparseStage + l.SparseDelta*float64(delta) + l.SparseCount*float64(count)
}

// Density computes the representation analysis of p over a domain of n
// elements. card reports a database relation's tuple count (it may return 0
// for unknown relations; estimates degrade gracefully).
func (p *Plan) Density(n int, card func(rel string) int) *Density {
	k, nodes := len(p.Vars), len(p.Nodes)
	d := &Density{
		N: n, K: k, p: p, card: card, budget: simBudget, SparseOK: true,
		Support: make([]uint64, nodes), Neg: make([]bool, nodes), Est: make([]float64, nodes),
		capable: make([]bool, nodes), work: make([]float64, nodes),
		dense: make([]Cost, nodes), sparse: make([]Cost, nodes),
		stage: make([]float64, p.NumBinders), Loop: make([]LoopCost, p.NumBinders),
		DeltaSparse: make([]bool, p.NumBinders),
	}
	d.words = d.pow(k) / 64
	d.SpaceFeasible = feasiblePow(n, k, relation.MaxDenseBits)
	if !feasiblePow(n, k, int(relation.MaxSparseCode>>1)) {
		d.block(fmt.Sprintf("code space %d^%d exceeds sparse code limit", n, k))
	}
	// Node ids ascend topologically, so one forward pass sees children first;
	// a fixpoint node then reruns its dirty nodes, stage by stage.
	for id := range p.Nodes {
		d.node(id)
	}
	if !d.capable[p.Root] {
		d.block("plan contains a node without a sparse kernel")
	}
	d.RootEst = d.Est[p.Root]
	// The two routes' totals: the root projected onto the head columns, and every
	// recursion-free node once (the others are charged to their fixpoint's loop).
	d.DenseFeat, d.SparseFeat = Cost{1, d.words, 0}, Cost{1, d.RootEst, 0}
	for id := range p.Nodes {
		if p.Deps[id] == 0 {
			d.DenseFeat, d.SparseFeat = d.DenseFeat.plus(d.dense[id]), d.SparseFeat.plus(d.sparse[id])
		}
	}
	d.DenseCost, d.SparseCost = d.DenseFeat.NS(DenseCoef), d.SparseFeat.NS(SparseCoef)
	if !d.SparseOK {
		d.SparseCost = math.Inf(1)
	}
	return d
}

func (d *Density) block(reason string) {
	if d.SparseOK {
		d.SparseOK, d.Blocker = false, reason
	}
}

func (d *Density) pow(axes int) float64 { return math.Pow(float64(d.N), float64(axes)) }

// fill is the expected number of distinct cells hit by that many random draws
// into a space: what a join or a union keeps once duplicates fold.
func fill(draws, space float64) float64 {
	if space <= 0 || draws <= 0 {
		return 0
	}
	return space * -math.Expm1(-draws/space)
}

// node computes node id's support, polarity, estimate and costs from its kids'.
func (d *Density) node(id int) {
	p, nd, nf := d.p, &d.p.Nodes[id], math.Max(float64(d.N), 1)
	d.budget--
	d.dense[id] = Cost{1, d.words, 0}
	est, work := 0.0, 0.0
	switch nd.Op {
	case OpAtom:
		axes := nd.Args
		if nd.Binder >= 0 {
			axes = p.AtomAxes(id)
		}
		sup := AxisMask(axes)
		d.Support[id] = sup
		if nd.Binder >= 0 {
			est = d.stage[nd.Binder]
		} else {
			est = float64(d.card(nd.Rel))
		}
		work = est
		// Densely every tuple is cylindrified over the axes it leaves free.
		d.dense[id][2] = est * d.pow(d.K-bits.OnesCount64(sup))
		// Repeated argument axes select a diagonal: n times fewer per merge.
		for i := bits.OnesCount64(sup); i < len(axes); i++ {
			est /= nf
		}
		d.capable[id] = true
	case OpEq:
		if nd.L == nd.R {
			est = 1
		} else {
			d.Support[id], est = 1<<uint(nd.L)|1<<uint(nd.R), nf
		}
		work = est
		d.capable[id] = true
	case OpConst:
		if nd.Truth {
			est = 1
		}
		d.capable[id] = true
	case OpNot:
		// The stored block is the child's with the polarity flag flipped.
		kid := nd.Kids[0]
		d.Support[id], d.Neg[id], est = d.Support[kid], !d.Neg[kid], d.Est[kid]
		d.capable[id] = d.capable[kid]
	case OpAnd, OpOr:
		l, r := nd.Kids[0], nd.Kids[1]
		sup := d.Support[l] | d.Support[r]
		d.Support[id] = sup
		space := d.pow(bits.OnesCount64(sup))
		wl := d.Est[l] * d.pow(bits.OnesCount64(sup&^d.Support[l]))
		wr := d.Est[r] * d.pow(bits.OnesCount64(sup&^d.Support[r]))
		negL, negR := d.Neg[l], d.Neg[r]
		switch {
		case nd.Op == OpAnd && !negL && !negR:
			// The natural join reads both sides and writes every match.
			matches := d.Est[l] * d.Est[r] / d.pow(bits.OnesCount64(d.Support[l]&d.Support[r]))
			est, work = fill(matches, space), d.Est[l]+d.Est[r]+matches
		case nd.Op == OpAnd && negL != negR:
			// pos ∧ ¬neg: the positive side, widened, antijoined.
			if est = wl; negL {
				est = wr
			}
			work = 2 * est
		default:
			// Every other case widens both sides to the union support:
			// ¬a ∧ ¬b = ¬(a ∨ b), a ∨ b, ¬a ∨ ¬b = ¬(a ∧ b), ¬a ∨ b = ¬(a \ b).
			d.Neg[id] = negL || negR
			switch {
			case negL == negR && (nd.Op == OpAnd) == negL:
				est = fill(wl+wr, space)
			case negL == negR:
				est = wl * wr / math.Max(space, 1)
			case negL:
				est = wl
			default:
				est = wr
			}
			work = wl + wr + est
		}
		d.capable[id] = d.capable[l] && d.capable[r]
	case OpExists, OpForall:
		kid := nd.Kids[0]
		sup := d.Support[kid] &^ (1 << uint(nd.Axis))
		d.Support[id], d.Neg[id] = sup, d.Neg[kid]
		// ∃ folds the child's block onto the remaining axes; ∀ keeps at most
		// one group per n child tuples. Negative polarity swaps the roles.
		est = fill(d.Est[kid], d.pow(bits.OnesCount64(sup)))
		if (nd.Op == OpForall) != d.Neg[kid] {
			est = math.Min(est, d.Est[kid]/nf)
		}
		work = d.Est[kid] + est
		d.capable[id] = d.capable[kid]
	case OpFix:
		d.fix(id, nd.Fix)
		return
	}
	d.Est[id], d.work[id], d.sparse[id] = est, work, Cost{1, work, 0}
}

// fix sizes a fixpoint by running its stage loop over the estimates: the
// recursion atoms start at the empty (GFP: the full) stage, the dirty nodes
// are re-estimated, the body's estimate is the next stage, until a stage moves
// less than one tuple; and prices the loop on either route.
func (d *Density) fix(id int, fx *FixInfo) {
	p, b := d.p, fx.Binder
	d.Support[id] = AxisMask(fx.ArgAxes) | AxisMask(fx.ParamAxes)
	ok := d.capable[fx.Body]
	if fx.Op != logic.LFP && fx.Op != logic.IFP {
		ok = false
		d.block(fmt.Sprintf("%s fixpoint %s requires dense evaluation (sparse stages are bottom-up only)", fx.Op, fx.Rel))
	}
	if d.Neg[fx.Body] {
		ok = false
		d.block(fmt.Sprintf("fixpoint %s body is negatively represented; stage extraction would complement every stage", fx.Rel))
	}
	if d.Support[fx.Body]&^AxisMask(fx.ExtCols) != 0 {
		// An enclosing binder's parameters, read through its recursion atoms.
		ok = false
		d.block(fmt.Sprintf("fixpoint %s body constrains axes outside its stage columns", fx.Rel))
	}
	d.capable[id] = ok

	// Sparse semi-naive admissibility: an all-positive dirty region.
	delta := p.DeltaOK[b]
	for _, n := range p.Dirty[b] {
		delta = delta && !d.Neg[n]
		for _, kid := range p.Nodes[n].Kids {
			delta = delta && !d.Neg[kid]
		}
	}
	d.DeltaSparse[b] = delta

	space := d.pow(p.ExtArity(b))
	widen := d.pow(p.ExtArity(b) - bits.OnesCount64(d.Support[fx.Body]))
	cur := 0.0
	if fx.Op == logic.GFP {
		cur = space
	}
	lc := &d.Loop[b]
	*lc = LoopCost{}
	var sumCount float64
	for lc.Stages < simStages && (d.budget > 0 || lc.Stages == 0) {
		d.stage[b] = cur
		for _, n := range p.Dirty[b] {
			d.node(n)
		}
		next := math.Min(d.Est[fx.Body]*math.Max(widen, 1), space)
		if fx.Op == logic.LFP || fx.Op == logic.IFP {
			next = math.Max(next, cur)
		}
		lc.Stages++
		sumCount += next
		moved := math.Abs(next - cur)
		if cur = next; moved < 1 {
			break
		}
	}
	final := math.Max(cur, 1)

	// One stage constructs the scheduled nodes and extracts the next stage
	// from the body: a projection densely, a block rewrite sparsely.
	denseStage, fixed := Cost{1, d.words, 0}, Cost{1, 0, 0}
	var perDelta, perCount float64
	for _, n := range p.Sched[b] {
		denseStage = denseStage.plus(d.dense[n])
		nd := &p.Nodes[n]
		if nd.Op == OpFix || !delta {
			fixed = fixed.plus(d.sparse[n]) // a nested loop, or a full stage: rerun whole
			continue
		}
		fixed[0]++
		perDelta += d.work[n]
		perCount += d.Est[n]
		for i, kid := range nd.Kids {
			// A delta joined with a side that has axes of its own scans that
			// side: every stage, whatever the delta holds.
			if other := nd.Kids[len(nd.Kids)-1-i]; nd.Op == OpAnd && p.Deps[kid]&(1<<uint(b)) == 0 &&
				d.Support[kid]&^d.Support[other] != 0 {
				fixed[1] += d.Est[kid]
				perDelta -= d.Est[kid]
			}
		}
	}
	perDelta = math.Max(perDelta, 0)
	lc.DenseStage = denseStage.NS(DenseCoef)
	lc.SparseStage = fixed.NS(SparseCoef)
	if delta {
		lc.SparseDelta = perDelta / final * SparseCoef[1]
		lc.SparseCount = perCount / final * SparseCoef[2]
	}
	// A move sets up a run (one empty construction per plan node).
	lc.ToDense, lc.ToSparse = float64(len(p.Nodes))*DenseCoef[0], float64(len(p.Nodes))*SparseCoef[0]
	for _, n := range p.PreEval[b] {
		lc.ToDense += d.dense[n].NS(DenseCoef)
		lc.ToSparse += d.sparse[n].NS(SparseCoef)
	}
	if fx.Op == logic.PFP {
		lc.Stages *= d.pow(len(fx.ParamAxes)) // one loop per parameter assignment
	}

	// The application reads the last stage through its argument axes.
	d.Est[id], d.work[id] = cur, cur
	d.dense[id] = denseStage.times(lc.Stages).plus(Cost{1, d.words, 0})
	d.sparse[id] = fixed.times(lc.Stages).plus(Cost{1, cur, 0})
	if delta {
		d.sparse[id][1] += perDelta
		d.sparse[id][2] += perCount / final * sumCount
	}
}

// AxisMask is the bitmask of a list of axes.
func AxisMask(axes []int) (m uint64) {
	for _, a := range axes {
		m |= 1 << uint(a)
	}
	return m
}

// feasiblePow reports nᵏ ≤ limit without overflowing.
func feasiblePow(n, k, limit int) bool {
	if n == 0 || k == 0 {
		return true
	}
	size := 1
	for i := 0; i < k; i++ {
		if size > limit/n {
			return false
		}
		size *= n
	}
	return true
}
