// Package plan compiles a validated query body into a DAG of
// relational-algebra nodes over full-width dense relations — the compiled
// counterpart of the tree-walking Proposition 3.1 evaluator in
// internal/eval.
//
// Compilation performs three static analyses the interpreter cannot:
//
//   - Common-subexpression elimination. Structurally identical subformulas
//     are hash-consed to a single DAG node, so a subformula occurring twice
//     (textually or through CSE across fixpoint bodies) is evaluated once.
//     Recursion-relation atoms participate with their binder identity, not
//     their name: two sibling fixpoints that both bind S produce distinct
//     atom nodes, so a value computed under one binder can never be replayed
//     under the other (the stale-memo hazard that internal/eval/monotone.go
//     documents).
//
//   - Dependency analysis. Every node carries the set of fixpoint binders
//     whose current stage value it (transitively) reads. A node with an
//     empty set is recursion-free and is hoisted: the executor evaluates it
//     exactly once per query, no matter how many fixpoint iterations re-visit
//     it. Per binder, Dirty lists the nodes that must be re-evaluated when
//     that binder's stage advances — everything else is served from the DAG
//     value cache.
//
//   - Delta admissibility. A binder whose dirty set consists solely of
//     monotone operators (recursion atoms, ∧, ∨, ∃, ∀) supports semi-naive
//     evaluation: stage deltas can be pushed through the dirty nodes instead
//     of recomputing them, the tuple-level reading of the paper's footnote-5
//     l·nᵏ observation and the discipline of semi-naive Datalog
//     evaluation.
//
// The package is purely symbolic (variables are resolved to axis numbers of
// the plan's space, which has as many axes as the widest binder keeps
// variables live: a name is not an axis); execution lives in internal/eval's
// Compiled engine.
package plan

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/logic"
)

// Op enumerates the DAG node kinds.
type Op int

const (
	// OpAtom is a relational atom: a database relation when Binder < 0,
	// or the current stage of a fixpoint recursion relation when Binder ≥ 0.
	OpAtom Op = iota
	// OpEq is the diagonal { t | t_L = t_R }.
	OpEq
	// OpConst is a propositional constant (Full or Empty).
	OpConst
	// OpNot complements its child. After NNF it occurs only over database
	// atoms, equalities, and PFP/IFP applications.
	OpNot
	// OpAnd intersects its two children.
	OpAnd
	// OpOr unions its two children.
	OpOr
	// OpExists quantifies Axis existentially.
	OpExists
	// OpForall quantifies Axis universally.
	OpForall
	// OpFix is a fixpoint application; details in Fix.
	OpFix
)

// MaxBinders bounds the number of fixpoint binders a plan may contain:
// binder dependency sets are 64-bit masks.
const MaxBinders = 64

// Node is one DAG node. All fields are immutable after Compile.
type Node struct {
	Op   Op
	Kids []int // child node ids (empty for leaves; {body} for OpFix)

	// OpAtom:
	Rel    string
	Args   []int // argument axes in the full-width space
	Binder int   // -1 for database atoms, else binder id

	// OpEq:
	L, R int

	// OpConst:
	Truth bool

	// OpExists / OpForall:
	Axis int

	// OpFix:
	Fix *FixInfo
}

// FixInfo is the symbolic description of a fixpoint application
// [op Rel(vars). body](args).
type FixInfo struct {
	Op logic.FixOp
	// Rel is the recursion relation's name, kept for observability (the
	// eval.Observer's stage events name the fixpoint they belong to).
	Rel    string
	Binder int
	Body   int
	// VarAxes are the recursion-tuple axes; ParamAxes the parameter axes
	// (free individual variables of the body besides the recursion tuple —
	// the extension rule of eval.BottomUp — in axis order); ExtCols is
	// VarAxes followed by ParamAxes, the stage-extraction projection.
	VarAxes   []int
	ParamAxes []int
	ExtCols   []int
	// ArgAxes are the application argument axes.
	ArgAxes []int
	// ExtArity is len(VarAxes)+len(ParamAxes), the extended stage arity for
	// LFP/GFP/IFP binding. PFP binds stages of arity len(VarAxes) and pins
	// the parameters per sweep assignment instead.
	ExtArity int
	// Scope is the bitmask of enclosing binders — the binders whose stage
	// loops are running whenever this fixpoint evaluates. A node is safe to
	// read outside this fixpoint's own loop only if its dependencies are
	// contained in Scope (a dependency on a binder nested inside the body
	// means the node is only meaningful inside that nested loop).
	Scope uint64
}

// Plan is a compiled query body. Node ids are assigned bottom-up, so
// ascending id order is a topological order of the DAG.
type Plan struct {
	// Query is the source query (validated against the database at run time).
	Query logic.Query
	// WrittenWidth is Query's width, the number of names it writes: what
	// the wire reports, whatever the plan's own width, len(Vars).
	WrittenWidth int
	// Body is the negation normal form of Query's body after the miniscoping
	// pass (scope): the formula Nodes lower. Narrowed reports that a region
	// of it is scoped narrower than written.
	Body     logic.Formula
	Narrowed bool
	// Vars names the axes for display: a head variable its own, another axis
	// the first variable bound to it. HeadAxes is the answer projection.
	Vars     []logic.Var
	HeadAxes []int

	Nodes []Node
	Root  int

	// NumBinders is the number of fixpoint binders; FixOf maps a binder id to
	// its OpFix node.
	NumBinders int
	FixOf      []int

	// Deps[n] is the bitmask of binders whose stage value node n transitively
	// reads. Deps[n] == 0 marks a recursion-free (hoisted) node.
	Deps []uint64

	// Dirty[b] lists, in ascending (topological) order, the nodes that read
	// binder b's stage and must be re-evaluated when it advances.
	Dirty [][]int

	// Sched[b] is Dirty[b] minus the nodes covered by a nested fixpoint that
	// is itself dirty for b (those are recomputed inside that fixpoint's own
	// stage loop). It is the task list of the semi-naive delta pass.
	Sched [][]int

	// PreEval[b] lists the nodes binder b's stage loop reads but never
	// recomputes: the hoisted frontier, guaranteed valid before the loop
	// starts and reused on every iteration.
	PreEval [][]int

	// DeltaOK[b] reports that binder b admits semi-naive delta evaluation:
	// its operator is LFP or IFP and every dirty node is a monotone operator,
	// so stage deltas can be unioned through the dirty set.
	DeltaOK []bool

	// Maint is the incremental-maintenance profile (maintain.go): the
	// relation footprint, the seedable binders, and per-relation delta
	// polarity safety.
	Maint *MaintInfo

	// Closed[n] is set for the nodes whose values evaluations share (closed.go).
	Closed []*Closed

	// CSEHits counts hash-cons hits during compilation: subformula
	// occurrences that were folded onto an existing node.
	CSEHits int
}

// MinimizedFrom is WrittenWidth when the plan's len(Vars) undercuts it, by
// the liveness allocation of axes (bind), by the scoping of its ∃∧
// regions (scope), or both; else 0.
func (p *Plan) MinimizedFrom() int {
	if len(p.Vars) < p.WrittenWidth {
		return p.WrittenWidth
	}
	return 0
}

// ExtArity returns the stage arity binder b is bound at: the extended arity
// for LFP/GFP/IFP, the recursion-tuple arity for PFP.
func (p *Plan) ExtArity(b int) int {
	fx := p.Nodes[p.FixOf[b]].Fix
	if fx.Op == logic.PFP {
		return len(fx.VarAxes)
	}
	return fx.ExtArity
}

// AtomAxes returns the full axis list a recursion atom node reads the stage
// through: its own argument axes, extended by the binder's parameter axes for
// the operators that bind extended stages.
func (p *Plan) AtomAxes(n int) []int {
	nd := &p.Nodes[n]
	fx := p.Nodes[p.FixOf[nd.Binder]].Fix
	if fx.Op == logic.PFP || len(fx.ParamAxes) == 0 {
		return nd.Args
	}
	axes := make([]int, 0, len(nd.Args)+len(fx.ParamAxes))
	axes = append(axes, nd.Args...)
	return append(axes, fx.ParamAxes...)
}

// compiler carries the lowering state.
type compiler struct {
	vars  []logic.Var // axis display names (Plan.Vars)
	nodes []Node
	deps  []uint64
	cons  map[uint64]int // structural hash → node id; a collision probes hash+1
	fixOf []int
	hits  int
	ints  []int // arena the nodes' Kids and Args are cut from
	// env is the stack of variables in scope with their axes, innermost last.
	env []scoped
	// scope is the stack of recursion relations in force, innermost last.
	scope []binding
	// scopeMask is the bitmask of binders currently being lowered — the
	// enclosing scope recorded into each FixInfo.
	scopeMask uint64
	wide      bool // a binder found every axis below 64 live
	scoper    scoper
	buf       struct { // first backing arrays: a small text allocates none of these
		env   [8]scoped
		scope [2]binding
	}
}

// scoped is a variable in scope and its axis (the scoping pass: its id).
type scoped struct {
	v    logic.Var
	axis int
}

// binding is a recursion relation in scope and the parameter axes its atoms
// read the extended stage through, listed and as a mask (live).
type binding struct {
	rel    string
	binder int
	params []int
	live   uint64
}

// Compile lowers q's body to a DAG. The body is first brought to negation
// normal form (second-order quantifiers are rejected — like eval.BottomUp,
// the compiled engine evaluates FO, FP, IFP and PFP only), each ∃ then
// ranges over the conjuncts that need it (scope), and lower gives axes to
// variables by liveness (bind).
func Compile(q logic.Query) (*Plan, error) {
	if err := q.Validate(nil); err != nil {
		return nil, err
	}
	body, err := logic.NNF(q.Body)
	if err != nil {
		return nil, err
	}
	var soErr error
	n, size := 0, 0
	logic.Walk(body, func(f logic.Formula) {
		size++
		if _, ok := f.(logic.Fix); ok {
			n++
		} else if so, ok := f.(logic.SOQuant); ok && soErr == nil {
			soErr = fmt.Errorf("plan: second-order quantifier %s is not compilable; use the eso package", so.Rel)
		}
	})
	if soErr != nil {
		return nil, soErr
	}
	if n > MaxBinders {
		return nil, fmt.Errorf("plan: more than %d fixpoint binders", MaxBinders)
	}
	c := &compiler{cons: make(map[uint64]int, size), nodes: make([]Node, 0, size), deps: make([]uint64, 0, size)}
	body, narrowed := c.scoper.scope(q.Head, body)
	c.env, c.scope = c.buf.env[:0], c.buf.scope[:0]
	c.vars = append(make([]logic.Var, 0, len(q.Head)+2), q.Head...)
	for i, v := range q.Head {
		c.env = append(c.env, scoped{v, i})
	}
	root := c.lower(body)
	if c.wide || len(q.Head) > 64 {
		return nil, fmt.Errorf("plan: more than 64 variables live at once")
	}
	var head [8]int
	p := &Plan{
		Query:        q,
		WrittenWidth: q.Width(),
		Body:         body,
		Narrowed:     narrowed,
		Vars:         c.vars,
		HeadAxes:     c.keep(c.axesOf(q.Head, head[:0])),
		Nodes:        c.nodes,
		Root:         root,
		NumBinders:   len(c.fixOf),
		FixOf:        c.fixOf,
		Deps:         c.deps,
		CSEHits:      c.hits,
	}
	p.analyze()
	return p, nil
}

// bind gives v the lowest axis not in used, the axes live at its binder:
// the head's take 0, 1, …, and a variable bound by ∃, ∀ or a fixpoint tuple
// the lowest axis no variable live at its binder holds (reads); a fixpoint's
// parameters are the axes live at it. Prop 3.1 prices a plan by its width,
// and no axis depends on a name; an axis is named by its head variable or the
// first variable bound to it. A plan is wider than its text's names only
// where a binder under a recursion atom rebinds one of its parameters' names:
// both values are live there.
func (c *compiler) bind(v logic.Var, used uint64) int {
	a := bits.TrailingZeros64(^used)
	if a == 64 {
		c.wide, a = true, 63
	} else if a == len(c.vars) {
		c.vars = append(c.vars, v)
	}
	c.env = append(c.env, scoped{v, a})
	return a
}

// axis returns the axis of v, innermost binding first. Every variable a valid
// query's body reads is in scope.
func (c *compiler) axis(v logic.Var) int {
	for i := len(c.env) - 1; i >= 0; i-- {
		if c.env[i].v == v {
			return c.env[i].axis
		}
	}
	panic("plan: variable " + string(v) + " not in scope")
}

// axesOf appends the axes of vs to dst.
func (c *compiler) axesOf(vs []logic.Var, dst []int) []int {
	for _, v := range vs {
		dst = append(dst, c.axis(v))
	}
	return dst
}

// keep copies s into the arena: a plan's index slices share a few backing
// arrays instead of taking one allocation each.
func (c *compiler) keep(s []int) []int {
	if cap(c.ints)-len(c.ints) < len(s) {
		c.ints = make([]int, 0, max(64, len(s)))
	}
	c.ints = append(c.ints, s...)
	return c.ints[len(c.ints)-len(s) : len(c.ints) : len(c.ints)]
}

// add appends n with args and kids kept in the arena and the given
// dependency mask. (They are passed beside n, not in it, so that a caller's
// slices stay on its stack.)
func (c *compiler) add(n Node, deps uint64, args []int, kids ...int) int {
	n.Args, n.Kids = c.keep(args), c.keep(kids)
	c.nodes = append(c.nodes, n)
	c.deps = append(c.deps, deps)
	return len(c.nodes) - 1
}

// intern hash-conses a node: an existing structurally identical node is
// reused, otherwise the node is added.
func (c *compiler) intern(n Node, deps uint64, args []int, kids ...int) int {
	h := uint64(14695981039346656037) // FNV-1a over every field
	for _, x := range [...]int{int(n.Op), n.Binder, n.L, n.R, n.Axis, len(args)} {
		h = (h ^ uint64(x)) * 1099511628211
	}
	for _, xs := range [2][]int{args, kids} {
		for _, x := range xs {
			h = (h ^ uint64(x)) * 1099511628211
		}
	}
	for i := 0; i < len(n.Rel); i++ {
		h = (h ^ uint64(n.Rel[i])) * 1099511628211
	}
	if n.Truth {
		h++
	}
	for ; ; h++ {
		id, ok := c.cons[h]
		if !ok {
			break
		}
		if o := &c.nodes[id]; o.Op == n.Op && o.Rel == n.Rel && o.Binder == n.Binder && o.L == n.L && o.R == n.R &&
			o.Truth == n.Truth && o.Axis == n.Axis && slices.Equal(o.Args, args) && slices.Equal(o.Kids, kids) {
			c.hits++
			return id
		}
	}
	id := c.add(n, deps, args, kids...)
	c.cons[h] = id
	return id
}

// lower compiles f, a body in negation normal form with at most MaxBinders
// fixpoints and no second-order quantifier.
func (c *compiler) lower(f logic.Formula) int {
	switch g := f.(type) {
	case logic.Atom:
		var buf [8]int
		args := c.axesOf(g.Args, buf[:0])
		binder, deps := -1, uint64(0)
		for i := len(c.scope) - 1; i >= 0; i-- {
			if s := c.scope[i]; s.rel == g.Rel {
				binder, deps = s.binder, 1<<uint(s.binder)
				break
			}
		}
		return c.intern(Node{Op: OpAtom, Rel: g.Rel, Binder: binder}, deps, args)
	case logic.Eq:
		var buf [2]int
		ax := c.axesOf([]logic.Var{g.L, g.R}, buf[:0])
		return c.intern(Node{Op: OpEq, L: min(ax[0], ax[1]), R: max(ax[0], ax[1])}, 0, nil) // symmetric
	case logic.Truth:
		return c.intern(Node{Op: OpConst, Truth: g.Value}, 0, nil)
	case logic.Not:
		kid := c.lower(g.F)
		return c.intern(Node{Op: OpNot}, c.deps[kid], nil, kid)
	case logic.Binary:
		l, r, op := c.lower(g.L), c.lower(g.R), OpOr
		if g.Op == logic.AndOp {
			op = OpAnd
		}
		if r < l {
			l, r = r, l // commutative: canonicalize for CSE
		}
		return c.intern(Node{Op: op}, c.deps[l]|c.deps[r], nil, l, r)
	case logic.Quant:
		op := OpExists
		if g.Kind == logic.ForallQ {
			op = OpForall
		}
		a := c.bind(g.V, reads(f, &c.env, &c.scope))
		kid := c.lower(g.F)
		c.env = c.env[:len(c.env)-1]
		return c.intern(Node{Op: op, Axis: a}, c.deps[kid], nil, kid)
	}
	return c.lowerFix(f.(logic.Fix))
}

func (c *compiler) lowerFix(g logic.Fix) int {
	binder := len(c.fixOf)
	c.fixOf = append(c.fixOf, -1) // placeholder until the node exists
	// The parameters are the axes the body reads from around it, in axis
	// order; the tuple takes the lowest others.
	n := len(c.env)
	for _, v := range g.Vars {
		c.env = append(c.env, scoped{v, -1})
	}
	c.scope = append(c.scope, binding{rel: g.Rel})
	live := reads(g.Body, &c.env, &c.scope)
	c.env = c.env[:n]
	var buf [8]int
	extCols, used := buf[:0], live
	for _, v := range g.Vars {
		a := c.bind(v, used)
		extCols, used = append(extCols, a), used|1<<a
	}
	for m := live; m != 0; m &= m - 1 {
		extCols = append(extCols, bits.TrailingZeros64(m))
	}
	extCols = c.keep(extCols)
	varAxes, paramAxes := extCols[:len(g.Vars):len(g.Vars)], extCols[len(g.Vars):]

	enclosing := c.scopeMask
	c.scope[len(c.scope)-1] = binding{g.Rel, binder, paramAxes, live}
	c.scopeMask |= 1 << uint(binder)
	body := c.lower(g.Body)
	c.scopeMask = enclosing
	c.scope = c.scope[:len(c.scope)-1]
	c.env = c.env[:n]

	// A PFP whose body has no negative occurrence of its relation climbs an
	// increasing stage chain from ∅, so its limit is the least fixpoint:
	// it runs as an LFP, semi-naive and seedable, under the lfp spelling's
	// key. Polarity counts an occurrence inside a nested PFP or IFP body as
	// both polarities, so only a body monotone in g.Rel is lowered.
	op := g.Op
	if op == logic.PFP {
		if _, neg := logic.Polarity(g.Body, g.Rel); !neg {
			op = logic.LFP
		}
	}
	fx := &FixInfo{
		Op:        op,
		Rel:       g.Rel,
		Binder:    binder,
		Body:      body,
		VarAxes:   varAxes,
		ParamAxes: paramAxes,
		ExtCols:   extCols,
		ArgAxes:   c.keep(c.axesOf(g.Args, buf[:0])),
		ExtArity:  len(extCols),
		Scope:     enclosing,
	}
	// Binder ids are fresh per occurrence: fix nodes are never hash-consed.
	id := c.add(Node{Op: OpFix, Fix: fx}, c.deps[body]&^(1<<uint(binder)), nil, body)
	c.fixOf[binder] = id
	return id
}

// analyze derives the per-binder evaluation structures: dirty lists, hoisted
// frontiers, delta task lists, and delta admissibility.
func (p *Plan) analyze() {
	nb := p.NumBinders
	lists := make([][]int, 3*nb)
	p.Dirty, p.Sched, p.PreEval = lists[:nb:nb], lists[nb:2*nb:2*nb], lists[2*nb:]
	p.DeltaOK = make([]bool, nb)
	// cut returns an empty list with room for n, from a shared chunk.
	var ints []int
	cut := func(n int) []int {
		if cap(ints)-len(ints) < n {
			ints = make([]int, 0, max(4*len(p.Nodes), n))
		}
		ints = ints[:len(ints)+n]
		return ints[len(ints)-n : len(ints)-n : len(ints)]
	}
	var count [MaxBinders]int
	for _, d := range p.Deps {
		for ; d != 0; d &= d - 1 {
			count[bits.TrailingZeros64(d)]++
		}
	}
	for b := range p.Dirty {
		p.Dirty[b] = cut(count[b])
	}
	for n, d := range p.Deps {
		for ; d != 0; d &= d - 1 {
			b := bits.TrailingZeros64(d)
			p.Dirty[b] = append(p.Dirty[b], n)
		}
	}

	// reads[f] — nodes a fix node's stage loop consults without recomputing.
	// A node qualifies only if its dependencies lie within the fix node's
	// enclosing scope: depending on this binder means it is dirty, and
	// depending on a binder nested inside the body means it only has a value
	// inside that nested loop — neither may be hoisted. Fix nodes are created
	// after their bodies, so ascending id order processes inner fixpoints
	// first. mark[m] is 1 + the fix node m was last listed for.
	reads := make([][]int, len(p.Nodes))
	mark := make([]int, len(p.Nodes))
	for f := range p.Nodes {
		fx := p.Nodes[f].Fix
		if fx == nil {
			continue
		}
		var rs []int
		read := func(m int) {
			if p.Deps[m]&^fx.Scope == 0 && mark[m] != f+1 {
				mark[m] = f + 1
				rs = append(rs, m)
			}
		}
		read(fx.Body)
		for _, d := range p.Dirty[fx.Binder] {
			kids := p.Nodes[d].Kids
			if p.Nodes[d].Op == OpFix {
				kids = reads[d]
			}
			for _, m := range kids {
				read(m)
			}
		}
		slices.Sort(rs)
		reads[f] = rs
	}

	for b := 0; b < nb; b++ {
		fixNode := p.FixOf[b]
		p.PreEval[b] = reads[fixNode]

		// covered: binders whose fix node is itself dirty for b — their dirty
		// subtrees are recomputed inside that nested loop, not scheduled here.
		var covered uint64
		for _, d := range p.Dirty[b] {
			if p.Nodes[d].Op == OpFix {
				covered |= 1 << uint(p.Nodes[d].Fix.Binder)
			}
		}
		sched := cut(len(p.Dirty[b]))
		for _, n := range p.Dirty[b] {
			if p.Deps[n]&covered == 0 {
				sched = append(sched, n)
			}
		}
		p.Sched[b] = sched

		op := p.Nodes[fixNode].Fix.Op
		p.DeltaOK[b] = op == logic.LFP || op == logic.IFP
		for _, n := range p.Dirty[b] {
			// Only this binder's own stage atoms can be dirty for it.
			if o := p.Nodes[n].Op; o != OpAnd && o != OpOr && o != OpExists && o != OpForall && o != OpAtom {
				p.DeltaOK[b] = false
			}
		}
	}
	p.Maint = p.maintInfo()
	p.closeNodes()
}

// NumNodes returns the DAG size (after CSE).
func (p *Plan) NumNodes() int { return len(p.Nodes) }

// HoistedNodes counts recursion-free nodes: subplans evaluated exactly once
// per query regardless of fixpoint iteration counts.
func (p *Plan) HoistedNodes() int {
	n := 0
	for _, d := range p.Deps {
		if d == 0 {
			n++
		}
	}
	return n
}
