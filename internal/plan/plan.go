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
// the query's full-width space); execution lives in internal/eval's Compiled
// engine.
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/logic"
	"repro/internal/queryopt"
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
	// (free individual variables of the body besides the recursion tuple,
	// sorted by name — the same extension rule as eval.BottomUp); ExtCols is
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
	// MinimizedFrom, when non-zero, is Query's width: the plan is an acyclic
	// ∃∧-conjunctive query lowered from its variable-minimised form (minimize),
	// and len(Vars) is the smaller width that form needs.
	MinimizedFrom int
	// Vars is the axis order (the lowered query's Vars()); HeadAxes the answer
	// projection.
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
	// stage loop). It is the task list for the parallel dirty-node scheduler
	// and for the semi-naive delta pass.
	Sched [][]int

	// SchedPreds[b][i] lists, for Sched[b][i], the node ids in Sched[b] whose
	// values it reads: the dependency edges of the parallel scheduler.
	SchedPreds [][][]int

	// SchedLevels[b] groups Sched[b] into topological waves: every node in
	// level ℓ reads only nodes in levels < ℓ (or the hoisted frontier), so the
	// nodes of one level are independent and may be evaluated concurrently.
	// Levels are ascending and each level lists node ids in ascending order,
	// making the wave schedule deterministic.
	SchedLevels [][][]int

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
	axes  map[logic.Var]int
	nodes []Node
	deps  []uint64
	cons  map[string]int
	fixOf []int
	hits  int
	// scopeMask is the bitmask of binders currently being lowered — the
	// enclosing scope recorded into each FixInfo.
	scopeMask uint64
}

// Compile lowers q's body to a DAG. The body is first brought to negation
// normal form (second-order quantifiers are rejected — like eval.BottomUp,
// the compiled engine evaluates FO, FP, IFP and PFP only). An acyclic
// ∃∧-conjunctive query is lowered from its variable-minimised form when that
// is narrower than the text (minimize).
func Compile(q logic.Query) (*Plan, error) {
	if err := q.Validate(nil); err != nil {
		return nil, err
	}
	written := q
	q, minimizedFrom := minimize(q)
	body, err := logic.NNF(q.Body)
	if err != nil {
		return nil, err
	}
	var soErr error
	logic.Walk(body, func(f logic.Formula) {
		if so, ok := f.(logic.SOQuant); ok && soErr == nil {
			soErr = fmt.Errorf("plan: second-order quantifier %s is not compilable; use the eso package", so.Rel)
		}
	})
	if soErr != nil {
		return nil, soErr
	}
	if err := logic.Validate(body, nil); err != nil {
		return nil, err
	}

	vars := q.Vars()
	c := &compiler{
		axes: make(map[logic.Var]int, len(vars)),
		cons: make(map[string]int),
	}
	for i, v := range vars {
		c.axes[v] = i
	}
	root, err := c.lower(body, map[string]int{})
	if err != nil {
		return nil, err
	}

	p := &Plan{
		Query:      written,
		Vars:       vars,
		Nodes:      c.nodes,
		Root:       root,
		NumBinders: len(c.fixOf),
		FixOf:      c.fixOf,
		Deps:       c.deps,
		CSEHits:    c.hits,
	}
	p.MinimizedFrom = minimizedFrom
	p.HeadAxes = make([]int, len(q.Head))
	for i, v := range q.Head {
		p.HeadAxes[i] = c.axes[v]
	}
	p.analyze()
	return p, nil
}

// minimize is the paper's §5 "variable minimization as a query optimization
// methodology" as a compile-time rewrite: an acyclic ∃∧-conjunctive query is
// a bounded-variable query in disguise, and queryopt.MinimizeWidth writes it
// with the fewest variables its join tree allows, head names and order kept.
// The rewrite is taken only when it lowers the width — a width-minimal text
// keeps the plan its author wrote, whose association the rewrite would
// replace by join-tree order for no smaller space. It returns the query to
// lower and, when that is the rewrite, the written width (Plan.MinimizedFrom).
func minimize(q logic.Query) (logic.Query, int) {
	if cq, ok := queryopt.FromQuery(q); ok {
		written := q.Width()
		if m, width, err := queryopt.MinimizeWidth(cq); err == nil && width < written {
			return m, written
		}
	}
	return q, 0
}

func (c *compiler) axis(v logic.Var) (int, error) {
	a, ok := c.axes[v]
	if !ok {
		return 0, fmt.Errorf("plan: variable %s has no axis (internal error)", v)
	}
	return a, nil
}

func (c *compiler) axesOf(vs []logic.Var) ([]int, error) {
	out := make([]int, len(vs))
	for i, v := range vs {
		a, err := c.axis(v)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// intern hash-conses a node: an existing structurally identical node is
// reused, otherwise the node is appended with the given dependency mask.
func (c *compiler) intern(key string, n Node, deps uint64) int {
	if id, ok := c.cons[key]; ok {
		c.hits++
		return id
	}
	id := len(c.nodes)
	c.nodes = append(c.nodes, n)
	c.deps = append(c.deps, deps)
	c.cons[key] = id
	return id
}

func axesKey(b *strings.Builder, axes []int) {
	for i, a := range axes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(a))
	}
}

// lower compiles f under the given recursion-relation scope (name → binder).
func (c *compiler) lower(f logic.Formula, scope map[string]int) (int, error) {
	switch g := f.(type) {
	case logic.Atom:
		args, err := c.axesOf(g.Args)
		if err != nil {
			return 0, err
		}
		binder := -1
		deps := uint64(0)
		if b, ok := scope[g.Rel]; ok {
			binder = b
			deps = 1 << uint(b)
		}
		var k strings.Builder
		k.WriteString("a|")
		k.WriteString(g.Rel)
		k.WriteByte('|')
		k.WriteString(strconv.Itoa(binder))
		k.WriteByte('|')
		axesKey(&k, args)
		return c.intern(k.String(), Node{Op: OpAtom, Rel: g.Rel, Args: args, Binder: binder}, deps), nil
	case logic.Eq:
		la, err := c.axis(g.L)
		if err != nil {
			return 0, err
		}
		ra, err := c.axis(g.R)
		if err != nil {
			return 0, err
		}
		if ra < la {
			la, ra = ra, la // symmetric: canonicalize for CSE
		}
		key := "e|" + strconv.Itoa(la) + "," + strconv.Itoa(ra)
		return c.intern(key, Node{Op: OpEq, L: la, R: ra}, 0), nil
	case logic.Truth:
		key := "c|f"
		if g.Value {
			key = "c|t"
		}
		return c.intern(key, Node{Op: OpConst, Truth: g.Value}, 0), nil
	case logic.Not:
		kid, err := c.lower(g.F, scope)
		if err != nil {
			return 0, err
		}
		key := "n|" + strconv.Itoa(kid)
		return c.intern(key, Node{Op: OpNot, Kids: []int{kid}}, c.deps[kid]), nil
	case logic.Binary:
		l, err := c.lower(g.L, scope)
		if err != nil {
			return 0, err
		}
		r, err := c.lower(g.R, scope)
		if err != nil {
			return 0, err
		}
		var op Op
		var tag string
		switch g.Op {
		case logic.AndOp:
			op, tag = OpAnd, "&"
		case logic.OrOp:
			op, tag = OpOr, "|"
		default:
			return 0, fmt.Errorf("plan: %v connective survived NNF", g.Op)
		}
		if (op == OpAnd || op == OpOr) && r < l {
			l, r = r, l // commutative: canonicalize for CSE
		}
		key := tag + "|" + strconv.Itoa(l) + "," + strconv.Itoa(r)
		return c.intern(key, Node{Op: op, Kids: []int{l, r}}, c.deps[l]|c.deps[r]), nil
	case logic.Quant:
		kid, err := c.lower(g.F, scope)
		if err != nil {
			return 0, err
		}
		a, err := c.axis(g.V)
		if err != nil {
			return 0, err
		}
		op, tag := OpExists, "E"
		if g.Kind == logic.ForallQ {
			op, tag = OpForall, "A"
		}
		key := tag + "|" + strconv.Itoa(a) + "|" + strconv.Itoa(kid)
		return c.intern(key, Node{Op: op, Axis: a, Kids: []int{kid}}, c.deps[kid]), nil
	case logic.Fix:
		return c.lowerFix(g, scope)
	case logic.SOQuant:
		return 0, fmt.Errorf("plan: second-order quantifier %s is not compilable", g.Rel)
	default:
		return 0, fmt.Errorf("plan: unknown formula %T", f)
	}
}

func (c *compiler) lowerFix(g logic.Fix, scope map[string]int) (int, error) {
	binder := len(c.fixOf)
	if binder >= MaxBinders {
		return 0, fmt.Errorf("plan: more than %d fixpoint binders", MaxBinders)
	}
	c.fixOf = append(c.fixOf, -1) // placeholder until the node exists

	// Parameters: free individual variables of the body not bound by the
	// recursion tuple, sorted by name — the eval.BottomUp extension rule.
	free := logic.FreeVars(g.Body)
	for _, v := range g.Vars {
		delete(free, v)
	}
	params := logic.SortedVars(free)

	varAxes, err := c.axesOf(g.Vars)
	if err != nil {
		return 0, err
	}
	paramAxes, err := c.axesOf(params)
	if err != nil {
		return 0, err
	}
	argAxes, err := c.axesOf(g.Args)
	if err != nil {
		return 0, err
	}
	extCols := make([]int, 0, len(varAxes)+len(paramAxes))
	extCols = append(extCols, varAxes...)
	extCols = append(extCols, paramAxes...)

	enclosing := c.scopeMask
	prev, had := scope[g.Rel]
	scope[g.Rel] = binder
	c.scopeMask |= 1 << uint(binder)
	body, err := c.lower(g.Body, scope)
	c.scopeMask = enclosing
	if had {
		scope[g.Rel] = prev
	} else {
		delete(scope, g.Rel)
	}
	if err != nil {
		return 0, err
	}

	fx := &FixInfo{
		Op:        g.Op,
		Rel:       g.Rel,
		Binder:    binder,
		Body:      body,
		VarAxes:   varAxes,
		ParamAxes: paramAxes,
		ExtCols:   extCols,
		ArgAxes:   argAxes,
		ExtArity:  len(varAxes) + len(paramAxes),
		Scope:     enclosing,
	}
	deps := c.deps[body] &^ (1 << uint(binder))
	// Binder ids are fresh per occurrence, so fix nodes are never hash-consed
	// with one another; the key only keeps the cons map total.
	var k strings.Builder
	k.WriteString("f|")
	k.WriteString(strconv.Itoa(binder))
	id := c.intern(k.String(), Node{Op: OpFix, Kids: []int{body}, Fix: fx}, deps)
	c.fixOf[binder] = id
	return id, nil
}

// analyze derives the per-binder evaluation structures: dirty lists, hoisted
// frontiers, scheduler edges, and delta admissibility.
func (p *Plan) analyze() {
	nb := p.NumBinders
	p.Dirty = make([][]int, nb)
	p.Sched = make([][]int, nb)
	p.SchedPreds = make([][][]int, nb)
	p.SchedLevels = make([][][]int, nb)
	p.PreEval = make([][]int, nb)
	p.DeltaOK = make([]bool, nb)

	inDirty := make([]map[int]bool, nb)
	for b := 0; b < nb; b++ {
		bit := uint64(1) << uint(b)
		set := make(map[int]bool)
		for n := range p.Nodes {
			if p.Deps[n]&bit != 0 {
				p.Dirty[b] = append(p.Dirty[b], n)
				set[n] = true
			}
		}
		inDirty[b] = set
	}

	// reads[f] — nodes a fix node's stage loop consults without recomputing.
	// A node qualifies only if its dependencies lie within the fix node's
	// enclosing scope: depending on this binder means it is dirty, and
	// depending on a binder nested inside the body means it only has a value
	// inside that nested loop — neither may be hoisted. Fix nodes are created
	// after their bodies, so ascending id order processes inner fixpoints
	// first.
	reads := make(map[int][]int, nb)
	for n := range p.Nodes {
		nd := &p.Nodes[n]
		if nd.Op != OpFix {
			continue
		}
		b := nd.Fix.Binder
		hoistable := func(m int) bool { return p.Deps[m]&^nd.Fix.Scope == 0 }
		rs := make(map[int]bool)
		if hoistable(nd.Fix.Body) {
			rs[nd.Fix.Body] = true
		}
		for _, d := range p.Dirty[b] {
			dn := &p.Nodes[d]
			if dn.Op == OpFix {
				for _, m := range reads[d] {
					if hoistable(m) {
						rs[m] = true
					}
				}
				continue
			}
			for _, k := range dn.Kids {
				if hoistable(k) {
					rs[k] = true
				}
			}
		}
		reads[n] = sortedKeys(rs)
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
		schedSet := make(map[int]bool)
		for _, n := range p.Dirty[b] {
			if p.Deps[n]&covered == 0 {
				p.Sched[b] = append(p.Sched[b], n)
				schedSet[n] = true
			}
		}
		p.SchedPreds[b] = make([][]int, len(p.Sched[b]))
		for i, n := range p.Sched[b] {
			var direct []int
			if p.Nodes[n].Op == OpFix {
				direct = reads[n]
			} else {
				direct = p.Nodes[n].Kids
			}
			for _, m := range direct {
				if schedSet[m] {
					p.SchedPreds[b][i] = append(p.SchedPreds[b][i], m)
				}
			}
		}

		// Topological waves. Sched is in ascending node-id order and every
		// predecessor has a smaller id, so one forward pass suffices.
		pos := make(map[int]int, len(p.Sched[b]))
		for i, n := range p.Sched[b] {
			pos[n] = i
		}
		level := make([]int, len(p.Sched[b]))
		maxLevel := -1
		for i := range p.Sched[b] {
			lv := 0
			for _, m := range p.SchedPreds[b][i] {
				if pl := level[pos[m]] + 1; pl > lv {
					lv = pl
				}
			}
			level[i] = lv
			if lv > maxLevel {
				maxLevel = lv
			}
		}
		levels := make([][]int, maxLevel+1)
		for i, n := range p.Sched[b] {
			levels[level[i]] = append(levels[level[i]], n)
		}
		p.SchedLevels[b] = levels

		op := p.Nodes[fixNode].Fix.Op
		if op == logic.LFP || op == logic.IFP {
			ok := true
			for _, n := range p.Dirty[b] {
				switch p.Nodes[n].Op {
				case OpAnd, OpOr, OpExists, OpForall:
				case OpAtom:
					// Only this binder's own stage atoms can be dirty for it.
				default:
					ok = false
				}
				if !ok {
					break
				}
			}
			p.DeltaOK[b] = ok
		}
	}
	p.Maint = p.maintInfo()
	p.closeNodes()
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort: sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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
