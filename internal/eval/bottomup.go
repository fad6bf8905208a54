package eval

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/relation"
)

// BottomUp evaluates a query by the Proposition 3.1 algorithm: every
// subformula denotes a dense relation over the full tuple of the query's
// variables, so all intermediate results have arity Width(q). The supported
// fragments are FO, FP and PFP (second-order quantifiers need the eso
// package). The answer is returned over domain indices 0..n−1.
func BottomUp(q logic.Query, db *database.Database) (*relation.Set, error) {
	ans, _, err := BottomUpStats(q, db, nil)
	return ans, err
}

// BottomUpStats is BottomUp with options and work statistics.
func BottomUpStats(q logic.Query, db *database.Database, opts *Options) (*relation.Set, *Stats, error) {
	return BottomUpContext(context.Background(), q, db, opts)
}

// BottomUpContext is BottomUpStats honoring a context: cancellation and
// deadlines are checked once per fixpoint stage (LFP/GFP/IFP iterations, PFP
// stages, and between PFP sweep assignments), never inside a stage, so any
// answer that is produced is byte-identical to an uncancelled run. When the
// context fires mid-evaluation the error wraps ctx.Err() and the returned
// Stats hold the work completed so far (a partial reading; the answer is
// nil).
func BottomUpContext(ctx context.Context, q logic.Query, db *database.Database, opts *Options) (*relation.Set, *Stats, error) {
	c, err := newWalker(ctx, &q, db, opts, "bottomup", restart)
	if err != nil {
		return nil, nil, err
	}
	ans, err := c.answer(q.Head, q.Body)
	return ans, c.stats, err
}

// fixRule is what a fixpoint occurrence does when the walker reaches it
// again because an enclosing fixpoint advanced a stage. It is the one thing
// the paper's three upper bounds for FPᵏ differ in, and the one thing the
// entry points choose.
type fixRule int

const (
	// restart iterates every visit from ∅ (µ, IFP) or Dᵏ (ν): Prop 3.1, up
	// to n^{kl} stages at nesting depth l. BottomUp.
	restart fixRule = iota
	// resume continues a visit from the stage the occurrence's previous visit
	// stopped at, folding it into every new stage so the chain stays
	// monotone: Lemma 3.4 / footnote 5, l·nᵏ stages, sound where the
	// environment only moves one way. Monotone.
	resume
	// certify is resume at µ; a ν occurrence takes the next element of its
	// certificate chain and checks Lemma 3.3 (evalGfp): Thm 3.5.
	// FindCertificate and VerifyCertificate.
	certify
)

// buCtx is the one dense formula walker: the evaluation state of a BottomUp,
// Monotone, FindCertificate or VerifyCertificate run. It evaluates over the
// executor's dense algebra — its spaces, its PFP merge and cycle detectors —
// and keeps what is its own: the rules, the occurrence paths, the memo, the
// atom masters and the certificate chains.
type buCtx struct {
	ctx    context.Context
	alg    *denseAlg // alg.sp is the full-width space every subformula denotes in
	axes   map[logic.Var]int
	env    *env
	stats  *Stats
	opts   *Options
	atoms  map[string]*relation.Dense // cylindrified database atoms by atomKey, never written: evalAtom copies them
	engine string                     // TraceEvent.Engine of the entry point that built the walker
	rule   fixRule
	// path names the occurrence being evaluated: "r" extended by ".l"/".r"
	// (binary), ".n" (negation), ".q" (quantifier) or ".b" (fixpoint body)
	// per step down. Certificate.Chains is keyed by it.
	path []byte
	// memo holds, under resume and certify, the stage each fixpoint
	// occurrence stopped at, between its visits; it owns those stages. Keys
	// MUST identify the *occurrence*, not its text: two sibling fixpoints can
	// have byte-identical bodies yet evaluate under different environments
	// (e.g. the same recursion-relation name bound by different enclosing
	// operators), and replaying one's stages as the other's would silently
	// corrupt the answer. A key is therefore the path, unique per occurrence
	// by construction, with the bound relation's name and extended arity
	// appended as a tripwire so that any future change that drops position
	// from the key still cannot collide occurrences that bind different
	// relations. TestMonotoneMemoNoCrossOccurrenceReplay is the regression
	// test for this invariant.
	memo map[string]*relation.Dense
	// The certify rule's ν state: the chains being recorded (prove) or
	// replayed, and how many times each ν occurrence has been visited.
	cert   *Certificate
	prove  bool
	cursor map[string]int
}

// newWalker admits *q against db (validateRun), renames the binders of its
// body that shadow a recursion parameter (unshadow) and returns the walker
// that evaluates bodies over *q's variables under rule, on spaces of its own.
func newWalker(ctx context.Context, q *logic.Query, db *database.Database, opts *Options, engine string, rule fixRule) (*buCtx, error) {
	if err := validateRun(ctx, *q, db, opts); err != nil {
		return nil, err
	}
	q.Body = unshadow(q.Body, nil, logic.AllVars(q.Body))
	vars := q.Vars()
	alg, _, err := newDenseAlg(db, len(vars), nil)
	if err != nil {
		return nil, err
	}
	c := &buCtx{
		ctx:    ctx,
		alg:    alg,
		axes:   make(map[logic.Var]int, len(vars)),
		env:    newEnv(),
		stats:  &Stats{},
		opts:   opts,
		atoms:  make(map[string]*relation.Dense),
		engine: engine,
		rule:   rule,
		path:   []byte("r"),
		memo:   make(map[string]*relation.Dense),
	}
	for i, v := range vars {
		c.axes[v] = i
	}
	return c, nil
}

// unshadow α-renames every binder of f — a quantifier or a fixpoint tuple —
// whose variable is a parameter of an enclosing recursion relation (one of
// params) to a name no variable in taken has, adding it there. The walker
// reads a recursion atom's parameters from the environment by name, so a
// binder that rebound one would hand the atom its own value instead: the
// renamed variable takes an axis of its own, as plan.Compile's does.
func unshadow(f logic.Formula, params []logic.Var, taken map[logic.Var]bool) logic.Formula {
	fresh := func(v logic.Var) logic.Var {
		for i := 1; ; i++ {
			if w := logic.Var(fmt.Sprintf("%s_%d", v, i)); !taken[w] {
				taken[w] = true
				return w
			}
		}
	}
	switch g := f.(type) {
	case logic.Not:
		return logic.Not{F: unshadow(g.F, params, taken)}
	case logic.Binary:
		return logic.Binary{Op: g.Op, L: unshadow(g.L, params, taken), R: unshadow(g.R, params, taken)}
	case logic.Quant:
		if slices.Contains(params, g.V) {
			w := fresh(g.V)
			g = logic.Quant{Kind: g.Kind, V: w, F: logic.RenameFree(g.F, map[logic.Var]logic.Var{g.V: w})}
		}
		return logic.Quant{Kind: g.Kind, V: g.V, F: unshadow(g.F, params, taken)}
	case logic.Fix:
		vars, body := slices.Clone(g.Vars), g.Body
		for i, v := range vars {
			if slices.Contains(params, v) {
				vars[i] = fresh(v)
				body = logic.RenameFree(body, map[logic.Var]logic.Var{v: vars[i]})
			}
		}
		inner := slices.Clone(params)
		for v := range logic.FreeVars(body) {
			if !slices.Contains(vars, v) && !slices.Contains(inner, v) {
				inner = append(inner, v)
			}
		}
		return logic.Fix{Op: g.Op, Rel: g.Rel, Vars: vars, Body: unshadow(body, inner, taken), Args: g.Args}
	case logic.SOQuant:
		return logic.SOQuant{Rel: g.Rel, Arity: g.Arity, F: unshadow(g.F, params, taken)}
	default:
		return f
	}
}

// answer evaluates body and projects its denotation onto the (distinct, by
// logic.Query.Validate) head columns. Whatever the outcome, what the walker's
// caches own by then — atom masters, the stages in the memo — goes back to
// the pools: a finished walk leaves no scratch out.
func (c *buCtx) answer(head []logic.Var, body logic.Formula) (*relation.Set, error) {
	defer func() {
		for _, d := range c.atoms {
			d.Release()
		}
		for _, d := range c.memo {
			d.Release()
		}
	}()
	cols, err := c.axesOf(head)
	if err != nil {
		return nil, err
	}
	d, err := c.eval(body)
	if err != nil {
		return nil, err
	}
	h, err := c.alg.project(d, cols, nil, nil)
	d.Release()
	if err != nil {
		return nil, err
	}
	defer h.Release()
	return h.ToSet(), nil
}

func (c *buCtx) axis(v logic.Var) (int, error) {
	a, ok := c.axes[v]
	if !ok {
		return 0, fmt.Errorf("eval: variable %s has no axis (internal error)", v)
	}
	return a, nil
}

func (c *buCtx) axesOf(vs []logic.Var) ([]int, error) {
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

// eval returns the dense denotation of f over the full variable tuple. The
// caller owns the result and may mutate or Release it.
func (c *buCtx) eval(f logic.Formula) (*relation.Dense, error) {
	c.stats.SubformulaEvals++
	d, err := c.evalNode(f)
	if err != nil {
		return nil, err
	}
	c.stats.observe(c.alg.sp.Arity(), d.Count())
	return d, nil
}

// child is eval one step down the occurrence path.
func (c *buCtx) child(step byte, f logic.Formula) (*relation.Dense, error) {
	c.path = append(c.path, '.', step)
	d, err := c.eval(f)
	c.path = c.path[:len(c.path)-2]
	return d, err
}

func (c *buCtx) evalNode(f logic.Formula) (*relation.Dense, error) {
	switch g := f.(type) {
	case logic.Atom:
		return c.evalAtom(g)
	case logic.Eq:
		la, err := c.axis(g.L)
		if err != nil {
			return nil, err
		}
		ra, err := c.axis(g.R)
		if err != nil {
			return nil, err
		}
		return c.alg.eq(la, ra)
	case logic.Truth:
		return c.alg.constant(g.Value)
	case logic.Not:
		d, err := c.child('n', g.F)
		if err != nil {
			return nil, err
		}
		d.Complement()
		return d, nil
	case logic.Binary:
		l, err := c.child('l', g.L)
		if err != nil {
			return nil, err
		}
		r, err := c.child('r', g.R)
		if err != nil {
			l.Release()
			return nil, err
		}
		switch g.Op {
		case logic.AndOp:
			l.IntersectWith(r)
		case logic.OrOp:
			l.UnionWith(r)
		case logic.ImpliesOp:
			l.ImpliesWith(r) // fused ¬l ∪ r, one pass
		case logic.IffOp:
			l.IffWith(r) // fused ¬(l ⊕ r), one pass
		default:
			return nil, fmt.Errorf("eval: unknown binary op %v", g.Op)
		}
		r.Release()
		return l, nil
	case logic.Quant:
		d, err := c.child('q', g.F)
		if err != nil {
			return nil, err
		}
		a, err := c.axis(g.V)
		if err != nil {
			return nil, err
		}
		var res *relation.Dense
		if g.Kind == logic.ExistsQ {
			res = d.ExistsAxis(a)
		} else {
			res = d.ForallAxis(a)
		}
		d.Release()
		return res, nil
	case logic.Fix:
		return c.evalFix(g)
	case logic.SOQuant:
		return nil, fmt.Errorf("eval: BottomUp does not evaluate second-order quantifiers; use the eso package")
	default:
		return nil, fmt.Errorf("eval: unknown formula %T", f)
	}
}

func (c *buCtx) evalAtom(g logic.Atom) (*relation.Dense, error) {
	args, err := c.axesOf(g.Args)
	if err != nil {
		return nil, err
	}
	if br, ok := c.env.rels[g.Rel]; ok {
		if m := br.dense.Space().Arity() - len(br.params); len(g.Args) != m {
			return nil, fmt.Errorf("eval: %s used with %d arguments, bound with arity %d", g.Rel, len(g.Args), m)
		}
		pax, err := c.axesOf(br.params)
		if err != nil {
			return nil, err
		}
		return c.alg.stageAtom(br.dense, append(args, pax...))
	}
	// Database atoms are immutable for the whole evaluation: cylindrify once
	// per (relation, argument-axes) and hand out pooled copies.
	key := atomKey(g.Rel, args)
	master, ok := c.atoms[key]
	if !ok {
		if master, err = c.alg.atom(g.Rel, args); err != nil {
			return nil, err
		}
		c.atoms[key] = master
	}
	return master.Clone(), nil
}

func atomKey(rel string, args []int) string {
	b := make([]byte, 0, len(rel)+1+len(args))
	b = append(b, rel...)
	b = append(b, 0)
	for _, a := range args {
		b = append(b, byte(a))
	}
	return string(b)
}

// evalFix computes the denotation of a fixpoint formula. For LFP/GFP with
// parameter variables ȳ (free individual variables of the body besides the
// recursion tuple), the recursion relation is extended to arity |x̄|+|ȳ| and
// iterated simultaneously for every parameter value — the operator acts
// pointwise in ȳ, so the extended fixpoint restricts to the per-parameter
// fixpoint. PFP iterates per parameter assignment, with cycle detection for
// divergence. All stage relations stay dense: each stage is extracted from
// the body denotation with a word-parallel ProjectAt and re-enters the next
// stage's atoms through FromDenseAtom, never materializing sparse tuple
// sets. Where the stage loop of an LFP/GFP/IFP occurrence starts is the
// walker's rule.
func (c *buCtx) evalFix(g logic.Fix) (*relation.Dense, error) {
	params := c.fixParams(g)
	varAxes, err := c.axesOf(g.Vars)
	if err != nil {
		return nil, err
	}
	paramAxes, err := c.axesOf(params)
	if err != nil {
		return nil, err
	}
	argAxes, err := c.axesOf(g.Args)
	if err != nil {
		return nil, err
	}
	extCols := append(append([]int(nil), varAxes...), paramAxes...)
	out := append(argAxes, paramAxes...)

	if g.Op == logic.PFP {
		limit, err := c.evalPFP(g, varAxes, paramAxes)
		if err != nil {
			return nil, err
		}
		res, err := c.alg.stageAtom(limit, out)
		limit.Release()
		return res, err
	}

	esp := c.alg.spaces[len(extCols)]
	if c.rule == certify && g.Op == logic.GFP {
		return c.evalGfp(g, params, esp, extCols, out)
	}
	var key string
	var cur *relation.Dense
	if c.rule != restart {
		// This visit owns the remembered stage until it hands its limit back.
		key = string(c.path) + "|" + g.Rel + "/" + strconv.Itoa(esp.Arity())
		cur = c.memo[key]
		delete(c.memo, key)
	}
	if cur == nil {
		if g.Op == logic.GFP {
			cur = esp.Full()
		} else {
			cur = esp.Empty()
		}
	}
	if cur, err = c.stages(g, params, esp, extCols, cur); err != nil {
		return nil, err
	}
	res, err := c.alg.stageAtom(cur, out)
	if c.rule == restart {
		cur.Release()
	} else {
		c.memo[key] = cur
	}
	return res, err
}

// stages runs the stage loop of the LFP/GFP/IFP occurrence g from cur, which
// it consumes, to its limit over esp, the stage space. Under any rule
// but restart the previous stage is folded into the next one: an occurrence
// that resumes sees a different operator on each visit, and the fold is what
// keeps its chain increasing (µ, Lemma 3.4) or decreasing (ν). A lone IFP is
// safe under resume — Monotone's alternation check rejects IFP nested in or
// around other fixpoints, so it is never visited twice.
func (c *buCtx) stages(g logic.Fix, params []logic.Var, esp *relation.Space, extCols []int, cur *relation.Dense) (*relation.Dense, error) {
	restore := c.env.bind(g.Rel, boundRel{dense: cur, params: params})
	defer restore()
	// Stage tracing state lives entirely behind the nil check: an untraced
	// run takes no Count calls, no clock reads and no allocations here.
	obs := observerOf(c.opts)
	var stage, prevCount int
	if obs != nil {
		prevCount = cur.Count()
	}
	for {
		if err := checkCtx(c.ctx); err != nil {
			cur.Release()
			return nil, err
		}
		c.stats.FixIterations++
		var stageStart time.Time
		if obs != nil {
			stageStart = time.Now()
		}
		c.env.rels[g.Rel] = boundRel{dense: cur, params: params}
		body, err := c.child('b', g.Body)
		if err != nil {
			cur.Release()
			return nil, err
		}
		next := body.ProjectAt(esp, extCols, nil, nil)
		body.Release()
		if g.Op == logic.GFP && c.rule != restart {
			next.IntersectWith(cur)
		} else if g.Op == logic.IFP || c.rule != restart {
			// Inflationary stages, S_{i+1} = S_i ∪ φ(S_i), converge within
			// n^ext steps with no positivity requirement; a resumed µ chain is
			// kept increasing the same way.
			next.UnionWith(cur)
		}
		if obs != nil {
			stage++
			n := next.Count()
			obs.stage(fixEvent(c.engine, -1, g.Rel, g.Op, stage, n, n-prevCount, stageStart))
			prevCount = n
		}
		if next.Equal(cur) {
			next.Release()
			return cur, nil
		}
		cur.Release()
		cur = next
	}
}

// evalPFP computes the partial fixpoint per parameter assignment and returns
// the union as an extended (|x̄|+|ȳ|)-ary dense relation: the executor's
// sweep (sweepPFP).
func (c *buCtx) evalPFP(g logic.Fix, varAxes, paramAxes []int) (*relation.Dense, error) {
	out := c.alg.spaces[len(varAxes)+len(paramAxes)].Empty()
	err := sweepPFP(c.alg, out, c.alg.db.Size(), len(paramAxes), func(assign []int) (*relation.Dense, error) {
		return c.pfpOne(g, varAxes, paramAxes, assign)
	})
	if err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}

// pfpOne runs the partial-fixpoint iteration for one parameter assignment
// and returns the limit as an m-ary dense relation (empty if the run is
// periodic with period > 1, per §2.2).
func (c *buCtx) pfpOne(g logic.Fix, varAxes, paramAxes, assign []int) (*relation.Dense, error) {
	obs := observerOf(c.opts)
	var stage int
	step := func(s *relation.Dense) (*relation.Dense, error) {
		if err := checkCtx(c.ctx); err != nil {
			return nil, err
		}
		c.stats.FixIterations++
		var stageStart time.Time
		if obs != nil {
			stageStart = time.Now()
		}
		restore := c.env.bind(g.Rel, boundRel{dense: s})
		body, err := c.child('b', g.Body)
		restore()
		if err != nil {
			return nil, err
		}
		next, err := c.alg.project(body, varAxes, paramAxes, assign)
		body.Release()
		if err == nil && obs != nil {
			stage++
			n := next.Count()
			obs.stage(fixEvent(c.engine, -1, g.Rel, g.Op, stage, n, n-s.Count(), stageStart))
		}
		return next, err
	}
	return c.alg.pfpLimit(step, len(varAxes), c.opts)
}

// pfpHash iterates step from ∅, remembering a hash of every stage; the run
// is eventually periodic, and the partial fixpoint is the repeated value if
// the period is 1, the empty relation otherwise (§2.2). Every remembered stage
// but the limit goes back to the space's pool on the way out.
func pfpHash(step func(*relation.Dense) (*relation.Dense, error), msp *relation.Space, budget int) (limit *relation.Dense, err error) {
	cur := msp.Empty()
	seen := map[uint64][]*relation.Dense{cur.Hash(): {cur}}
	defer func() {
		for _, stages := range seen {
			for _, d := range stages {
				if d != limit {
					d.Release()
				}
			}
		}
	}()
	for i := 0; i < budget; i++ {
		next, err := step(cur)
		if err != nil {
			return nil, err
		}
		if next.Equal(cur) {
			next.Release()
			return cur, nil // converged
		}
		k := next.Hash()
		for _, prev := range seen[k] {
			if prev.Equal(next) {
				// Revisited an earlier stage without convergence: the run is
				// periodic with period > 1, so the limit does not exist.
				next.Release()
				return msp.Empty(), nil
			}
		}
		seen[k] = append(seen[k], next)
		cur = next
	}
	return nil, fmt.Errorf("eval: pfp run exceeded %d stages: %w", budget, ErrBudget)
}

// pfpBrent is pfpHash with Brent's cycle-finding algorithm: it keeps only
// two stages live at a time, at the cost of re-running the operator, and
// releases each as it drops it.
func pfpBrent(step func(*relation.Dense) (*relation.Dense, error), msp *relation.Space, budget int) (limit *relation.Dense, err error) {
	// Find the cycle length lam with Brent's power-of-two windows.
	power, lam := 1, 1
	tortoise := msp.Empty()
	hare, err := step(tortoise)
	defer func() {
		for _, d := range []*relation.Dense{tortoise, hare} {
			if d != limit {
				d.Release()
			}
		}
	}()
	for steps := 1; err == nil && !tortoise.Equal(hare); {
		if power == lam {
			tortoise.Release()
			tortoise = hare
			power *= 2
			lam = 0
		}
		prev := hare
		hare, err = step(prev)
		if prev != tortoise {
			prev.Release()
		}
		lam++
		if steps++; err == nil && steps > budget {
			return nil, fmt.Errorf("eval: pfp run exceeded %d stages: %w", budget, ErrBudget)
		}
	}
	if err != nil {
		return nil, err
	}
	if lam == 1 {
		// Period 1: the run converges, and hare is the limit.
		return hare, nil
	}
	return msp.Empty(), nil
}

// fixParams returns the fixpoint's parameter variables, sorted by name: the
// free individual variables of the body and the parameters of each enclosing
// recursion relation the body reads (its atoms read that relation's stage
// through them), less the recursion tuple.
func (c *buCtx) fixParams(g logic.Fix) []logic.Var {
	free := logic.FreeVars(g.Body)
	for _, rel := range logic.Footprint(g.Body) {
		if br, ok := c.env.rels[rel]; ok && rel != g.Rel {
			for _, v := range br.params {
				free[v] = true
			}
		}
	}
	for _, v := range g.Vars {
		delete(free, v)
	}
	return logic.SortedVars(free)
}

// forEachAssignment enumerates all n^m assignments, calling fn with a reused
// buffer; fn returns false to stop.
func forEachAssignment(n, m int, fn func([]int) bool) {
	t := make([]int, m)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == m {
			return fn(t)
		}
		for v := 0; v < n; v++ {
			t[i] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}
