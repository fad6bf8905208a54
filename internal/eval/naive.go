package eval

import (
	"context"
	"fmt"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/relation"
)

// MaxNaiveSOBits caps the search space of naive second-order enumeration:
// a quantifier ∃S with |D|^arity(S) > MaxNaiveSOBits candidate bit-vectors
// is refused. The cap is the point of §3.3 — the naive algorithm guesses a
// relation whose size may be exponential in the formula, so it only works on
// toy instances.
const MaxNaiveSOBits = 24

// Naive evaluates a query by direct recursion over variable assignments —
// the generic query-evaluation algorithm whose running time is O(n^q) for q
// nested quantifiers: polynomial space, exponential time in the formula
// (the PSPACE combined-complexity algorithm for FO of Table 1). It supports
// all four languages; second-order quantifiers are enumerated exhaustively
// under the MaxNaiveSOBits cap. It exists as the paper's baseline and as the
// trusted oracle for cross-validation.
func Naive(q logic.Query, db *database.Database) (*relation.Set, error) {
	return NaiveContext(context.Background(), q, db)
}

// NaiveContext is Naive honoring a context. Cancellation is checked once per
// head-tuple assignment and once per fixpoint stage — the naive evaluator's
// natural work units — so a single deeply nested quantifier block still runs
// to completion before the check fires.
func NaiveContext(ctx context.Context, q logic.Query, db *database.Database) (*relation.Set, error) {
	if err := validateRun(ctx, q, db, nil); err != nil {
		return nil, err
	}
	c := &naiveCtx{ctx: ctx, db: db, n: db.Size(), vars: make(map[logic.Var]int), env: newEnv()}
	out := relation.NewSet(len(q.Head))
	var err error
	forEachAssignment(c.n, len(q.Head), func(t []int) bool {
		if err = checkCtx(ctx); err != nil {
			return false
		}
		for i, v := range q.Head {
			c.vars[v] = t[i]
		}
		var holds bool
		holds, err = c.holds(q.Body)
		if err != nil {
			return false
		}
		if holds {
			out.Add(t)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NaiveHolds reports whether a sentence (no free variables) holds in db.
func NaiveHolds(f logic.Formula, db *database.Database) (bool, error) {
	q, err := logic.NewQuery(nil, f)
	if err != nil {
		return false, err
	}
	ans, err := Naive(q, db)
	if err != nil {
		return false, err
	}
	return ans.Len() > 0, nil
}

type naiveCtx struct {
	ctx  context.Context
	db   *database.Database
	n    int
	vars map[logic.Var]int
	env  *env
}

func (c *naiveCtx) holds(f logic.Formula) (bool, error) {
	switch g := f.(type) {
	case logic.Atom:
		t := make(relation.Tuple, len(g.Args))
		for i, v := range g.Args {
			val, ok := c.vars[v]
			if !ok {
				return false, fmt.Errorf("eval: unbound variable %s", v)
			}
			t[i] = val
		}
		if br, ok := c.env.rels[g.Rel]; ok {
			for _, p := range br.params {
				val, ok := c.vars[p]
				if !ok {
					return false, fmt.Errorf("eval: unbound parameter %s", p)
				}
				t = append(t, val)
			}
			return br.set.Contains(t), nil
		}
		rel, err := c.db.Rel(g.Rel)
		if err != nil {
			return false, err
		}
		return rel.Contains(t), nil
	case logic.Eq:
		lv, ok := c.vars[g.L]
		if !ok {
			return false, fmt.Errorf("eval: unbound variable %s", g.L)
		}
		rv, ok := c.vars[g.R]
		if !ok {
			return false, fmt.Errorf("eval: unbound variable %s", g.R)
		}
		return lv == rv, nil
	case logic.Truth:
		return g.Value, nil
	case logic.Not:
		h, err := c.holds(g.F)
		return !h, err
	case logic.Binary:
		l, err := c.holds(g.L)
		if err != nil {
			return false, err
		}
		// Short-circuit where the connective allows it.
		switch g.Op {
		case logic.AndOp:
			if !l {
				return false, nil
			}
			return c.holds(g.R)
		case logic.OrOp:
			if l {
				return true, nil
			}
			return c.holds(g.R)
		case logic.ImpliesOp:
			if !l {
				return true, nil
			}
			return c.holds(g.R)
		case logic.IffOp:
			r, err := c.holds(g.R)
			return l == r, err
		default:
			return false, fmt.Errorf("eval: unknown binary op %v", g.Op)
		}
	case logic.Quant:
		prev, had := c.vars[g.V]
		defer func() {
			if had {
				c.vars[g.V] = prev
			} else {
				delete(c.vars, g.V)
			}
		}()
		for v := 0; v < c.n; v++ {
			c.vars[g.V] = v
			h, err := c.holds(g.F)
			if err != nil {
				return false, err
			}
			if g.Kind == logic.ExistsQ && h {
				return true, nil
			}
			if g.Kind == logic.ForallQ && !h {
				return false, nil
			}
		}
		return g.Kind == logic.ForallQ, nil
	case logic.Fix:
		return c.holdsFix(g)
	case logic.SOQuant:
		return c.holdsSO(g)
	default:
		return false, fmt.Errorf("eval: unknown formula %T", f)
	}
}

// holdsFix computes the fixpoint under the current assignment of the
// parameter variables and tests the argument tuple.
func (c *naiveCtx) holdsFix(g logic.Fix) (bool, error) {
	m := len(g.Vars)
	args := make(relation.Tuple, m)
	for i, v := range g.Args {
		val, ok := c.vars[v]
		if !ok {
			return false, fmt.Errorf("eval: unbound variable %s", v)
		}
		args[i] = val
	}
	step := func(s *relation.Set) (*relation.Set, error) {
		if err := checkCtx(c.ctx); err != nil {
			return nil, err
		}
		restore := c.env.bind(g.Rel, boundRel{set: s})
		defer restore()
		next := relation.NewSet(m)
		saved := make([]int, m)
		savedOK := make([]bool, m)
		for i, v := range g.Vars {
			saved[i], savedOK[i] = c.vars[v], false
			if _, ok := c.vars[v]; ok {
				savedOK[i] = true
			}
		}
		var err error
		forEachAssignment(c.n, m, func(t []int) bool {
			for i, v := range g.Vars {
				c.vars[v] = t[i]
			}
			var h bool
			h, err = c.holds(g.Body)
			if err != nil {
				return false
			}
			if h {
				next.Add(t)
			}
			return true
		})
		for i, v := range g.Vars {
			if savedOK[i] {
				c.vars[v] = saved[i]
			} else {
				delete(c.vars, v)
			}
		}
		if err != nil {
			return nil, err
		}
		return next, nil
	}

	var cur *relation.Set
	switch g.Op {
	case logic.LFP, logic.GFP, logic.IFP:
		cur = relation.NewSet(m)
		if g.Op == logic.GFP {
			full := relation.NewSet(m)
			forEachAssignment(c.n, m, func(t []int) bool { full.Add(t); return true })
			cur = full
		}
		for {
			next, err := step(cur)
			if err != nil {
				return false, err
			}
			if g.Op == logic.IFP {
				next = next.Union(cur)
			}
			if next.Equal(cur) {
				break
			}
			cur = next
		}
	case logic.PFP:
		msp, err := relation.NewSpace(m, c.n)
		if err != nil {
			return false, err
		}
		cur, err = pfpHashSet(step, m, msp, defaultPFPBudget)
		if err != nil {
			return false, err
		}
	}
	return cur.Contains(args), nil
}

// pfpHashSet is the sparse-set analogue of pfpHash, used by the naive
// evaluator: iterate step from ∅, hash every stage (via its dense form), and
// return the repeated value if the period is 1, the empty set otherwise.
func pfpHashSet(step func(*relation.Set) (*relation.Set, error), m int, msp *relation.Space, budget int) (*relation.Set, error) {
	cur := relation.NewSet(m)
	seen := map[uint64][]*relation.Set{}
	key := func(s *relation.Set) (uint64, error) {
		d, err := s.ToDense(msp)
		if err != nil {
			return 0, err
		}
		h := d.Hash()
		d.Release()
		return h, nil
	}
	k, err := key(cur)
	if err != nil {
		return nil, err
	}
	seen[k] = append(seen[k], cur)
	for i := 0; i < budget; i++ {
		next, err := step(cur)
		if err != nil {
			return nil, err
		}
		if next.Equal(cur) {
			return cur, nil // converged
		}
		k, err := key(next)
		if err != nil {
			return nil, err
		}
		for _, prev := range seen[k] {
			if prev.Equal(next) {
				// Revisited an earlier stage without convergence: the run is
				// periodic with period > 1, so the limit does not exist.
				return relation.NewSet(m), nil
			}
		}
		seen[k] = append(seen[k], next)
		cur = next
	}
	return nil, fmt.Errorf("eval: pfp run exceeded %d stages: %w", budget, ErrBudget)
}

// holdsSO enumerates every relation of the quantified arity — the
// exponential "guess" of the naive ESO algorithm.
func (c *naiveCtx) holdsSO(g logic.SOQuant) (bool, error) {
	size := 1
	for i := 0; i < g.Arity; i++ {
		size *= c.n
		if size > MaxNaiveSOBits {
			return false, fmt.Errorf("eval: naive enumeration of %s/%d over domain of %d needs 2^%d candidates; beyond MaxNaiveSOBits", g.Rel, g.Arity, c.n, size)
		}
	}
	// Enumerate all subsets of D^arity as bit masks.
	tuples := make([]relation.Tuple, 0, size)
	forEachAssignment(c.n, g.Arity, func(t []int) bool {
		tt := make(relation.Tuple, len(t))
		copy(tt, t)
		tuples = append(tuples, tt)
		return true
	})
	for mask := 0; mask < (1 << size); mask++ {
		s := relation.NewSet(g.Arity)
		for i, t := range tuples {
			if mask&(1<<i) != 0 {
				s.Add(t)
			}
		}
		restore := c.env.bind(g.Rel, boundRel{set: s})
		h, err := c.holds(g.F)
		restore()
		if err != nil {
			return false, err
		}
		if h {
			return true, nil
		}
	}
	return false, nil
}
