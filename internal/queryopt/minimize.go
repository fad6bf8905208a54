package queryopt

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/logic"
)

// MinimizeWidth rewrites an acyclic conjunctive query into a first-order
// query with as few distinct variables as this join tree allows — the §5
// "variable minimization as a query optimization methodology" made
// concrete, generalizing the §2.2 chain trick (ChainToFO3) to arbitrary
// acyclic queries.
//
// The construction walks the GYO join tree top-down. At each node it
// allocates names for the node's fresh variables from a fixed pool — the
// query's own variables, head first, so the head keeps its names and order —
// reusing, by deliberate shadowing, any name that is not *live*:
// a name is live if it carries an interface variable (shared with the rest
// of the query, which by the running-intersection property always passes
// through the current node) or a head variable of the current subtree.
// The resulting width is
//
//	max over join-tree nodes of |vars(node) ∪ liveInterface(node)|
//
// e.g. 3 for chains of binary atoms (matching ChainToFO3) and 2 for stars.
// The rewritten query returns exactly the original answers; evaluating it
// with eval.BottomUp keeps every intermediate at the minimized arity.
func MinimizeWidth(q *CQ) (logic.Query, int, error) {
	m, err := Minimize(q)
	if err != nil {
		return logic.Query{}, 0, err
	}
	out, err := m.Query()
	return out, m.Width, err
}

// Minimized is MinimizeWidth's rewrite laid out but not written: every
// join-tree node's names are chosen, so the width is known before a formula
// exists. plan.Compile writes the formula (Query) only when the width is
// smaller than the text's.
type Minimized struct {
	// Width is the number of distinct variables of the rewritten query.
	Width int
	q     *CQ
	pool  []logic.Var // the names: the head, then q's other variables sorted
	root  int
	// Per atom: its join-tree children, the pool index of each argument's
	// name, and the names its ∃ binds, in the order they were handed out.
	children, args, fresh [][]int
}

// Minimize lays out MinimizeWidth's rewrite of the acyclic query q. A
// variable's id is its own position in the pool, so that sets of variables
// and of names are both 64-bit masks: q has at most 64 variables.
func Minimize(q *CQ) (*Minimized, error) {
	jt, err := q.BuildJoinTree()
	if err != nil {
		return nil, err
	}
	pool := append(make([]logic.Var, 0, 8), q.Head...)
	for _, a := range q.Atoms {
		for _, x := range a.Vars {
			if !slices.Contains(pool, x) {
				pool = append(pool, x)
			}
		}
	}
	if len(pool) > 64 {
		return nil, fmt.Errorf("queryopt: %d variables, at most 64 are minimised", len(pool))
	}
	slices.Sort(pool[len(q.Head):])
	n, k := len(q.Atoms), len(pool)
	lists := make([][]int, 3*n)
	m := &Minimized{Width: len(q.Head), q: q, pool: pool, root: jt.Root,
		children: lists[:n:n], args: lists[n : 2*n : 2*n], fresh: lists[2*n:]}
	total := 0
	for _, a := range q.Atoms {
		total += len(a.Vars)
	}
	ints := make([]int, 2*total) // args and fresh, cut at the most an atom takes
	for v, a := range q.Atoms {
		l := len(a.Vars)
		m.args[v], m.fresh[v], ints = ints[:0:l], ints[l:l:2*l], ints[2*l:]
	}
	for e, p := range jt.Parent {
		if p >= 0 {
			m.children[p] = append(m.children[p], e)
		}
	}
	// vars[v]: atom v's variables; sub[v]: its subtree's. A subtree variable
	// is live — carried into the subtree under its name — if it is a head
	// variable or occurs in an atom outside the subtree.
	masks := make([]uint64, 2*n)
	vars, sub := masks[:n], masks[n:]
	for v, a := range q.Atoms {
		for _, x := range a.Vars {
			vars[v] |= 1 << slices.Index(pool, x)
		}
	}
	var collect func(v int) uint64
	collect = func(v int) uint64 {
		sub[v] = vars[v]
		for _, c := range m.children[v] {
			sub[v] |= collect(c)
		}
		return sub[v]
	}
	collect(jt.Root)
	inside := make([]bool, n)
	var mark func(v int, in bool)
	mark = func(v int, in bool) {
		inside[v] = in
		for _, c := range m.children[v] {
			mark(c, in)
		}
	}
	live := func(c int) uint64 {
		mark(c, true)
		out := uint64(1)<<len(q.Head) - 1
		for e := range q.Atoms {
			if !inside[e] {
				out |= vars[e]
			}
		}
		mark(c, false)
		return sub[c] & out
	}

	// Names top-down: names[v*k+x] is variable x's name at atom v, -1 for none
	// yet; the head's are its own. A fresh variable takes the first name no
	// live variable holds (by deliberate shadowing of any other).
	names := make([]int, n*k)
	for i := range names {
		names[i] = -1
	}
	var place func(v int, held uint64) error
	place = func(v int, held uint64) error {
		own := names[v*k : (v+1)*k]
		for _, x := range q.Atoms[v].Vars {
			x := slices.Index(pool, x)
			if own[x] < 0 {
				name := bits.TrailingZeros64(^held)
				own[x], held = name, held|1<<name
				m.fresh[v] = append(m.fresh[v], name)
				m.Width = max(m.Width, name+1)
			}
			m.args[v] = append(m.args[v], own[x])
		}
		for _, c := range m.children[v] {
			var passed uint64
			for l := live(c); l != 0; l &= l - 1 {
				x := bits.TrailingZeros64(l)
				if own[x] < 0 {
					return fmt.Errorf("queryopt: interface variable %s of child %d not assigned (join tree broken)", pool[x], c)
				}
				names[c*k+x], passed = own[x], passed|1<<own[x]
			}
			if err := place(c, passed); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range q.Head {
		names[jt.Root*k+i] = i
	}
	if err := place(jt.Root, uint64(1)<<len(q.Head)-1); err != nil {
		return nil, err
	}
	return m, nil
}

// Query writes the rewrite: at each join-tree node, ∃ over the names it hands
// out, of its atom ∧ its children's subformulas.
func (m *Minimized) Query() (logic.Query, error) {
	var build func(v int) logic.Formula
	build = func(v int) logic.Formula {
		a := m.q.Atoms[v]
		args := make([]logic.Var, len(a.Vars))
		for i, name := range m.args[v] {
			args[i] = m.pool[name]
		}
		conj := []logic.Formula{logic.Atom{Rel: a.Rel, Args: args}}
		for _, c := range m.children[v] {
			conj = append(conj, build(c))
		}
		fresh := make([]logic.Var, len(m.fresh[v]))
		for i, name := range m.fresh[v] {
			fresh[i] = m.pool[name]
		}
		return logic.Exists(logic.And(conj...), fresh...)
	}
	return logic.NewQuery(m.q.Head, build(m.root))
}
