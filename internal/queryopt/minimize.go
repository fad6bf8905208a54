package queryopt

import (
	"fmt"

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
	jt, err := q.BuildJoinTree()
	if err != nil {
		return logic.Query{}, 0, err
	}
	n := len(q.Atoms)
	children := make([][]int, n)
	for e, p := range jt.Parent {
		if p >= 0 {
			children[p] = append(children[p], e)
		}
	}
	// subtreeVars and outside-vars per node.
	subtree := make([]map[logic.Var]bool, n)
	var collect func(v int) map[logic.Var]bool
	collect = func(v int) map[logic.Var]bool {
		if subtree[v] != nil {
			return subtree[v]
		}
		out := make(map[logic.Var]bool)
		for _, x := range q.Atoms[v].Vars {
			out[x] = true
		}
		for _, c := range children[v] {
			for x := range collect(c) {
				out[x] = true
			}
		}
		subtree[v] = out
		return out
	}
	collect(jt.Root)
	head := make(map[logic.Var]bool, len(q.Head))
	for _, h := range q.Head {
		head[h] = true
	}
	// occurrences per variable across all atoms, to derive "outside" vars.
	occ := make(map[logic.Var]int)
	for _, a := range q.Atoms {
		seen := map[logic.Var]bool{}
		for _, x := range a.Vars {
			if !seen[x] {
				seen[x] = true
				occ[x]++
			}
		}
	}
	occIn := func(v int) map[logic.Var]int {
		out := make(map[logic.Var]int)
		var rec func(u int)
		rec = func(u int) {
			seen := map[logic.Var]bool{}
			for _, x := range q.Atoms[u].Vars {
				if !seen[x] {
					seen[x] = true
					out[x]++
				}
			}
			for _, c := range children[u] {
				rec(c)
			}
		}
		rec(v)
		return out
	}
	// liveInterface(v): subtree vars that also occur outside the subtree or
	// in the head.
	liveInterface := func(v int) []logic.Var {
		in := occIn(v)
		var out []logic.Var
		for x := range subtree[v] {
			if head[x] || occ[x] > in[x] {
				out = append(out, x)
			}
		}
		return out
	}

	// Pool allocation. A name is handed out only while every earlier one
	// carries a distinct variable of q, so the pool never runs dry.
	pool := append([]logic.Var(nil), q.Head...)
	for _, x := range q.Vars() {
		if !head[x] {
			pool = append(pool, x)
		}
	}
	width := 0
	poolName := func(i int) logic.Var {
		if i+1 > width {
			width = i + 1
		}
		return pool[i]
	}

	var build func(v int, assign map[logic.Var]logic.Var) (logic.Formula, error)
	build = func(v int, assign map[logic.Var]logic.Var) (logic.Formula, error) {
		// Reserved names: everything in the incoming assignment.
		reserved := make(map[logic.Var]bool, len(assign))
		for _, name := range assign {
			reserved[name] = true
		}
		local := make(map[logic.Var]logic.Var, len(assign))
		for k, x := range assign {
			local[k] = x
		}
		var fresh []logic.Var
		allocate := func(x logic.Var) {
			if _, ok := local[x]; ok {
				return
			}
			for i := 0; ; i++ {
				name := poolName(i)
				if !reserved[name] {
					local[x] = name
					reserved[name] = true
					fresh = append(fresh, name)
					return
				}
			}
		}
		seen := map[logic.Var]bool{}
		for _, x := range q.Atoms[v].Vars {
			if !seen[x] {
				seen[x] = true
				allocate(x)
			}
		}
		args := make([]logic.Var, len(q.Atoms[v].Vars))
		for i, x := range q.Atoms[v].Vars {
			args[i] = local[x]
		}
		conj := []logic.Formula{logic.Atom{Rel: q.Atoms[v].Rel, Args: args}}
		for _, c := range children[v] {
			childAssign := make(map[logic.Var]logic.Var)
			for _, x := range liveInterface(c) {
				name, ok := local[x]
				if !ok {
					return nil, fmt.Errorf("queryopt: interface variable %s of child %d not assigned (join tree broken)", x, c)
				}
				childAssign[x] = name
			}
			sub, err := build(c, childAssign)
			if err != nil {
				return nil, err
			}
			conj = append(conj, sub)
		}
		return logic.Exists(logic.And(conj...), fresh...), nil
	}

	// Head variables get the first pool names, fixed for the whole query.
	topAssign := make(map[logic.Var]logic.Var, len(q.Head))
	for i, h := range q.Head {
		topAssign[h] = poolName(i)
	}
	body, err := build(jt.Root, topAssign)
	if err != nil {
		return logic.Query{}, 0, err
	}
	out, err := logic.NewQuery(q.Head, body)
	if err != nil {
		return logic.Query{}, 0, err
	}
	return out, width, nil
}
