package queryopt

import (
	"repro/internal/logic"
)

// FromQuery recognizes a first-order query as a conjunctive query: a body
// built from relational atoms, equalities, true, ∧ and ∃ only, with no
// variable bound twice and no head variable rebound. Equalities are
// compiled away by unifying their variable classes (head variables are kept
// as class representatives; an equality forcing two distinct head variables
// together is outside the CQ form and rejected).
//
// The recognizer is deliberately conservative: ok=false never means "the
// query has no CQ equivalent", only "this syntactic shape is not the ∃∧
// fragment", and callers fall back to a general evaluator. On ok=true the
// returned CQ has exactly the query's semantics, so its width-minimised
// form (MinimizeWidth) may substitute for the text as written.
func FromQuery(q logic.Query) (*CQ, bool) {
	head := make(map[logic.Var]bool, len(q.Head))
	for _, v := range q.Head {
		head[v] = true
	}
	bound := make(map[logic.Var]bool)
	var atoms []Atom
	var eqs [][2]logic.Var
	var walk func(f logic.Formula) bool
	walk = func(f logic.Formula) bool {
		switch g := f.(type) {
		case logic.Atom:
			atoms = append(atoms, Atom{Rel: g.Rel, Vars: append([]logic.Var(nil), g.Args...)})
			return true
		case logic.Eq:
			eqs = append(eqs, [2]logic.Var{g.L, g.R})
			return true
		case logic.Truth:
			return g.Value // a false conjunct is outside the CQ form
		case logic.Binary:
			return g.Op == logic.AndOp && walk(g.L) && walk(g.R)
		case logic.Quant:
			if g.Kind != logic.ExistsQ || bound[g.V] || head[g.V] {
				return false // ∀, or shadowing an outer binder / head variable
			}
			bound[g.V] = true
			return walk(g.F)
		default:
			return false
		}
	}
	if !walk(q.Body) {
		return nil, false
	}

	// Unify equality classes, preferring head variables as representatives.
	parent := make(map[logic.Var]logic.Var)
	var find func(v logic.Var) logic.Var
	find = func(v logic.Var) logic.Var {
		p, ok := parent[v]
		if !ok || p == v {
			return v
		}
		root := find(p)
		parent[v] = root
		return root
	}
	for _, eq := range eqs {
		a, b := find(eq[0]), find(eq[1])
		if a == b {
			continue
		}
		if head[a] && head[b] {
			return nil, false // x = y between head variables: not a flat CQ
		}
		if head[b] {
			a, b = b, a
		}
		parent[b] = a
	}
	for i := range atoms {
		for j, v := range atoms[i].Vars {
			atoms[i].Vars[j] = find(v)
		}
	}
	cq := &CQ{Head: append([]logic.Var(nil), q.Head...), Atoms: atoms}
	if cq.Validate() != nil {
		// E.g. no atoms, or a head variable occurring only in equalities.
		return nil, false
	}
	return cq, true
}
