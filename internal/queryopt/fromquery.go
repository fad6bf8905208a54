package queryopt

import (
	"slices"

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
	var bound []logic.Var
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
			if g.Kind != logic.ExistsQ || slices.Contains(bound, g.V) || slices.Contains(q.Head, g.V) {
				return false // ∀, or shadowing an outer binder / head variable
			}
			bound = append(bound, g.V)
			return walk(g.F)
		default:
			return false
		}
	}
	if !walk(q.Body) {
		return nil, false
	}

	if len(eqs) > 0 && !unify(q.Head, atoms, eqs) {
		return nil, false
	}
	cq := &CQ{Head: append([]logic.Var(nil), q.Head...), Atoms: atoms}
	if cq.Validate() != nil {
		// E.g. no atoms, or a head variable occurring only in equalities.
		return nil, false
	}
	return cq, true
}

// unify renames the variables of atoms to their equality classes' head
// variables, or to some one of them; false if eqs force two head variables
// together.
func unify(head []logic.Var, atoms []Atom, eqs [][2]logic.Var) bool {
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
		if slices.Contains(head, a) && slices.Contains(head, b) {
			return false // x = y between head variables: not a flat CQ
		}
		if slices.Contains(head, b) {
			a, b = b, a
		}
		parent[b] = a
	}
	for i := range atoms {
		for j, v := range atoms[i].Vars {
			atoms[i].Vars[j] = find(v)
		}
	}
	return true
}
