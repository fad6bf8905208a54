package plan

import (
	"slices"

	"repro/internal/logic"
)

// pushFilters is the selection-before-join rewrite of an NNF body, run after
// minimize. Prop 3.1 prices a bottom-up evaluation by its intermediates, and a
// filter — a conjunct that is a positive atom over a database relation — keeps
// them small only if it meets the join it filters: S(x) ∧ ∃z(E(x,z) ∧ E(z,y))
// builds every 2-hop path before S selects from them, ∃z((S(x) ∧ E(x,z)) ∧
// E(z,y)) selects from the edges.
//
// A filter moves into an ∃ conjunct beside it, down to the innermost conjunct
// that has all of its variables free, and lands beside an atom there, in an ∧
// of two or more conjuncts: in front of a join. It moves through ∧ and ∃ only:
// it never enters a fixpoint, ¬, ∨ or ∀, passes a quantifier that rebinds one
// of its variables, or enters an ∧ whose conjuncts split its variables, and
// where it cannot land it stays as written. The atoms of the recursion
// relations in scope (rels) are not filters. It reports whether anything
// moved.
func pushFilters(f logic.Formula, rels []string) (logic.Formula, bool) {
	switch g := f.(type) {
	case logic.Binary:
		l, lok := pushFilters(g.L, rels)
		r, rok := pushFilters(g.R, rels)
		if lok || rok {
			f = logic.Binary{Op: g.Op, L: l, R: r}
		}
		if g.Op != logic.AndOp {
			return f, lok || rok
		}
		h, moved := chain(f, rels)
		return h, moved || lok || rok
	case logic.Quant:
		if h, ok := pushFilters(g.F, rels); ok {
			g.F = h
			return g, true
		}
	case logic.Not:
		if h, ok := pushFilters(g.F, rels); ok {
			return logic.Not{F: h}, true
		}
	case logic.Fix:
		if h, ok := pushFilters(g.Body, append(rels, g.Rel)); ok {
			g.Body = h
			return g, true
		}
	}
	return f, false
}

// chain moves the filters of the ∧ chain f into the ∃ conjuncts beside them.
func chain(f logic.Formula, rels []string) (logic.Formula, bool) {
	var buf [8]logic.Formula
	conj, moved := conjuncts(f, buf[:0]), false
	for i, c := range conj {
		a, ok := c.(logic.Atom)
		if !ok || slices.Contains(rels, a.Rel) {
			continue
		}
		for j, e := range conj {
			if h, ok := place(a, e); ok { // a itself is no ∃
				conj[i], conj[j], moved = nil, h, true
				break
			}
		}
	}
	if !moved {
		return f, false
	}
	return rebuild(f, &conj), true
}

// place puts filter a into f if f is an ∃ it may enter, beside the innermost
// conjunct with all of a's variables free, and reports whether it did.
func place(a logic.Atom, f logic.Formula) (logic.Formula, bool) {
	q, ok := f.(logic.Quant)
	if !ok || q.Kind != logic.ExistsQ || slices.Contains(a.Args, q.V) {
		return f, false
	}
	var buf [8]logic.Formula
	conj, land := conjuncts(q.F, buf[:0]), -1
	for j, c := range conj {
		if slices.ContainsFunc(a.Args, func(v logic.Var) bool { return !free(v, c) }) {
			continue
		}
		if h, ok := place(a, c); ok {
			conj[j], land = h, len(conj)
			break
		}
		if _, atom := c.(logic.Atom); atom && land < 0 && len(conj) > 1 {
			land = j
		}
	}
	switch {
	case land < 0:
		return f, false
	case land < len(conj):
		conj[land] = logic.Binary{Op: logic.AndOp, L: a, R: conj[land]}
	}
	q.F = rebuild(q.F, &conj)
	return q, true
}

// conjuncts appends the conjuncts of the ∧ chain f to dst, left to right.
func conjuncts(f logic.Formula, dst []logic.Formula) []logic.Formula {
	if g, ok := f.(logic.Binary); ok && g.Op == logic.AndOp {
		return conjuncts(g.R, conjuncts(g.L, dst))
	}
	return append(dst, f)
}

// rebuild returns the ∧ chain f with its conjuncts taken from *conj in order,
// a nil one dropped, keeping the association of the rest.
func rebuild(f logic.Formula, conj *[]logic.Formula) logic.Formula {
	if g, ok := f.(logic.Binary); ok && g.Op == logic.AndOp {
		switch l, r := rebuild(g.L, conj), rebuild(g.R, conj); {
		case l == nil:
			return r
		case r == nil:
			return l
		default:
			return logic.Binary{Op: logic.AndOp, L: l, R: r}
		}
	}
	c := (*conj)[0]
	*conj = (*conj)[1:]
	return c
}

// free reports whether v occurs free in f.
func free(v logic.Var, f logic.Formula) bool {
	switch g := f.(type) {
	case logic.Atom:
		return slices.Contains(g.Args, v)
	case logic.Eq:
		return g.L == v || g.R == v
	case logic.Not:
		return free(v, g.F)
	case logic.Binary:
		return free(v, g.L) || free(v, g.R)
	case logic.Quant:
		return g.V != v && free(v, g.F)
	case logic.Fix:
		return slices.Contains(g.Args, v) || !slices.Contains(g.Vars, v) && free(v, g.Body)
	}
	return false
}
