package logic

import (
	"fmt"
	"slices"
	"sort"
)

// FreeVars returns the set of free individual variables of f.
func FreeVars(f Formula) map[Var]bool {
	out := make(map[Var]bool)
	freeVars(f, nil, out)
	return out
}

// freeVars adds to out the variables of f outside bound, a stack the
// callee may push onto.
func freeVars(f Formula, bound []Var, out map[Var]bool) {
	add := func(vs ...Var) {
		for _, v := range vs {
			if !slices.Contains(bound, v) {
				out[v] = true
			}
		}
	}
	switch g := f.(type) {
	case Atom:
		add(g.Args...)
	case Eq:
		add(g.L, g.R)
	case Truth:
	case Not:
		freeVars(g.F, bound, out)
	case Binary:
		freeVars(g.L, bound, out)
		freeVars(g.R, bound, out)
	case Quant:
		freeVars(g.F, append(bound, g.V), out)
	case Fix:
		add(g.Args...)
		freeVars(g.Body, append(bound, g.Vars...), out)
	case SOQuant:
		freeVars(g.F, bound, out)
	default:
		panic(fmt.Sprintf("logic: unknown formula %T", f))
	}
}

// AllVars returns every individual variable occurring in f, free or bound.
func AllVars(f Formula) map[Var]bool {
	out := make(map[Var]bool)
	for _, v := range appendVars(nil, f) {
		out[v] = true
	}
	return out
}

// SortedVars returns vars as a sorted slice, for deterministic iteration.
func SortedVars(vars map[Var]bool) []Var {
	out := make([]Var, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Width returns the number of distinct individual variables occurring in f.
// A formula belongs to the bounded-variable fragment Lᵏ exactly when
// Width(f) ≤ k (§2.2).
func Width(f Formula) int { return len(appendVars(nil, f)) }

// Walk calls fn on f and every subformula, parents before children.
// Direct subformulas of a Fix node are its body; of a Quant/SOQuant node,
// the quantified formula.
func Walk(f Formula, fn func(Formula)) {
	fn(f)
	switch g := f.(type) {
	case Atom, Eq, Truth:
	case Not:
		Walk(g.F, fn)
	case Binary:
		Walk(g.L, fn)
		Walk(g.R, fn)
	case Quant:
		Walk(g.F, fn)
	case Fix:
		Walk(g.Body, fn)
	case SOQuant:
		Walk(g.F, fn)
	default:
		panic(fmt.Sprintf("logic: unknown formula %T", f))
	}
}

// Size returns the number of AST nodes: the paper's |φ|, the length of the
// expression against which expression and combined complexity are measured.
func Size(f Formula) int {
	n := 0
	Walk(f, func(Formula) { n++ })
	return n
}

// relArity is a relation symbol with the arity it is used (or bound) with.
type relArity struct {
	name  string
	arity int
}

// freeRels appends to out the relation symbols of f that are not bound by an
// enclosing fixpoint operator or second-order quantifier (bound, innermost
// last), with their arities, once each: the symbols the database must
// supply. A symbol used with two arities is an error.
func freeRels(f Formula, bound, out []relArity) ([]relArity, error) {
	switch g := f.(type) {
	case Atom:
		for i := len(bound) - 1; i >= 0; i-- {
			if b := bound[i]; b.name == g.Rel {
				if b.arity != len(g.Args) {
					return out, fmt.Errorf("logic: %s used with arity %d, bound with arity %d", g.Rel, len(g.Args), b.arity)
				}
				return out, nil
			}
		}
		for _, r := range out {
			if r.name == g.Rel {
				if r.arity != len(g.Args) {
					return out, fmt.Errorf("logic: %s used with arities %d and %d", g.Rel, r.arity, len(g.Args))
				}
				return out, nil
			}
		}
		return append(out, relArity{g.Rel, len(g.Args)}), nil
	case Eq, Truth:
		return out, nil
	case Not:
		return freeRels(g.F, bound, out)
	case Binary:
		out, err := freeRels(g.L, bound, out)
		if err != nil {
			return out, err
		}
		return freeRels(g.R, bound, out)
	case Quant:
		return freeRels(g.F, bound, out)
	case Fix:
		return freeRels(g.Body, append(bound, relArity{g.Rel, len(g.Vars)}), out)
	case SOQuant:
		return freeRels(g.F, append(bound, relArity{g.Rel, g.Arity}), out)
	default:
		panic(fmt.Sprintf("logic: unknown formula %T", f))
	}
}

// Footprint returns the names of f's free relation symbols, sorted: the
// relations of the database a query over f reads, the part of D its value
// depends on (§2.1–2.2). Arity conflicts are not its concern.
func Footprint(f Formula) []string {
	rels, _ := freeRels(f, nil, make([]relArity, 0, 4))
	names := make([]string, len(rels))
	for i, r := range rels {
		names[i] = r.name
	}
	slices.Sort(names)
	return names
}

// Polarity reports whether the relation symbol rel occurs positively and/or
// negatively in f (under an even/odd number of negations). An occurrence
// under ↔, or inside the body of a nested PFP or IFP, counts as both: those
// stage operators need not be monotone in their free relations. A nested LFP
// or GFP body passes polarity through. Occurrences where rel is rebound by an
// inner operator are not counted. plan.Compile lowers a PFP whose body has no
// negative occurrence of its relation to an LFP, so this is its soundness.
func Polarity(f Formula, rel string) (pos, neg bool) {
	p, n := polarity(f, rel, true)
	return p, n
}

func polarity(f Formula, rel string, positive bool) (pos, neg bool) {
	merge := func(p, n bool) {
		pos = pos || p
		neg = neg || n
	}
	switch g := f.(type) {
	case Atom:
		if g.Rel == rel {
			if positive {
				pos = true
			} else {
				neg = true
			}
		}
	case Eq, Truth:
	case Not:
		merge(polarity(g.F, rel, !positive))
	case Binary:
		switch g.Op {
		case AndOp, OrOp:
			merge(polarity(g.L, rel, positive))
			merge(polarity(g.R, rel, positive))
		case ImpliesOp:
			merge(polarity(g.L, rel, !positive))
			merge(polarity(g.R, rel, positive))
		case IffOp:
			// Both sides occur in both polarities.
			merge(polarity(g.L, rel, positive))
			merge(polarity(g.L, rel, !positive))
			merge(polarity(g.R, rel, positive))
			merge(polarity(g.R, rel, !positive))
		}
	case Quant:
		merge(polarity(g.F, rel, positive))
	case Fix:
		if g.Rel == rel {
			return // rebound
		}
		if g.Op == PFP || g.Op == IFP {
			// PFP and IFP stage operators are not monotone in their free
			// relations; a use of rel inside their bodies cannot be assumed
			// to be of either polarity.
			merge(polarity(g.Body, rel, positive))
			merge(polarity(g.Body, rel, !positive))
		} else {
			merge(polarity(g.Body, rel, positive))
		}
	case SOQuant:
		if g.Rel == rel {
			return // rebound
		}
		merge(polarity(g.F, rel, positive))
	default:
		panic(fmt.Sprintf("logic: unknown formula %T", f))
	}
	return
}
