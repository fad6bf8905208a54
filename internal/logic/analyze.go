package logic

import (
	"fmt"
	"sort"
)

// FreeVars returns the set of free individual variables of f.
func FreeVars(f Formula) map[Var]bool {
	out := make(map[Var]bool)
	freeVars(f, out)
	return out
}

func freeVars(f Formula, out map[Var]bool) {
	switch g := f.(type) {
	case Atom:
		for _, v := range g.Args {
			out[v] = true
		}
	case Eq:
		out[g.L] = true
		out[g.R] = true
	case Truth:
	case Not:
		freeVars(g.F, out)
	case Binary:
		freeVars(g.L, out)
		freeVars(g.R, out)
	case Quant:
		inner := make(map[Var]bool)
		freeVars(g.F, inner)
		delete(inner, g.V)
		for v := range inner {
			out[v] = true
		}
	case Fix:
		inner := make(map[Var]bool)
		freeVars(g.Body, inner)
		for _, v := range g.Vars {
			delete(inner, v)
		}
		for v := range inner {
			out[v] = true
		}
		for _, v := range g.Args {
			out[v] = true
		}
	case SOQuant:
		freeVars(g.F, out)
	default:
		panic(fmt.Sprintf("logic: unknown formula %T", f))
	}
}

// AllVars returns every individual variable occurring in f, free or bound.
func AllVars(f Formula) map[Var]bool {
	out := make(map[Var]bool)
	Walk(f, func(g Formula) {
		switch h := g.(type) {
		case Atom:
			for _, v := range h.Args {
				out[v] = true
			}
		case Eq:
			out[h.L] = true
			out[h.R] = true
		case Quant:
			out[h.V] = true
		case Fix:
			for _, v := range h.Vars {
				out[v] = true
			}
			for _, v := range h.Args {
				out[v] = true
			}
		}
	})
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
func Width(f Formula) int { return len(AllVars(f)) }

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

// RelUse describes one use of a relation symbol.
type RelUse struct {
	Name  string
	Arity int
}

// FreeRels returns the relation symbols of f that are not bound by an
// enclosing fixpoint operator or second-order quantifier, with their arities.
// These are the symbols that must be supplied by the database. An error is
// returned if a symbol is used with two different arities.
func FreeRels(f Formula) (map[string]int, error) {
	out := make(map[string]int)
	err := freeRels(f, map[string]int{}, out)
	return out, err
}

// Footprint returns the names of f's free relation symbols, sorted: the
// relations of the database a query over f reads, the part of D its value
// depends on (§2.1–2.2). FreeRels' arity conflicts are not its concern.
func Footprint(f Formula) []string {
	rels, _ := FreeRels(f)
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func freeRels(f Formula, bound map[string]int, out map[string]int) error {
	switch g := f.(type) {
	case Atom:
		if a, ok := bound[g.Rel]; ok {
			if a != len(g.Args) {
				return fmt.Errorf("logic: %s used with arity %d, bound with arity %d", g.Rel, len(g.Args), a)
			}
			return nil
		}
		if a, ok := out[g.Rel]; ok && a != len(g.Args) {
			return fmt.Errorf("logic: %s used with arities %d and %d", g.Rel, a, len(g.Args))
		}
		out[g.Rel] = len(g.Args)
	case Eq, Truth:
	case Not:
		return freeRels(g.F, bound, out)
	case Binary:
		if err := freeRels(g.L, bound, out); err != nil {
			return err
		}
		return freeRels(g.R, bound, out)
	case Quant:
		return freeRels(g.F, bound, out)
	case Fix:
		prev, had := bound[g.Rel]
		bound[g.Rel] = len(g.Vars)
		err := freeRels(g.Body, bound, out)
		if had {
			bound[g.Rel] = prev
		} else {
			delete(bound, g.Rel)
		}
		return err
	case SOQuant:
		prev, had := bound[g.Rel]
		bound[g.Rel] = g.Arity
		err := freeRels(g.F, bound, out)
		if had {
			bound[g.Rel] = prev
		} else {
			delete(bound, g.Rel)
		}
		return err
	default:
		panic(fmt.Sprintf("logic: unknown formula %T", f))
	}
	return nil
}

// Polarity reports whether the relation symbol rel occurs positively and/or
// negatively in f (under an even/odd number of negations). An occurrence
// under ↔, or inside a PFP body, counts as both. Occurrences where rel is
// rebound by an inner operator are not counted.
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
