package logic

// DependentAlternationDepth returns the Emerson–Lei alternation depth: an
// opposite-polarity fixpoint nested inside [σ S. φ] contributes a level only
// if S occurs free in it. Closed subformula fixpoints — however deeply
// nested — do not alternate, because their values do not change across the
// outer iteration. PFP and IFP operators count as opposite to every
// monotone operator (and to each other) when dependent.
//
// This refines AlternationDepth, which counts syntactic nesting; the
// dependent notion is the right admission test for warm-start evaluation
// (eval.MonotoneContext): a closed inner fixpoint is re-evaluated under an
// unchanged environment, so memoizing it is always sound.
func DependentAlternationDepth(f Formula) int {
	switch g := f.(type) {
	case Atom, Eq, Truth:
		return 0
	case Not:
		return DependentAlternationDepth(g.F)
	case Binary:
		l, r := DependentAlternationDepth(g.L), DependentAlternationDepth(g.R)
		if l > r {
			return l
		}
		return r
	case Quant:
		return DependentAlternationDepth(g.F)
	case Fix:
		return fixDepDepth(g)
	case SOQuant:
		return DependentAlternationDepth(g.F)
	default:
		return 0
	}
}

// fixDepDepth computes the dependent depth of one fixpoint node.
func fixDepDepth(outer Fix) int {
	d := 1
	var walk func(f Formula)
	walk = func(f Formula) {
		switch g := f.(type) {
		case Atom, Eq, Truth:
		case Not:
			walk(g.F)
		case Binary:
			walk(g.L)
			walk(g.R)
		case Quant:
			walk(g.F)
		case Fix:
			sub := fixDepDepth(g)
			if opposedOps(outer.Op, g.Op) && relOccursFree(outer.Rel, g) {
				sub++
			}
			if sub > d {
				d = sub
			}
		case SOQuant:
			walk(g.F)
		}
	}
	walk(outer.Body)
	return d
}

// opposedOps reports whether nesting inner inside outer can constitute a
// real alternation: µ and ν oppose each other; PFP and IFP oppose
// everything (their stage operators are not monotone).
func opposedOps(outer, inner FixOp) bool {
	if outer == PFP || outer == IFP || inner == PFP || inner == IFP {
		return true
	}
	return outer != inner
}

// relOccursFree reports whether the relation symbol rel occurs free in f.
func relOccursFree(rel string, f Formula) bool {
	switch g := f.(type) {
	case Atom:
		return g.Rel == rel
	case Eq, Truth:
		return false
	case Not:
		return relOccursFree(rel, g.F)
	case Binary:
		return relOccursFree(rel, g.L) || relOccursFree(rel, g.R)
	case Quant:
		return relOccursFree(rel, g.F)
	case Fix:
		if g.Rel == rel {
			// Occurrences in the body are rebound; the argument tuple
			// carries no relation symbols.
			return false
		}
		return relOccursFree(rel, g.Body)
	case SOQuant:
		return g.Rel != rel && relOccursFree(rel, g.F)
	default:
		return false
	}
}
