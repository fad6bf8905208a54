package logic

import "fmt"

// NNF returns a formula equivalent to f in negation normal form: negations
// appear only on atoms, equalities, and PFP/IFP applications; → and ↔ are
// expanded; ¬∃ and ¬∀ are pushed through; negated LFP/GFP applications are
// dualized:
//
//	¬[lfp S(x̄). φ](ū) ≡ [gfp S(x̄). ¬φ[S := ¬S]](ū)
//
// (and symmetrically). The under-approximation algorithm of Theorem 3.5
// requires its input in this form, so that every recursion relation occurs
// positively and the stage functions are monotone. Second-order quantifiers
// must not occur under a negation (ESO is not closed under complement); NNF
// returns an error in that case. Negated PFP applications are left as
// literals ¬[pfp …](ū): the PFP evaluator decides them directly.
func NNF(f Formula) (Formula, error) {
	return nnf(f, false)
}

func nnf(f Formula, negate bool) (Formula, error) {
	switch g := f.(type) {
	case Atom, Eq:
		if negate {
			return Not{F: f}, nil
		}
		return f, nil
	case Truth:
		if negate {
			return Truth{Value: !g.Value}, nil
		}
		return f, nil
	case Not:
		return nnf(g.F, !negate)
	case Binary:
		switch g.Op {
		case AndOp, OrOp:
			l, err := nnf(g.L, negate)
			if err != nil {
				return nil, err
			}
			r, err := nnf(g.R, negate)
			if err != nil {
				return nil, err
			}
			op := g.Op
			if negate {
				if op == AndOp {
					op = OrOp
				} else {
					op = AndOp
				}
			}
			return Binary{Op: op, L: l, R: r}, nil
		case ImpliesOp:
			// l → r ≡ ¬l ∨ r
			return nnf(Binary{Op: OrOp, L: Not{F: g.L}, R: g.R}, negate)
		case IffOp:
			// l ↔ r ≡ (l ∧ r) ∨ (¬l ∧ ¬r)
			expanded := Binary{
				Op: OrOp,
				L:  Binary{Op: AndOp, L: g.L, R: g.R},
				R:  Binary{Op: AndOp, L: Not{F: g.L}, R: Not{F: g.R}},
			}
			return nnf(expanded, negate)
		default:
			return nil, fmt.Errorf("logic: unknown binary op %v", g.Op)
		}
	case Quant:
		inner, err := nnf(g.F, negate)
		if err != nil {
			return nil, err
		}
		kind := g.Kind
		if negate {
			if kind == ExistsQ {
				kind = ForallQ
			} else {
				kind = ExistsQ
			}
		}
		return Quant{Kind: kind, V: g.V, F: inner}, nil
	case Fix:
		if g.Op == PFP || g.Op == IFP {
			// No dualization exists for the non-monotone operators; a
			// negated application remains a literal.
			body, err := nnf(g.Body, false)
			if err != nil {
				return nil, err
			}
			fixed := Fix{Op: g.Op, Rel: g.Rel, Vars: g.Vars, Body: body, Args: g.Args}
			if negate {
				return Not{F: fixed}, nil
			}
			return fixed, nil
		}
		if !negate {
			body, err := nnf(g.Body, false)
			if err != nil {
				return nil, err
			}
			return Fix{Op: g.Op, Rel: g.Rel, Vars: g.Vars, Body: body, Args: g.Args}, nil
		}
		// Dualize: negate the body and flip the polarity of the recursion
		// relation; least becomes greatest and vice versa.
		dualBody, err := nnf(Not{F: NegateRel(g.Body, g.Rel)}, false)
		if err != nil {
			return nil, err
		}
		op := GFP
		if g.Op == GFP {
			op = LFP
		}
		return Fix{Op: op, Rel: g.Rel, Vars: g.Vars, Body: dualBody, Args: g.Args}, nil
	case SOQuant:
		if negate {
			return nil, fmt.Errorf("logic: second-order quantifier %s under negation; ESO is not closed under complement", g.Rel)
		}
		inner, err := nnf(g.F, false)
		if err != nil {
			return nil, err
		}
		return SOQuant{Rel: g.Rel, Arity: g.Arity, F: inner}, nil
	default:
		return nil, fmt.Errorf("logic: unknown formula %T", f)
	}
}
