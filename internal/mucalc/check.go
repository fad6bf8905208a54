package mucalc

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/relation"
)

// Check computes the set of states satisfying f, by the direct fixpoint
// semantics of the µ-calculus (naive nested iteration — the oracle against
// which the FP² route is validated).
func Check(k *Kripke, f Formula) (*bitset.Set, error) {
	if err := Validate(f); err != nil {
		return nil, err
	}
	return check(k, f, map[string]*bitset.Set{})
}

func check(k *Kripke, f Formula, env map[string]*bitset.Set) (*bitset.Set, error) {
	switch g := f.(type) {
	case Prop:
		if set, ok := k.props[g.Name]; ok {
			return set.Clone(), nil
		}
		return bitset.New(k.n), nil
	case NegProp:
		set := bitset.New(k.n)
		if p, ok := k.props[g.Name]; ok {
			set.Copy(p)
		}
		set.Not()
		return set, nil
	case Lit:
		if g.Value {
			return bitset.Full(k.n), nil
		}
		return bitset.New(k.n), nil
	case VarRef:
		set, ok := env[g.Name]
		if !ok {
			return nil, fmt.Errorf("mucalc: unbound variable %s", g.Name)
		}
		return set.Clone(), nil
	case Conj:
		l, err := check(k, g.L, env)
		if err != nil {
			return nil, err
		}
		r, err := check(k, g.R, env)
		if err != nil {
			return nil, err
		}
		l.And(r)
		return l, nil
	case Disj:
		l, err := check(k, g.L, env)
		if err != nil {
			return nil, err
		}
		r, err := check(k, g.R, env)
		if err != nil {
			return nil, err
		}
		l.Or(r)
		return l, nil
	case Diamond:
		sub, err := check(k, g.F, env)
		if err != nil {
			return nil, err
		}
		return k.preExists(sub), nil
	case Box:
		sub, err := check(k, g.F, env)
		if err != nil {
			return nil, err
		}
		return k.preForall(sub), nil
	case Mu:
		cur := bitset.New(k.n)
		for {
			env[g.Var] = cur
			next, err := check(k, g.F, env)
			if err != nil {
				delete(env, g.Var)
				return nil, err
			}
			if next.Equal(cur) {
				delete(env, g.Var)
				return cur, nil
			}
			cur = next
		}
	case Nu:
		cur := bitset.Full(k.n)
		for {
			env[g.Var] = cur
			next, err := check(k, g.F, env)
			if err != nil {
				delete(env, g.Var)
				return nil, err
			}
			if next.Equal(cur) {
				delete(env, g.Var)
				return cur, nil
			}
			cur = next
		}
	default:
		return nil, fmt.Errorf("mucalc: unknown formula %T", f)
	}
}

// preExists is ◇: states with some successor in target.
func (k *Kripke) preExists(target *bitset.Set) *bitset.Set {
	out := bitset.New(k.n)
	for s := 0; s < k.n; s++ {
		for _, t := range k.succ[s] {
			if target.Test(t) {
				out.Set(s)
				break
			}
		}
	}
	return out
}

// preForall is □: states all of whose successors are in target.
func (k *Kripke) preForall(target *bitset.Set) *bitset.Set {
	out := bitset.New(k.n)
	for s := 0; s < k.n; s++ {
		all := true
		for _, t := range k.succ[s] {
			if !target.Test(t) {
				all = false
				break
			}
		}
		if all {
			out.Set(s)
		}
	}
	return out
}

// ToFP2 translates f into a two-variable fixpoint formula with one free
// variable x, over the database view of a Kripke structure (binary E, unary
// propositions). The translation is the §1 embedding Lµ ⊂ FP²: modalities
// become quantification over successors with variable reuse, fixpoints map
// to unary lfp/gfp operators, and the alternation depth is preserved.
func ToFP2(f Formula) (logic.Formula, error) {
	if err := Validate(f); err != nil {
		return nil, err
	}
	return toFP2(f)
}

func toFP2(f Formula) (logic.Formula, error) {
	const x, y = logic.Var("x"), logic.Var("y")
	switch g := f.(type) {
	case Prop:
		return logic.R(g.Name, x), nil
	case NegProp:
		return logic.Neg(logic.R(g.Name, x)), nil
	case Lit:
		return logic.Truth{Value: g.Value}, nil
	case VarRef:
		return logic.R(g.Name, x), nil
	case Conj:
		l, err := toFP2(g.L)
		if err != nil {
			return nil, err
		}
		r, err := toFP2(g.R)
		if err != nil {
			return nil, err
		}
		return logic.And(l, r), nil
	case Disj:
		l, err := toFP2(g.L)
		if err != nil {
			return nil, err
		}
		r, err := toFP2(g.R)
		if err != nil {
			return nil, err
		}
		return logic.Or(l, r), nil
	case Diamond:
		sub, err := toFP2(g.F)
		if err != nil {
			return nil, err
		}
		// ∃y (E(x,y) ∧ ∃x (x=y ∧ φ(x))) — reuse of x keeps the width at 2.
		return logic.Exists(logic.And(logic.R("E", x, y),
			logic.Exists(logic.And(logic.Equal(x, y), sub), x)), y), nil
	case Box:
		sub, err := toFP2(g.F)
		if err != nil {
			return nil, err
		}
		// ∀y (E(x,y) → ∃x (x=y ∧ φ(x)))
		return logic.Forall(logic.Implies(logic.R("E", x, y),
			logic.Exists(logic.And(logic.Equal(x, y), sub), x)), y), nil
	case Mu:
		sub, err := toFP2(g.F)
		if err != nil {
			return nil, err
		}
		return logic.Lfp(g.Var, []logic.Var{x}, sub, x), nil
	case Nu:
		sub, err := toFP2(g.F)
		if err != nil {
			return nil, err
		}
		return logic.Gfp(g.Var, []logic.Var{x}, sub, x), nil
	default:
		return nil, fmt.Errorf("mucalc: unknown formula %T", f)
	}
}

// FP2Query wraps the translation as the query (x). tr(f).
func FP2Query(f Formula) (logic.Query, error) {
	body, err := ToFP2(f)
	if err != nil {
		return logic.Query{}, err
	}
	return logic.NewQuery([]logic.Var{"x"}, body)
}

// CheckViaFP2 model-checks by translating to FP² and evaluating the query
// bottom-up against the database view of the structure.
func CheckViaFP2(k *Kripke, f Formula) (*bitset.Set, error) {
	q, err := FP2Query(f)
	if err != nil {
		return nil, err
	}
	db, err := k.ToDatabase(PropsOf(f)...)
	if err != nil {
		return nil, err
	}
	ans, err := eval.BottomUp(q, db)
	if err != nil {
		return nil, err
	}
	return answerToStates(k, db, ans)
}

// CheckCertified model-checks through the Theorem 3.5 route: the prover
// finds a certificate for the FP² query and the polynomial verifier replays
// it. Both the certificate and the verified state set are returned.
func CheckCertified(k *Kripke, f Formula) (*bitset.Set, *eval.Certificate, error) {
	q, err := FP2Query(f)
	if err != nil {
		return nil, nil, err
	}
	db, err := k.ToDatabase(PropsOf(f)...)
	if err != nil {
		return nil, nil, err
	}
	cert, res, err := eval.FindCertificate(context.Background(), q, db)
	if err != nil {
		return nil, nil, err
	}
	ver, err := eval.VerifyCertificate(context.Background(), q, db, cert)
	if err != nil {
		return nil, nil, err
	}
	if !ver.Answer.Equal(res.Answer) {
		return nil, nil, fmt.Errorf("mucalc: verified answer differs from prover answer")
	}
	states, err := answerToStates(k, db, ver.Answer)
	if err != nil {
		return nil, nil, err
	}
	return states, cert, nil
}

func answerToStates(k *Kripke, db *database.Database, ans *relation.Set) (*bitset.Set, error) {
	if ans.Arity() != 1 {
		return nil, fmt.Errorf("mucalc: answer arity %d, want 1", ans.Arity())
	}
	out := bitset.New(k.n)
	ans.ForEach(func(t relation.Tuple) {
		out.Set(db.Value(t[0]))
	})
	return out, nil
}
