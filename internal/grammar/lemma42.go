package grammar

import (
	"fmt"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/relation"
)

// Algebra is the finite algebra of Lemma 4.2: for a fixed database B with n
// elements and a fixed width k, the 2^(nᵏ) k-ary relations over the domain,
// indexed by their cell bitmask.
type Algebra struct {
	db   *database.Database
	vars []logic.Var
	sp   *relation.Space
	rels []*relation.Dense
	eval *WordEvaluator
}

// NewAlgebra enumerates the algebra. It fails if nᵏ > MaxAlgebraCells,
// since the enumeration has 2^(nᵏ) elements (the construction is a proof
// device for fixed B; use WordEvaluator directly for larger databases).
func NewAlgebra(db *database.Database, vars []logic.Var) (*Algebra, error) {
	sp, err := relation.NewSpace(len(vars), db.Size())
	if err != nil {
		return nil, err
	}
	if sp.Size() > MaxAlgebraCells {
		return nil, fmt.Errorf("grammar: algebra would have 2^%d relations (cap 2^%d)", sp.Size(), MaxAlgebraCells)
	}
	ev, err := NewWordEvaluator(db, vars)
	if err != nil {
		return nil, err
	}
	a := &Algebra{db: db, vars: vars, sp: sp, eval: ev}
	count := 1 << uint(sp.Size())
	a.rels = make([]*relation.Dense, count)
	for mask := 0; mask < count; mask++ {
		d := sp.Empty()
		for bit := 0; bit < sp.Size(); bit++ {
			if mask&(1<<uint(bit)) != 0 {
				d.Add(sp.Decode(bit, nil))
			}
		}
		a.rels[mask] = d
	}
	return a, nil
}

// Len returns the number of relations in the algebra.
func (a *Algebra) Len() int { return len(a.rels) }

// IndexOf returns the algebra index of d.
func (a *Algebra) IndexOf(d *relation.Dense) (int, error) {
	if !d.Space().SameShape(a.sp) {
		return 0, fmt.Errorf("grammar: relation shape mismatch")
	}
	mask := 0
	d.ForEach(func(t relation.Tuple) {
		mask |= 1 << uint(a.sp.Encode(t))
	})
	return mask, nil
}

// NonterminalFor names the nonterminal (and answer terminal) of relation i.
func (a *Algebra) NonterminalFor(i int) string { return fmt.Sprintf("r%d", i) }

// BuildGrammar emits the Lemma 4.2 parenthesis grammar G(B):
//
//	S    → ( rᵢ @ rᵢ )                         (answer check)
//	rᵢ   → ( t )          for each atom token t with value rᵢ
//	rᵢ   → ( rⱼ op r_m )  whenever rᵢ = rⱼ op r_m
//	rᵢ   → ( ! rⱼ )       whenever rᵢ = complement of rⱼ
//	rᵢ   → ( Q:x rⱼ )     whenever rᵢ = quantification of rⱼ along x
//
// so that ( w(φ) @ rᵢ ) ∈ L(G) exactly when φ evaluates to relation rᵢ
// in B.
func (a *Algebra) BuildGrammar() (*Grammar, error) {
	g := New("S")
	// Answer-check productions.
	for i := range a.rels {
		nt := a.NonterminalFor(i)
		g.MustAdd("S", N(nt), T("@"), T(nt))
	}
	// Atom productions.
	for tok, val := range a.eval.AtomTokens() {
		idx, err := a.IndexOf(val)
		if err != nil {
			return nil, err
		}
		g.MustAdd(a.NonterminalFor(idx), T(tok))
	}
	// Unary operations.
	for j, rj := range a.rels {
		c := rj.Clone()
		c.Complement()
		ci, err := a.IndexOf(c)
		if err != nil {
			return nil, err
		}
		g.MustAdd(a.NonterminalFor(ci), T("!"), N(a.NonterminalFor(j)))
		for ax, v := range a.vars {
			ei, err := a.IndexOf(rj.ExistsAxis(ax))
			if err != nil {
				return nil, err
			}
			g.MustAdd(a.NonterminalFor(ei), T("E:"+string(v)), N(a.NonterminalFor(j)))
			fi, err := a.IndexOf(rj.ForallAxis(ax))
			if err != nil {
				return nil, err
			}
			g.MustAdd(a.NonterminalFor(fi), T("A:"+string(v)), N(a.NonterminalFor(j)))
		}
	}
	// Binary operations.
	type binOp struct {
		tok   string
		apply func(l, r *relation.Dense) *relation.Dense
	}
	ops := []binOp{
		{"&", func(l, r *relation.Dense) *relation.Dense {
			o := l.Clone()
			o.IntersectWith(r)
			return o
		}},
		{"|", func(l, r *relation.Dense) *relation.Dense {
			o := l.Clone()
			o.UnionWith(r)
			return o
		}},
		{"->", func(l, r *relation.Dense) *relation.Dense {
			o := l.Clone()
			o.Complement()
			o.UnionWith(r)
			return o
		}},
		{"<->", func(l, r *relation.Dense) *relation.Dense {
			o := l.Clone()
			o.IntersectWith(r)
			nl := l.Clone()
			nl.Complement()
			nr := r.Clone()
			nr.Complement()
			nl.IntersectWith(nr)
			o.UnionWith(nl)
			return o
		}},
	}
	for _, op := range ops {
		for j, rj := range a.rels {
			for m, rm := range a.rels {
				idx, err := a.IndexOf(op.apply(rj, rm))
				if err != nil {
					return nil, err
				}
				g.MustAdd(a.NonterminalFor(idx), N(a.NonterminalFor(j)), T(op.tok), N(a.NonterminalFor(m)))
			}
		}
	}
	return g, nil
}

// MembershipWord builds the paper's ( φ@rᵢ ) word from a compiled formula
// word and a claimed answer index.
func (a *Algebra) MembershipWord(word []string, idx int) []string {
	out := make([]string, 0, len(word)+4)
	out = append(out, "(")
	out = append(out, word...)
	out = append(out, "@", a.NonterminalFor(idx), ")")
	return out
}

// EvalFormula compiles and evaluates an FO formula over the algebra's
// database, returning its algebra index.
func (a *Algebra) EvalFormula(f logic.Formula) (int, error) {
	word, err := Compile(f)
	if err != nil {
		return 0, err
	}
	d, err := a.eval.Eval(word)
	if err != nil {
		return 0, err
	}
	return a.IndexOf(d)
}
