// Package queryopt holds the conjunctive queries of §1 of Vardi (PODS
// 1995) and the plans the paper contrasts: the naive cross-product evaluator
// (EvalNaive), whose intermediates grow with the number of atom positions,
// and the bounded-variable forms that keep them small — ChainToFO3, the §2.2
// three-variable path, and whatever plan.Compile's miniscoping pass makes of
// a query's direct first-order form (ToFO), which for an acyclic join is the
// variable-minimised form §5 asks for and for a cyclic one the width of an
// elimination order.
package queryopt

import (
	"fmt"
	"slices"

	"repro/internal/logic"
	"repro/internal/relation"
)

// Atom is one conjunct R(v₁, …, v_m); repeated variables are allowed.
type Atom struct {
	Rel  string
	Vars []logic.Var
}

// CQ is a conjunctive query: answer(Head) ← Atoms.
type CQ struct {
	Head  []logic.Var
	Atoms []Atom
}

// Validate checks well-formedness: at least one atom, distinct head
// variables, and every head variable occurring in some atom.
func (q *CQ) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("queryopt: query with no atoms")
	}
	for _, a := range q.Atoms {
		if a.Rel == "" {
			return fmt.Errorf("queryopt: atom with empty relation name")
		}
		if slices.Contains(a.Vars, "") {
			return fmt.Errorf("queryopt: empty variable in atom %s", a.Rel)
		}
	}
	for i, v := range q.Head {
		if slices.Contains(q.Head[:i], v) {
			return fmt.Errorf("queryopt: repeated head variable %s", v)
		}
		if !slices.ContainsFunc(q.Atoms, func(a Atom) bool { return slices.Contains(a.Vars, v) }) {
			return fmt.Errorf("queryopt: head variable %s not in any atom", v)
		}
	}
	return nil
}

// ToFO renders the query as (Head). ∃(its other variables, sorted) ⋀ Atoms:
// the direct first-order form, with a variable per name.
func (q *CQ) ToFO() (logic.Query, error) {
	if err := q.Validate(); err != nil {
		return logic.Query{}, err
	}
	conjuncts, bound := make([]logic.Formula, len(q.Atoms)), map[logic.Var]bool{}
	for i, a := range q.Atoms {
		conjuncts[i] = logic.Atom{Rel: a.Rel, Args: append([]logic.Var(nil), a.Vars...)}
		for _, v := range a.Vars {
			if !slices.Contains(q.Head, v) {
				bound[v] = true
			}
		}
	}
	return logic.NewQuery(q.Head, logic.Exists(logic.And(conjuncts...), logic.SortedVars(bound)...))
}

// Stats reports intermediate-result sizes of a plan execution: the §1
// quantities the methodology minimizes.
type Stats struct {
	MaxIntermediateArity  int
	MaxIntermediateTuples int
}

func (s *Stats) observe(r *relation.Set) {
	if r.Arity() > s.MaxIntermediateArity {
		s.MaxIntermediateArity = r.Arity()
	}
	if r.Len() > s.MaxIntermediateTuples {
		s.MaxIntermediateTuples = r.Len()
	}
}
