// Package queryopt implements the query-optimization methodology that §1
// and §5 of Vardi (PODS 1995) draw from the bounded-variable results:
// minimize the size — and in particular the arity — of intermediate results.
//
// It provides conjunctive queries, the GYO acyclicity test with join-tree
// construction, the rewriting of acyclic conjunctive queries into
// bounded-variable first-order form (MinimizeWidth, which plan.Compile applies
// to every acyclic ∃∧ query it narrows, so the compiled engine is the
// evaluator that keeps intermediates small — the paper's explanation for why
// acyclic joins are easy), and the naive cross-product evaluator it is
// contrasted with.
package queryopt

import (
	"fmt"

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
	occurring := make(map[logic.Var]bool)
	for _, a := range q.Atoms {
		if a.Rel == "" {
			return fmt.Errorf("queryopt: atom with empty relation name")
		}
		for _, v := range a.Vars {
			if v == "" {
				return fmt.Errorf("queryopt: empty variable in atom %s", a.Rel)
			}
			occurring[v] = true
		}
	}
	seen := make(map[logic.Var]bool)
	for _, v := range q.Head {
		if seen[v] {
			return fmt.Errorf("queryopt: repeated head variable %s", v)
		}
		seen[v] = true
		if !occurring[v] {
			return fmt.Errorf("queryopt: head variable %s not in any atom", v)
		}
	}
	return nil
}

// Vars returns the distinct variables of the query, sorted.
func (q *CQ) Vars() []logic.Var {
	seen := make(map[logic.Var]bool)
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			seen[v] = true
		}
	}
	return logic.SortedVars(seen)
}

// Width returns the number of distinct variables: the k for which the
// query's natural first-order form lies in FOᵏ.
func (q *CQ) Width() int { return len(q.Vars()) }

// ToFO renders the query as (Head). ∃(other vars) ⋀ Atoms — the direct
// first-order form, of width Width().
func (q *CQ) ToFO() (logic.Query, error) {
	if err := q.Validate(); err != nil {
		return logic.Query{}, err
	}
	conjuncts := make([]logic.Formula, len(q.Atoms))
	for i, a := range q.Atoms {
		conjuncts[i] = logic.Atom{Rel: a.Rel, Args: append([]logic.Var(nil), a.Vars...)}
	}
	body := logic.And(conjuncts...)
	head := make(map[logic.Var]bool, len(q.Head))
	for _, v := range q.Head {
		head[v] = true
	}
	var bound []logic.Var
	for _, v := range q.Vars() {
		if !head[v] {
			bound = append(bound, v)
		}
	}
	return logic.NewQuery(q.Head, logic.Exists(body, bound...))
}

// JoinTree is the output of the GYO reduction on an acyclic query: node i
// is atom i; Parent[i] is the witness atom it was absorbed into (−1 for the
// root).
type JoinTree struct {
	Parent []int
	Root   int
}

// ErrCyclic reports that a query's hypergraph is cyclic.
var ErrCyclic = fmt.Errorf("queryopt: query is cyclic")

// BuildJoinTree runs the GYO ear-removal algorithm. An atom e is an ear if
// some other atom w contains every variable that e shares with the rest of
// the query; removing ears until one atom remains succeeds exactly on
// acyclic queries.
func (q *CQ) BuildJoinTree() (*JoinTree, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := len(q.Atoms)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	varsOf := make([]map[logic.Var]bool, n)
	for i, a := range q.Atoms {
		varsOf[i] = make(map[logic.Var]bool)
		for _, v := range a.Vars {
			varsOf[i][v] = true
		}
	}
	jt := &JoinTree{Parent: make([]int, n), Root: -1}
	for i := range jt.Parent {
		jt.Parent[i] = -1
	}
	remaining := n
	for remaining > 1 {
		removed := false
		for e := 0; e < n && !removed; e++ {
			if !alive[e] {
				continue
			}
			// Shared variables of e: those occurring in another live atom.
			shared := make([]logic.Var, 0, len(varsOf[e]))
			for v := range varsOf[e] {
				for w := 0; w < n; w++ {
					if w != e && alive[w] && varsOf[w][v] {
						shared = append(shared, v)
						break
					}
				}
			}
			for w := 0; w < n; w++ {
				if w == e || !alive[w] {
					continue
				}
				covers := true
				for _, v := range shared {
					if !varsOf[w][v] {
						covers = false
						break
					}
				}
				if covers {
					alive[e] = false
					jt.Parent[e] = w
					remaining--
					removed = true
					break
				}
			}
		}
		if !removed {
			return nil, ErrCyclic
		}
	}
	for i := 0; i < n; i++ {
		if alive[i] {
			jt.Root = i
		}
	}
	return jt, nil
}

// IsAcyclic reports whether the query's hypergraph is acyclic.
func (q *CQ) IsAcyclic() bool {
	_, err := q.BuildJoinTree()
	return err == nil
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
