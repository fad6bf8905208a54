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

// ToFO renders the query as (Head). ∃(other vars) ⋀ Atoms — the direct
// first-order form, of width len(Vars()).
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
	jt := &JoinTree{Parent: make([]int, n), Root: -1}
	// live[x]: how many live atoms hold q's x-th variable (numbered in order
	// of first occurrence); ids[i]: atom i's variables, each once.
	var names []logic.Var
	var live []int
	ids := make([][]int, n)
	for i, a := range q.Atoms {
		jt.Parent[i] = -1
		for _, v := range a.Vars {
			x := slices.Index(names, v)
			if x < 0 {
				x, names, live = len(names), append(names, v), append(live, 0)
			}
			if !slices.Contains(ids[i], x) {
				ids[i] = append(ids[i], x)
				live[x]++
			}
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	covers := func(w, e int) bool {
		for _, x := range ids[e] {
			if live[x] > 1 && !slices.Contains(ids[w], x) { // x is shared with another live atom
				return false
			}
		}
		return true
	}
	for remaining := n; remaining > 1; remaining-- {
		ear := -1
		for e := 0; e < n && ear < 0; e++ {
			for w := 0; w < n && alive[e]; w++ {
				if w != e && alive[w] && covers(w, e) {
					ear, jt.Parent[e] = e, w
					break
				}
			}
		}
		if ear < 0 {
			return nil, ErrCyclic
		}
		alive[ear] = false
		for _, x := range ids[ear] {
			live[x]--
		}
	}
	jt.Root = slices.Index(alive, true)
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
