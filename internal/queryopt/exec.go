package queryopt

import (
	"fmt"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/relation"
)

// EvalNaive executes the §1 "naive approach": cross-product every atom
// relation, select the variable equalities, project the head. Its largest
// intermediate has arity equal to the total number of atom positions — the
// 10-ary relation of the EMP/MGR/SCY/SAL example.
func EvalNaive(q *CQ, db *database.Database) (*relation.Set, *Stats, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	st := &Stats{}
	// Product of the raw atom relations, tracking each column's variable.
	var colVars []logic.Var
	var acc *relation.Set
	for _, a := range q.Atoms {
		rel, err := db.Rel(a.Rel)
		if err != nil {
			return nil, nil, err
		}
		if rel.Arity() != len(a.Vars) {
			return nil, nil, fmt.Errorf("queryopt: atom %s arity mismatch", a.Rel)
		}
		if acc == nil {
			acc = rel.Clone()
		} else {
			acc = acc.Product(rel)
		}
		colVars = append(colVars, a.Vars...)
		st.observe(acc)
	}
	// Select equalities: every pair of columns carrying the same variable.
	for i := 0; i < len(colVars); i++ {
		for j := i + 1; j < len(colVars); j++ {
			if colVars[i] == colVars[j] {
				acc = acc.SelectEq(i, j)
				st.observe(acc)
			}
		}
	}
	// Project the head (first column carrying each head variable).
	cols := make([]int, len(q.Head))
	for hi, v := range q.Head {
		cols[hi] = -1
		for ci, w := range colVars {
			if w == v {
				cols[hi] = ci
				break
			}
		}
		if cols[hi] < 0 {
			return nil, nil, fmt.Errorf("queryopt: head variable %s not found", v)
		}
	}
	out := acc.Project(cols)
	st.observe(out)
	return out, st, nil
}

// ChainCQ builds the length-m path query
// answer(x₀, x_m) ← E(x₀,x₁), …, E(x_{m−1},x_m).
func ChainCQ(m int) *CQ {
	q := &CQ{Head: []logic.Var{v(0), v(m)}}
	for i := 0; i < m; i++ {
		q.Atoms = append(q.Atoms, Atom{Rel: "E", Vars: []logic.Var{v(i), v(i + 1)}})
	}
	return q
}

func v(i int) logic.Var { return logic.Var(fmt.Sprintf("v%d", i)) }

// ChainToFO3 is the §2.2 variable-minimized form of ChainCQ(m): the
// three-variable query (x, y). φ_m(x, y) with
// φ₁ = E(x,y), φ_{i+1} = ∃z (E(x,z) ∧ ∃x (x=z ∧ φ_i)).
func ChainToFO3(m int) (logic.Query, error) {
	if m < 1 {
		return logic.Query{}, fmt.Errorf("queryopt: chain of length %d", m)
	}
	f := logic.Formula(logic.R("E", "x", "y"))
	for i := 1; i < m; i++ {
		f = logic.Exists(logic.And(logic.R("E", "x", "z"),
			logic.Exists(logic.And(logic.Equal("x", "z"), f), "x")), "z")
	}
	return logic.NewQuery([]logic.Var{"x", "y"}, f)
}
