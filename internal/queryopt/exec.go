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

// EvalYannakakis executes an acyclic query by the Yannakakis algorithm:
// materialize each atom, run the full reducer (semijoins up then down the
// join tree), and join bottom-up, projecting every intermediate onto the
// node's variables plus the head variables of its subtree. No intermediate
// exceeds that arity — acyclic joins evaluate without large intermediate
// results, which is the paper's §1 observation.
func EvalYannakakis(q *CQ, db *database.Database) (*relation.Set, *Stats, error) {
	st := &Stats{}
	r, err := reduce(q, db, st)
	if err != nil {
		return nil, nil, err
	}
	rootVars, root := r.solve(r.jt.Root)
	cols, err := headCols(q.Head, rootVars)
	if err != nil {
		return nil, nil, err
	}
	out := root.Project(cols)
	st.observe(out)
	return out, st, nil
}

// reduced is the join tree with every atom relation semijoin-reduced both
// ways. After full reduction the relations are globally consistent: every
// tuple of every relation participates in at least one answer.
type reduced struct {
	q        *CQ
	jt       *JoinTree
	vars     [][]logic.Var
	rels     []*relation.Set
	children [][]int
	head     map[logic.Var]bool
	headMemo []map[logic.Var]bool
	st       *Stats
}

// reduce materializes the atoms and runs the two semijoin passes of the
// Yannakakis full reducer over the query's join tree. It fails with
// ErrCyclic (wrapped by BuildJoinTree) on cyclic queries.
func reduce(q *CQ, db *database.Database, st *Stats) (*reduced, error) {
	jt, err := q.BuildJoinTree()
	if err != nil {
		return nil, err
	}
	n := len(q.Atoms)
	r := &reduced{
		q:        q,
		jt:       jt,
		vars:     make([][]logic.Var, n),
		rels:     make([]*relation.Set, n),
		children: make([][]int, n),
		head:     make(map[logic.Var]bool, len(q.Head)),
		headMemo: make([]map[logic.Var]bool, n),
		st:       st,
	}
	for i, a := range q.Atoms {
		r.vars[i], r.rels[i], err = atomRel(db, a)
		if err != nil {
			return nil, err
		}
		st.observe(r.rels[i])
	}
	// Upward semijoin pass: in ear-removal order, parent ⋉ child.
	for _, e := range jt.Order {
		p := jt.Parent[e]
		if p < 0 {
			continue
		}
		r.rels[p] = r.rels[p].Semijoin(r.rels[e], r.shared(p, e))
		st.observe(r.rels[p])
	}
	// Downward pass: reverse order, child ⋉ parent.
	for i := len(jt.Order) - 1; i >= 0; i-- {
		e := jt.Order[i]
		p := jt.Parent[e]
		if p < 0 {
			continue
		}
		r.rels[e] = r.rels[e].Semijoin(r.rels[p], r.shared(e, p))
		st.observe(r.rels[e])
	}
	for e, p := range jt.Parent {
		if p >= 0 {
			r.children[p] = append(r.children[p], e)
		}
	}
	for _, v := range q.Head {
		r.head[v] = true
	}
	return r, nil
}

// shared returns the join conditions between nodes a and b: one condition
// per variable they have in common.
func (r *reduced) shared(a, b int) []relation.JoinOn {
	var on []relation.JoinOn
	for ai, v := range r.vars[a] {
		for bi, w := range r.vars[b] {
			if v == w {
				on = append(on, relation.JoinOn{Left: ai, Right: bi})
			}
		}
	}
	return on
}

// subtreeHead returns the head variables occurring in i's subtree.
func (r *reduced) subtreeHead(i int) map[logic.Var]bool {
	if r.headMemo[i] != nil {
		return r.headMemo[i]
	}
	out := make(map[logic.Var]bool)
	for _, v := range r.vars[i] {
		if r.head[v] {
			out[v] = true
		}
	}
	for _, c := range r.children[i] {
		for v := range r.subtreeHead(c) {
			out[v] = true
		}
	}
	r.headMemo[i] = out
	return out
}

// joinKeep is solve's project-join operator: join cur with the child result
// under the shared-variable conditions, then keep one column per variable in
// cur's vars ∪ the child subtree's head variables (duplicate join columns
// are never stored).
func (r *reduced) joinKeep(curVars []logic.Var, cur *relation.Set, c int, cvars []logic.Var, crel *relation.Set) ([]logic.Var, *relation.Set) {
	var on []relation.JoinOn
	for ai, v := range curVars {
		for bi, w := range cvars {
			if v == w {
				on = append(on, relation.JoinOn{Left: ai, Right: bi})
			}
		}
	}
	joined := cur.Join(crel, on)
	newVars, cols := keepCols(curVars, cvars, r.subtreeHead(c))
	out := joined.Project(cols)
	r.st.observe(out)
	return newVars, out
}

// keepCols computes the projection of a cur⋈child concatenation keeping one
// column per variable in curVars ∪ childHead, in first-occurrence order.
func keepCols(curVars, cvars []logic.Var, childHead map[logic.Var]bool) ([]logic.Var, []int) {
	keep := make(map[logic.Var]bool, len(curVars)+len(childHead))
	for _, v := range curVars {
		keep[v] = true
	}
	for v := range childHead {
		keep[v] = true
	}
	allVars := append(append([]logic.Var(nil), curVars...), cvars...)
	var newVars []logic.Var
	var cols []int
	taken := make(map[logic.Var]bool)
	for ci, v := range allVars {
		if keep[v] && !taken[v] {
			taken[v] = true
			newVars = append(newVars, v)
			cols = append(cols, ci)
		}
	}
	return newVars, cols
}

// solve computes node i's subtree join bottom-up, projecting every
// intermediate onto the node's variables plus the head variables of its
// subtree — no intermediate exceeds that arity.
func (r *reduced) solve(i int) ([]logic.Var, *relation.Set) {
	curVars, cur := r.vars[i], r.rels[i]
	for _, c := range r.children[i] {
		cvars, crel := r.solve(c)
		curVars, cur = r.joinKeep(curVars, cur, c, cvars, crel)
	}
	return curVars, cur
}

// headCols maps each head variable to its column in rootVars.
func headCols(head []logic.Var, rootVars []logic.Var) ([]int, error) {
	cols := make([]int, len(head))
	for hi, v := range head {
		cols[hi] = -1
		for ci, w := range rootVars {
			if w == v {
				cols[hi] = ci
			}
		}
		if cols[hi] < 0 {
			return nil, fmt.Errorf("queryopt: head variable %s lost during join", v)
		}
	}
	return cols, nil
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
