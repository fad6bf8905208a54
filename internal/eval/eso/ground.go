package eso

import (
	"fmt"
	"strings"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/sat"
)

// Cell identifies one ground atom of a quantified relation: the relation
// name and the argument tuple. Cells are the propositional variables of the
// grounding.
type Cell struct {
	Rel  string
	Args relation.Tuple
}

func (c Cell) String() string { return c.Rel + c.Args.String() }

// Grounding is a Boolean circuit equivalent to an ESO sentence over a fixed
// database: the circuit is satisfiable iff the sentence holds, and a model
// assigns the cells of the quantified relations.
type Grounding struct {
	Circuit *sat.Circuit
	Root    sat.Gate
	// Cells maps input-variable number (1-based) to its cell.
	Cells []Cell
	// gates memoizes ground subformulas: key = node path + assignment of
	// its free variables.
	cellGate map[string]sat.Gate
}

// Ground instantiates the matrix of a prenex ESO sentence over the database
// domain, with the given fixed values for free variables. Subformulas are
// shared by (syntactic node, free-variable assignment), so the circuit has
// at most |φ|·n^k gates — the polynomial-size grounding that Lemma 3.6 buys.
func Ground(f logic.Formula, db *database.Database, fixed map[logic.Var]int) (*Grounding, error) {
	soRels := make(map[string]int)
	matrix := f
	for {
		so, ok := matrix.(logic.SOQuant)
		if !ok {
			break
		}
		if _, dup := soRels[so.Rel]; dup {
			return nil, fmt.Errorf("eso: relation %s quantified twice", so.Rel)
		}
		soRels[so.Rel] = so.Arity
		matrix = so.F
	}
	if logic.Classify(matrix) != logic.FragFO {
		return nil, fmt.Errorf("eso: matrix is not first-order")
	}
	g := &Grounding{
		Circuit:  sat.NewCircuit(),
		Cells:    []Cell{{}}, // index 0 unused, aligning with CNF variables
		cellGate: make(map[string]sat.Gate),
	}
	c := &groundCtx{
		db:     db,
		n:      db.Size(),
		soRels: soRels,
		g:      g,
		assign: make(map[logic.Var]int),
		memo:   make(map[string]sat.Gate),
	}
	for v, val := range fixed {
		if val < 0 || val >= c.n {
			return nil, fmt.Errorf("eso: fixed value %d for %s outside domain", val, v)
		}
		c.assign[v] = val
	}
	root, err := c.ground(matrix, "r")
	if err != nil {
		return nil, err
	}
	g.Root = root
	return g, nil
}

type groundCtx struct {
	db     *database.Database
	n      int
	soRels map[string]int
	g      *Grounding
	assign map[logic.Var]int
	memo   map[string]sat.Gate
}

// cellInput returns the circuit input for a quantified-relation cell,
// allocating it on first use.
func (c *groundCtx) cellInput(cell Cell) sat.Gate {
	key := cell.String()
	if gt, ok := c.g.cellGate[key]; ok {
		return gt
	}
	gt := c.g.Circuit.Input()
	c.g.cellGate[key] = gt
	c.g.Cells = append(c.g.Cells, cell)
	return gt
}

// memoKey identifies a ground subformula: its path plus the values of its
// free variables.
func (c *groundCtx) memoKey(path string, f logic.Formula) string {
	free := logic.SortedVars(logic.FreeVars(f))
	var b strings.Builder
	b.WriteString(path)
	for _, v := range free {
		fmt.Fprintf(&b, "|%s=%d", v, c.assign[v])
	}
	return b.String()
}

func (c *groundCtx) ground(f logic.Formula, path string) (sat.Gate, error) {
	key := c.memoKey(path, f)
	if gt, ok := c.memo[key]; ok {
		return gt, nil
	}
	gt, err := c.groundNode(f, path)
	if err != nil {
		return 0, err
	}
	c.memo[key] = gt
	return gt, nil
}

func (c *groundCtx) groundNode(f logic.Formula, path string) (sat.Gate, error) {
	cir := c.g.Circuit
	switch g := f.(type) {
	case logic.Atom:
		t := make(relation.Tuple, len(g.Args))
		for i, v := range g.Args {
			val, ok := c.assign[v]
			if !ok {
				return 0, fmt.Errorf("eso: unbound variable %s", v)
			}
			t[i] = val
		}
		if arity, ok := c.soRels[g.Rel]; ok {
			if arity != len(g.Args) {
				return 0, fmt.Errorf("eso: %s used with %d args, quantified with arity %d", g.Rel, len(g.Args), arity)
			}
			return c.cellInput(Cell{Rel: g.Rel, Args: t}), nil
		}
		rel, err := c.db.Rel(g.Rel)
		if err != nil {
			return 0, err
		}
		return cir.Const(rel.Contains(t)), nil
	case logic.Eq:
		lv, ok := c.assign[g.L]
		if !ok {
			return 0, fmt.Errorf("eso: unbound variable %s", g.L)
		}
		rv, ok := c.assign[g.R]
		if !ok {
			return 0, fmt.Errorf("eso: unbound variable %s", g.R)
		}
		return cir.Const(lv == rv), nil
	case logic.Truth:
		return cir.Const(g.Value), nil
	case logic.Not:
		a, err := c.ground(g.F, path+".n")
		if err != nil {
			return 0, err
		}
		return cir.Not(a), nil
	case logic.Binary:
		l, err := c.ground(g.L, path+".l")
		if err != nil {
			return 0, err
		}
		r, err := c.ground(g.R, path+".r")
		if err != nil {
			return 0, err
		}
		switch g.Op {
		case logic.AndOp:
			return cir.And(l, r), nil
		case logic.OrOp:
			return cir.Or(l, r), nil
		case logic.ImpliesOp:
			return cir.Implies(l, r), nil
		case logic.IffOp:
			return cir.Iff(l, r), nil
		default:
			return 0, fmt.Errorf("eso: unknown binary op %v", g.Op)
		}
	case logic.Quant:
		prev, had := c.assign[g.V]
		gates := make([]sat.Gate, 0, c.n)
		for v := 0; v < c.n; v++ {
			c.assign[g.V] = v
			sub, err := c.ground(g.F, path+".q")
			if err != nil {
				return 0, err
			}
			gates = append(gates, sub)
		}
		if had {
			c.assign[g.V] = prev
		} else {
			delete(c.assign, g.V)
		}
		if g.Kind == logic.ExistsQ {
			return cir.Or(gates...), nil
		}
		return cir.And(gates...), nil
	default:
		return 0, fmt.Errorf("eso: grounding does not support %T", f)
	}
}

// Witness is a satisfying interpretation of the quantified relations.
type Witness map[string]*relation.Set

// Stats reports the work of an ESO evaluation.
type Stats struct {
	ReducedSize int // AST size after arity reduction
	Assertions  int // consistency assertions generated
	CircuitSize int
	CNFVars     int
	CNFClauses  int
	Conflicts   int
}

// Holds decides whether the prenex ESO sentence f (all individual variables
// closed, possibly under the fixed assignment) holds in db, via arity
// reduction, grounding and SAT. On success with a positive answer it also
// returns a witness for the *reduced* formula's quantified relations.
func Holds(f logic.Formula, db *database.Database, fixed map[logic.Var]int) (bool, Witness, *Stats, error) {
	if db.Size() == 0 {
		return false, nil, nil, fmt.Errorf("eso: empty domain")
	}
	red, err := ReduceArity(f)
	if err != nil {
		return false, nil, nil, err
	}
	st := &Stats{ReducedSize: logic.Size(red.Formula), Assertions: red.Assertions}
	g, err := Ground(red.Formula, db, fixed)
	if err != nil {
		return false, nil, nil, err
	}
	st.CircuitSize = g.Circuit.Size()
	cnf, err := g.Circuit.ToCNF(g.Root)
	if err != nil {
		return false, nil, nil, err
	}
	st.CNFVars = cnf.NumVars
	st.CNFClauses = len(cnf.Clauses)
	res, err := sat.Solve(cnf)
	if err != nil {
		return false, nil, nil, err
	}
	st.Conflicts = res.Conflicts
	if !res.SAT {
		return false, nil, st, nil
	}
	w := make(Witness)
	for i := 1; i < len(g.Cells); i++ {
		cell := g.Cells[i]
		set, ok := w[cell.Rel]
		if !ok {
			set = relation.NewSet(len(cell.Args))
			w[cell.Rel] = set
		}
		if res.Model[i] {
			set.Add(cell.Args)
		}
	}
	return true, w, st, nil
}

// Eval computes the answer of an ESO query: for each candidate head tuple it
// grounds and solves the sentence with the head variables fixed — one NP
// call per tuple, each of polynomial size (Corollary 3.7).
func Eval(q logic.Query, db *database.Database) (*relation.Set, error) {
	ans, _, err := EvalStats(q, db)
	return ans, err
}

// EvalStats is Eval with the statistics of the largest grounding solved.
func EvalStats(q logic.Query, db *database.Database) (*relation.Set, *Stats, error) {
	if err := q.Validate(nil); err != nil {
		return nil, nil, err
	}
	if db.Size() == 0 {
		return nil, nil, fmt.Errorf("eso: empty domain")
	}
	out := relation.NewSet(len(q.Head))
	var worst Stats
	t := make(relation.Tuple, len(q.Head))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(q.Head) {
			fixed := make(map[logic.Var]int, len(q.Head))
			for j, v := range q.Head {
				fixed[v] = t[j]
			}
			h, _, st, err := Holds(q.Body, db, fixed)
			if err != nil {
				return err
			}
			if st != nil && st.CircuitSize > worst.CircuitSize {
				worst = *st
			}
			if h {
				out.Add(t)
			}
			return nil
		}
		for v := 0; v < db.Size(); v++ {
			t[i] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, nil, err
	}
	return out, &worst, nil
}
