package sat

import (
	"fmt"
)

// Circuit is a Boolean circuit (DAG of AND/OR/NOT gates over input
// variables), converted to CNF by the Tseitin transformation. Grounded
// bounded-variable formulas become circuits: quantifiers expand into
// bounded fan-in gates over atom inputs.
type Circuit struct {
	nodes  []node
	inputs int
}

// Gate identifies a circuit node.
type Gate int

type nodeKind int

const (
	kindInput nodeKind = iota
	kindConst
	kindAnd
	kindOr
	kindNot
)

type node struct {
	kind nodeKind
	val  bool   // for kindConst
	in   int    // for kindInput: variable number
	args []Gate // for gates
}

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit { return &Circuit{} }

// Input allocates a fresh input variable and returns its gate. Input gates
// map to CNF variables 1, 2, … in allocation order.
func (c *Circuit) Input() Gate {
	c.inputs++
	c.nodes = append(c.nodes, node{kind: kindInput, in: c.inputs})
	return Gate(len(c.nodes) - 1)
}

// Const returns a constant gate.
func (c *Circuit) Const(v bool) Gate {
	c.nodes = append(c.nodes, node{kind: kindConst, val: v})
	return Gate(len(c.nodes) - 1)
}

// And returns the conjunction of the arguments (true if empty).
func (c *Circuit) And(gs ...Gate) Gate {
	if len(gs) == 0 {
		return c.Const(true)
	}
	if len(gs) == 1 {
		return gs[0]
	}
	c.nodes = append(c.nodes, node{kind: kindAnd, args: append([]Gate(nil), gs...)})
	return Gate(len(c.nodes) - 1)
}

// Or returns the disjunction of the arguments (false if empty).
func (c *Circuit) Or(gs ...Gate) Gate {
	if len(gs) == 0 {
		return c.Const(false)
	}
	if len(gs) == 1 {
		return gs[0]
	}
	c.nodes = append(c.nodes, node{kind: kindOr, args: append([]Gate(nil), gs...)})
	return Gate(len(c.nodes) - 1)
}

// Not returns the negation of g.
func (c *Circuit) Not(g Gate) Gate {
	c.nodes = append(c.nodes, node{kind: kindNot, args: []Gate{g}})
	return Gate(len(c.nodes) - 1)
}

// Implies returns ¬a ∨ b.
func (c *Circuit) Implies(a, b Gate) Gate { return c.Or(c.Not(a), b) }

// Iff returns (a ∧ b) ∨ (¬a ∧ ¬b).
func (c *Circuit) Iff(a, b Gate) Gate {
	return c.Or(c.And(a, b), c.And(c.Not(a), c.Not(b)))
}

// Size returns the number of circuit nodes.
func (c *Circuit) Size() int { return len(c.nodes) }

// Eval evaluates gate g under the input assignment (indexed by CNF variable;
// index 0 unused).
func (c *Circuit) Eval(g Gate, inputs []bool) (bool, error) {
	memo := make(map[Gate]bool)
	var rec func(Gate) (bool, error)
	rec = func(g Gate) (bool, error) {
		if v, ok := memo[g]; ok {
			return v, nil
		}
		if g < 0 || int(g) >= len(c.nodes) {
			return false, fmt.Errorf("sat: gate %d out of range", g)
		}
		n := c.nodes[g]
		var v bool
		switch n.kind {
		case kindInput:
			if n.in >= len(inputs) {
				return false, fmt.Errorf("sat: input %d missing from assignment", n.in)
			}
			v = inputs[n.in]
		case kindConst:
			v = n.val
		case kindAnd:
			v = true
			for _, a := range n.args {
				av, err := rec(a)
				if err != nil {
					return false, err
				}
				v = v && av
			}
		case kindOr:
			v = false
			for _, a := range n.args {
				av, err := rec(a)
				if err != nil {
					return false, err
				}
				v = v || av
			}
		case kindNot:
			av, err := rec(n.args[0])
			if err != nil {
				return false, err
			}
			v = !av
		}
		memo[g] = v
		return v, nil
	}
	return rec(g)
}

// ToCNF converts the circuit to CNF by the Tseitin transformation and
// asserts the root gate. Input gates keep variables 1..n, in allocation order; internal
// gates get fresh definition variables, so the result is equisatisfiable
// with the circuit and every model restricts to a satisfying input
// assignment.
func (c *Circuit) ToCNF(root Gate) (*CNF, error) {
	if root < 0 || int(root) >= len(c.nodes) {
		return nil, fmt.Errorf("sat: root gate %d out of range", root)
	}
	f := NewCNF(c.inputs)
	lit := make([]Lit, len(c.nodes))
	var rec func(Gate) (Lit, error)
	rec = func(g Gate) (Lit, error) {
		if lit[g] != 0 {
			return lit[g], nil
		}
		n := c.nodes[g]
		var l Lit
		switch n.kind {
		case kindInput:
			l = Lit(n.in)
		case kindConst:
			v := f.AddVar()
			l = Lit(v)
			if n.val {
				f.MustAdd(l)
			} else {
				f.MustAdd(l.Neg())
			}
		case kindNot:
			a, err := rec(n.args[0])
			if err != nil {
				return 0, err
			}
			l = a.Neg()
		case kindAnd, kindOr:
			args := make([]Lit, len(n.args))
			for i, ag := range n.args {
				a, err := rec(ag)
				if err != nil {
					return 0, err
				}
				args[i] = a
			}
			v := f.AddVar()
			l = Lit(v)
			if n.kind == kindAnd {
				// l ↔ ⋀ args
				long := make([]Lit, 0, len(args)+1)
				long = append(long, l)
				for _, a := range args {
					f.MustAdd(l.Neg(), a)
					long = append(long, a.Neg())
				}
				f.MustAdd(long...)
			} else {
				// l ↔ ⋁ args
				long := make([]Lit, 0, len(args)+1)
				long = append(long, l.Neg())
				for _, a := range args {
					f.MustAdd(l, a.Neg())
					long = append(long, a)
				}
				f.MustAdd(long...)
			}
		}
		lit[g] = l
		return l, nil
	}
	rl, err := rec(root)
	if err != nil {
		return nil, err
	}
	f.MustAdd(rl)
	return f, nil
}
