package logic

import (
	"fmt"
	"slices"
)

// Query is the paper's (x̄)φ(x̄): a head tuple of free variables and a body
// formula. Evaluated against a database B it denotes
// { t ∈ D^{|Head|} | B ⊨ φ[Head ↦ t] }. An empty head makes the query
// Boolean.
type Query struct {
	Head []Var
	Body Formula
}

// NewQuery builds a query and validates that the head variables are distinct
// and cover the free variables of the body.
func NewQuery(head []Var, body Formula) (Query, error) {
	q := Query{Head: head, Body: body}
	if err := q.Validate(nil); err != nil {
		return Query{}, err
	}
	return q, nil
}

// MustQuery is NewQuery that panics on error, for statically valid literals.
func MustQuery(head []Var, body Formula) Query {
	q, err := NewQuery(head, body)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks the query's well-formedness: distinct head variables, every
// free variable of the body listed in the head, and a valid body (see
// Validate on formulas).
func (q Query) Validate(sig Signature) error {
	for i, v := range q.Head {
		if v == "" {
			return fmt.Errorf("logic: empty head variable")
		}
		if slices.Contains(q.Head[:i], v) {
			return fmt.Errorf("logic: head variable %s repeated", v)
		}
	}
	for v := range FreeVars(q.Body) {
		if !slices.Contains(q.Head, v) {
			return fmt.Errorf("logic: body variable %s not in query head", v)
		}
	}
	return Validate(q.Body, sig)
}

// Width returns the number of distinct individual variables of a valid
// query: the head variables plus every variable of the body.
func (q Query) Width() int { return len(q.Vars()) }

// Vars returns the query's variables in a canonical order: head variables
// first (in head order), then the remaining body variables sorted by name.
// The bounded-variable evaluators use this order to assign coordinate axes.
func (q Query) Vars() []Var {
	out := appendVars(slices.Clone(q.Head), q.Body)
	slices.Sort(out[len(q.Head):])
	return out
}

// appendVars appends to vs every individual variable occurring in f, free or
// bound, that it does not hold yet.
func appendVars(vs []Var, f Formula) []Var {
	add := func(ws ...Var) {
		for _, v := range ws {
			if !slices.Contains(vs, v) {
				vs = append(vs, v)
			}
		}
	}
	Walk(f, func(g Formula) {
		switch h := g.(type) {
		case Atom:
			add(h.Args...)
		case Eq:
			add(h.L, h.R)
		case Quant:
			add(h.V)
		case Fix:
			add(h.Vars...)
			add(h.Args...)
		}
	})
	return vs
}

// Arity returns the arity of the query's answer relation.
func (q Query) Arity() int { return len(q.Head) }

func (q Query) String() string {
	return fmt.Sprintf("(%s). %s", joinVars(q.Head), q.Body)
}
