// Package pathsys implements Cook's Path Systems problem (Cook 1974), the
// canonical PTIME-complete problem, and the Proposition 3.2 reduction from
// it to FO³ combined complexity:
//
//	the three-variable formula family φ_m(x), built by substituting the
//	previous member for the atom P(x), defines the reachable elements
//	after m derivation rounds, so the Path Systems query "does T contain
//	a reachable element?" is the FO³ query ∃x (T(x) ∧ φ_m(x)).
//
// The package provides the instance type, a linear-time worklist solver
// (the baseline), seeded generators, the database view, and the reduction.
package pathsys

import (
	"fmt"
	"math/rand"

	"repro/internal/database"
	"repro/internal/logic"
)

// Instance is a path system: a domain {0..N−1}, source set S, target set T,
// and derivation rules Q — Q(x, y, z) derives x from y and z.
type Instance struct {
	N int
	S []int
	T []int
	Q [][3]int
}

// Validate checks that every element mentioned is within the domain.
func (in *Instance) Validate() error {
	if in.N <= 0 {
		return fmt.Errorf("pathsys: empty domain")
	}
	chk := func(v int) error {
		if v < 0 || v >= in.N {
			return fmt.Errorf("pathsys: element %d outside [0,%d)", v, in.N)
		}
		return nil
	}
	for _, v := range in.S {
		if err := chk(v); err != nil {
			return err
		}
	}
	for _, v := range in.T {
		if err := chk(v); err != nil {
			return err
		}
	}
	for _, q := range in.Q {
		for _, v := range q {
			if err := chk(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reachable computes the set of reachable elements with a worklist: the
// least P with S ⊆ P and Q(x,y,z) ∧ P(y) ∧ P(z) → P(x). This is the
// Datalog program of Proposition 3.2 run directly, in time linear in the
// instance.
func (in *Instance) Reachable() []bool {
	reach := make([]bool, in.N)
	// Index rules by premises.
	byPremise := make([][]int, in.N) // element → rule indices using it as y or z
	for i, q := range in.Q {
		byPremise[q[1]] = append(byPremise[q[1]], i)
		if q[2] != q[1] {
			byPremise[q[2]] = append(byPremise[q[2]], i)
		}
	}
	var work []int
	push := func(v int) {
		if !reach[v] {
			reach[v] = true
			work = append(work, v)
		}
	}
	for _, v := range in.S {
		push(v)
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ri := range byPremise[v] {
			q := in.Q[ri]
			if reach[q[1]] && reach[q[2]] {
				push(q[0])
			}
		}
	}
	return reach
}

// Solve answers the Path Systems query: does T contain a reachable element?
func (in *Instance) Solve() bool {
	reach := in.Reachable()
	for _, v := range in.T {
		if reach[v] {
			return true
		}
	}
	return false
}

// ToDatabase renders the instance as the Proposition 3.2 database: a ternary
// Q and unary S and T.
func (in *Instance) ToDatabase() (*database.Database, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	b := database.NewBuilder().Relation("Q", 3).Relation("S", 1).Relation("T", 1)
	for v := 0; v < in.N; v++ {
		b.Domain(v)
	}
	for _, q := range in.Q {
		b.Add("Q", q[0], q[1], q[2])
	}
	for _, v := range in.S {
		b.Add("S", v)
	}
	for _, v := range in.T {
		b.Add("T", v)
	}
	return b.Build()
}

// Step is the Proposition 3.2 formula φ(x):
//
//	S(x) ∨ ∃y∃z (Q(x,y,z) ∧ ∀x ((x=y ∨ x=z) → P(x)))
//
// — "x is a source, or derivable from two P-elements". The inner ∀x reuses
// the variable x, which is the whole point: three variables suffice.
func Step() logic.Formula {
	return logic.Or(
		logic.R("S", "x"),
		logic.Exists(
			logic.And(
				logic.R("Q", "x", "y", "z"),
				logic.Forall(
					logic.Implies(
						logic.Or(logic.Equal("x", "y"), logic.Equal("x", "z")),
						logic.R("P", "x")),
					"x")),
			"y", "z"))
}

// Phi builds φ_m(x): φ with P(x) substituted by φ_{m−1}(x), starting from
// φ₁ = φ[P(x) := false]. Its width stays 3 and its size grows linearly in m.
func Phi(m int) (logic.Formula, error) {
	if m < 1 {
		return nil, fmt.Errorf("pathsys: φ_%d undefined", m)
	}
	step := Step()
	cur, err := logic.SubstAtom(step, "P", []logic.Var{"x"}, logic.False)
	if err != nil {
		return nil, err
	}
	for i := 2; i <= m; i++ {
		cur, err = logic.SubstAtom(step, "P", []logic.Var{"x"}, cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// Query builds the Proposition 3.2 Boolean query σ_m = ∃x (T(x) ∧ φ_m(x)).
// For m ≥ the domain size, σ_m holds in the instance's database exactly
// when the Path Systems query is positive.
func Query(m int) (logic.Query, error) {
	phi, err := Phi(m)
	if err != nil {
		return logic.Query{}, err
	}
	body := logic.Exists(logic.And(logic.R("T", "x"), phi), "x")
	return logic.NewQuery(nil, body)
}

// Random generates a random instance with the given domain size, rule count
// and source/target densities, deterministically per seed.
func Random(r *rand.Rand, n, rules int) *Instance {
	in := &Instance{N: n}
	for i := 0; i < rules; i++ {
		in.Q = append(in.Q, [3]int{r.Intn(n), r.Intn(n), r.Intn(n)})
	}
	ns := 1 + r.Intn(maxInt(1, n/3))
	for i := 0; i < ns; i++ {
		in.S = append(in.S, r.Intn(n))
	}
	nt := 1 + r.Intn(maxInt(1, n/3))
	for i := 0; i < nt; i++ {
		in.T = append(in.T, r.Intn(n))
	}
	return in
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
