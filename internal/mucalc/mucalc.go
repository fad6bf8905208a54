// Package mucalc implements the propositional µ-calculus Lµ and its
// embedding into two-variable fixpoint logic, the verification application
// of §1 of Vardi (PODS 1995):
//
//	A finite-state program is a relational database of unary and binary
//	relations (a Kripke structure); verifying that it satisfies an Lµ
//	specification amounts to evaluating the specification as an FP² query.
//
// The package provides Kripke structures, Lµ syntax in positive normal
// form, a direct fixpoint-semantics model checker (the oracle), the
// translation into FP² (width 2, alternation depth preserved), and
// certificate-based checking through eval.FindCertificate/VerifyCertificate
// — which realizes the paper's NP∩co-NP bound for µ-calculus model checking
// via Theorem 3.5 instead of tree automata.
package mucalc

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/database"
)

// Kripke is a finite-state transition system with propositional labels.
type Kripke struct {
	n     int
	succ  [][]int
	props map[string]*bitset.Set
}

// NewKripke returns a structure with n states and no transitions.
func NewKripke(n int) *Kripke {
	if n < 0 {
		panic(fmt.Sprintf("mucalc: negative state count %d", n))
	}
	return &Kripke{n: n, succ: make([][]int, n), props: make(map[string]*bitset.Set)}
}

// States returns the number of states.
func (k *Kripke) States() int { return k.n }

// AddEdge adds a transition s → t.
func (k *Kripke) AddEdge(s, t int) error {
	if s < 0 || s >= k.n || t < 0 || t >= k.n {
		return fmt.Errorf("mucalc: edge (%d,%d) outside %d states", s, t, k.n)
	}
	k.succ[s] = append(k.succ[s], t)
	return nil
}

// Label marks proposition p true in state s.
func (k *Kripke) Label(s int, p string) error {
	if s < 0 || s >= k.n {
		return fmt.Errorf("mucalc: state %d outside %d states", s, k.n)
	}
	if p == "" {
		return fmt.Errorf("mucalc: empty proposition name")
	}
	set, ok := k.props[p]
	if !ok {
		set = bitset.New(k.n)
		k.props[p] = set
	}
	set.Set(s)
	return nil
}

// Props returns the proposition names in sorted order.
func (k *Kripke) Props() []string {
	out := make([]string, 0, len(k.props))
	for p := range k.props {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ToDatabase renders the structure as the paper's database view: a binary
// transition relation E and one unary relation per proposition. Extra
// proposition names (e.g. mentioned by a formula but labeling no state) are
// declared as empty relations.
func (k *Kripke) ToDatabase(extraProps ...string) (*database.Database, error) {
	b := database.NewBuilder().Relation("E", 2)
	for s := 0; s < k.n; s++ {
		b.Domain(s)
	}
	for s := 0; s < k.n; s++ {
		for _, t := range k.succ[s] {
			b.Add("E", s, t)
		}
	}
	for _, p := range k.Props() {
		b.Relation(p, 1)
		k.props[p].ForEach(func(s int) { b.Add(p, s) })
	}
	for _, p := range extraProps {
		b.Relation(p, 1)
	}
	return b.Build()
}

// PropsOf returns the proposition names mentioned in f, sorted.
func PropsOf(f Formula) []string {
	seen := make(map[string]bool)
	var walk func(Formula)
	walk = func(f Formula) {
		switch g := f.(type) {
		case Prop:
			seen[g.Name] = true
		case NegProp:
			seen[g.Name] = true
		case Lit, VarRef:
		case Conj:
			walk(g.L)
			walk(g.R)
		case Disj:
			walk(g.L)
			walk(g.R)
		case Diamond:
			walk(g.F)
		case Box:
			walk(g.F)
		case Mu:
			walk(g.F)
		case Nu:
			walk(g.F)
		}
	}
	walk(f)
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Formula is an Lµ formula in positive normal form: negation applies to
// propositions only. The node types are Prop, NegProp, Lit (constants),
// VarRef, Conj, Disj, Diamond, Box, Mu and Nu.
type Formula interface {
	isMu()
	String() string
}

// Prop is an atomic proposition.
type Prop struct{ Name string }

// NegProp is a negated atomic proposition.
type NegProp struct{ Name string }

// Lit is a propositional constant.
type Lit struct{ Value bool }

// VarRef is a fixpoint variable occurrence.
type VarRef struct{ Name string }

// Conj is conjunction.
type Conj struct{ L, R Formula }

// Disj is disjunction.
type Disj struct{ L, R Formula }

// Diamond is ◇φ: some successor satisfies φ.
type Diamond struct{ F Formula }

// Box is □φ: every successor satisfies φ.
type Box struct{ F Formula }

// Mu is the least fixpoint µX.φ.
type Mu struct {
	Var string
	F   Formula
}

// Nu is the greatest fixpoint νX.φ.
type Nu struct {
	Var string
	F   Formula
}

func (Prop) isMu()    {}
func (NegProp) isMu() {}
func (Lit) isMu()     {}
func (VarRef) isMu()  {}
func (Conj) isMu()    {}
func (Disj) isMu()    {}
func (Diamond) isMu() {}
func (Box) isMu()     {}
func (Mu) isMu()      {}
func (Nu) isMu()      {}

func (f Prop) String() string    { return f.Name }
func (f NegProp) String() string { return "!" + f.Name }
func (f Lit) String() string {
	if f.Value {
		return "tt"
	}
	return "ff"
}
func (f VarRef) String() string { return f.Name }
func (f Conj) String() string   { return "(" + f.L.String() + " & " + f.R.String() + ")" }
func (f Disj) String() string   { return "(" + f.L.String() + " | " + f.R.String() + ")" }
func (f Diamond) String() string {
	return "<>" + f.F.String()
}
func (f Box) String() string { return "[]" + f.F.String() }
func (f Mu) String() string  { return "(mu " + f.Var + ". " + f.F.String() + ")" }
func (f Nu) String() string  { return "(nu " + f.Var + ". " + f.F.String() + ")" }

// Validate checks that every variable reference is bound by an enclosing
// fixpoint and no variable is bound twice on a path.
func Validate(f Formula) error {
	return validate(f, map[string]bool{})
}

func validate(f Formula, bound map[string]bool) error {
	switch g := f.(type) {
	case Prop, NegProp, Lit:
		return nil
	case VarRef:
		if !bound[g.Name] {
			return fmt.Errorf("mucalc: unbound variable %s", g.Name)
		}
		return nil
	case Conj:
		if err := validate(g.L, bound); err != nil {
			return err
		}
		return validate(g.R, bound)
	case Disj:
		if err := validate(g.L, bound); err != nil {
			return err
		}
		return validate(g.R, bound)
	case Diamond:
		return validate(g.F, bound)
	case Box:
		return validate(g.F, bound)
	case Mu:
		return validateBinder(g.Var, g.F, bound)
	case Nu:
		return validateBinder(g.Var, g.F, bound)
	default:
		return fmt.Errorf("mucalc: unknown formula %T", f)
	}
}

func validateBinder(v string, body Formula, bound map[string]bool) error {
	if v == "" {
		return fmt.Errorf("mucalc: empty fixpoint variable")
	}
	if bound[v] {
		return fmt.Errorf("mucalc: variable %s bound twice", v)
	}
	bound[v] = true
	err := validate(body, bound)
	delete(bound, v)
	return err
}

// Strings for common specification patterns.

// EF is "possibly φ": µX. φ ∨ ◇X.
func EF(f Formula) Formula { return Mu{Var: "Xef", F: Disj{L: f, R: Diamond{F: VarRef{"Xef"}}}} }

// AG is "invariantly φ": νX. φ ∧ □X.
func AG(f Formula) Formula { return Nu{Var: "Xag", F: Conj{L: f, R: Box{F: VarRef{"Xag"}}}} }

// InfinitelyOften is "along some path, φ holds infinitely often":
// νX. µY. ◇((φ ∧ X) ∨ Y) — the classic alternation-depth-2 property.
func InfinitelyOften(f Formula) Formula {
	return Nu{Var: "Xio", F: Mu{Var: "Yio",
		F: Diamond{F: Disj{L: Conj{L: f, R: VarRef{"Xio"}}, R: VarRef{"Yio"}}}}}
}
