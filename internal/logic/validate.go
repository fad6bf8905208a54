package logic

import (
	"fmt"
	"slices"
)

// Fragment classifies a formula by the smallest of the paper's four
// languages containing it.
type Fragment int

const (
	// FragFO: first-order logic.
	FragFO Fragment = iota
	// FragFP: FO plus least/greatest fixpoints.
	FragFP
	// FragESO: existential second-order prefix over an FO matrix.
	FragESO
	// FragIFP: FO plus inflationary (and least/greatest) fixpoints, without
	// partial fixpoints. Equally expressive as FP, but the paper's FPᵏ
	// upper-bound techniques do not apply to it (§3.2).
	FragIFP
	// FragPFP: FO plus partial (and any other) fixpoints.
	FragPFP
	// FragOther: none of the above (e.g. second-order quantification over a
	// fixpoint matrix, or SO quantifiers below first-order structure).
	FragOther
)

func (fr Fragment) String() string {
	switch fr {
	case FragFO:
		return "FO"
	case FragFP:
		return "FP"
	case FragESO:
		return "ESO"
	case FragIFP:
		return "IFP"
	case FragPFP:
		return "PFP"
	}
	return "other"
}

// Classify returns the smallest fragment containing f.
func Classify(f Formula) Fragment {
	// Strip a (possibly empty) prefix of second-order existentials.
	matrix := f
	soPrefix := 0
	for {
		so, ok := matrix.(SOQuant)
		if !ok {
			break
		}
		matrix = so.F
		soPrefix++
	}
	hasSO, hasLfp, hasIfp, hasPfp := false, false, false, false
	Walk(matrix, func(g Formula) {
		switch h := g.(type) {
		case SOQuant:
			hasSO = true
		case Fix:
			switch h.Op {
			case PFP:
				hasPfp = true
			case IFP:
				hasIfp = true
			default:
				hasLfp = true
			}
		}
	})
	switch {
	case hasSO:
		return FragOther
	case soPrefix > 0 && (hasLfp || hasIfp || hasPfp):
		return FragOther
	case soPrefix > 0:
		return FragESO
	case hasPfp:
		return FragPFP
	case hasIfp:
		return FragIFP
	case hasLfp:
		return FragFP
	default:
		return FragFO
	}
}

// Signature gives the arities of database relation symbols, for validation.
type Signature map[string]int

// Validate checks the structural well-formedness of f:
//
//   - every fixpoint binds distinct variables and applies to an argument
//     tuple of matching length;
//   - every relation symbol is used with a single arity, consistent with any
//     binding operator and (if sig is non-nil) with the database signature;
//   - LFP/GFP recursion relations occur only positively in their bodies;
//   - second-order quantified relations have non-negative arity.
//
// It returns the first violation found.
func Validate(f Formula, sig Signature) error {
	free, err := freeRels(f, make([]relArity, 0, 4), make([]relArity, 0, 4))
	if err != nil {
		return err
	}
	for _, r := range free {
		if sig == nil {
			break
		}
		if err := sig.Admit(r.name, r.arity); err != nil {
			return err
		}
	}
	return validate(f)
}

// Admit checks that sig has relation rel at the given arity, with
// Validate's error when it does not.
func (sig Signature) Admit(rel string, arity int) error {
	want, ok := sig[rel]
	if !ok {
		return fmt.Errorf("logic: relation %s not in database signature", rel)
	}
	if want != arity {
		return fmt.Errorf("logic: relation %s used with arity %d, database has arity %d", rel, arity, want)
	}
	return nil
}

func validate(f Formula) error {
	switch g := f.(type) {
	case Atom, Eq, Truth:
		return nil
	case Not:
		return validate(g.F)
	case Binary:
		if err := validate(g.L); err != nil {
			return err
		}
		return validate(g.R)
	case Quant:
		if g.V == "" {
			return fmt.Errorf("logic: quantifier with empty variable")
		}
		return validate(g.F)
	case Fix:
		if g.Rel == "" {
			return fmt.Errorf("logic: fixpoint with empty relation name")
		}
		if len(g.Args) != len(g.Vars) {
			return fmt.Errorf("logic: fixpoint %s applied to %d arguments, arity %d", g.Rel, len(g.Args), len(g.Vars))
		}
		for i, v := range g.Vars {
			if v == "" {
				return fmt.Errorf("logic: fixpoint %s binds empty variable", g.Rel)
			}
			if slices.Contains(g.Vars[:i], v) {
				return fmt.Errorf("logic: fixpoint %s binds variable %s twice", g.Rel, v)
			}
		}
		if g.Op == LFP || g.Op == GFP {
			if _, neg := Polarity(g.Body, g.Rel); neg {
				return fmt.Errorf("logic: recursion relation %s occurs non-positively under %s", g.Rel, g.Op)
			}
		}
		return validate(g.Body)
	case SOQuant:
		if g.Rel == "" {
			return fmt.Errorf("logic: second-order quantifier with empty relation name")
		}
		if g.Arity < 0 {
			return fmt.Errorf("logic: second-order relation %s has negative arity %d", g.Rel, g.Arity)
		}
		return validate(g.F)
	default:
		return fmt.Errorf("logic: unknown formula %T", f)
	}
}

// AlternationDepth returns the depth of nesting of *alternating* fixpoint
// operators: the l of Theorem 3.5, for which naive evaluation needs n^{kl}
// iterations. A µ directly or transitively nested inside a ν (or vice versa)
// increments the depth; same-polarity nesting does not. PFP and IFP
// operators count as alternating with everything (their stage functions are
// not monotone). Formulas without fixpoints have depth 0; a single block of
// same-polarity fixpoints has depth 1.
func AlternationDepth(f Formula) int {
	return altDepth(f, 0, 0)
}

// altDepth computes the depth given the innermost enclosing fixpoint kind:
// 0 = none, 1 = LFP, 2 = GFP, 3 = PFP, 4 = IFP.
func altDepth(f Formula, enclosing int, depth int) int {
	max := depth
	upd := func(d int) {
		if d > max {
			max = d
		}
	}
	switch g := f.(type) {
	case Atom, Eq, Truth:
	case Not:
		upd(altDepth(g.F, enclosing, depth))
	case Binary:
		upd(altDepth(g.L, enclosing, depth))
		upd(altDepth(g.R, enclosing, depth))
	case Quant:
		upd(altDepth(g.F, enclosing, depth))
	case Fix:
		var kind int
		switch g.Op {
		case LFP:
			kind = 1
		case GFP:
			kind = 2
		case PFP:
			kind = 3
		case IFP:
			kind = 4
		}
		d := depth
		if kind != enclosing || kind >= 3 {
			d++
		}
		upd(d)
		upd(altDepth(g.Body, kind, d))
	case SOQuant:
		upd(altDepth(g.F, enclosing, depth))
	}
	return max
}
