package grammar

import (
	"fmt"
	"strings"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/relation"
)

// MaxAlgebraCells caps the Lemma 4.2 enumeration: the finite algebra has
// 2^(nᵏ) relations, so the construction is only materialized when nᵏ is
// tiny. The *evaluator* below has no such limit — only the explicit grammar
// does, exactly as in the paper (the grammar is a proof device for a fixed
// B).
const MaxAlgebraCells = 12

// Compile renders an FO formula as a parenthesis word over atom and
// operator tokens: the "algebraic expression over a finite algebra" view of
// an FOᵏ query. The word's length is linear in the formula size.
func Compile(f logic.Formula) ([]string, error) {
	var out []string
	var rec func(f logic.Formula) error
	rec = func(f logic.Formula) error {
		switch g := f.(type) {
		case logic.Atom:
			out = append(out, "(", atomToken(g.Rel, g.Args), ")")
		case logic.Eq:
			out = append(out, "(", eqToken(g.L, g.R), ")")
		case logic.Truth:
			if g.Value {
				out = append(out, "(", "true", ")")
			} else {
				out = append(out, "(", "false", ")")
			}
		case logic.Not:
			out = append(out, "(", "!")
			if err := rec(g.F); err != nil {
				return err
			}
			out = append(out, ")")
		case logic.Binary:
			out = append(out, "(")
			if err := rec(g.L); err != nil {
				return err
			}
			out = append(out, g.Op.String())
			if err := rec(g.R); err != nil {
				return err
			}
			out = append(out, ")")
		case logic.Quant:
			out = append(out, "(", quantToken(g.Kind, g.V))
			if err := rec(g.F); err != nil {
				return err
			}
			out = append(out, ")")
		default:
			return fmt.Errorf("grammar: Compile supports FO only, got %T", f)
		}
		return nil
	}
	if err := rec(f); err != nil {
		return nil, err
	}
	return out, nil
}

func atomToken(rel string, args []logic.Var) string {
	parts := make([]string, len(args))
	for i, v := range args {
		parts[i] = string(v)
	}
	return rel + "(" + strings.Join(parts, ",") + ")"
}

func eqToken(l, r logic.Var) string { return string(l) + "=" + string(r) }

func quantToken(kind logic.QuantKind, v logic.Var) string {
	if kind == logic.ExistsQ {
		return "E:" + string(v)
	}
	return "A:" + string(v)
}

// WordEvaluator evaluates compiled parenthesis words over a database with a
// single left-to-right pass and a value stack: the deterministic engine
// behind Corollary 4.3 — once B is fixed, each reduction step manipulates
// constant-size values (k-ary relations over B), so evaluation is linear in
// the word length.
type WordEvaluator struct {
	sp    *relation.Space
	vars  []logic.Var
	axis  map[logic.Var]int
	atoms map[string]*relation.Dense
}

// NewWordEvaluator precomputes the atom table for all database relations
// applied to all argument combinations of the given variables.
func NewWordEvaluator(db *database.Database, vars []logic.Var) (*WordEvaluator, error) {
	sp, err := relation.NewSpace(len(vars), db.Size())
	if err != nil {
		return nil, err
	}
	e := &WordEvaluator{sp: sp, vars: vars, axis: make(map[logic.Var]int), atoms: make(map[string]*relation.Dense)}
	for i, v := range vars {
		e.axis[v] = i
	}
	e.atoms["true"] = sp.Full()
	e.atoms["false"] = sp.Empty()
	for i, l := range vars {
		for j, r := range vars {
			e.atoms[eqToken(l, r)] = sp.Diagonal(i, j)
		}
	}
	for _, name := range db.Names() {
		rel, err := db.Rel(name)
		if err != nil {
			return nil, err
		}
		arity, _ := db.Arity(name)
		args := make([]logic.Var, arity)
		axes := make([]int, arity)
		var recArgs func(i int) error
		recArgs = func(i int) error {
			if i == arity {
				d, err := sp.FromAtom(rel, append([]int(nil), axes...))
				if err != nil {
					return err
				}
				e.atoms[atomToken(name, args)] = d
				return nil
			}
			for ai, v := range vars {
				args[i] = v
				axes[i] = ai
				if err := recArgs(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := recArgs(0); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// AtomTokens returns the precomputed atom tokens (sorted order not
// guaranteed); used by the grammar construction.
func (e *WordEvaluator) AtomTokens() map[string]*relation.Dense { return e.atoms }

// frameItem is one entry of the stack evaluator's current frame: a reduced
// relation value or a pending token.
type frameItem struct {
	val *relation.Dense
	tok string
}

// Eval runs the stack pass and returns the word's relation value.
func (e *WordEvaluator) Eval(word []string) (*relation.Dense, error) {
	var stack [][]frameItem
	var cur []frameItem
	depth := 0
	for i, tok := range word {
		switch tok {
		case "(":
			stack = append(stack, cur)
			cur = nil
			depth++
		case ")":
			if depth == 0 {
				return nil, fmt.Errorf("grammar: unbalanced ')' at token %d", i)
			}
			v, err := e.reduceFrame(cur)
			if err != nil {
				return nil, err
			}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cur = append(cur, frameItem{val: v})
			depth--
		default:
			if depth == 0 {
				return nil, fmt.Errorf("grammar: token %q outside brackets", tok)
			}
			cur = append(cur, frameItem{tok: tok})
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("grammar: unbalanced '('")
	}
	if len(cur) != 1 || cur[0].val == nil {
		return nil, fmt.Errorf("grammar: word is not a single expression")
	}
	return cur[0].val, nil
}

func (e *WordEvaluator) reduceFrame(items []frameItem) (*relation.Dense, error) {
	switch len(items) {
	case 1:
		if items[0].val != nil {
			return items[0].val, nil
		}
		if d, ok := e.atoms[items[0].tok]; ok {
			return d.Clone(), nil
		}
		return nil, fmt.Errorf("grammar: unknown atom token %q", items[0].tok)
	case 2:
		tok := items[0].tok
		v := items[1].val
		if v == nil {
			return nil, fmt.Errorf("grammar: operator %q needs an operand", tok)
		}
		switch {
		case tok == "!":
			out := v.Clone()
			out.Complement()
			return out, nil
		case strings.HasPrefix(tok, "E:"), strings.HasPrefix(tok, "A:"):
			ax, ok := e.axis[logic.Var(tok[2:])]
			if !ok {
				return nil, fmt.Errorf("grammar: unknown variable in token %q", tok)
			}
			if tok[0] == 'E' {
				return v.ExistsAxis(ax), nil
			}
			return v.ForallAxis(ax), nil
		default:
			return nil, fmt.Errorf("grammar: unknown unary token %q", tok)
		}
	case 3:
		l, op, r := items[0].val, items[1].tok, items[2].val
		if l == nil || r == nil {
			return nil, fmt.Errorf("grammar: binary operator %q needs two operands", op)
		}
		out := l.Clone()
		switch op {
		case "&":
			out.IntersectWith(r)
		case "|":
			out.UnionWith(r)
		case "->":
			out.Complement()
			out.UnionWith(r)
		case "<->":
			nl := l.Clone()
			nl.Complement()
			nr := r.Clone()
			nr.Complement()
			nl.IntersectWith(nr)
			out.IntersectWith(r)
			out.UnionWith(nl)
		default:
			return nil, fmt.Errorf("grammar: unknown binary operator %q", op)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("grammar: malformed segment of %d items", len(items))
	}
}
