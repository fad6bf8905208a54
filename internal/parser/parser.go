package parser

import (
	"fmt"

	"repro/internal/logic"
)

type parser struct {
	input string
	at    int         // where the next token starts
	tok   token       // the current token: tokEOF from a lexical error on
	err   error       // the first lexical error
	vars  []logic.Var // arena the variable lists are cut from
}

// finish settles a parse's outcome: a lexical error anywhere in the input
// wins over err, as when the input was tokenized before parsing.
func (p *parser) finish(err error) error {
	for p.err == nil && p.tok.kind != tokEOF {
		p.scan()
	}
	if p.err != nil {
		return p.err
	}
	return err
}

// ParseFormula parses a formula in the package's concrete syntax.
func ParseFormula(input string) (logic.Formula, error) {
	p := &parser{input: input}
	p.scan()
	f, err := p.formula()
	if err == nil {
		err = p.expect(tokEOF)
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return f, nil
}

// ParseQuery parses "(x, y). formula".
func ParseQuery(input string) (logic.Query, error) {
	p := &parser{input: input}
	p.scan()
	head, body, err := p.query()
	if err = p.finish(err); err != nil {
		return logic.Query{}, err
	}
	return logic.NewQuery(head, body)
}

func (p *parser) query() (head []logic.Var, body logic.Formula, err error) {
	if head, err = p.parenVarlist(); err == nil {
		err = p.expect(tokDot)
	}
	if err == nil {
		body, err = p.formula()
	}
	if err == nil {
		err = p.expect(tokEOF)
	}
	return head, body, err
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.scan()
	}
	return t
}

func (p *parser) expect(kind tokenKind) error {
	t := p.peek()
	if t.kind != kind {
		return fmt.Errorf("parser: expected %v, found %v %q at offset %d", kind, t.kind, t.text, t.pos)
	}
	p.next()
	return nil
}

func (p *parser) accept(kind tokenKind) bool {
	if p.peek().kind == kind {
		p.next()
		return true
	}
	return false
}

func (p *parser) formula() (logic.Formula, error) { return p.iff() }

func (p *parser) iff() (logic.Formula, error) {
	l, err := p.impl()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIffOp) {
		r, err := p.impl()
		if err != nil {
			return nil, err
		}
		l = logic.Binary{Op: logic.IffOp, L: l, R: r}
	}
	return l, nil
}

func (p *parser) impl() (logic.Formula, error) {
	l, err := p.or()
	if err != nil {
		return nil, err
	}
	if p.accept(tokArrow) {
		r, err := p.impl() // right associative
		if err != nil {
			return nil, err
		}
		return logic.Binary{Op: logic.ImpliesOp, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) or() (logic.Formula, error) {
	l, err := p.and()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPipe) {
		r, err := p.and()
		if err != nil {
			return nil, err
		}
		l = logic.Binary{Op: logic.OrOp, L: l, R: r}
	}
	return l, nil
}

func (p *parser) and() (logic.Formula, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokAmp) {
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = logic.Binary{Op: logic.AndOp, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary() (logic.Formula, error) {
	switch t := p.peek(); {
	case t.kind == tokBang:
		p.next()
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return logic.Not{F: f}, nil
	case t.kind == tokLBracket:
		return p.fixpoint()
	case t.kind == tokName && (t.text == "exists" || t.text == "forall"):
		return p.quantifier()
	case t.kind == tokName && t.text == "exists2":
		return p.soQuantifier()
	default:
		return p.primary()
	}
}

func (p *parser) quantifier() (logic.Formula, error) {
	kw := p.next().text
	vars, err := p.varlist()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokDot); err != nil {
		return nil, err
	}
	body, err := p.formula()
	if err != nil {
		return nil, err
	}
	if kw == "exists" {
		return logic.Exists(body, vars...), nil
	}
	return logic.Forall(body, vars...), nil
}

func (p *parser) soQuantifier() (logic.Formula, error) {
	p.next() // exists2
	name := p.peek()
	if err := p.expect(tokName); err != nil {
		return nil, err
	}
	if err := p.expect(tokSlash); err != nil {
		return nil, err
	}
	num := p.peek()
	if err := p.expect(tokNumber); err != nil {
		return nil, err
	}
	if err := p.expect(tokDot); err != nil {
		return nil, err
	}
	body, err := p.formula()
	if err != nil {
		return nil, err
	}
	return logic.SOQuant{Rel: name.text, Arity: atoi(num.text), F: body}, nil
}

func (p *parser) fixpoint() (logic.Formula, error) {
	if err := p.expect(tokLBracket); err != nil {
		return nil, err
	}
	kw := p.peek()
	if kw.kind != tokName || (kw.text != "lfp" && kw.text != "gfp" && kw.text != "pfp" && kw.text != "ifp") {
		return nil, fmt.Errorf("parser: expected lfp, gfp, pfp or ifp at offset %d", kw.pos)
	}
	p.next()
	var op logic.FixOp
	switch kw.text {
	case "lfp":
		op = logic.LFP
	case "gfp":
		op = logic.GFP
	case "pfp":
		op = logic.PFP
	case "ifp":
		op = logic.IFP
	}
	name := p.peek()
	if err := p.expect(tokName); err != nil {
		return nil, err
	}
	vars, err := p.parenVarlist()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokDot); err != nil {
		return nil, err
	}
	body, err := p.formula()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	args, err := p.parenVarlist()
	if err != nil {
		return nil, err
	}
	return logic.Fix{Op: op, Rel: name.text, Vars: vars, Body: body, Args: args}, nil
}

func (p *parser) primary() (logic.Formula, error) {
	switch t := p.peek(); t.kind {
	case tokLParen:
		p.next()
		f, err := p.formula()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return f, nil
	case tokName:
		switch t.text {
		case "true":
			p.next()
			return logic.True, nil
		case "false":
			p.next()
			return logic.False, nil
		}
		p.next()
		switch p.peek().kind {
		case tokLParen:
			args, err := p.parenVarlist()
			if err != nil {
				return nil, err
			}
			return logic.Atom{Rel: t.text, Args: args}, nil
		case tokEquals:
			p.next()
			rhs := p.peek()
			if err := p.expect(tokName); err != nil {
				return nil, err
			}
			return logic.Eq{L: logic.Var(t.text), R: logic.Var(rhs.text)}, nil
		default:
			return nil, fmt.Errorf("parser: expected '(' or '=' after name %q at offset %d", t.text, t.pos)
		}
	default:
		return nil, fmt.Errorf("parser: unexpected %v %q at offset %d", t.kind, t.text, t.pos)
	}
}

// parenVarlist parses '(' varlist? ')'.
func (p *parser) parenVarlist() ([]logic.Var, error) {
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var vars []logic.Var
	if p.peek().kind == tokName {
		var err error
		vars, err = p.varlist()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return vars, nil
}

// varlist parses NAME (',' NAME)* into a list cut from the parser's arena,
// so that a text's lists share a few allocations.
func (p *parser) varlist() ([]logic.Var, error) {
	if cap(p.vars)-len(p.vars) < 4 {
		p.vars = make([]logic.Var, 0, 16)
	}
	start := len(p.vars)
	for {
		t := p.peek()
		if err := p.expect(tokName); err != nil {
			return nil, err
		}
		p.vars = append(p.vars, logic.Var(t.text))
		if !p.accept(tokComma) {
			return p.vars[start:len(p.vars):len(p.vars)], nil
		}
	}
}
