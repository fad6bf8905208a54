// Package parser implements the concrete syntax of the query languages:
// a lexer, a recursive-descent parser for formulas and queries, and (via the
// String methods in package logic) a printer whose output re-parses exactly.
//
// Grammar (fully bracketed forms are what the printer emits; the parser is
// more liberal):
//
//	query   := '(' varlist? ')' '.' formula
//	formula := iff
//	iff     := impl ( '<->' impl )*
//	impl    := or ( '->' impl )?                    (right associative)
//	or      := and ( '|' and )*
//	and     := unary ( '&' unary )*
//	unary   := '!' unary | quant | so | fix | primary
//	quant   := ('exists'|'forall') varlist '.' formula
//	so      := 'exists2' NAME '/' NUMBER '.' formula
//	fix     := '[' ('lfp'|'gfp'|'pfp') NAME '(' varlist? ')' '.' formula ']'
//	           '(' varlist? ')'
//	primary := 'true' | 'false' | '(' formula ')'
//	         | NAME '(' varlist? ')'                (atom)
//	         | NAME '=' NAME                        (equality)
//	varlist := NAME ( ',' NAME )*
//
// Quantifier and fixpoint bodies extend as far to the right as possible.
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokName
	tokNumber
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokDot
	tokSlash
	tokBang
	tokAmp
	tokPipe
	tokArrow
	tokIffOp
	tokEquals
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokName:
		return "name"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokSlash:
		return "'/'"
	case tokBang:
		return "'!'"
	case tokAmp:
		return "'&'"
	case tokPipe:
		return "'|'"
	case tokArrow:
		return "'->'"
	case tokIffOp:
		return "'<->'"
	case tokEquals:
		return "'='"
	}
	return "?"
}

type token struct {
	text string
	pos  int32
	kind tokenKind
}

// scan reads the token that starts at or after p.at into p.tok. An
// unexpected rune is a lexical error: p.err keeps it and p.tok is tokEOF.
func (p *parser) scan() {
	input, i := p.input, p.at
	for i < len(input) && (input[i] == ' ' || input[i] == '\t' || input[i] == '\n' || input[i] == '\r') {
		i++
	}
	emit := func(k tokenKind, n int) {
		p.tok, p.at = token{kind: k, text: input[i : i+n], pos: int32(i)}, i+n
	}
	if i == len(input) {
		emit(tokEOF, 0)
		return
	}
	c := rune(input[i])
	switch {
	case c == '(':
		emit(tokLParen, 1)
	case c == ')':
		emit(tokRParen, 1)
	case c == '[':
		emit(tokLBracket, 1)
	case c == ']':
		emit(tokRBracket, 1)
	case c == ',':
		emit(tokComma, 1)
	case c == '.':
		emit(tokDot, 1)
	case c == '/':
		emit(tokSlash, 1)
	case c == '!':
		emit(tokBang, 1)
	case c == '&':
		emit(tokAmp, 1)
	case c == '|':
		emit(tokPipe, 1)
	case c == '=':
		emit(tokEquals, 1)
	case c == '-' && strings.HasPrefix(input[i:], "->"):
		emit(tokArrow, 2)
	case c == '-':
		p.err = fmt.Errorf("parser: unexpected '-' at offset %d", i)
	case c == '<' && strings.HasPrefix(input[i:], "<->"):
		emit(tokIffOp, 3)
	case c == '<':
		p.err = fmt.Errorf("parser: unexpected '<' at offset %d", i)
	case unicode.IsDigit(c):
		j := i
		for j < len(input) && unicode.IsDigit(rune(input[j])) {
			j++
		}
		emit(tokNumber, j-i)
	case unicode.IsLetter(c) || c == '_':
		j := i
		for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_' || input[j] == '\'') {
			j++
		}
		emit(tokName, j-i)
	default:
		p.err = fmt.Errorf("parser: unexpected character %q at offset %d", c, i)
	}
	if p.err != nil {
		p.tok, p.at = token{kind: tokEOF, pos: int32(len(input))}, len(input)
	}
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}
