// Package parser provides the textual syntax for ORCHESTRA's rules,
// queries, and schema mappings, so mappings can live in configuration
// files instead of Go code:
//
//	crete.OPS(org, prot, seq) :- alaska.O(org, oid),
//	                             alaska.P(prot, pid),
//	                             alaska.S(oid, pid, seq).
//
// Syntax summary:
//
//   - Atoms: Pred(t1, ..., tn); predicates may be qualified (peer.Rel).
//   - Terms: bare identifiers are variables; "double-quoted" strings,
//     integers, floats, and true/false are constants.
//   - Body literals separated by commas: atoms, negated atoms (!Atom(...)),
//     and comparisons (x < 5, y != "z") with = != < <= > >=.
//   - Rules end with a period. Line comments start with # or //.
//   - Mappings are tgd rules whose heads may list several atoms separated
//     by commas and may use head-only (existential) variables, which the
//     mapping compiler Skolemizes.
package parser

import (
	"strings"
	"unicode"
)

// tokKind enumerates token types.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokPeriod
	tokArrow // :-
	tokBang  // !
	tokOp    // = != < <= > >=
)

type token struct {
	kind tokKind
	text string
	pos  int // byte offset, for errors
	line int
}

// lexer tokenizes rule text.
type lexer struct {
	src    string
	pos    int
	line   int
	tokens []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			l.skipLine()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLine()
		case c == '(':
			l.emit(tokLParen, "(")
		case c == ')':
			l.emit(tokRParen, ")")
		case c == ',':
			l.emit(tokComma, ",")
		case c == '.':
			// A period inside a qualified identifier is handled by
			// lexIdent; here it terminates a rule.
			l.emit(tokPeriod, ".")
		case c == '!':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.emitN(tokOp, "!=", 2)
			} else {
				l.emit(tokBang, "!")
			}
		case c == ':':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
				l.emitN(tokArrow, ":-", 2)
			} else {
				return nil, syntaxErrorf("parser: line %d: unexpected ':'", l.line)
			}
		case c == '=':
			l.emit(tokOp, "=")
		case c == '<':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.emitN(tokOp, "<=", 2)
			} else {
				l.emit(tokOp, "<")
			}
		case c == '>':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.emitN(tokOp, ">=", 2)
			} else {
				l.emit(tokOp, ">")
			}
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '-' || (c >= '0' && c <= '9'):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		default:
			if isIdentStart(rune(c)) {
				l.lexIdent()
			} else {
				return nil, syntaxErrorf("parser: line %d: unexpected character %q", l.line, c)
			}
		}
	}
	l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos, line: l.line})
	return l.tokens, nil
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

func (l *lexer) emit(k tokKind, text string) { l.emitN(k, text, len(text)) }

func (l *lexer) emitN(k tokKind, text string, n int) {
	l.tokens = append(l.tokens, token{kind: k, text: text, pos: l.pos, line: l.line})
	l.pos += n
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lexIdent consumes an identifier, optionally qualified by a single dot
// (peer.Relation). A trailing dot followed by a non-identifier stays a
// period token (rule terminator).
func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	// Qualified name: ident '.' ident with no spaces.
	if l.pos+1 < len(l.src) && l.src[l.pos] == '.' && isIdentStart(rune(l.src[l.pos+1])) {
		l.pos++
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: l.src[start:l.pos], pos: start, line: l.line})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			next := l.src[l.pos+1]
			switch next {
			case '"', '\\':
				sb.WriteByte(next)
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				return syntaxErrorf("parser: line %d: unknown escape \\%c", l.line, next)
			}
			l.pos += 2
			continue
		}
		if c == '"' {
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: sb.String(), pos: start, line: l.line})
			return nil
		}
		if c == '\n' {
			return syntaxErrorf("parser: line %d: unterminated string", l.line)
		}
		sb.WriteByte(c)
		l.pos++
	}
	return syntaxErrorf("parser: line %d: unterminated string", l.line)
}

func (l *lexer) lexNumber() error {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	digits := 0
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
		digits++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' &&
		l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
			digits++
		}
	}
	if digits == 0 {
		return syntaxErrorf("parser: line %d: malformed number", l.line)
	}
	l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start, line: l.line})
	return nil
}
