package parser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"orchestra/internal/datalog"
	"orchestra/internal/mapping"
	"orchestra/internal/schema"
)

// ErrSyntax is wrapped by every error ParseRules and ParseMapping report
// about their input's text: whatever text they are given, they return its
// rules or mapping, or an error that matches ErrSyntax with errors.Is. (A
// mapping that parses can still fail the mapping package's validation,
// with an error that matches mapping.ErrInvalid.)
var ErrSyntax = errors.New("parser: syntax error")

// syntaxError is one ErrSyntax with its message.
type syntaxError struct{ msg string }

func (e *syntaxError) Error() string { return e.msg }
func (e *syntaxError) Unwrap() error { return ErrSyntax }

// syntaxErrorf formats an ErrSyntax.
func syntaxErrorf(format string, args ...any) error {
	return &syntaxError{msg: fmt.Sprintf(format, args...)}
}

// parser walks a token stream.
type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token       { return p.toks[p.i] }
func (p *parser) next() token       { t := p.toks[p.i]; p.i++; return t }
func (p *parser) at(k tokKind) bool { return p.toks[p.i].kind == k }

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, syntaxErrorf("parser: line %d: expected %s, got %q", t.line, what, t.text)
	}
	return t, nil
}

// parseTerm parses a variable or constant.
func (p *parser) parseTerm() (datalog.Term, error) {
	t := p.next()
	switch t.kind {
	case tokIdent:
		switch t.text {
		case "true":
			return datalog.C(schema.Bool(true)), nil
		case "false":
			return datalog.C(schema.Bool(false)), nil
		}
		if strings.Contains(t.text, ".") {
			return datalog.Term{}, syntaxErrorf("parser: line %d: qualified name %q cannot be a term", t.line, t.text)
		}
		return datalog.V(t.text), nil
	case tokString:
		return datalog.C(schema.String(t.text)), nil
	case tokNumber:
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return datalog.Term{}, syntaxErrorf("parser: line %d: bad float %q", t.line, t.text)
			}
			return datalog.C(schema.Float(f)), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return datalog.Term{}, syntaxErrorf("parser: line %d: bad int %q", t.line, t.text)
		}
		return datalog.C(schema.Int(n)), nil
	default:
		return datalog.Term{}, syntaxErrorf("parser: line %d: expected term, got %q", t.line, t.text)
	}
}

// parseAtom parses Pred(t1, ..., tn).
func (p *parser) parseAtom() (datalog.Atom, error) {
	name, err := p.expect(tokIdent, "predicate name")
	if err != nil {
		return datalog.Atom{}, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return datalog.Atom{}, err
	}
	var terms []datalog.Term
	if !p.at(tokRParen) {
		for {
			t, err := p.parseTerm()
			if err != nil {
				return datalog.Atom{}, err
			}
			terms = append(terms, t)
			if p.at(tokComma) {
				p.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return datalog.Atom{}, err
	}
	return datalog.NewAtom(name.text, terms...), nil
}

var ops = map[string]datalog.CmpOp{
	"=": datalog.OpEq, "!=": datalog.OpNe,
	"<": datalog.OpLt, "<=": datalog.OpLe,
	">": datalog.OpGt, ">=": datalog.OpGe,
}

// parseLiteral parses one body element: atom, !atom, or comparison.
func (p *parser) parseLiteral() (datalog.Literal, error) {
	if p.at(tokBang) {
		p.next()
		a, err := p.parseAtom()
		if err != nil {
			return datalog.Literal{}, err
		}
		return datalog.Neg(a), nil
	}
	// Lookahead: ident followed by '(' is an atom; otherwise it must be a
	// comparison's left term.
	if p.at(tokIdent) && p.toks[p.i+1].kind == tokLParen {
		a, err := p.parseAtom()
		if err != nil {
			return datalog.Literal{}, err
		}
		return datalog.Pos(a), nil
	}
	left, err := p.parseTerm()
	if err != nil {
		return datalog.Literal{}, err
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return datalog.Literal{}, err
	}
	op, ok := ops[opTok.text]
	if !ok {
		return datalog.Literal{}, syntaxErrorf("parser: line %d: unknown operator %q", opTok.line, opTok.text)
	}
	right, err := p.parseTerm()
	if err != nil {
		return datalog.Literal{}, err
	}
	return datalog.Cmp(left, op, right), nil
}

// parseBody parses comma-separated literals up to the rule period.
func (p *parser) parseBody() ([]datalog.Literal, error) {
	var body []datalog.Literal
	for {
		l, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		body = append(body, l)
		if p.at(tokComma) {
			p.next()
			continue
		}
		return body, nil
	}
}

// ruleText is one parsed rule before conversion: head atoms and body.
type ruleText struct {
	heads []datalog.Atom
	body  []datalog.Literal
}

// parseRuleText parses: atom (, atom)* :- literal (, literal)* '.'
func (p *parser) parseRuleText() (*ruleText, error) {
	var heads []datalog.Atom
	for {
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		heads = append(heads, a)
		if p.at(tokComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokArrow, "':-'"); err != nil {
		return nil, err
	}
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPeriod, "'.'"); err != nil {
		return nil, err
	}
	return &ruleText{heads: heads, body: body}, nil
}

// ParseRules parses a newline/period-separated list of single-head datalog
// rules. Rule IDs are "r0", "r1", ... unless the text is empty.
func ParseRules(src string) ([]datalog.Rule, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var rules []datalog.Rule
	for !p.at(tokEOF) {
		rt, err := p.parseRuleText()
		if err != nil {
			return nil, err
		}
		if len(rt.heads) != 1 {
			return nil, syntaxErrorf("parser: datalog rules take exactly one head atom (got %d); use ParseMapping for tgds", len(rt.heads))
		}
		terms := make([]datalog.HeadTerm, len(rt.heads[0].Terms))
		for i, t := range rt.heads[0].Terms {
			if t.IsVar() {
				terms[i] = datalog.HV(t.Name)
			} else {
				terms[i] = datalog.HC(t.Value)
			}
		}
		rules = append(rules, datalog.Rule{
			ID:   fmt.Sprintf("r%d", len(rules)),
			Head: datalog.Head{Pred: rt.heads[0].Pred, Terms: terms},
			Body: rt.body,
		})
	}
	return rules, nil
}

// ParseMapping parses one tgd with a (possibly multi-atom) head into a
// schema mapping. All predicates must be peer-qualified; source and target
// peers are inferred from the qualifications, which must be consistent.
func ParseMapping(id, src string) (*mapping.Mapping, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	rt, err := p.parseRuleText()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, syntaxErrorf("parser: mapping %s: trailing input after rule", id)
	}
	return mappingFromRule(id, rt)
}

func mappingFromRule(id string, rt *ruleText) (*mapping.Mapping, error) {
	var source, target string
	for _, l := range rt.body {
		if l.Builtin != nil {
			continue
		}
		peer, _, err := mapping.SplitQualified(l.Atom.Pred)
		if err != nil {
			return nil, syntaxErrorf("parser: mapping %s: predicate %q must be peer-qualified", id, l.Atom.Pred)
		}
		if source == "" {
			source = peer
		} else if source != peer {
			return nil, syntaxErrorf("parser: mapping %s: body mixes peers %s and %s", id, source, peer)
		}
	}
	for _, a := range rt.heads {
		peer, _, err := mapping.SplitQualified(a.Pred)
		if err != nil {
			return nil, syntaxErrorf("parser: mapping %s: predicate %q must be peer-qualified", id, a.Pred)
		}
		if target == "" {
			target = peer
		} else if target != peer {
			return nil, syntaxErrorf("parser: mapping %s: head mixes peers %s and %s", id, target, peer)
		}
	}
	m := &mapping.Mapping{ID: id, Source: source, Target: target, Body: rt.body, Head: rt.heads}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
