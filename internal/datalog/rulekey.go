package datalog

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"orchestra/internal/schema"
)

// A rule's key is an injective structural encoding of the rule: unlike
// Rule.String, it tells the variable x from the constant "x" and Int(1)
// from Float(1), and it covers the ID and provenance token, which compiled
// plans bake in. Every name is length-prefixed and every piece starts with
// a tag byte, so the key parses back (ParseRuleKey) and ends where the
// next byte is not a body literal's tag:
//
//	'0' or '1' (ProvNeutral or not), the ID, the ProvToken, the head predicate
//	each head term: its term key, or 'k', the Skolem function, the
//	    argument term keys and ';'
//	each body literal: 'p' or 'n' and the predicate, then the term keys;
//	    or 'b', the operator as one digit, and the two term keys
//
// A term key is 'v' and the variable's name, or 'c' and the constant's
// Value.Key. A caller that holds a rule's syntax but no Rule writes the
// same bytes piece by piece: AppendRuleKeyStart, AppendTermKey per head
// term, and per body literal AppendAtomKey or AppendCmpKey followed by
// AppendTermKey per term.

// appendLP appends a length-prefixed string, keeping concatenations of
// arbitrary names unambiguous.
func appendLP[S ~string | ~[]byte](b []byte, s S) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}

// AppendRuleKey appends the rule's key.
func AppendRuleKey(b []byte, r Rule) []byte {
	b = AppendRuleKeyStart(b, r.ProvNeutral, r.ID, r.ProvToken, r.Head.Pred)
	for _, ht := range r.Head.Terms {
		if ht.Skolem != nil {
			b = appendLP(append(b, 'k'), ht.Skolem.Fn)
			for _, a := range ht.Skolem.Args {
				b = AppendTermKey(b, a)
			}
			b = append(b, ';')
			continue
		}
		b = AppendTermKey(b, ht.Term)
	}
	for _, l := range r.Body {
		if l.Builtin != nil {
			b = AppendCmpKey(b, l.Builtin.Op)
			b = AppendTermKey(b, l.Builtin.Left)
			b = AppendTermKey(b, l.Builtin.Right)
			continue
		}
		b = AppendAtomKey(b, l.Negated, l.Atom.Pred)
		for _, t := range l.Atom.Terms {
			b = AppendTermKey(b, t)
		}
	}
	return b
}

// AppendRuleKeyStart appends what a rule's key holds before its head
// terms. The ID may be given as bytes, so a caller can spell one without
// building the string.
func AppendRuleKeyStart[ID ~string | ~[]byte](b []byte, provNeutral bool, id ID, provToken, headPred string) []byte {
	if provNeutral {
		b = append(b, '0')
	} else {
		b = append(b, '1')
	}
	b = appendLP(b, id)
	b = appendLP(b, provToken)
	return appendLP(b, headPred)
}

// AppendAtomKey appends the start of a positive or negated body atom's
// key; its terms follow.
func AppendAtomKey(b []byte, negated bool, pred string) []byte {
	if negated {
		return appendLP(append(b, 'n'), pred)
	}
	return appendLP(append(b, 'p'), pred)
}

// AppendCmpKey appends the start of a comparison's key; its two terms
// follow.
func AppendCmpKey(b []byte, op CmpOp) []byte { return append(b, 'b', byte('0'+op)) }

// AppendTermKey appends the term's key without allocating.
func AppendTermKey(b []byte, t Term) []byte {
	if t.IsVar() {
		return appendLP(append(b, 'v'), t.Name)
	}
	b = append(b, 'c')
	v := t.Value
	if k := v.Kind(); k == schema.KindString || k == schema.KindLabeledNull {
		b = strconv.AppendInt(b, int64(len("s:")+len(v.Str())), 10)
		return v.AppendKeyTo(append(b, ':'))
	}
	var scratch [32]byte // any other kind's key is at most 26 bytes
	return appendLP(b, v.AppendKeyTo(scratch[:0]))
}

// errBadRuleKey reports bytes ParseRuleKey refuses.
var errBadRuleKey = errors.New("datalog: malformed rule key")

// ParseRuleKey reads the rule whose key starts key and returns it with the
// bytes after it: it inverts AppendRuleKey.
func ParseRuleKey(key []byte) (Rule, []byte, error) {
	d := keyReader{b: key}
	var r Rule
	switch d.next() {
	case '0':
		r.ProvNeutral = true
	case '1':
	default:
		d.fail()
	}
	r.ID, r.ProvToken, r.Head.Pred = d.lp(), d.lp(), d.lp()
	for !d.failed && bytes.IndexByte([]byte("vck"), d.peek()) >= 0 {
		if d.peek() != 'k' {
			r.Head.Terms = append(r.Head.Terms, HeadTerm{Term: d.term()})
			continue
		}
		d.next()
		sk := &Skolem{Fn: d.lp()}
		for !d.failed && d.peek() != ';' {
			sk.Args = append(sk.Args, d.term())
		}
		d.next()
		r.Head.Terms = append(r.Head.Terms, HeadTerm{Skolem: sk})
	}
	for !d.failed && bytes.IndexByte([]byte("bnp"), d.peek()) >= 0 {
		tag := d.next()
		if tag == 'b' {
			op := CmpOp(d.next() - '0')
			if op > OpGe {
				d.fail()
			}
			left := d.term()
			r.Body = append(r.Body, Cmp(left, op, d.term()))
			continue
		}
		a := Atom{Pred: d.lp()}
		for !d.failed && (d.peek() == 'v' || d.peek() == 'c') {
			a.Terms = append(a.Terms, d.term())
		}
		r.Body = append(r.Body, Literal{Atom: a, Negated: tag == 'n'})
	}
	if d.failed {
		return Rule{}, nil, fmt.Errorf("%w at byte %d", errBadRuleKey, d.n)
	}
	return r, d.b, nil
}

// keyReader reads a rule key. The first fault sticks, and every read after
// it returns zero values. (It records no error value, which would tie the
// key to the error a caller keeps.)
type keyReader struct {
	b      []byte
	n      int // bytes read before the fault, if any
	failed bool
}

func (d *keyReader) fail() { d.failed = true }

// peek returns the next byte, or 0 (which starts no piece) at the end.
func (d *keyReader) peek() byte {
	if d.failed || len(d.b) == 0 {
		return 0
	}
	return d.b[0]
}

func (d *keyReader) next() byte {
	if d.failed || len(d.b) == 0 {
		d.fail()
		return 0
	}
	c := d.b[0]
	d.b, d.n = d.b[1:], d.n+1
	return c
}

// lp reads a length-prefixed string.
func (d *keyReader) lp() string {
	i := bytes.IndexByte(d.b, ':')
	if d.failed || i < 0 {
		d.fail()
		return ""
	}
	n, err := strconv.Atoi(string(d.b[:i]))
	if err != nil || n < 0 || n > len(d.b)-i-1 {
		d.fail()
		return ""
	}
	s := string(d.b[i+1 : i+1+n])
	d.b, d.n = d.b[i+1+n:], d.n+i+1+n
	return s
}

func (d *keyReader) term() Term {
	switch d.next() {
	case 'v':
		return V(d.lp())
	case 'c':
		v, err := schema.ParseValue(d.lp())
		if err != nil {
			d.fail()
		}
		return C(v)
	}
	d.fail()
	return Term{}
}
