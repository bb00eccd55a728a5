package orchestra

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strconv"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/datalog"
	"orchestra/internal/datalog/magic"
	"orchestra/internal/schema"
)

// goalQueryOf builds the core GoalQuery of a query's syntax the way the
// builder did before it recorded shape keys: a goal atom, and one rule per
// Rule call with ID pred/i, head variables and body literals as written.
// It reports false when the builder must refuse the syntax (an empty
// variable name).
func goalQueryOf(goal string, args []QueryTerm, rules []fuzzRule) (core.GoalQuery, bool) {
	ok := true
	term := func(a QueryTerm) datalog.Term {
		t, good := a.term()
		ok = ok && good
		return t
	}
	terms := func(as []QueryTerm) []datalog.Term {
		out := make([]datalog.Term, len(as))
		for i, a := range as {
			out[i] = term(a)
		}
		return out
	}
	gq := core.GoalQuery{Goal: datalog.NewAtom(goal, terms(args)...)}
	for _, r := range rules {
		head := make([]datalog.HeadTerm, len(r.vars))
		for i, v := range r.vars {
			ok = ok && v != ""
			head[i] = datalog.HV(v)
		}
		lits := make([]datalog.Literal, len(r.body))
		for i, l := range r.body {
			switch l.kind {
			case literalFilter:
				lits[i] = datalog.Cmp(term(l.args[0]), l.op, term(l.args[1]))
			case literalNot:
				lits[i] = datalog.Neg(datalog.NewAtom(l.pred, terms(l.args)...))
			default:
				lits[i] = datalog.Pos(datalog.NewAtom(l.pred, terms(l.args)...))
			}
		}
		gq.Rules = append(gq.Rules, datalog.Rule{
			ID:   r.pred + "/" + strconv.Itoa(len(gq.Rules)),
			Head: datalog.Head{Pred: r.pred, Terms: head},
			Body: lits,
		})
	}
	return gq, ok
}

type fuzzRule struct {
	pred string
	vars []string
	body []QueryLiteral
}

// fuzzSyntax reads a random query's syntax from data: a goal of arity 0-3
// over bound, free and repeated variables, and 0-3 rules with 0-3 head
// variables and 1-3 body literals (atoms, negations, filters), whose
// constants are of every value kind.
type fuzzSyntax struct{ data []byte }

func (f *fuzzSyntax) next(n int) int {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return int(b) % n
}

func (f *fuzzSyntax) name(names ...string) string { return names[f.next(len(names))] }

func (f *fuzzSyntax) value() Value {
	x := int64(f.next(256)) - 128
	switch f.next(6) {
	case 0:
		return String(f.name("", "a", "x:y", "0\x00"))
	case 1:
		return Int(x * math.MaxInt32)
	case 2:
		return Float(float64(x) / 3)
	case 3:
		return Float(math.Inf(int(x)))
	case 4:
		return Bool(x < 0)
	default:
		return schema.LabeledNull(f.name("f(a)", ""))
	}
}

func (f *fuzzSyntax) term() QueryTerm {
	if f.next(3) == 0 {
		return Bind(f.value())
	}
	return Free(f.name("a", "b", "c", "long_name", ""))
}

func (f *fuzzSyntax) terms(max int) []QueryTerm {
	out := make([]QueryTerm, f.next(max+1))
	for i := range out {
		out[i] = f.term()
	}
	return out
}

func (f *fuzzSyntax) literal() QueryLiteral {
	pred := f.name("E", "v", "w", "")
	switch f.next(3) {
	case 0:
		return Not(pred, f.terms(3)...)
	case 1:
		return Filter(f.term(), CmpOp(f.next(int(CmpGe)+1)), f.term())
	default:
		return Atom(pred, f.terms(3)...)
	}
}

// FuzzQueryShapeKey: the shape key and constants Query records as it is
// built are magic.Shape and the constants of the GoalQuery the syntax
// builds, and decoding the key (what a shape cache miss does) gives back
// that GoalQuery's rules and a goal of its shape and constants.
func FuzzQueryShapeKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x00\x00\x01\x01\x02\x01\x00\x03\x01\x02\x02\x02\x01\x00\x00\x01\x01"))
	f.Add([]byte("reach(x, y) :- S(x, y, s); reach(x, z) :- reach(x, y), S(y, z, s)"))
	f.Add(bytes.Repeat([]byte{7, 1, 250, 3, 0, 2}, 12))
	p := &Peer{}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzSyntax{data: data}
		goal := in.name("g", "v", "E", "")
		args := in.terms(3)
		rules := make([]fuzzRule, in.next(4))
		for i := range rules {
			rules[i] = fuzzRule{pred: in.name("v", "w", "g"), vars: make([]string, in.next(4))}
			for j := range rules[i].vars {
				rules[i].vars[j] = in.name("a", "b", "c", "")
			}
			rules[i].body = make([]QueryLiteral, 1+in.next(3))
			for j := range rules[i].body {
				rules[i].body[j] = in.literal()
			}
		}
		q := p.Query(context.Background(), goal, args...)
		for _, r := range rules {
			q.Rule(r.pred, r.vars, r.body...)
		}
		gq, ok := goalQueryOf(goal, args, rules)
		if ok != (q.err == nil) {
			t.Fatalf("builder error %v; want one: %v", q.err, !ok)
		}
		if !ok {
			return
		}
		if want := magic.Shape(nil, gq.Rules, gq.Goal); !bytes.Equal(q.sq.Key, want) {
			t.Fatalf("recorded key\n%q\nwant magic.Shape\n%q", q.sq.Key, want)
		}
		if want := magic.GoalConsts(nil, gq.Goal); !reflect.DeepEqual(nilIfEmpty(q.sq.Consts), nilIfEmpty(want)) {
			t.Fatalf("recorded constants %v, want %v", q.sq.Consts, want)
		}
		decoded, dgoal, err := magic.ParseShape(q.sq.Key, q.sq.Consts)
		if err != nil {
			t.Fatalf("ParseShape: %v", err)
		}
		if !reflect.DeepEqual(normRules(decoded), normRules(gq.Rules)) {
			t.Fatalf("decoded rules\n%v\nwant\n%v", decoded, gq.Rules)
		}
		if dgoal.Pred != gq.Goal.Pred || !bytes.Equal(magic.Shape(nil, nil, dgoal), magic.Shape(nil, nil, gq.Goal)) ||
			!reflect.DeepEqual(nilIfEmpty(magic.GoalConsts(nil, dgoal)), nilIfEmpty(magic.GoalConsts(nil, gq.Goal))) {
			t.Fatalf("decoded goal %v, want %v up to variable names", dgoal, gq.Goal)
		}
	})
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// normRules returns rules with every empty slice nil, so rules that differ
// only there compare equal.
func normRules(rules []datalog.Rule) []datalog.Rule {
	out := make([]datalog.Rule, 0, len(rules))
	for _, r := range rules {
		r.Head.Terms = nilIfEmpty(r.Head.Terms)
		body := make([]datalog.Literal, len(r.Body))
		for i, l := range r.Body {
			l.Atom.Terms = nilIfEmpty(l.Atom.Terms)
			body[i] = l
		}
		r.Body = nilIfEmpty(body)
		out = append(out, r)
	}
	return nilIfEmpty(out)
}
