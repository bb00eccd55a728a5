package parser

import (
	"context"
	"errors"
	"strings"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/mapping"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

func TestParseRulesTC(t *testing.T) {
	rules, err := ParseRules(`
		# transitive closure
		T(x, y) :- E(x, y).
		T(x, z) :- T(x, y), E(y, z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d", len(rules))
	}
	prog := &datalog.Program{Rules: rules}
	edb := datalog.NewDB()
	edb.AddTuple("E", schema.NewTuple(schema.String("a"), schema.String("b")))
	edb.AddTuple("E", schema.NewTuple(schema.String("b"), schema.String("c")))
	res, err := datalog.EvalCtx(context.Background(), prog, edb, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel("T").Len() != 3 {
		t.Errorf("T = %v", res.Rel("T").Facts())
	}
}

func TestParseRuleFeatures(t *testing.T) {
	rules, err := ParseRules(`
		Out(x, "tag", 42, 2.5, true) :- In(x), x < 10, x != 3, !Skip(x).
	`)
	if err != nil {
		t.Fatal(err)
	}
	r := rules[0]
	if len(r.Head.Terms) != 5 {
		t.Fatalf("head = %v", r.Head)
	}
	if r.Head.Terms[1].Term.Value.Str() != "tag" {
		t.Errorf("string constant = %v", r.Head.Terms[1])
	}
	if r.Head.Terms[2].Term.Value.IntVal() != 42 {
		t.Errorf("int constant = %v", r.Head.Terms[2])
	}
	if !r.Head.Terms[3].Term.Value.Equal(schema.Float(2.5)) {
		t.Errorf("float constant = %v", r.Head.Terms[3])
	}
	if !r.Head.Terms[4].Term.Value.Equal(schema.Bool(true)) {
		t.Errorf("bool constant = %v", r.Head.Terms[4])
	}
	if len(r.Body) != 4 {
		t.Fatalf("body = %v", r.Body)
	}
	if r.Body[1].Builtin == nil || r.Body[1].Builtin.Op != datalog.OpLt {
		t.Errorf("builtin = %v", r.Body[1])
	}
	if r.Body[2].Builtin == nil || r.Body[2].Builtin.Op != datalog.OpNe {
		t.Errorf("builtin = %v", r.Body[2])
	}
	if !r.Body[3].Negated {
		t.Errorf("negation = %v", r.Body[3])
	}
}

func TestParseStringEscapes(t *testing.T) {
	rules, err := ParseRules(`Out(x) :- In(x, "a\"b\\c\nd\te").`)
	if err != nil {
		t.Fatal(err)
	}
	got := rules[0].Body[0].Atom.Terms[1].Value.Str()
	if got != "a\"b\\c\nd\te" {
		t.Errorf("escaped string = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                       // empty is fine -> zero rules (not error); skip below
		"T(x y) :- E(x, y).",     // missing comma
		"T(x) :- E(x)",           // missing period
		"T(x) :- .",              // empty body element
		"T(x) :- E(x), x << 3.",  // bad operator
		`T(x) :- E(x, "unterm).`, // unterminated string
		"T(x) :- E(x) :- F(x).",  // double arrow
		"T(x) :- E(x), !G(x.y).", // qualified term
		"T(-) :- E(x).",          // bare minus
	}
	for _, c := range cases[1:] {
		if _, err := ParseRules(c); !errors.Is(err, ErrSyntax) {
			t.Errorf("ParseRules(%q) = %v, want ErrSyntax", c, err)
		}
	}
	rules, err := ParseRules(cases[0])
	if err != nil || len(rules) != 0 {
		t.Errorf("empty input: %v %v", rules, err)
	}
}

// The REPL's query command parses with ParseRules: the first rule is the
// goal, later rules define views (see internal/repl).
func TestParseQueryShapedRules(t *testing.T) {
	rules, err := ParseRules(`q(org, seq) :- O(org, oid), S(oid, pid, seq). v(x) :- O(x, y).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %v", rules)
	}
	head := rules[0].Head
	if head.Pred != "q" || len(head.Terms) != 2 ||
		head.Terms[0].Term.Name != "org" || head.Terms[1].Term.Name != "seq" {
		t.Errorf("goal head = %v", head)
	}
	if len(rules[0].Body) != 2 {
		t.Errorf("goal body = %v", rules[0].Body)
	}
}

func TestParseMappingJoin(t *testing.T) {
	m, err := ParseMapping("M_AC", `
		crete.OPS(org, prot, seq) :-
			alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != "alaska" || m.Target != "crete" {
		t.Errorf("peers = %s -> %s", m.Source, m.Target)
	}
	if len(m.ExistentialVars()) != 0 {
		t.Errorf("existentials = %v", m.ExistentialVars())
	}
	if _, err := mapping.Compile([]*mapping.Mapping{m}); err != nil {
		t.Fatal(err)
	}
}

func TestParseMappingSplitWithExistentials(t *testing.T) {
	m, err := ParseMapping("M_CA", `
		alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq) :-
			crete.OPS(org, prot, seq).
	`)
	if err != nil {
		t.Fatal(err)
	}
	ex := m.ExistentialVars()
	if len(ex) != 2 || ex[0] != "oid" || ex[1] != "pid" {
		t.Errorf("existentials = %v", ex)
	}
	// The parsed split mapping behaves like the hand-built one.
	prog, err := mapping.Compile([]*mapping.Mapping{m})
	if err != nil {
		t.Fatal(err)
	}
	edb := datalog.NewDB()
	edb.Add("crete.OPS", schema.NewTuple(schema.String("fly"), schema.String("myc"), schema.String("G")),
		provenance.NewVar("x"))
	res, err := datalog.EvalCtx(context.Background(), prog, edb, datalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel("alaska.O").Len() != 1 || res.Rel("alaska.S").Len() != 1 {
		t.Errorf("split output missing")
	}
}

func TestParseMappingErrors(t *testing.T) {
	cases := map[string]string{
		"unqualified body": `crete.OPS(o, p, s) :- O(o, oid).`,
		"unqualified head": `OPS(o, p, s) :- alaska.O(o, oid).`,
		"mixed body peers": `crete.OPS(o, p, s) :- alaska.O(o, x), beijing.P(p, y), alaska.S(x, y, s).`,
		"mixed head peers": `crete.OPS(o, p, s), dresden.OPS(o, p, s) :- alaska.O(o, p), alaska.S(o, p, s).`,
		"trailing input":   `crete.OPS(o, p, s) :- alaska.X(o, p, s). extra`,
	}
	for name, src := range cases {
		if _, err := ParseMapping("M", src); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestParsedEqualsHandBuilt(t *testing.T) {
	// The parsed join mapping produces the same rules as workload's
	// hand-built one (modulo rule ids).
	m, err := ParseMapping("M_AC", `
		crete.OPS(org, prot, seq) :- alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq).
	`)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := m.Rules()
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("rules = %d", len(rules))
	}
	got := rules[0].String()
	if !strings.Contains(got, "crete.OPS(org, prot, seq)") ||
		!strings.Contains(got, "alaska.S(oid, pid, seq)") {
		t.Errorf("rule = %s", got)
	}
}
