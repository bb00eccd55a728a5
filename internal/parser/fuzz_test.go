package parser

import (
	"errors"
	"testing"
)

// FuzzParseRules: whatever text the REPL's query command hands ParseRules,
// it returns rules, each with a head predicate, or an error matching
// ErrSyntax, and never panics.
func FuzzParseRules(f *testing.F) {
	for _, src := range []string{
		"",
		"T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).",
		`q(org, seq) :- O(org, oid), S(oid, pid, seq). v(x) :- O(x, y).`,
		`q(x) :- R(x, "a\"b", -3, 1.5, true), !S(x), x != 2, x <= -0.5.`,
		"T(x y) :- E(x, y).",
		"T(x) :- E(x)",
		"T(x) :- .",
		`T(x) :- E(x, "unterm).`,
		"T(x) :- E(x), !G(x.y).",
		"T(-) :- E(x).",
		"a.b(x) :- c.d(x). // comment\n# comment",
		"T(x) :- E(x), x",
		"T(",
		"T(x) :-",
		"x = 1 :- y.",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		rules, err := ParseRules(src)
		if err != nil {
			if !errors.Is(err, ErrSyntax) {
				t.Fatalf("ParseRules(%q): untyped error %v", src, err)
			}
			return
		}
		for _, r := range rules {
			if r.Head.Pred == "" {
				t.Fatalf("ParseRules(%q): rule %s has no head predicate", src, r.ID)
			}
		}
	})
}
