package parser

import (
	"errors"
	"testing"

	"orchestra/internal/mapping"
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

// FuzzParseMapping: whatever text a configuration hands ParseMapping, it
// returns a mapping from one named source peer to one named target peer
// that passes Validate, or an error matching ErrSyntax (the text) or
// mapping.ErrInvalid (the tgd), and never panics.
func FuzzParseMapping(f *testing.F) {
	for _, src := range []string{
		"crete.OPS(org, prot, seq) :- alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq).",
		"alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq) :- crete.OPS(org, prot, seq).",
		`crete.R(x) :- alaska.E(x, y), y != "a", x <= 3.`,
		`crete.R(x) :- alaska.E(x), z > 1.`,
		"crete.R(x) :- !alaska.E(x).",
		"crete.R(x) :- x = 1.",
		"crete.OPS(o, p, s) :- O(o, oid).",
		"OPS(o, p, s) :- alaska.O(o, oid).",
		"crete.OPS(o, p, s) :- alaska.O(o, x), beijing.P(p, y), alaska.S(x, y, s).",
		"crete.OPS(o, p, s), dresden.OPS(o, p, s) :- alaska.O(o, p), alaska.S(o, p, s).",
		"crete.OPS(o, p, s) :- alaska.X(o, p, s). extra",
		"",
		":- alaska.E(x).",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseMapping("M", src)
		if err != nil {
			if !errors.Is(err, ErrSyntax) && !errors.Is(err, mapping.ErrInvalid) {
				t.Fatalf("ParseMapping(%q): untyped error %v", src, err)
			}
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("ParseMapping(%q) returned a mapping Validate refuses: %v", src, err)
		}
		if m.ID != "M" || m.Source == "" || m.Target == "" {
			t.Fatalf("ParseMapping(%q) = mapping %q from %q to %q", src, m.ID, m.Source, m.Target)
		}
	})
}
