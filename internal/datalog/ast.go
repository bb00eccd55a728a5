// Package datalog implements the rule language and evaluation engine that
// ORCHESTRA compiles schema mappings into. It supports recursive datalog
// with stratified negation, comparison builtins, Skolem-function head terms
// (producing labeled nulls for existentials), and provenance-annotated
// semi-naive evaluation.
//
// Provenance mode computes, for every derived tuple, a polynomial in B[X]
// over the provenance tokens of the base (EDB) tuples and the rule/mapping
// tokens: the set of witnesses, each a set of tokens that jointly derive
// the tuple (provenance.Poly). B[X] is finite over any finite token set, so
// recursive programs — including the mapping cycles created by ORCHESTRA's
// bidirectional peer mappings — reach a fixpoint, and it answers every
// question asked of provenance under an idempotent semiring (boolean
// derivability, trust, security); see internal/provenance.
package datalog

import (
	"fmt"
	"strings"

	"orchestra/internal/schema"
)

// Term is a variable or a constant appearing in an atom.
type Term struct {
	// Name is the variable name; empty for constants.
	Name string
	// Value is the constant value; meaningful only when Name is empty.
	Value schema.Value
}

// V constructs a variable term.
func V(name string) Term { return Term{Name: name} }

// C constructs a constant term.
func C(v schema.Value) Term { return Term{Value: v} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Name != "" }

// String renders the term.
func (t Term) String() string {
	if t.IsVar() {
		return t.Name
	}
	return t.Value.String()
}

// Atom is a predicate applied to terms, e.g. S(oid, pid, seq).
type Atom struct {
	Pred  string
	Terms []Term
}

// NewAtom builds an atom.
func NewAtom(pred string, terms ...Term) Atom { return Atom{Pred: pred, Terms: terms} }

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// CmpOp is a comparison operator for builtin literals.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Literal is a body element: a positive or negated atom, or a builtin
// comparison between two terms.
type Literal struct {
	Atom    Atom
	Negated bool
	// Builtin, when non-nil, makes this literal a comparison; Atom is
	// ignored.
	Builtin *Comparison
}

// Comparison is a builtin literal Left op Right.
type Comparison struct {
	Op          CmpOp
	Left, Right Term
}

// Pos constructs a positive body literal.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Neg constructs a negated body literal.
func Neg(a Atom) Literal { return Literal{Atom: a, Negated: true} }

// Cmp constructs a builtin comparison literal.
func Cmp(left Term, op CmpOp, right Term) Literal {
	return Literal{Builtin: &Comparison{Op: op, Left: left, Right: right}}
}

// String renders the literal.
func (l Literal) String() string {
	if l.Builtin != nil {
		return fmt.Sprintf("%s %s %s", l.Builtin.Left, l.Builtin.Op, l.Builtin.Right)
	}
	if l.Negated {
		return "¬" + l.Atom.String()
	}
	return l.Atom.String()
}

// Skolem is a head term f(args...): at firing time it produces the labeled
// null whose term is the canonical encoding of f applied to the bound
// arguments. It implements the existential variables of tgd mappings.
type Skolem struct {
	Fn   string
	Args []Term
}

// HeadTerm is one position of a rule head: either a plain term or a Skolem
// application.
type HeadTerm struct {
	Term   Term
	Skolem *Skolem
}

// HV is a head variable term.
func HV(name string) HeadTerm { return HeadTerm{Term: V(name)} }

// HC is a head constant term.
func HC(v schema.Value) HeadTerm { return HeadTerm{Term: C(v)} }

// HSkolem is a Skolem-function head term.
func HSkolem(fn string, args ...Term) HeadTerm {
	return HeadTerm{Skolem: &Skolem{Fn: fn, Args: args}}
}

// String renders the head term.
func (h HeadTerm) String() string {
	if h.Skolem != nil {
		parts := make([]string, len(h.Skolem.Args))
		for i, a := range h.Skolem.Args {
			parts[i] = a.String()
		}
		return h.Skolem.Fn + "(" + strings.Join(parts, ",") + ")"
	}
	return h.Term.String()
}

// Head is the rule head: a predicate with head terms.
type Head struct {
	Pred  string
	Terms []HeadTerm
}

// NewHead builds a rule head.
func NewHead(pred string, terms ...HeadTerm) Head { return Head{Pred: pred, Terms: terms} }

// String renders the head.
func (h Head) String() string {
	parts := make([]string, len(h.Terms))
	for i, t := range h.Terms {
		parts[i] = t.String()
	}
	return h.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Rule is head :- body. ProvToken, when non-empty, is multiplied into the
// provenance of every firing; ORCHESTRA uses it to record which mapping
// produced a derivation.
type Rule struct {
	ID        string
	Head      Head
	Body      []Literal
	ProvToken string
	// ProvNeutral marks an auxiliary rule whose derived facts always carry
	// the annotation 1 regardless of the body facts joined: the firing still
	// participates in the fixpoint (deltas, negation membership) but never
	// contributes body provenance to its head. The magic-sets rewrite uses it
	// for magic/demand predicates, whose facts gate evaluation but must not
	// pollute the provenance polynomials of real answers.
	ProvNeutral bool
}

// String renders the rule.
func (r Rule) String() string {
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ")
}

// Program is a set of rules evaluated together.
type Program struct {
	Rules []Rule
}

// IDBPreds returns the set of predicates defined by some rule head.
func (p *Program) IDBPreds() map[string]bool {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	return idb
}

// Validate checks range restriction (safety): every head variable and every
// variable in a negated or builtin literal must occur in a positive body
// atom.
func (p *Program) Validate() error {
	for _, r := range p.Rules {
		bound := map[string]bool{}
		for _, l := range r.Body {
			if l.Builtin == nil && !l.Negated {
				for _, t := range l.Atom.Terms {
					if t.IsVar() {
						bound[t.Name] = true
					}
				}
			}
		}
		check := func(t Term, where string) error {
			if t.IsVar() && !bound[t.Name] {
				return fmt.Errorf("datalog: rule %q: unsafe variable %s in %s", r, t.Name, where)
			}
			return nil
		}
		for _, ht := range r.Head.Terms {
			if ht.Skolem != nil {
				for _, a := range ht.Skolem.Args {
					if err := check(a, "skolem argument"); err != nil {
						return err
					}
				}
				continue
			}
			if err := check(ht.Term, "head"); err != nil {
				return err
			}
		}
		for _, l := range r.Body {
			if l.Builtin != nil {
				if err := check(l.Builtin.Left, "builtin"); err != nil {
					return err
				}
				if err := check(l.Builtin.Right, "builtin"); err != nil {
					return err
				}
			} else if l.Negated {
				for _, t := range l.Atom.Terms {
					if err := check(t, "negated atom"); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// Stratify partitions the program's rules into strata such that negation
// only refers to strictly lower strata. It returns an error if a predicate
// depends negatively on itself through a cycle.
func (p *Program) Stratify() ([][]Rule, error) {
	idb := p.IDBPreds()
	// stratum number per IDB predicate, computed by the standard
	// iterate-to-fixpoint algorithm.
	stratum := map[string]int{}
	for pred := range idb {
		stratum[pred] = 0
	}
	n := len(idb)
	for iter := 0; ; iter++ {
		changed := false
		for _, r := range p.Rules {
			h := r.Head.Pred
			for _, l := range r.Body {
				if l.Builtin != nil || !idb[l.Atom.Pred] {
					continue
				}
				req := stratum[l.Atom.Pred]
				if l.Negated {
					req++
				}
				if stratum[h] < req {
					stratum[h] = req
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if iter > n+1 {
			return nil, fmt.Errorf("datalog: program is not stratifiable (negative cycle)")
		}
	}
	maxS := 0
	for _, s := range stratum {
		if s > maxS {
			maxS = s
		}
	}
	out := make([][]Rule, maxS+1)
	for _, r := range p.Rules {
		s := stratum[r.Head.Pred]
		out[s] = append(out[s], r)
	}
	return out, nil
}
