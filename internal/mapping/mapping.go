// Package mapping implements ORCHESTRA's declarative schema mappings:
// tuple-generating dependencies (tgds) relating one peer's relations to
// another's. Mappings are compiled into the datalog rules that the update
// exchange engine evaluates; existential variables in mapping heads are
// Skolemized into labeled nulls, following the data-exchange semantics of
// Fagin et al. that ORCHESTRA builds on.
//
// Because different peers may use the same relation names (Figure 2's
// peers A and B share schema Σ1), predicates are qualified as
// "peer.Relation" throughout.
package mapping

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"orchestra/internal/datalog"
	"orchestra/internal/schema"
)

// ErrInvalid is wrapped by every error Validate, SplitQualified and Compile
// report about a mapping that is not a well-formed tgd.
var ErrInvalid = errors.New("mapping: invalid")

// Qualify returns the qualified predicate name for a peer's relation.
func Qualify(peer, rel string) string { return peer + "." + rel }

// SplitQualified splits a qualified predicate name into peer and relation.
func SplitQualified(pred string) (peer, rel string, err error) {
	i := strings.IndexByte(pred, '.')
	if i < 0 {
		return "", "", fmt.Errorf("%w: unqualified predicate %q", ErrInvalid, pred)
	}
	return pred[:i], pred[i+1:], nil
}

// Mapping is one tgd: body (over the source peer's relations) implies head
// (over the target peer's relations). Variables appearing only in the head
// are existential and are Skolemized at compile time. The body may include
// builtin comparison literals.
type Mapping struct {
	// ID names the mapping, e.g. "M_AC"; it is also the provenance token
	// recorded on every tuple the mapping derives.
	ID string
	// Source and Target are the peer names the body/head predicates belong
	// to (informational; predicates are explicitly qualified).
	Source, Target string
	// Body is a conjunction of positive atoms and builtins over qualified
	// source predicates.
	Body []datalog.Literal
	// Head is a conjunction of atoms over qualified target predicates.
	Head []datalog.Atom
}

// universalVars returns the variables bound by positive body atoms.
func (m *Mapping) universalVars() map[string]bool {
	vars := map[string]bool{}
	for _, l := range m.Body {
		if l.Builtin != nil || l.Negated {
			continue
		}
		for _, t := range l.Atom.Terms {
			if t.IsVar() {
				vars[t.Name] = true
			}
		}
	}
	return vars
}

// ExistentialVars returns the head variables not bound in the body, sorted.
func (m *Mapping) ExistentialVars() []string {
	uni := m.universalVars()
	seen := map[string]bool{}
	var out []string
	for _, a := range m.Head {
		for _, t := range a.Terms {
			if t.IsVar() && !uni[t.Name] && !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks the mapping is a well-formed tgd: non-empty body and
// head, no negated body atoms, and all builtin variables bound.
func (m *Mapping) Validate() error {
	if m.ID == "" {
		return fmt.Errorf("%w: missing ID", ErrInvalid)
	}
	if len(m.Body) == 0 || len(m.Head) == 0 {
		return fmt.Errorf("%w: mapping %s: empty body or head", ErrInvalid, m.ID)
	}
	uni := m.universalVars()
	hasPositive := false
	for _, l := range m.Body {
		if l.Negated {
			return fmt.Errorf("%w: mapping %s: negated body atoms are not allowed in tgds", ErrInvalid, m.ID)
		}
		if l.Builtin != nil {
			for _, t := range []datalog.Term{l.Builtin.Left, l.Builtin.Right} {
				if t.IsVar() && !uni[t.Name] {
					return fmt.Errorf("%w: mapping %s: builtin uses unbound variable %s", ErrInvalid, m.ID, t.Name)
				}
			}
			continue
		}
		hasPositive = true
		if _, _, err := SplitQualified(l.Atom.Pred); err != nil {
			return err
		}
	}
	if !hasPositive {
		return fmt.Errorf("%w: mapping %s: body has no positive atom", ErrInvalid, m.ID)
	}
	for _, a := range m.Head {
		if _, _, err := SplitQualified(a.Pred); err != nil {
			return err
		}
	}
	return nil
}

// skolemFrontier returns the sorted universal variables appearing in the
// head — the arguments of every Skolem function this mapping introduces.
func (m *Mapping) skolemFrontier() []string {
	uni := m.universalVars()
	seen := map[string]bool{}
	var out []string
	for _, a := range m.Head {
		for _, t := range a.Terms {
			if t.IsVar() && uni[t.Name] && !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Rules compiles the mapping into one datalog rule per head atom. All head
// atoms share the same Skolem terms for the mapping's existential
// variables, so e.g. the split mapping MC→A of Figure 2 invents the *same*
// oid labeled null in O(org, oid) and S(oid, pid, seq).
func (m *Mapping) Rules() ([]datalog.Rule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	uni := m.universalVars()
	frontier := m.skolemFrontier()
	frontierTerms := make([]datalog.Term, len(frontier))
	for i, v := range frontier {
		frontierTerms[i] = datalog.V(v)
	}
	var rules []datalog.Rule
	for i, a := range m.Head {
		terms := make([]datalog.HeadTerm, len(a.Terms))
		for j, t := range a.Terms {
			switch {
			case !t.IsVar():
				terms[j] = datalog.HC(t.Value)
			case uni[t.Name]:
				terms[j] = datalog.HV(t.Name)
			default:
				terms[j] = datalog.HSkolem(fmt.Sprintf("sk_%s_%s", m.ID, t.Name), frontierTerms...)
			}
		}
		rules = append(rules, datalog.Rule{
			ID:        fmt.Sprintf("%s#%d", m.ID, i),
			ProvToken: m.ID,
			Head:      datalog.Head{Pred: a.Pred, Terms: terms},
			Body:      append([]datalog.Literal(nil), m.Body...),
		})
	}
	return rules, nil
}

// Compile compiles a set of mappings into a single datalog program.
func Compile(mappings []*Mapping) (*datalog.Program, error) {
	prog := &datalog.Program{}
	seen := map[string]bool{}
	for _, m := range mappings {
		if seen[m.ID] {
			return nil, fmt.Errorf("%w: duplicate mapping ID %s", ErrInvalid, m.ID)
		}
		seen[m.ID] = true
		rules, err := m.Rules()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, rules...)
	}
	return prog, nil
}

// Identity builds the identity mapping between two peers that share a
// schema: one tgd per relation copying source to target.
func Identity(id, source, target string, s *schema.Schema) []*Mapping {
	var out []*Mapping
	for _, rel := range s.Relations() {
		terms := make([]datalog.Term, rel.Arity())
		for i := range terms {
			terms[i] = datalog.V(fmt.Sprintf("x%d", i))
		}
		out = append(out, &Mapping{
			ID:     fmt.Sprintf("%s_%s", id, rel.Name),
			Source: source,
			Target: target,
			Body:   []datalog.Literal{datalog.Pos(datalog.NewAtom(Qualify(source, rel.Name), terms...))},
			Head:   []datalog.Atom{datalog.NewAtom(Qualify(target, rel.Name), terms...)},
		})
	}
	return out
}
