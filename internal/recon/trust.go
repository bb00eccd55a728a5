// Package recon implements ORCHESTRA's reconciliation algorithm, following
// Taylor and Ives, "Reconciling while Tolerating Disagreement in
// Collaborative Data Sharing" (SIGMOD 2006) — the paper the demo cites for
// its reconciliation step ([11]).
//
// Reconciliation consumes candidate transactions (published transactions
// translated into the local schema by internal/exchange) and decides, per
// the local peer's trust policy, which to accept, reject, or defer:
//
//   - Trust conditions — predicates over the contents and provenance of
//     updates — assign numerical priorities to candidate transactions.
//   - A candidate is combined with the antecedent transactions it needs
//     into an applicable transaction group; a candidate whose antecedent
//     was rejected is rejected too.
//   - A greedy pass accepts the highest-priority mutually consistent set.
//     Same-priority conflicting transactions are deferred for the site
//     administrator, along with everything that depends on them.
//   - Resolve applies a manual decision: the chosen transaction (and
//     dependents that become applicable) are accepted; conflicting deferred
//     transactions and their dependents are rejected.
package recon

import (
	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// Distrusted is the priority that marks an update (and hence a transaction)
// as not trusted: it is never applied on its own merits, only as the
// antecedent of a trusted transaction (demo scenario 3).
const Distrusted = 0

// Condition is one trust condition: if Matches accepts an update, the
// update is eligible for the condition's priority. Higher priority wins
// among matching conditions; transactions take the minimum priority over
// their updates (a transaction is as trusted as its least trusted update).
type Condition struct {
	Priority int
	Matches  func(origin string, u updates.Update) bool
}

// Policy is a peer's trust policy: an ordered list of conditions plus the
// default priority for updates no condition matches.
type Policy struct {
	Conditions []Condition
	Default    int
}

// TrustAll returns a policy that assigns every update the same priority.
func TrustAll(priority int) *Policy { return &Policy{Default: priority} }

// FromPeer matches updates from candidate transactions published by peer.
func FromPeer(peer string, priority int) Condition {
	return Condition{Priority: priority, Matches: func(origin string, u updates.Update) bool {
		return origin == peer
	}}
}

// OnRelation matches updates against a given local relation.
func OnRelation(rel string, priority int) Condition {
	return Condition{Priority: priority, Matches: func(origin string, u updates.Update) bool {
		return u.Rel == rel
	}}
}

// TupleWhere matches updates whose target tuple satisfies pred.
func TupleWhere(rel string, pred func(schema.Tuple) bool, priority int) Condition {
	return Condition{Priority: priority, Matches: func(origin string, u updates.Update) bool {
		return u.Rel == rel && pred(u.Target())
	}}
}

// ThroughMapping matches updates whose provenance passes through the given
// mapping (its token appears in the update's provenance polynomial). This
// is the provenance-based trust the CDSS model calls for: "a site will
// assign a value judgment to a modification based on where it originated or
// how it was assembled." It sees only the witnesses the engine's witness
// bound kept (the lowest-degree ones): a derivation through the mapping
// along a longer path can be cut, so the decision can change with the bound.
func ThroughMapping(mappingID string, priority int) Condition {
	return Condition{Priority: priority, Matches: func(origin string, u updates.Update) bool {
		for _, v := range u.Prov.Vars() {
			if string(v) == mappingID {
				return true
			}
		}
		return false
	}}
}

// DerivedFromPeer matches updates whose provenance mentions a token minted
// by the given peer — trusting data by its origin rather than by who
// forwarded it. Like ThroughMapping, it sees only the witnesses the
// engine's witness bound kept.
func DerivedFromPeer(peer string, priority int) Condition {
	return Condition{Priority: priority, Matches: func(origin string, u updates.Update) bool {
		for _, v := range u.Prov.Vars() {
			if id, ok := updates.TokenTxn(v); ok && id.Peer == peer {
				return true
			}
		}
		return false
	}}
}

// updatePriority returns the priority of one update: the maximum over
// matching conditions, or the default.
func (p *Policy) updatePriority(origin string, u updates.Update) int {
	best := -1
	for _, c := range p.Conditions {
		if c.Matches != nil && c.Matches(origin, u) && c.Priority > best {
			best = c.Priority
		}
	}
	if best < 0 {
		return p.Default
	}
	return best
}

// PriorityOf returns the transaction's priority: the minimum over its
// updates' priorities (empty transactions get the default).
func (p *Policy) PriorityOf(t *updates.Transaction) int {
	if len(t.Updates) == 0 {
		return p.Default
	}
	prio := int(^uint(0) >> 1)
	for _, u := range t.Updates {
		if up := p.updatePriority(t.ID.Peer, u); up < prio {
			prio = up
		}
	}
	return prio
}
