package recon

import (
	"reflect"
	"slices"
	"testing"

	"orchestra/internal/updates"
)

// churn drives rounds of local and remote churn through a state, keeping
// every transaction it hands over so the test can tell what the state still
// holds of each. One round: a local insert and the local delete of the
// same row; a trusted insert, a distrusted one that stays pending, and a
// same-priority pair that defers and is resolved; and a second deferred
// pair whose Resolve fails, because a local write took the key in the
// meantime, and rolls back.
type churn struct {
	s      *State
	policy *Policy
	seq    map[string]uint64
	// sent is every transaction handed to the state, by id, with the
	// number of updates it was handed over with.
	sent    map[updates.TxnID]*updates.Transaction
	nUpdate map[updates.TxnID]int
}

func newChurn() *churn {
	return &churn{
		s:       NewState(keyFirst),
		policy:  &Policy{Conditions: []Condition{FromPeer("u", Distrusted)}, Default: 1},
		seq:     map[string]uint64{},
		sent:    map[updates.TxnID]*updates.Transaction{},
		nUpdate: map[updates.TxnID]int{},
	}
}

func (c *churn) txn(peer string, us ...updates.Update) *updates.Transaction {
	c.seq[peer]++
	t := txn(peer, c.seq[peer], us...)
	c.sent[t.ID], c.nUpdate[t.ID] = t, len(us)
	return t
}

func (c *churn) local(t *testing.T, us ...updates.Update) {
	t.Helper()
	tx := c.txn("me", us...)
	tx.Deps = c.s.LastWriters(tx)
	if err := c.s.AcceptLocal(tx); err != nil {
		t.Fatal(err)
	}
}

func (c *churn) round(t *testing.T, r int) {
	t.Helper()
	k := int64(10 * r)
	c.local(t, updates.Insert("R", tup(k, 0)))
	c.local(t, updates.Delete("R", tup(k, 0)))

	win, lose := c.txn("a", updates.Insert("R", tup(k+1, 1))), c.txn("b", updates.Insert("R", tup(k+1, 2)))
	x, y := c.txn("x", updates.Insert("R", tup(k+2, 1))), c.txn("y", updates.Insert("R", tup(k+2, 2)))
	cands := []*updates.Transaction{
		c.txn("c", updates.Insert("R", tup(k+3, 1)), updates.Insert("R", tup(k+4, 1))),
		c.txn("u", updates.Insert("R", tup(k+5, 1))),
		win, lose, x, y,
	}
	o, err := c.s.Reconcile(c.policy, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Accepted) != 1 || len(o.Pending) == 0 || len(o.Deferred) != 4 {
		t.Fatalf("round %d: reconcile %+v, want one accepted, the distrusted pending and two deferred pairs", r, o)
	}
	checkBodies(t, c, o)

	o, err = c.s.Resolve(win.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids(o.Accepted), []updates.TxnID{win.ID}) || c.s.Status(lose.ID) != StatusRejected {
		t.Fatalf("round %d: resolve %+v, loser %s", r, o, c.s.Status(lose.ID))
	}
	checkBodies(t, c, o)

	c.local(t, updates.Insert("R", tup(k+2, 99)))
	if o, err := c.s.Resolve(x.ID); err == nil {
		t.Fatalf("round %d: resolving for a transaction that lost to a local write succeeded: %+v", r, o)
	}
	if c.s.Status(x.ID) != StatusDeferred || c.s.Status(y.ID) != StatusDeferred {
		t.Fatalf("round %d: failed Resolve left x %s and y %s, want both deferred", r, c.s.Status(x.ID), c.s.Status(y.ID))
	}
	checkBodies(t, c, nil)
}

// checkBodies: an accepted transaction is handed over whole; every closed
// node holds a skeleton (its id, epoch and deps, no updates) and every open
// node the transaction it was given; and no transaction the test handed
// over lost an update.
func checkBodies(t *testing.T, c *churn, o *Outcome) {
	t.Helper()
	if o != nil {
		for _, a := range o.Accepted {
			if a != c.sent[a.ID] || len(a.Updates) != c.nUpdate[a.ID] {
				t.Fatalf("%s handed over with %d of its %d updates", a.ID, len(a.Updates), c.nUpdate[a.ID])
			}
		}
	}
	for id, tx := range c.sent {
		if len(tx.Updates) != c.nUpdate[id] {
			t.Fatalf("the state cut the caller's transaction %s", id)
		}
		n := c.s.nodes[id]
		switch n.status {
		case StatusAccepted, StatusRejected:
			if len(n.txn.Updates) != 0 || n.txn.ID != id || !slices.Equal(n.txn.Deps, tx.Deps) {
				t.Fatalf("%s node holds %+v, want the skeleton of %+v", n.status, n.txn, tx)
			}
		default:
			if n.txn != tx {
				t.Fatalf("%s node %s holds %+v, want its whole transaction", n.status, id, n.txn)
			}
		}
	}
}

// heldUpdates counts the updates the state's nodes hold, closed and open.
func heldUpdates(s *State) (closed, open int) {
	for _, n := range s.nodes {
		if n.txn == nil {
			continue
		}
		if n.status == StatusAccepted || n.status == StatusRejected {
			closed += len(n.txn.Updates)
		} else {
			open += len(n.txn.Updates)
		}
	}
	return closed, open
}

// A closed transaction costs its node a skeleton whatever its size: after N
// and after 4N rounds of churn the closed nodes hold no updates at all,
// while the open nodes hold exactly their own: one distrusted transaction
// per round, and the last round's deferred pair (the next round's Resolve
// re-judges every deferred transaction, and a pair that lost to a local
// write is rejected then). A save and restore keeps it so.
func TestClosedNodesHoldSkeletons(t *testing.T) {
	const n = 25
	for _, rounds := range []int{n, 4 * n} {
		c := newChurn()
		for r := range rounds {
			c.round(t, r)
		}
		closed, open := heldUpdates(c.s)
		if closed != 0 || open != rounds+2 {
			t.Fatalf("after %d rounds closed nodes hold %d updates and open ones %d, want 0 and %d", rounds, closed, open, rounds+2)
		}
		back := roundTrip(t, c.s)
		for _, st := range saved(back).Txns {
			if closedNode := st.Status == StatusAccepted || st.Status == StatusRejected; closedNode == (len(st.Txn.Updates) > 0) {
				t.Fatalf("after %d rounds and a save and restore the state holds %s %s with %d updates", rounds, st.Status, st.Txn.ID, len(st.Txn.Updates))
			}
		}
		if closed, open := heldUpdates(back); closed != 0 || open != rounds+2 {
			t.Fatalf("after %d rounds and a save and restore closed nodes hold %d updates and open ones %d, want 0 and %d", rounds, closed, open, rounds+2)
		}
		// The restored open nodes hold copies of what was sent, which
		// later rounds hand over in their place.
		for id, tx := range c.sent {
			if n := back.nodes[id]; n.status == StatusPending || n.status == StatusDeferred {
				if !reflect.DeepEqual(n.txn, tx) {
					t.Fatalf("%s node %s restored as %+v, want %+v", n.status, id, n.txn, tx)
				}
				c.sent[id] = n.txn
			}
		}
		c.s = back
		checkBodies(t, c, nil)
		c.round(t, rounds)
	}
}
