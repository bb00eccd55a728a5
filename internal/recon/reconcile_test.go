package recon

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// keyFirst treats the first column as every relation's key.
func keyFirst(rel string, tu schema.Tuple) schema.Tuple { return tu.Project([]int{0}) }

func tup(vs ...int64) schema.Tuple {
	out := make(schema.Tuple, len(vs))
	for i, v := range vs {
		out[i] = schema.Int(v)
	}
	return out
}

func txn(peer string, seq uint64, us ...updates.Update) *updates.Transaction {
	return &updates.Transaction{ID: updates.TxnID{Peer: peer, Seq: seq}, Updates: us}
}

func dep(t *updates.Transaction, on ...*updates.Transaction) *updates.Transaction {
	for _, o := range on {
		t.Deps = append(t.Deps, o.ID)
	}
	return t
}

func ids(ts []*updates.Transaction) []updates.TxnID {
	out := make([]updates.TxnID, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}

func TestAcceptSimple(t *testing.T) {
	s := NewState(keyFirst)
	o, err := s.Reconcile(TrustAll(1), []*updates.Transaction{
		txn("a", 1, updates.Insert("R", tup(1, 10))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Accepted) != 1 || s.Status(updates.TxnID{Peer: "a", Seq: 1}) != StatusAccepted {
		t.Errorf("outcome = %+v", o)
	}
}

func TestDistrustedStaysPending(t *testing.T) {
	s := NewState(keyFirst)
	o, err := s.Reconcile(&Policy{Default: Distrusted}, []*updates.Transaction{
		txn("a", 1, updates.Insert("R", tup(1, 10))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Accepted) != 0 || len(o.Rejected) != 0 {
		t.Errorf("outcome = %+v", o)
	}
	if s.Status(updates.TxnID{Peer: "a", Seq: 1}) != StatusPending {
		t.Error("distrusted txn should stay pending")
	}
}

func TestDuplicateReconcileRejected(t *testing.T) {
	s := NewState(keyFirst)
	tx := txn("a", 1, updates.Insert("R", tup(1, 10)))
	if _, err := s.Reconcile(TrustAll(1), []*updates.Transaction{tx}); err != nil {
		t.Fatal(err)
	}
	tx2 := txn("a", 1, updates.Insert("R", tup(2, 10)))
	if _, err := s.Reconcile(TrustAll(1), []*updates.Transaction{tx2}); err == nil {
		t.Error("duplicate candidate accepted")
	}
}

// Demo scenario 2: Beijing and Dresden publish conflicting updates; Crete
// (trusting Beijing over Dresden) rejects Dresden's. Dresden's dependent
// follow-up is rejected too.
func TestScenario2PriorityConflict(t *testing.T) {
	s := NewState(keyFirst)
	policy := &Policy{Conditions: []Condition{
		FromPeer("beijing", 2),
		FromPeer("dresden", 1),
	}, Default: Distrusted}
	b := txn("beijing", 1, updates.Insert("OPS", tup(1, 100)))
	d := txn("dresden", 1, updates.Insert("OPS", tup(1, 200)))
	o, err := s.Reconcile(policy, []*updates.Transaction{b, d})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status(b.ID) != StatusAccepted {
		t.Errorf("beijing: %s", s.Status(b.ID))
	}
	if s.Status(d.ID) != StatusRejected {
		t.Errorf("dresden: %s", s.Status(d.ID))
	}
	if len(o.Accepted) != 1 || o.Accepted[0].ID != b.ID {
		t.Errorf("accepted = %v", ids(o.Accepted))
	}
	// Dresden publishes more updates depending on the rejected one.
	d2 := dep(txn("dresden", 2, updates.Modify("OPS", tup(1, 200), tup(1, 300))), d)
	o, err = s.Reconcile(policy, []*updates.Transaction{d2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status(d2.ID) != StatusRejected {
		t.Errorf("dresden follow-up: %s", s.Status(d2.ID))
	}
	if len(o.Rejected) != 1 || o.Rejected[0] != d2.ID {
		t.Errorf("rejected = %v", o.Rejected)
	}
}

// Demo scenario 3: Alaska (untrusted at Crete) inserts data; Beijing
// (trusted) modifies one tuple. Crete accepts Beijing's transaction AND the
// untrusted Alaska antecedent.
func TestScenario3AntecedentPullIn(t *testing.T) {
	s := NewState(keyFirst)
	policy := &Policy{Conditions: []Condition{
		FromPeer("beijing", 2),
	}, Default: Distrusted}
	a := txn("alaska", 1,
		updates.Insert("OPS", tup(1, 100)),
		updates.Insert("OPS", tup(2, 200)),
		updates.Insert("OPS", tup(3, 300)))
	o, err := s.Reconcile(policy, []*updates.Transaction{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Accepted) != 0 || s.Status(a.ID) != StatusPending {
		t.Fatalf("alaska should be pending, got %s", s.Status(a.ID))
	}
	b := dep(txn("beijing", 1, updates.Modify("OPS", tup(2, 200), tup(2, 250))), a)
	o, err = s.Reconcile(policy, []*updates.Transaction{b})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status(a.ID) != StatusAccepted || s.Status(b.ID) != StatusAccepted {
		t.Errorf("alaska=%s beijing=%s", s.Status(a.ID), s.Status(b.ID))
	}
	// Application order: antecedent first.
	if len(o.Accepted) != 2 || o.Accepted[0].ID != a.ID || o.Accepted[1].ID != b.ID {
		t.Errorf("accepted order = %v", ids(o.Accepted))
	}
}

// Demo scenario 4: same-priority conflict is deferred; a dependent of a
// deferred transaction is deferred; resolution accepts the winner's side
// and cascades.
func TestScenario4DeferAndResolve(t *testing.T) {
	s := NewState(keyFirst)
	policy := TrustAll(1)
	b := txn("beijing", 1, updates.Insert("OPS", tup(1, 100)))
	a := txn("alaska", 1, updates.Insert("OPS", tup(1, 200)))
	o, err := s.Reconcile(policy, []*updates.Transaction{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status(b.ID) != StatusDeferred || s.Status(a.ID) != StatusDeferred {
		t.Fatalf("beijing=%s alaska=%s", s.Status(b.ID), s.Status(a.ID))
	}
	if len(o.Deferred) != 2 {
		t.Errorf("deferred = %v", o.Deferred)
	}
	// Crete modifies Beijing's (deferred) update; the dependent defers too.
	c := dep(txn("crete", 1, updates.Modify("OPS", tup(1, 100), tup(1, 150))), b)
	o, err = s.Reconcile(policy, []*updates.Transaction{c})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status(c.ID) != StatusDeferred {
		t.Fatalf("crete = %s", s.Status(c.ID))
	}
	// Resolve in favor of Beijing: Alaska rejected, Crete's dependent
	// accepted automatically.
	o, err = s.Resolve(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status(b.ID) != StatusAccepted {
		t.Errorf("beijing = %s", s.Status(b.ID))
	}
	if s.Status(a.ID) != StatusRejected {
		t.Errorf("alaska = %s", s.Status(a.ID))
	}
	if s.Status(c.ID) != StatusAccepted {
		t.Errorf("crete = %s", s.Status(c.ID))
	}
	// Beijing applies before Crete.
	pos := map[updates.TxnID]int{}
	for i, tx := range o.Accepted {
		pos[tx.ID] = i
	}
	if pos[b.ID] > pos[c.ID] {
		t.Errorf("application order wrong: %v", ids(o.Accepted))
	}
}

func TestResolveLoserDependentsRejected(t *testing.T) {
	s := NewState(keyFirst)
	policy := TrustAll(1)
	b := txn("beijing", 1, updates.Insert("R", tup(1, 100)))
	a := txn("alaska", 1, updates.Insert("R", tup(1, 200)))
	if _, err := s.Reconcile(policy, []*updates.Transaction{b, a}); err != nil {
		t.Fatal(err)
	}
	// Dependents on both sides.
	db := dep(txn("crete", 1, updates.Modify("R", tup(1, 100), tup(1, 110))), b)
	da := dep(txn("dresden", 1, updates.Modify("R", tup(1, 200), tup(1, 210))), a)
	if _, err := s.Reconcile(policy, []*updates.Transaction{db, da}); err != nil {
		t.Fatal(err)
	}
	if s.Status(db.ID) != StatusDeferred || s.Status(da.ID) != StatusDeferred {
		t.Fatalf("dependents not deferred: %s %s", s.Status(db.ID), s.Status(da.ID))
	}
	if _, err := s.Resolve(a.ID); err != nil {
		t.Fatal(err)
	}
	if s.Status(a.ID) != StatusAccepted || s.Status(da.ID) != StatusAccepted {
		t.Errorf("winner side: a=%s da=%s", s.Status(a.ID), s.Status(da.ID))
	}
	if s.Status(b.ID) != StatusRejected || s.Status(db.ID) != StatusRejected {
		t.Errorf("loser side: b=%s db=%s", s.Status(b.ID), s.Status(db.ID))
	}
}

func TestResolveRequiresDeferred(t *testing.T) {
	s := NewState(keyFirst)
	tx := txn("a", 1, updates.Insert("R", tup(1, 10)))
	if _, err := s.Reconcile(TrustAll(1), []*updates.Transaction{tx}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(tx.ID); err == nil {
		t.Error("resolved a non-deferred transaction")
	}
}

func TestIdenticalWritesDoNotConflict(t *testing.T) {
	s := NewState(keyFirst)
	b := txn("beijing", 1, updates.Insert("R", tup(1, 100)))
	a := txn("alaska", 1, updates.Insert("R", tup(1, 100)))
	o, err := s.Reconcile(TrustAll(1), []*updates.Transaction{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status(b.ID) != StatusAccepted || s.Status(a.ID) != StatusAccepted {
		t.Errorf("identical writes deferred: b=%s a=%s", s.Status(b.ID), s.Status(a.ID))
	}
	if len(o.Deferred) != 0 {
		t.Errorf("deferred = %v", o.Deferred)
	}
}

func TestLowerPriorityConflictWithAcceptedRejected(t *testing.T) {
	s := NewState(keyFirst)
	policy := &Policy{Conditions: []Condition{
		FromPeer("hi", 2), FromPeer("lo", 1),
	}, Default: Distrusted}
	h := txn("hi", 1, updates.Insert("R", tup(1, 100)))
	l := txn("lo", 1, updates.Insert("R", tup(1, 200)))
	if _, err := s.Reconcile(policy, []*updates.Transaction{h, l}); err != nil {
		t.Fatal(err)
	}
	if s.Status(h.ID) != StatusAccepted || s.Status(l.ID) != StatusRejected {
		t.Errorf("h=%s l=%s", s.Status(h.ID), s.Status(l.ID))
	}
}

func TestDependentOverwriteIsNotConflict(t *testing.T) {
	s := NewState(keyFirst)
	a := txn("a", 1, updates.Insert("R", tup(1, 100)))
	if _, err := s.Reconcile(TrustAll(1), []*updates.Transaction{a}); err != nil {
		t.Fatal(err)
	}
	// b modifies a's accepted tuple, declaring the dependency: legitimate.
	b := dep(txn("b", 1, updates.Modify("R", tup(1, 100), tup(1, 150))), a)
	o, err := s.Reconcile(TrustAll(1), []*updates.Transaction{b})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status(b.ID) != StatusAccepted {
		t.Errorf("dependent modify = %s (outcome %+v)", s.Status(b.ID), o)
	}
	// c also modifies the same key but does NOT depend on a: conflict with
	// accepted state — rejected.
	c := txn("c", 1, updates.Insert("R", tup(1, 999)))
	if _, err := s.Reconcile(TrustAll(1), []*updates.Transaction{c}); err != nil {
		t.Fatal(err)
	}
	if s.Status(c.ID) != StatusRejected {
		t.Errorf("independent overwrite = %s", s.Status(c.ID))
	}
}

func TestMissingAntecedentWaits(t *testing.T) {
	s := NewState(keyFirst)
	ghost := updates.TxnID{Peer: "ghost", Seq: 9}
	b := txn("b", 1, updates.Modify("R", tup(1, 100), tup(1, 150)))
	b.Deps = append(b.Deps, ghost)
	o, err := s.Reconcile(TrustAll(1), []*updates.Transaction{b})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status(b.ID) != StatusPending || len(o.Pending) != 1 {
		t.Errorf("status=%s pending=%v", s.Status(b.ID), o.Pending)
	}
	// The missing antecedent arrives; both are applied.
	g := txn("ghost", 9, updates.Insert("R", tup(1, 100)))
	o, err = s.Reconcile(TrustAll(1), []*updates.Transaction{g})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status(b.ID) != StatusAccepted || s.Status(g.ID) != StatusAccepted {
		t.Errorf("b=%s ghost=%s", s.Status(b.ID), s.Status(g.ID))
	}
	if len(o.Accepted) != 2 || o.Accepted[0].ID != g.ID {
		t.Errorf("order = %v", ids(o.Accepted))
	}
}

func TestNewCandidateConflictingWithDeferredIsDeferred(t *testing.T) {
	s := NewState(keyFirst)
	b := txn("b", 1, updates.Insert("R", tup(1, 100)))
	a := txn("a", 1, updates.Insert("R", tup(1, 200)))
	if _, err := s.Reconcile(TrustAll(1), []*updates.Transaction{b, a}); err != nil {
		t.Fatal(err)
	}
	c := txn("c", 1, updates.Insert("R", tup(1, 300)))
	if _, err := s.Reconcile(TrustAll(1), []*updates.Transaction{c}); err != nil {
		t.Fatal(err)
	}
	if s.Status(c.ID) != StatusDeferred {
		t.Errorf("c = %s", s.Status(c.ID))
	}
	// Resolution in favor of c rejects both a and b.
	if _, err := s.Resolve(c.ID); err != nil {
		t.Fatal(err)
	}
	if s.Status(c.ID) != StatusAccepted || s.Status(a.ID) != StatusRejected || s.Status(b.ID) != StatusRejected {
		t.Errorf("c=%s a=%s b=%s", s.Status(c.ID), s.Status(a.ID), s.Status(b.ID))
	}
}

func TestPriorityIsMinOverUpdates(t *testing.T) {
	policy := &Policy{Conditions: []Condition{
		OnRelation("good", 5),
		OnRelation("bad", 1),
	}, Default: 3}
	tx := txn("p", 1,
		updates.Insert("good", tup(1)),
		updates.Insert("bad", tup(2)))
	if got := policy.PriorityOf(tx); got != 1 {
		t.Errorf("priority = %d, want 1 (min)", got)
	}
	tx2 := txn("p", 2, updates.Insert("other", tup(1)))
	if got := policy.PriorityOf(tx2); got != 3 {
		t.Errorf("priority = %d, want default 3", got)
	}
	empty := txn("p", 3)
	if got := policy.PriorityOf(empty); got != 3 {
		t.Errorf("empty priority = %d", got)
	}
}

// TestLastWriters: a local commit depends on the accepted writers of the
// keys it touches — the old tuple's key for a delete or modify, the new
// tuple's for an insert — itself excluded, once each, in TxnID order.
func TestLastWriters(t *testing.T) {
	s := NewState(keyFirst)
	commit := func(tx *updates.Transaction, want ...updates.TxnID) {
		t.Helper()
		tx.Deps = s.LastWriters(tx)
		if !reflect.DeepEqual(tx.Deps, want) {
			t.Errorf("%s deps = %v, want %v", tx.ID, tx.Deps, want)
		}
		if err := s.AcceptLocal(tx); err != nil {
			t.Fatal(err)
		}
		if self := s.LastWriters(tx); slices.Contains(self, tx.ID) {
			t.Errorf("%s depends on itself: %v", tx.ID, self)
		}
	}
	t1 := txn("alaska", 1, updates.Insert("R", tup(1, 10)))
	commit(t1)
	// t2 modifies the tuple t1 inserted: depends on t1.
	t2 := txn("beijing", 1, updates.Modify("R", tup(1, 10), tup(1, 11)))
	commit(t2, t1.ID)
	// t3 deletes it: depends on t2 (the last writer), not t1.
	t3 := txn("crete", 1, updates.Delete("R", tup(1, 11)))
	commit(t3, t2.ID)
	// Unrelated key: no deps.
	t4 := txn("dresden", 1, updates.Insert("R", tup(9, 9)))
	commit(t4)
	// A multi-update transaction picks up deps from each touched key, once:
	// key 9's writer t4, and key 1's, t3, whose delete a re-insert follows.
	t5 := txn("e", 1,
		updates.Modify("R", tup(9, 9), tup(9, 10)),
		updates.Insert("R", tup(1, 50)),
		updates.Modify("R", tup(9, 10), tup(9, 11)))
	commit(t5, t3.ID, t4.ID)
}

// A Resolve whose winner turns out not to be applicable — here it lost to a
// local write made after it was deferred — fails and changes nothing: the
// loser it rejected on the way is deferred again, and the bystander it
// accepted on the way (x, freed by that rejection) is not left Accepted with
// its updates never handed to anyone.
func TestFailedResolveLeavesStateUntouched(t *testing.T) {
	s := NewState(keyFirst)
	a := txn("a", 1, updates.Insert("R", tup(1, 10)))
	b := txn("b", 1, updates.Insert("R", tup(1, 20)), updates.Insert("R", tup(2, 20)))
	x := txn("x", 1, updates.Insert("R", tup(2, 30)))
	o, err := s.Reconcile(TrustAll(1), []*updates.Transaction{a, b, x})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Deferred) != 3 {
		t.Fatalf("want a, b and x deferred, got %+v", o)
	}
	local := txn("me", 1, updates.Insert("R", tup(1, 99)))
	if err := s.AcceptLocal(local); err != nil {
		t.Fatal(err)
	}
	before := s.AppendState(nil)
	if o, err := s.Resolve(a.ID); err == nil {
		t.Fatalf("resolving in favour of a transaction that lost to a local write succeeded: %+v", o)
	}
	for _, tx := range []*updates.Transaction{a, b, x} {
		if st := s.Status(tx.ID); st != StatusDeferred {
			t.Errorf("%s is %s after the failed Resolve, want deferred", tx.ID, st)
		}
	}
	if after := s.AppendState(nil); !bytes.Equal(before, after) {
		t.Errorf("failed Resolve changed the state:\nbefore %q\n after %q", before, after)
	}
	// What the section holds reads back to the state it was written from.
	if back := roundTrip(t, s); !reflect.DeepEqual(saved(back), saved(s)) {
		t.Errorf("the state after a failed Resolve does not survive a save and restore:\nwrote %+v\n read %+v", saved(s), saved(back))
	}
	s = roundTrip(t, s)
	// The state is still live: resolving for b settles all three.
	o, err = s.Resolve(b.ID)
	if err == nil {
		t.Fatalf("b also lost key 1 to the local write, yet resolved: %+v", o)
	}
	o, err = s.Resolve(x.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Accepted) != 1 || o.Accepted[0].ID != x.ID || s.Status(b.ID) != StatusRejected {
		t.Errorf("resolve for x: %+v, b is %s", o, s.Status(b.ID))
	}
}

// historyState returns a state that has accepted n independent single-insert
// transactions from peer "h" (keys 1000+i), reconciled sixteen at a time,
// and holds a small open set on top: one distrusted pending transaction and
// one deferred pair.
func historyState(tb testing.TB, n int) (*State, *Policy) {
	tb.Helper()
	policy := &Policy{Conditions: []Condition{FromPeer("u", Distrusted)}, Default: 1}
	s := NewState(keyFirst)
	for i := 0; i < n; i += 16 {
		var batch []*updates.Transaction
		for j := i; j < min(i+16, n); j++ {
			batch = append(batch, txn("h", uint64(j+1), updates.Insert("R", tup(int64(1000+j), 0))))
		}
		if _, err := s.Reconcile(policy, batch); err != nil {
			tb.Fatal(err)
		}
	}
	open := []*updates.Transaction{
		txn("u", 1, updates.Insert("R", tup(1, 1))),
		txn("x", 1, updates.Insert("R", tup(2, 1))),
		txn("y", 1, updates.Insert("R", tup(2, 2))),
	}
	if _, err := s.Reconcile(policy, open); err != nil {
		tb.Fatal(err)
	}
	if st := s.Stats(); st.Pending != 1 || st.Deferred != 2 {
		tb.Fatalf("open set = %+v, want 1 pending and 2 deferred", st)
	}
	return s, policy
}

// historyDelta is one round's sixteen candidates over historyState, all from
// round r so that rounds never collide: fresh inserts, modifies of old
// history rows (one antecedent each), a same-priority conflict that defers,
// a write that loses to accepted data and takes its dependent with it, a
// dependent of the distrusted transaction, and one whose antecedent never
// arrives.
func historyDelta(r int) []*updates.Transaction {
	seq := uint64(16 * r)
	next := func(us ...updates.Update) *updates.Transaction {
		seq++
		return txn("d", seq, us...)
	}
	h := func(i int) *updates.Transaction { return txn("h", uint64(i+1)) }
	var out []*updates.Transaction
	for i := 0; i < 6; i++ {
		out = append(out, next(updates.Insert("R", tup(int64(100000+16*r+i), 1))))
	}
	for i := 0; i < 4; i++ {
		k := int64(1000 + 4*r + i)
		out = append(out, dep(next(updates.Modify("R", tup(k, 0), tup(k, int64(r+1)))), h(4*r+i)))
	}
	c1 := next(updates.Insert("R", tup(int64(200000+r), 1)))
	c2 := next(updates.Insert("R", tup(int64(200000+r), 2)))
	loser := next(updates.Insert("R", tup(int64(1500+r), 9))) // history holds (1500+r, 0)
	child := dep(next(updates.Insert("R", tup(int64(300000+r), 1))), loser)
	onDistrusted := dep(next(updates.Insert("R", tup(int64(400000+r), 1))), txn("u", 1))
	waiting := dep(next(updates.Insert("R", tup(int64(500000+r), 1))), txn("never", uint64(r+1)))
	return append(out, c1, c2, loser, child, onDistrusted, waiting)
}

// TestReconcileWorkIndependentOfHistory is the count-based O(delta) gate:
// the same rounds over 1 k and over 16 k accepted transactions examine
// exactly the same number of nodes, and reach the same decisions.
func TestReconcileWorkIndependentOfHistory(t *testing.T) {
	type result struct {
		visited  []uint64
		outcomes []*Outcome
	}
	run := func(history int) result {
		s, policy := historyState(t, history)
		var res result
		step := func(o *Outcome, err error) {
			if err != nil {
				t.Fatal(err)
			}
			res.outcomes = append(res.outcomes, o)
		}
		for r := 0; r < 3; r++ {
			before := s.Stats().Visited
			step(s.Reconcile(policy, historyDelta(r)))
			res.visited = append(res.visited, s.Stats().Visited-before)
		}
		before := s.Stats().Visited
		step(s.Resolve(updates.TxnID{Peer: "x", Seq: 1}))
		res.visited = append(res.visited, s.Stats().Visited-before)
		return res
	}
	small, large := run(1_000), run(16_000)
	if !reflect.DeepEqual(small.visited, large.visited) {
		t.Errorf("nodes visited per call: %v over 1k accepted transactions, %v over 16k", small.visited, large.visited)
	}
	for i := range small.outcomes {
		a, b := small.outcomes[i], large.outcomes[i]
		if !reflect.DeepEqual(ids(a.Accepted), ids(b.Accepted)) || !reflect.DeepEqual(a.Rejected, b.Rejected) ||
			!reflect.DeepEqual(a.Deferred, b.Deferred) || !reflect.DeepEqual(a.Pending, b.Pending) {
			t.Errorf("call %d decided differently over the longer history: %+v vs %+v", i, a, b)
		}
	}
	for i, v := range small.visited {
		if v == 0 || v > 200 {
			t.Errorf("call %d visited %d nodes for a 16-transaction delta", i, v)
		}
	}
	t.Logf("nodes visited per call: %v", small.visited)
}
