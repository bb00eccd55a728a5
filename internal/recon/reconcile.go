package recon

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// Sentinel errors wrapped by the errors this package constructs, so that
// errors.Is works through the full chain up to the public orchestra facade.
var (
	// ErrAlreadyReconciled reports a candidate fed to Reconcile (or
	// AcceptLocal) after a status was already assigned to it.
	ErrAlreadyReconciled = errors.New("recon: transaction already reconciled")
	// ErrNotDeferred reports a Resolve call whose winner is not awaiting
	// manual conflict resolution.
	ErrNotDeferred = errors.New("recon: transaction is not deferred")
)

// Status is the local disposition of a candidate transaction.
type Status uint8

const (
	// StatusUnknown: the transaction has never been seen.
	StatusUnknown Status = iota
	// StatusPending: seen but not applied — typically distrusted
	// (priority 0) or missing antecedents. Pending transactions remain
	// eligible as antecedents of trusted transactions.
	StatusPending
	// StatusAccepted: applied to the local instance.
	StatusAccepted
	// StatusRejected: will never be applied; dependents are rejected too.
	StatusRejected
	// StatusDeferred: in conflict with a same-priority transaction (or
	// dependent on a deferred one); awaiting manual resolution.
	StatusDeferred
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusAccepted:
		return "accepted"
	case StatusRejected:
		return "rejected"
	case StatusDeferred:
		return "deferred"
	default:
		return "unknown"
	}
}

// writeVal is the net effect of some transaction on one (relation, key).
type writeVal struct {
	writer updates.TxnID
	del    bool
	tupKey string
}

func (w writeVal) sameValue(o writeVal) bool {
	return w.del == o.del && (w.del || w.tupKey == o.tupKey)
}

// node is everything the state knows about one transaction id: the
// transaction itself (nil while the id has only been named as an antecedent
// that has not arrived), its disposition and priority, and its dependency
// edges in both directions as direct pointers. An open (pending or
// deferred) node holds the whole transaction. A closed (accepted or
// rejected) one holds its skeleton — ID, Epoch and Deps, no updates — since
// a round reaches it only through its dependency edges.
type node struct {
	id     updates.TxnID
	txn    *updates.Transaction
	status Status
	prio   int
	deps   []*node // antecedents
	rdeps  []*node // dependents
}

// nodeSet is a set of nodes kept in TxnID order.
type nodeSet []*node

func (ns nodeSet) search(n *node) (int, bool) {
	return slices.BinarySearchFunc(ns, n.id, func(m *node, id updates.TxnID) int { return m.id.Compare(id) })
}

func (ns nodeSet) add(n *node) nodeSet {
	if i, ok := ns.search(n); !ok {
		return slices.Insert(ns, i, n)
	}
	return ns
}

func (ns nodeSet) remove(n *node) nodeSet {
	if i, ok := ns.search(n); ok {
		return slices.Delete(ns, i, i+1)
	}
	return ns
}

// State is a peer's persistent reconciliation state across update-exchange
// rounds: one node per transaction id seen, the writes of accepted
// transactions, and indexes over the open transactions — the ones a round
// can still decide about. Accepted and rejected transactions are closed: a
// round reaches them only by walking the dependency closure of an open one,
// so its cost does not grow with how many there are (DESIGN.md §4.2).
type State struct {
	keyOf func(rel string, tu schema.Tuple) schema.Tuple
	nodes map[updates.TxnID]*node
	// The open-set indexes, written by move and nothing else: every pending
	// node (what Outcome.Pending reports), the trusted ones among them by
	// priority (pass's worklist), every deferred node, and the deferred
	// nodes' writes by (relation, key).
	pending        nodeSet
	trusted        map[int]nodeSet
	deferred       nodeSet
	deferredWrites map[string][]writeVal
	// undeferred holds the transactions of the nodes that stopped being
	// deferred since the last pass began, as they were while deferred (the
	// node may be closed by now, and hold only its skeleton). Their writes
	// leave deferredWrites when the next pass begins, not before: a
	// deferred transaction rejected by a cascade in the middle of a pass
	// still blocks the candidates judged after it in that pass.
	undeferred []*updates.Transaction
	// acceptedWrites is the last accepted write of each (relation, key):
	// what conflicts are judged against, and what a local commit depends on
	// (LastWriters).
	acceptedWrites map[string]writeVal
	// undo, while non-nil, journals every status and accepted-write change
	// so Resolve can take back a resolution that fails (see rollback).
	undo *undoLog
	// visited counts the nodes examined so far: worklist and open-set
	// entries, and every node a closure walk reached.
	visited uint64
}

// undoLog is what one Resolve call changed, in order: the previous value of
// each status and accepted write it overwrote.
type undoLog struct {
	status []undoStatus
	writes []undoWrite
}

// undoStatus is a node's status before a change, and its transaction then,
// which closing the node cut down to a skeleton.
type undoStatus struct {
	n    *node
	prev Status
	txn  *updates.Transaction
}

type undoWrite struct {
	key  string
	prev writeVal
	had  bool
}

// setStatus changes the status of a transaction, journalling the previous
// one while a Resolve is in flight.
func (s *State) setStatus(n *node, st Status) {
	if s.undo != nil {
		s.undo.status = append(s.undo.status, undoStatus{n, n.status, n.txn})
	}
	s.move(n, st)
}

// move is the only writer of node.status: it takes the node out of the open
// set of its old status and puts it into the one of its new status, so the
// indexes can never disagree with the statuses, and it cuts the transaction
// of a node it closes down to a skeleton. n.txn and n.prio must be set.
func (s *State) move(n *node, st Status) {
	switch n.status {
	case StatusPending:
		s.pending = s.pending.remove(n)
		if n.prio > Distrusted {
			if rest := s.trusted[n.prio].remove(n); len(rest) > 0 {
				s.trusted[n.prio] = rest
			} else {
				delete(s.trusted, n.prio)
			}
		}
	case StatusDeferred:
		s.deferred = s.deferred.remove(n)
		s.undeferred = append(s.undeferred, n.txn)
	}
	n.status = st
	switch st {
	case StatusPending:
		s.pending = s.pending.add(n)
		if n.prio > Distrusted {
			s.trusted[n.prio] = s.trusted[n.prio].add(n)
		}
	case StatusDeferred:
		s.deferred = s.deferred.add(n)
		for k, w := range s.netWrites(n.txn) {
			s.deferredWrites[k] = append(s.deferredWrites[k], w)
		}
	case StatusAccepted, StatusRejected:
		if len(n.txn.Updates) > 0 {
			n.txn = &updates.Transaction{ID: n.txn.ID, Epoch: n.txn.Epoch, Deps: n.txn.Deps}
		}
	}
}

// dropUndeferred takes the writes of the transactions in undeferred out of
// the deferred-writes index: one entry per key for each time a node stopped
// being deferred, so a node that was deferred again in the meantime keeps
// the entries its return added.
func (s *State) dropUndeferred() {
	for _, t := range s.undeferred {
		s.visited++
		for k := range s.netWrites(t) {
			ws := s.deferredWrites[k]
			i := slices.IndexFunc(ws, func(w writeVal) bool { return w.writer == t.ID })
			if ws = slices.Delete(ws, i, i+1); len(ws) > 0 {
				s.deferredWrites[k] = ws
			} else {
				delete(s.deferredWrites, k)
			}
		}
	}
	s.undeferred = s.undeferred[:0]
}

// rollback restores the state to where the journal began and drops it,
// giving the nodes it reopens their transactions back.
func (s *State) rollback() {
	u := s.undo
	s.undo = nil
	for i := len(u.status) - 1; i >= 0; i-- {
		us := u.status[i]
		us.n.txn = us.txn
		s.move(us.n, us.prev)
	}
	for i := len(u.writes) - 1; i >= 0; i-- {
		if w := u.writes[i]; w.had {
			s.acceptedWrites[w.key] = w.prev
		} else {
			delete(s.acceptedWrites, w.key)
		}
	}
}

// NewState creates reconciliation state. keyOf must project a tuple of the
// named local relation onto its primary key.
func NewState(keyOf func(rel string, tu schema.Tuple) schema.Tuple) *State {
	return &State{
		keyOf:          keyOf,
		nodes:          map[updates.TxnID]*node{},
		trusted:        map[int]nodeSet{},
		deferredWrites: map[string][]writeVal{},
		acceptedWrites: map[string]writeVal{},
	}
}

// node returns the node for id, creating an empty one the first time the
// id is named.
func (s *State) node(id updates.TxnID) *node {
	n := s.nodes[id]
	if n == nil {
		n = &node{id: id}
		s.nodes[id] = n
	}
	return n
}

// add records a transaction and its dependency edges. An antecedent that
// has not been seen gets an empty node, which the closure walks report as
// missing until the transaction arrives.
func (s *State) add(t *updates.Transaction) *node {
	n := s.node(t.ID)
	n.txn = t
	for _, d := range t.Deps {
		dn := s.node(d)
		n.deps = append(n.deps, dn)
		dn.rdeps = append(dn.rdeps, n)
	}
	return n
}

// Status returns the disposition of a transaction.
func (s *State) Status(id updates.TxnID) Status {
	if n := s.nodes[id]; n != nil {
		return n.status
	}
	return StatusUnknown
}

// IDs returns the id of every transaction seen, in TxnID order. It is the
// one walk over all of history, for AppendState and for tests; no round
// takes it.
func (s *State) IDs() []updates.TxnID {
	out := make([]updates.TxnID, 0, len(s.nodes))
	for id, n := range s.nodes {
		if n.txn != nil {
			out = append(out, id)
		}
	}
	slices.SortFunc(out, updates.TxnID.Compare)
	return out
}

// Stats is the work a State has done and how much of it is still open.
type Stats struct {
	// Visited counts the nodes examined by every call so far. What one
	// round adds depends on its candidates, the open transactions and
	// their dependency closures — not on how many transactions are closed.
	Visited uint64
	// Pending and Deferred are the sizes of the two open sets.
	Pending, Deferred int
}

// Stats returns the state's work counter and open-set sizes.
func (s *State) Stats() Stats {
	return Stats{Visited: s.visited, Pending: len(s.pending), Deferred: len(s.deferred)}
}

// Outcome reports the effects of one Reconcile or Resolve call.
type Outcome struct {
	// Accepted lists newly accepted transactions in application order;
	// the caller applies their updates to the local instance in this
	// order.
	Accepted []*updates.Transaction
	// Rejected, Deferred and Pending list the ids newly assigned those
	// statuses this round.
	Rejected []updates.TxnID
	Deferred []updates.TxnID
	Pending  []updates.TxnID
}

// Reconcile feeds a batch of candidate transactions (translated into the
// local schema) through the trust policy and the greedy consistent-set
// algorithm. It may also change the status of transactions from earlier
// rounds (e.g. a pending antecedent being accepted alongside a new trusted
// dependent).
func (s *State) Reconcile(policy *Policy, candidates []*updates.Transaction) (*Outcome, error) {
	for _, c := range candidates {
		if st := s.Status(c.ID); st != StatusUnknown {
			return nil, fmt.Errorf("%w: %s (status %s)", ErrAlreadyReconciled, c.ID, st)
		}
		n := s.add(c)
		n.prio = policy.PriorityOf(c)
		s.move(n, StatusPending)
	}
	s.visited += uint64(len(candidates))
	return s.process()
}

// AcceptLocal force-accepts a transaction without consulting any policy —
// used for the peer's own local transactions, which are always applied to
// the local instance at commit time. Their writes still participate in
// conflict detection against incoming candidates.
func (s *State) AcceptLocal(t *updates.Transaction) error {
	if st := s.Status(t.ID); st != StatusUnknown {
		return fmt.Errorf("%w: %s (status %s)", ErrAlreadyReconciled, t.ID, st)
	}
	s.move(s.add(t), StatusAccepted)
	for k, w := range s.netWrites(t) {
		s.acceptedWrites[k] = w
	}
	return nil
}

// LastWriters returns the accepted transactions that last wrote the keys t
// touches, t itself excluded, in TxnID order: the dependencies a local
// commit declares. A delete or modify depends on the writer of the key of
// the tuple it replaces, an insert on the writer of the key it writes (a
// re-insert after a delete depends on the delete).
func (s *State) LastWriters(t *updates.Transaction) []updates.TxnID {
	var out []updates.TxnID
	for _, u := range t.Updates {
		probe := u.New
		if u.Old != nil {
			probe = u.Old
		}
		if w, ok := s.acceptedWrites[u.Rel+"/"+s.keyOf(u.Rel, probe).Key()]; ok && w.writer != t.ID {
			out = append(out, w.writer)
		}
	}
	slices.SortFunc(out, updates.TxnID.Compare)
	return slices.Compact(out)
}

// netWrites computes the final (relation, key) -> value effect of applying
// the transaction.
func (s *State) netWrites(t *updates.Transaction) map[string]writeVal {
	out := map[string]writeVal{}
	for _, u := range t.Updates {
		k := u.Rel + "/" + s.keyOf(u.Rel, u.Target()).Key()
		w := writeVal{writer: t.ID, del: u.Op == updates.OpDelete}
		if !w.del {
			w.tupKey = u.New.Key()
		}
		out[k] = w
		if u.Op == updates.OpModify && u.Old != nil {
			// A modify may move the tuple to a new key; the old key is
			// written (vacated) too.
			ok := u.Rel + "/" + s.keyOf(u.Rel, u.Old).Key()
			if ok != k {
				out[ok] = writeVal{writer: t.ID, del: true}
			}
		}
	}
	return out
}

// antecedents walks everything n transitively depends on. ids holds those
// transactions' ids and n's own, closure their nodes (n excluded, in no
// particular order); complete is false when some antecedent has not
// arrived, and then the other two results are partial.
func (s *State) antecedents(n *node) (ids map[updates.TxnID]bool, closure []*node, complete bool) {
	ids = map[updates.TxnID]bool{n.id: true}
	complete = true
	stack := slices.Clone(n.deps)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ids[cur.id] {
			continue
		}
		ids[cur.id] = true
		s.visited++
		if cur.txn == nil {
			complete = false
			continue
		}
		closure = append(closure, cur)
		stack = append(stack, cur.deps...)
	}
	return ids, closure, complete
}

// dependents returns every node that transitively depends on n, n excluded,
// in TxnID order — the set that is rejected along with it.
func (s *State) dependents(n *node) []*node {
	seen := map[*node]bool{n: true}
	var out []*node
	stack := slices.Clone(n.rdeps)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		s.visited++
		out = append(out, cur)
		stack = append(stack, cur.rdeps...)
	}
	slices.SortFunc(out, compareNodes)
	return out
}

func compareNodes(a, b *node) int { return a.id.Compare(b.id) }

// group is a candidate plus the pending antecedents that must be co-applied.
type group struct {
	cand    *node
	members []*node                // in application order, candidate last
	closure map[updates.TxnID]bool // full antecedent closure incl. members
	// writes is the group's net effect (used for same-level conflict
	// detection and for recording accepted state).
	writes map[string]writeVal
	// memberWrites lists each member's own writes with that member's own
	// antecedent closure, for the pairwise conflict test against accepted
	// transactions (Taylor & Ives define conflicts pairwise, so a
	// member's conflicting intermediate write is a conflict even when a
	// later member of the same group overwrites it).
	memberWrites []memberWrite
}

// memberWrite is one member's writes plus its personal closure.
type memberWrite struct {
	n       *node
	writes  map[string]writeVal
	closure map[updates.TxnID]bool
}

// buildGroup assembles the applicable transaction group for cand, or
// reports why it cannot be applied.
func (s *State) buildGroup(cand *node) (g *group, blocked Status, err error) {
	cl, closure, complete := s.antecedents(cand)
	if !complete {
		return nil, StatusPending, nil // incomplete antecedents: wait
	}
	members := []*node{cand}
	deferred := false
	for _, a := range closure {
		switch a.status {
		case StatusRejected:
			// Rejection outranks deferral wherever it sits in the closure:
			// reject() cascades to deferred dependents, so a candidate judged
			// after its antecedent was rejected must end where one judged
			// before it does.
			return nil, StatusRejected, nil
		case StatusDeferred:
			deferred = true
		case StatusAccepted:
			// already applied; not re-applied
		default:
			members = append(members, a)
		}
	}
	if deferred {
		return nil, StatusDeferred, nil
	}
	// Application order: antecedents before dependents.
	if members, err = topoWithin(members); err != nil {
		return nil, StatusUnknown, err
	}
	g = &group{cand: cand, members: members, closure: cl, writes: map[string]writeVal{}}
	for _, m := range members {
		mcl := cl
		if m != cand {
			mcl, _, _ = s.antecedents(m)
		}
		mw := memberWrite{n: m, writes: s.netWrites(m.txn), closure: mcl}
		g.memberWrites = append(g.memberWrites, mw)
		maps.Copy(g.writes, mw.writes) // in application order: later members overwrite
	}
	return g, StatusUnknown, nil
}

// topoWithin orders the given transactions so that dependencies come first,
// ties broken by TxnID; dependencies outside the set are ignored.
func topoWithin(members []*node) ([]*node, error) {
	indeg := make(map[*node]int, len(members))
	for _, m := range members {
		indeg[m] = 0
	}
	for _, m := range members {
		for _, d := range m.deps {
			if _, ok := indeg[d]; ok {
				indeg[m]++
			}
		}
	}
	var ready []*node
	for _, m := range members {
		if indeg[m] == 0 {
			ready = append(ready, m)
		}
	}
	slices.SortFunc(ready, compareNodes)
	out := make([]*node, 0, len(members))
	for len(ready) > 0 {
		cur := ready[0]
		ready = ready[1:]
		out = append(out, cur)
		var next []*node
		for _, r := range cur.rdeps {
			if _, ok := indeg[r]; !ok {
				continue
			}
			indeg[r]--
			if indeg[r] == 0 {
				next = append(next, r)
			}
		}
		slices.SortFunc(next, compareNodes)
		ready = append(ready, next...)
	}
	if len(out) != len(members) {
		return nil, fmt.Errorf("recon: cyclic dependencies within transaction group")
	}
	return out, nil
}

// conflictsWithAccepted reports whether any member's writes clash with the
// accepted state: same key, different value, and that member does not
// depend on the accepted writer (a dependent overwrite is legitimate).
// The test is per member, not on the group's net writes: two independent
// transactions with incompatible writes conflict even if a later group
// member would overwrite the key again.
func (s *State) conflictsWithAccepted(g *group) bool {
	for _, mw := range g.memberWrites {
		if mw.n.status == StatusAccepted {
			// Already applied (e.g. as a shared antecedent accepted
			// earlier in this pass): its writes are part of the accepted
			// state, not a pending application.
			continue
		}
		for k, w := range mw.writes {
			aw, ok := s.acceptedWrites[k]
			if !ok {
				continue
			}
			if w.sameValue(aw) {
				continue
			}
			if mw.closure[aw.writer] {
				continue
			}
			return true
		}
	}
	return false
}

// deferredConflict reports whether the group's writes clash with any write
// in the deferred-writes index.
func (s *State) deferredConflict(g *group) bool {
	for k, gw := range g.writes {
		for _, w := range s.deferredWrites[k] {
			if !gw.sameValue(w) {
				return true
			}
		}
	}
	return false
}

// accept applies a group: marks members accepted and records their writes.
func (s *State) accept(g *group, out *Outcome) {
	for _, m := range g.members {
		if m.status == StatusAccepted {
			continue
		}
		out.Accepted = append(out.Accepted, m.txn) // before move cuts it
		s.setStatus(m, StatusAccepted)
	}
	for k, w := range g.writes {
		if s.undo != nil {
			prev, had := s.acceptedWrites[k]
			s.undo.writes = append(s.undo.writes, undoWrite{k, prev, had})
		}
		s.acceptedWrites[k] = w
	}
}

// process runs the greedy pass over the trusted pending transactions until
// no more status changes occur.
func (s *State) process() (*Outcome, error) {
	out := &Outcome{}
	for {
		changed, err := s.pass(out)
		if err != nil {
			return nil, err
		}
		if !changed {
			break
		}
	}
	// Report transactions still pending (seen but unapplied) this round.
	s.visited += uint64(len(s.pending))
	for _, n := range s.pending {
		out.Pending = append(out.Pending, n.id)
	}
	return out, nil
}

// pass performs one priority-descending sweep over the worklist; it reports
// whether any status changed. Nothing becomes pending during a pass, so the
// worklist only shrinks under it and each level is swept from a copy.
func (s *State) pass(out *Outcome) (bool, error) {
	s.dropUndeferred()
	prios := make([]int, 0, len(s.trusted))
	for p := range s.trusted {
		prios = append(prios, p)
	}
	slices.Sort(prios)
	slices.Reverse(prios)
	changed := false
	for _, p := range prios {
		var eligible []*group
		for _, n := range slices.Clone(s.trusted[p]) {
			s.visited++
			if n.status != StatusPending {
				continue // may have been co-accepted by an earlier group
			}
			g, blocked, err := s.buildGroup(n)
			if err != nil {
				return false, err
			}
			if g == nil {
				switch blocked {
				case StatusRejected:
					s.reject(n, out)
					changed = true
				case StatusDeferred:
					s.defer1(n, out)
					changed = true
				}
				continue
			}
			if s.conflictsWithAccepted(g) {
				s.reject(n, out)
				changed = true
				continue
			}
			if s.deferredConflict(g) {
				s.defer1(n, out)
				changed = true
				continue
			}
			eligible = append(eligible, g)
		}
		// Same-priority conflict detection among eligible groups, indexed
		// by written key so disjoint groups never meet.
		conflicted := map[*node]bool{}
		byKey := map[string][]*group{}
		for _, g := range eligible {
			for k := range g.writes {
				byKey[k] = append(byKey[k], g)
			}
		}
		for k, gs := range byKey {
			for i := 0; i < len(gs); i++ {
				for j := i + 1; j < len(gs); j++ {
					a, b := gs[i], gs[j]
					if a.closure[b.cand.id] || b.closure[a.cand.id] {
						continue // dependency, not a conflict
					}
					if !a.writes[k].sameValue(b.writes[k]) {
						conflicted[a.cand] = true
						conflicted[b.cand] = true
					}
				}
			}
		}
		for _, g := range eligible {
			if conflicted[g.cand] {
				s.defer1(g.cand, out)
				changed = true
			}
		}
		for _, g := range eligible {
			if conflicted[g.cand] {
				continue
			}
			if g.cand.status != StatusPending {
				continue // accepted earlier in this loop as an antecedent
			}
			// Re-validate against writes accepted earlier in this level.
			if s.conflictsWithAccepted(g) {
				s.reject(g.cand, out)
				changed = true
				continue
			}
			s.accept(g, out)
			changed = true
		}
	}
	return changed, nil
}

// reject marks a transaction rejected and cascades to its dependents.
func (s *State) reject(n *node, out *Outcome) {
	if n.status == StatusRejected {
		return
	}
	s.setStatus(n, StatusRejected)
	out.Rejected = append(out.Rejected, n.id)
	for _, dep := range s.dependents(n) {
		if dep.status == StatusPending || dep.status == StatusDeferred {
			s.setStatus(dep, StatusRejected)
			out.Rejected = append(out.Rejected, dep.id)
		}
	}
}

// defer1 marks a transaction deferred; its writes enter the deferred-writes
// index with it.
func (s *State) defer1(n *node, out *Outcome) {
	if n.status == StatusDeferred {
		return
	}
	s.setStatus(n, StatusDeferred)
	out.Deferred = append(out.Deferred, n.id)
}

// Resolve settles a deferred conflict in favor of winner: deferred
// transactions whose writes clash with the winner's group are rejected
// (with their dependents), then the winner and all remaining deferred
// transactions are re-evaluated — transactions that depended on the winner
// are accepted automatically (demo scenario 4).
//
// A winner that cannot be applied after all (it has meanwhile lost to data
// the peer accepted, or an antecedent of it has) fails the call and leaves
// the state exactly as it was: the rejections and the acceptances the
// attempt made along the way are taken back, so no transaction is ever
// Accepted here without its updates having been handed to the caller.
func (s *State) Resolve(winner updates.TxnID) (*Outcome, error) {
	wn := s.nodes[winner]
	if wn == nil || wn.status != StatusDeferred {
		return nil, fmt.Errorf("%w: %s (status %s)", ErrNotDeferred, winner, s.Status(winner))
	}
	s.undo = &undoLog{}
	out := &Outcome{}
	wWrites := s.netWrites(wn.txn)
	// Reject conflicting deferred losers. Deferred transactions that
	// *depend* on the winner are dependents, not competitors: their
	// overwrites of the winner's data are legitimate and they are
	// re-evaluated below.
	open := slices.Clone(s.deferred)
	s.visited += uint64(len(open))
	for _, n := range open {
		if n == wn || n.status != StatusDeferred {
			continue
		}
		if cl, _, _ := s.antecedents(n); cl[winner] {
			continue
		}
		clash := false
		for k, w := range s.netWrites(n.txn) {
			if ww, ok := wWrites[k]; ok && !w.sameValue(ww) {
				clash = true
				break
			}
		}
		if clash {
			s.reject(n, out)
		}
	}
	// Re-open the winner and every surviving deferred transaction, then
	// re-run the greedy pass.
	s.setStatus(wn, StatusPending)
	for _, n := range open {
		if n.status == StatusDeferred {
			s.setStatus(n, StatusPending)
		}
	}
	more, err := s.process()
	if err != nil {
		s.rollback()
		return nil, err
	}
	out.Accepted = append(out.Accepted, more.Accepted...)
	out.Rejected = append(out.Rejected, more.Rejected...)
	out.Deferred = append(out.Deferred, more.Deferred...)
	out.Pending = more.Pending
	if wn.status != StatusAccepted {
		st := wn.status
		s.rollback()
		return nil, fmt.Errorf("recon: winner %s could not be applied after resolution (status %s)", winner, st)
	}
	s.undo = nil
	return out, nil
}
