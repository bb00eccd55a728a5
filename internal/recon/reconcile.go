package recon

import (
	"errors"
	"fmt"
	"sort"

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

// State is a peer's persistent reconciliation state across update-exchange
// rounds: every candidate seen, its status and priority, and the writes of
// accepted transactions.
type State struct {
	keyOf          func(rel string, tu schema.Tuple) schema.Tuple
	graph          *updates.Graph
	status         map[updates.TxnID]Status
	prio           map[updates.TxnID]int
	acceptedWrites map[string]writeVal
	appliedOrder   []updates.TxnID
	// undo, while non-nil, journals every status and accepted-write change
	// so Resolve can take back a resolution that fails (see rollback).
	undo *undoLog
}

// undoLog is what one Resolve call changed, in order: the previous value of
// each status and accepted write it overwrote, and how long appliedOrder
// was when it began.
type undoLog struct {
	status  []undoStatus
	writes  []undoWrite
	applied int
}

type undoStatus struct {
	id   updates.TxnID
	prev Status
}

type undoWrite struct {
	key  string
	prev writeVal
	had  bool
}

// setStatus assigns a status to a transaction the state already knows.
func (s *State) setStatus(id updates.TxnID, st Status) {
	if s.undo != nil {
		s.undo.status = append(s.undo.status, undoStatus{id, s.status[id]})
	}
	s.status[id] = st
}

// rollback restores the state to where the journal began and drops it.
func (s *State) rollback() {
	u := s.undo
	s.undo = nil
	for i := len(u.status) - 1; i >= 0; i-- {
		s.status[u.status[i].id] = u.status[i].prev
	}
	for i := len(u.writes) - 1; i >= 0; i-- {
		if w := u.writes[i]; w.had {
			s.acceptedWrites[w.key] = w.prev
		} else {
			delete(s.acceptedWrites, w.key)
		}
	}
	s.appliedOrder = s.appliedOrder[:u.applied]
}

// NewState creates reconciliation state. keyOf must project a tuple of the
// named local relation onto its primary key.
func NewState(keyOf func(rel string, tu schema.Tuple) schema.Tuple) *State {
	return &State{
		keyOf:          keyOf,
		graph:          updates.NewGraph(),
		status:         map[updates.TxnID]Status{},
		prio:           map[updates.TxnID]int{},
		acceptedWrites: map[string]writeVal{},
	}
}

// Status returns the disposition of a transaction.
func (s *State) Status(id updates.TxnID) Status { return s.status[id] }

// Graph exposes the accumulated candidate dependency graph.
func (s *State) Graph() *updates.Graph { return s.graph }

// AppliedOrder returns all accepted transactions in application order.
func (s *State) AppliedOrder() []updates.TxnID {
	return append([]updates.TxnID(nil), s.appliedOrder...)
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
		if st := s.status[c.ID]; st != StatusUnknown {
			return nil, fmt.Errorf("%w: %s (status %s)", ErrAlreadyReconciled, c.ID, st)
		}
		if err := s.graph.Add(c); err != nil {
			return nil, err
		}
		s.status[c.ID] = StatusPending
		s.prio[c.ID] = policy.PriorityOf(c)
	}
	return s.process()
}

// AcceptLocal force-accepts a transaction without consulting any policy —
// used for the peer's own local transactions, which are always applied to
// the local instance at commit time. Their writes still participate in
// conflict detection against incoming candidates.
func (s *State) AcceptLocal(t *updates.Transaction) error {
	if st := s.status[t.ID]; st != StatusUnknown {
		return fmt.Errorf("%w: %s (status %s)", ErrAlreadyReconciled, t.ID, st)
	}
	if err := s.graph.Add(t); err != nil {
		return err
	}
	s.status[t.ID] = StatusAccepted
	s.appliedOrder = append(s.appliedOrder, t.ID)
	for k, w := range s.netWrites([]*updates.Transaction{t}) {
		s.acceptedWrites[k] = w
	}
	return nil
}

// netWrites computes the final (relation, key) -> value effect of applying
// the given transactions in order.
func (s *State) netWrites(txns []*updates.Transaction) map[string]writeVal {
	out := map[string]writeVal{}
	for _, t := range txns {
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
	}
	return out
}

// group is a candidate plus the pending antecedents that must be co-applied.
type group struct {
	cand    *updates.Transaction
	members []*updates.Transaction // in application order, candidate last
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
	prio         int
}

// memberWrite is one member's writes plus its personal closure.
type memberWrite struct {
	id      updates.TxnID
	writes  map[string]writeVal
	closure map[updates.TxnID]bool
}

// buildGroup assembles the applicable transaction group for cand, or
// reports why it cannot be applied.
func (s *State) buildGroup(cand *updates.Transaction) (g *group, blocked Status, err error) {
	closure, missing := s.graph.AntecedentClosure(cand.ID)
	if len(missing) > 0 {
		return nil, StatusPending, nil // incomplete antecedents: wait
	}
	cl := map[updates.TxnID]bool{cand.ID: true}
	var pendingMembers []*updates.Transaction
	deferred := false
	for _, a := range closure {
		cl[a] = true
		switch s.status[a] {
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
			t, ok := s.graph.Get(a)
			if !ok {
				return nil, StatusPending, nil
			}
			pendingMembers = append(pendingMembers, t)
		}
	}
	if deferred {
		return nil, StatusDeferred, nil
	}
	// Application order: antecedents before dependents. Sort pending
	// members topologically using a local pass over closure depth.
	ordered, err := topoWithin(append(pendingMembers, cand), s.graph)
	if err != nil {
		return nil, StatusUnknown, err
	}
	g = &group{
		cand:    cand,
		members: ordered,
		closure: cl,
		prio:    s.prio[cand.ID],
	}
	g.writes = s.netWrites(g.members)
	for _, m := range ordered {
		mcl := map[updates.TxnID]bool{m.ID: true}
		mClosure, _ := s.graph.AntecedentClosure(m.ID)
		for _, a := range mClosure {
			mcl[a] = true
		}
		g.memberWrites = append(g.memberWrites, memberWrite{
			id:      m.ID,
			writes:  s.netWrites([]*updates.Transaction{m}),
			closure: mcl,
		})
	}
	return g, StatusUnknown, nil
}

// topoWithin orders the given transactions so that dependencies come first;
// dependencies outside the set are ignored.
func topoWithin(txns []*updates.Transaction, g *updates.Graph) ([]*updates.Transaction, error) {
	in := map[updates.TxnID]*updates.Transaction{}
	for _, t := range txns {
		in[t.ID] = t
	}
	indeg := map[updates.TxnID]int{}
	for _, t := range txns {
		for _, d := range t.Deps {
			if _, ok := in[d]; ok {
				indeg[t.ID]++
			}
		}
	}
	var ready []updates.TxnID
	for _, t := range txns {
		if indeg[t.ID] == 0 {
			ready = append(ready, t.ID)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].Less(ready[j]) })
	var out []*updates.Transaction
	for len(ready) > 0 {
		cur := ready[0]
		ready = ready[1:]
		out = append(out, in[cur])
		var next []updates.TxnID
		for _, dep := range g.Dependents(cur) {
			if _, ok := in[dep]; !ok {
				continue
			}
			found := false
			for _, d := range in[dep].Deps {
				if d == cur {
					found = true
				}
			}
			if !found {
				continue
			}
			indeg[dep]--
			if indeg[dep] == 0 {
				next = append(next, dep)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].Less(next[j]) })
		ready = append(ready, next...)
	}
	if len(out) != len(txns) {
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
		if s.status[mw.id] == StatusAccepted {
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
func deferredConflict(g *group, deferredWrites map[string][]writeVal) bool {
	for k, gw := range g.writes {
		for _, w := range deferredWrites[k] {
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
		if s.status[m.ID] == StatusAccepted {
			continue
		}
		s.setStatus(m.ID, StatusAccepted)
		s.appliedOrder = append(s.appliedOrder, m.ID)
		out.Accepted = append(out.Accepted, m)
	}
	for k, w := range g.writes {
		if s.undo != nil {
			prev, had := s.acceptedWrites[k]
			s.undo.writes = append(s.undo.writes, undoWrite{k, prev, had})
		}
		s.acceptedWrites[k] = w
	}
}

// process runs the greedy pass over all pending transactions until no more
// status changes occur.
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
	for _, id := range s.graph.IDs() {
		if s.status[id] == StatusPending {
			out.Pending = append(out.Pending, id)
		}
	}
	return out, nil
}

// pass performs one priority-descending sweep; it reports whether any
// status changed.
func (s *State) pass(out *Outcome) (bool, error) {
	// Gather pending, trusted candidates by priority level, and index the
	// writes of currently-deferred transactions once for the whole sweep.
	byPrio := map[int][]updates.TxnID{}
	var prios []int
	deferredWrites := map[string][]writeVal{}
	for _, id := range s.graph.IDs() {
		if s.status[id] == StatusDeferred {
			t, _ := s.graph.Get(id)
			for k, w := range s.netWrites([]*updates.Transaction{t}) {
				deferredWrites[k] = append(deferredWrites[k], w)
			}
			continue
		}
		if s.status[id] != StatusPending {
			continue
		}
		p := s.prio[id]
		if p <= Distrusted {
			continue
		}
		if _, ok := byPrio[p]; !ok {
			prios = append(prios, p)
		}
		byPrio[p] = append(byPrio[p], id)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(prios)))
	deferWithWrites := func(id updates.TxnID) {
		s.defer1(id, out)
		t, _ := s.graph.Get(id)
		for k, w := range s.netWrites([]*updates.Transaction{t}) {
			deferredWrites[k] = append(deferredWrites[k], w)
		}
	}
	changed := false
	for _, p := range prios {
		var eligible []*group
		for _, id := range byPrio[p] {
			if s.status[id] != StatusPending {
				continue // may have been co-accepted by an earlier group
			}
			cand, _ := s.graph.Get(id)
			g, blocked, err := s.buildGroup(cand)
			if err != nil {
				return false, err
			}
			if g == nil {
				switch blocked {
				case StatusRejected:
					s.reject(id, out)
					changed = true
				case StatusDeferred:
					deferWithWrites(id)
					changed = true
				}
				continue
			}
			if s.conflictsWithAccepted(g) {
				s.reject(id, out)
				changed = true
				continue
			}
			if deferredConflict(g, deferredWrites) {
				deferWithWrites(id)
				changed = true
				continue
			}
			eligible = append(eligible, g)
		}
		// Same-priority conflict detection among eligible groups, indexed
		// by written key so disjoint groups never meet.
		conflicted := map[updates.TxnID]bool{}
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
					if a.closure[b.cand.ID] || b.closure[a.cand.ID] {
						continue // dependency, not a conflict
					}
					if !a.writes[k].sameValue(b.writes[k]) {
						conflicted[a.cand.ID] = true
						conflicted[b.cand.ID] = true
					}
				}
			}
		}
		for _, g := range eligible {
			if conflicted[g.cand.ID] {
				deferWithWrites(g.cand.ID)
				changed = true
			}
		}
		for _, g := range eligible {
			if conflicted[g.cand.ID] {
				continue
			}
			if s.status[g.cand.ID] != StatusPending {
				continue // accepted earlier in this loop as an antecedent
			}
			// Re-validate against writes accepted earlier in this level.
			if s.conflictsWithAccepted(g) {
				s.reject(g.cand.ID, out)
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
func (s *State) reject(id updates.TxnID, out *Outcome) {
	if s.status[id] == StatusRejected {
		return
	}
	s.setStatus(id, StatusRejected)
	out.Rejected = append(out.Rejected, id)
	for _, dep := range s.graph.DependentClosure(id) {
		if st := s.status[dep]; st == StatusPending || st == StatusDeferred {
			s.setStatus(dep, StatusRejected)
			out.Rejected = append(out.Rejected, dep)
		}
	}
}

// defer1 marks a transaction deferred.
func (s *State) defer1(id updates.TxnID, out *Outcome) {
	if s.status[id] == StatusDeferred {
		return
	}
	s.setStatus(id, StatusDeferred)
	out.Deferred = append(out.Deferred, id)
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
	if s.status[winner] != StatusDeferred {
		return nil, fmt.Errorf("%w: %s (status %s)", ErrNotDeferred, winner, s.status[winner])
	}
	s.undo = &undoLog{applied: len(s.appliedOrder)}
	out := &Outcome{}
	wt, _ := s.graph.Get(winner)
	wWrites := s.netWrites([]*updates.Transaction{wt})
	// Reject conflicting deferred losers. Deferred transactions that
	// *depend* on the winner are dependents, not competitors: their
	// overwrites of the winner's data are legitimate and they are
	// re-evaluated below.
	for _, id := range s.graph.IDs() {
		if id == winner || s.status[id] != StatusDeferred {
			continue
		}
		cl, _ := s.graph.AntecedentClosure(id)
		dependsOnWinner := false
		for _, a := range cl {
			if a == winner {
				dependsOnWinner = true
				break
			}
		}
		if dependsOnWinner {
			continue
		}
		t, _ := s.graph.Get(id)
		lw := s.netWrites([]*updates.Transaction{t})
		clash := false
		for k, w := range lw {
			if ww, ok := wWrites[k]; ok && !w.sameValue(ww) {
				clash = true
				break
			}
		}
		if clash {
			s.reject(id, out)
		}
	}
	// Re-open the winner and every surviving deferred transaction, then
	// re-run the greedy pass.
	s.setStatus(winner, StatusPending)
	for _, id := range s.graph.IDs() {
		if s.status[id] == StatusDeferred {
			s.setStatus(id, StatusPending)
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
	if st := s.status[winner]; st != StatusAccepted {
		s.rollback()
		return nil, fmt.Errorf("recon: winner %s could not be applied after resolution (status %s)", winner, st)
	}
	s.undo = nil
	return out, nil
}
