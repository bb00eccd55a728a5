package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"orchestra/internal/datalog/magic"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/p2p"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
)

// Peer is one CDSS participant: a local editable instance, a trust policy,
// and the machinery to publish and reconcile. Its published state is the
// archive in the shared store, not a second copy of the instance.
// A Peer is safe for use from one goroutine; the shared Store handles
// cross-peer concurrency.
type Peer struct {
	mu        sync.Mutex
	name      string
	sys       *System
	store     p2p.Store
	policy    *recon.Policy
	local     *storage.Instance
	engine    *exchange.Engine
	state     *recon.State
	tracker   *updates.Tracker
	nextSeq   uint64
	lastEpoch uint64
	// engCfg is retained so the engine can be rebuilt after a mid-Apply
	// failure leaves it in an undefined state (see engineDirty).
	engCfg exchange.Config
	// engineDirty marks the translation engine as unusable: an Apply
	// failed partway through a transaction (cooperative cancellation can
	// abandon a half-propagated fixpoint), which exchange.Engine declares
	// fatal. The next Reconcile rebuilds the engine by replaying the
	// published history up to lastEpoch.
	engineDirty bool
	// unpublished holds committed local transactions awaiting Publish.
	unpublished []*updates.Transaction
	// db is the durable tier backing this peer (nil for in-memory systems):
	// RecoverPeerWith attaches it so Commit, Reconcile and Resolve can
	// journal their trust events in the "r/" keyspace, applyUpdates can note
	// which image rows went stale, and rebuildEngine can restore from the
	// engine blob instead of replaying the full history. The fields after it,
	// up to blobTxns, describe the peer's checkpoint in db and are unused
	// without one.
	db *lsm.DB
	// dirty holds the checkpoint row key of every tuple applyUpdates has
	// written or removed since the last image — all that the next one has to
	// bring up to date.
	dirty map[string]dirtyRow
	// ckUnpub is how many unpublished-queue slots the last checkpoint wrote.
	ckUnpub int
	// journalLen is how many trust events (reconciliation rounds, local
	// commits, Resolve outcomes) the "r/" journal holds since the last image,
	// at key sequences 0 up to it; the next image folds them into its blob
	// and clears the journal.
	journalLen int
	// hasBlob reports whether db holds an engine blob for this peer, and
	// blobTxns how many transactions its engine had applied (see
	// blobRebaseDue).
	hasBlob  bool
	blobTxns int
	// pendingRecovery buffers recovery metrics until SetObserver installs
	// the registry (recovery runs before the observer exists — see
	// orchestra's System.Peer).
	pendingRecovery bool
	recReplayTxns   int64
	recLoadNs       int64
	// applyHook, when set, observes every batch of updates that reaches
	// durability or the local instance: published local transactions (at
	// Publish, with their assigned epoch) and accepted candidates (at
	// Reconcile/Resolve). It is called under the peer mutex and must not
	// call back into the peer; the orchestra facade uses it to feed change
	// subscriptions.
	applyHook func(ApplyEvent)
	// obsv is the peer's observability surface (spans, counters, slow-op
	// logging); the zero value is disabled. See SetObserver.
	obsv observer
	// shapes holds the goal queries this peer has compiled, by shape
	// (magic.Shape), at most queryShapeCap of them; shapeKey is the buffer
	// the next key is encoded into. See QueryGoal.
	shapes   map[string]*magic.Prepared
	shapeKey []byte
}

// ApplyEvent is one observed transaction application; see SetApplyHook.
type ApplyEvent struct {
	// Txn is the originating (publishing) transaction.
	Txn updates.TxnID
	// Epoch is the store epoch the transaction published at.
	Epoch uint64
	// Local reports whether the transaction is this peer's own publish
	// (true) or a reconciled candidate translated into this peer's schema
	// (false).
	Local bool
	// Updates are the tuple-level changes, already in this peer's schema.
	Updates []updates.Update
}

// NewPeer creates a participant named name with the given trust policy,
// attached to the shared update store.
func NewPeer(name string, sys *System, store p2p.Store, policy *recon.Policy) (*Peer, error) {
	return NewPeerWith(name, sys, store, policy, exchange.Config{})
}

// NewPeerWith is NewPeer with explicit tuning for the peer's translation
// engine (witness bound, stats sink).
func NewPeerWith(name string, sys *System, store p2p.Store, policy *recon.Policy, cfg exchange.Config) (*Peer, error) {
	s := sys.Schema(name)
	if s == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownPeer, name)
	}
	eng, err := exchange.NewEngineWith(sys.Peers(), sys.Mappings(), cfg)
	if err != nil {
		return nil, err
	}
	keyOf := func(rel string, tu schema.Tuple) schema.Tuple {
		r := s.Relation(rel)
		if r == nil {
			return tu
		}
		return r.KeyOf(tu)
	}
	return &Peer{
		name:    name,
		sys:     sys,
		store:   store,
		policy:  policy,
		engCfg:  cfg,
		local:   storage.NewInstance(s),
		engine:  eng,
		state:   recon.NewState(keyOf),
		tracker: updates.NewTracker(keyOf),
		nextSeq: 1,
	}, nil
}

// Name returns the peer's name.
func (p *Peer) Name() string { return p.name }

// Instance returns the local editable instance.
func (p *Peer) Instance() *storage.Instance { return p.local }

// Epoch returns the last epoch this peer has reconciled up to.
func (p *Peer) Epoch() uint64 { return p.lastEpoch }

// Status returns the peer's disposition of a transaction.
func (p *Peer) Status(id updates.TxnID) recon.Status { return p.state.Status(id) }

// SetApplyHook installs (or clears, with nil) the observer described on the
// applyHook field. The hook runs under the peer mutex; it must be fast and
// must not call back into the peer.
func (p *Peer) SetApplyHook(h func(ApplyEvent)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyHook = h
}

// Txn is an in-progress local transaction. Updates accumulate and apply
// atomically at Commit.
type Txn struct {
	peer *Peer
	ups  []updates.Update
	done bool
}

// NewTransaction starts a local transaction.
func (p *Peer) NewTransaction() *Txn { return &Txn{peer: p} }

// Insert schedules an insertion.
func (t *Txn) Insert(rel string, tu schema.Tuple) *Txn {
	t.ups = append(t.ups, updates.Insert(rel, tu))
	return t
}

// Delete schedules a deletion.
func (t *Txn) Delete(rel string, tu schema.Tuple) *Txn {
	t.ups = append(t.ups, updates.Delete(rel, tu))
	return t
}

// Modify schedules a modification.
func (t *Txn) Modify(rel string, old, new schema.Tuple) *Txn {
	t.ups = append(t.ups, updates.Modify(rel, old, new))
	return t
}

// Commit validates the updates, applies them atomically to the local
// instance, and queues the transaction for the next Publish. On error
// nothing is applied.
func (t *Txn) Commit() (*updates.Transaction, error) {
	if t.done {
		return nil, ErrTxnFinished
	}
	t.done = true
	p := t.peer
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sys.Schema(p.name)
	// Validate against the schema, the current local state, and the
	// transaction's own earlier writes. held maps relation+key to the tuple
	// this transaction has put under that key so far.
	type slot struct{ rel, key string }
	held := map[slot]schema.Tuple{}
	for _, u := range t.ups {
		rel := s.Relation(u.Rel)
		if rel == nil {
			return nil, fmt.Errorf("%w: peer %s has no relation %s", ErrUnknownRelation, p.name, u.Rel)
		}
		for _, tu := range []schema.Tuple{u.Old, u.New} {
			if tu == nil {
				continue
			}
			if err := rel.Validate(tu); err != nil {
				return nil, err
			}
		}
		// A Delete or Modify of exactly the tuple this transaction wrote
		// frees its key again.
		if u.Old != nil {
			if k := (slot{u.Rel, rel.KeyOf(u.Old).Key()}); held[k].Equal(u.Old) {
				delete(held, k)
			}
		}
		if u.New == nil {
			continue
		}
		key := rel.KeyOf(u.New)
		k := slot{u.Rel, key.Key()}
		// A local *insert* that collides with a different tuple under the same
		// primary key — stored, or written earlier in this transaction — is a
		// key violation: applied as an upsert it would silently drop the
		// earlier tuple here while reconciling peers keep it. Modify declares
		// the overwrite, and translated candidates, which reconciliation has
		// already vetted, apply with upsert semantics.
		if u.Op == updates.OpInsert {
			existing, ok := held[k]
			if !ok {
				var row storage.Row
				row, ok = p.local.Table(u.Rel).GetByKey(key)
				existing = row.Tuple
			}
			if ok && !existing.Equal(u.New) {
				return nil, fmt.Errorf("core: commit at peer %s: %w", p.name,
					&storage.ErrKeyViolation{Relation: u.Rel, Key: key, Existing: existing, New: u.New})
			}
		}
		held[k] = u.New
	}
	txn := &updates.Transaction{
		ID:      updates.TxnID{Peer: p.name, Seq: p.nextSeq},
		Updates: append([]updates.Update(nil), t.ups...),
	}
	if p.db != nil {
		// Where this commit stands among the peer's reconciliations decides
		// which later candidates it outranks; the archive holds the
		// transaction but not that. No fsync: the record needs to be durable
		// only if the transaction becomes so, and whatever makes it so — a
		// publish, a checkpoint — syncs the same log after this append.
		if err := p.archiveEvent(trustEvent{WinnerPeer: p.name, WinnerSeq: txn.ID.Seq, AfterEpoch: p.lastEpoch}, false); err != nil {
			return nil, fmt.Errorf("core: commit at peer %s: %w", p.name, err)
		}
	}
	// Dependencies: the last writers of every key this txn touches.
	p.tracker.Record(txn)
	// Apply to the local instance.
	if err := p.applyUpdates(txn.Updates); err != nil {
		return nil, err
	}
	// The peer trusts its own edits unconditionally.
	if err := p.state.AcceptLocal(txn); err != nil {
		return nil, err
	}
	p.nextSeq++
	p.unpublished = append(p.unpublished, txn)
	return txn, nil
}

// Abort discards the transaction.
func (t *Txn) Abort() { t.done = true }

// dirtyRow names a tuple whose checkpoint row is out of date.
type dirtyRow struct {
	rel string
	tu  schema.Tuple
}

// touch notes that the tuple's checkpoint row no longer matches the
// instance. Only a durable peer keeps the set: without a database there is
// no checkpoint to bring up to date, and nothing would ever clear it.
func (p *Peer) touch(rel string, tu schema.Tuple) {
	if p.db != nil {
		p.dirty[string(ckRowKey(p.name, rel, tu))] = dirtyRow{rel, tu}
	}
}

// applyUpdates applies translated or local updates to the local instance —
// the one in-memory copy of the peer's rows, which queries read directly
// (QueryGoal evaluates over Instance.EDB) — and is the one place that does,
// so it is also where a durable peer learns which checkpoint rows changed:
// the tuple written, the tuple removed, and the tuple an upsert pushed out
// from under the same key.
func (p *Peer) applyUpdates(ups []updates.Update) error {
	for _, u := range ups {
		var err error
		switch u.Op {
		case updates.OpInsert:
			err = p.upsertRow(u.Rel, u.New, u.Prov)
		case updates.OpDelete:
			err = p.removeRow(u.Rel, u.Old)
		case updates.OpModify:
			if u.Old != nil {
				err = p.removeRow(u.Rel, u.Old)
			}
			if err == nil {
				err = p.upsertRow(u.Rel, u.New, u.Prov)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *Peer) removeRow(rel string, tu schema.Tuple) error {
	p.touch(rel, tu)
	_, err := p.local.Delete(rel, tu)
	return err
}

func (p *Peer) upsertRow(rel string, tu schema.Tuple, prov provenance.Poly) error {
	if prov.IsZero() {
		prov = provenance.One()
	}
	p.touch(rel, tu)
	replaced, err := p.local.Upsert(rel, tu, prov)
	if replaced != nil {
		p.touch(rel, *replaced)
	}
	return err
}

// Publish archives all committed-but-unpublished transactions in the store
// and advances the logical clock. The context is checked before the store
// round-trip; a store backed by the network should additionally bound its
// own I/O.
func (p *Peer) Publish(ctx context.Context) (uint64, error) {
	epoch, _, err := p.PublishAll(ctx)
	return epoch, err
}

// PublishAll is Publish reporting how many transactions were archived, so
// callers (the orchestra facade's subscription push path) can tell a no-op
// publish from a real one.
func (p *Peer) PublishAll(ctx context.Context) (uint64, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	if len(p.unpublished) == 0 {
		epoch, err := p.store.Epoch()
		return epoch, 0, err
	}
	sp := p.obsv.startSpan("core_publish", p.name)
	defer p.obsv.endSpan(sp, p.name)
	p.obsv.publishes.Inc()
	published := p.unpublished
	epoch, err := p.store.Publish(published)
	if err != nil {
		return 0, 0, err
	}
	p.unpublished = nil
	p.obsv.publishedTx.Add(int64(len(published)))
	if p.applyHook != nil {
		for _, txn := range published {
			p.applyHook(ApplyEvent{Txn: txn.ID, Epoch: txn.Epoch, Local: true, Updates: txn.Updates})
		}
	}
	return epoch, len(published), nil
}

// ReconcileReport summarizes one reconciliation.
type ReconcileReport struct {
	// Epoch is the store epoch reconciled up to.
	Epoch uint64
	// Fetched counts transactions retrieved from the store this round.
	Fetched int
	// Accepted, Rejected, Deferred, Pending list candidate ids by outcome,
	// in deterministic order.
	Accepted []updates.TxnID
	Rejected []updates.TxnID
	Deferred []updates.TxnID
	Pending  []updates.TxnID
	// AppliedUpdates counts tuple-level updates applied to the local
	// instance.
	AppliedUpdates int
}

// Reconcile fetches newly published transactions from the store, translates
// them into the local schema via the mappings (maintaining provenance),
// runs the trust/conflict reconciliation, and applies the accepted
// transactions to the local instance. The context bounds the translation
// fixpoints: a reconciliation started with an expired context returns the
// context error before touching the local instance, and a long chase stops
// within one fixpoint iteration of cancellation.
func (p *Peer) Reconcile(ctx context.Context) (*ReconcileReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := p.obsv.startSpan("core_reconcile", p.name)
	defer p.obsv.endSpan(sp, p.name)
	p.obsv.reconciles.Inc()
	defer p.obsv.observeRounds(p.obsv.roundsNow())
	if p.engineDirty {
		if err := p.rebuildEngine(ctx); err != nil {
			return nil, err
		}
	}
	txns, epoch, err := p.store.Since(p.lastEpoch)
	if err != nil {
		return nil, err
	}
	report := &ReconcileReport{Epoch: epoch, Fetched: len(txns)}
	fresh := txns[:0:0]
	for _, txn := range txns {
		if !p.engine.Applied(txn.ID) {
			fresh = append(fresh, txn)
		}
	}
	// The fetched backlog goes to the engine in one call, which translates
	// it one transaction at a time.
	var results []*exchange.Result
	if len(fresh) > 0 {
		dsp := sp.Child("exchange_drain")
		start := time.Now()
		results, err = p.engine.ApplyAll(ctx, fresh)
		if err != nil {
			// ApplyAll can fail partway through the backlog (cooperative
			// cancellation abandons a half-propagated fixpoint), which the
			// engine declares fatal: mark it for rebuild rather than ever
			// re-using the partial state.
			p.engineDirty = true
			return nil, err
		}
		elapsed := time.Since(start)
		dsp.End()
		p.obsv.observeDrain(len(fresh), elapsed)
	}
	var candidates []*updates.Transaction
	for i, txn := range fresh {
		if txn.ID.Peer == p.name {
			// Our own published transaction coming back: already applied
			// locally at commit time.
			continue
		}
		candidates = append(candidates, p.candidate(txn, results[i]))
	}
	outcome, err := p.state.Reconcile(p.policy, candidates)
	p.obsv.observeRecon(p.state.Stats())
	if err != nil {
		return nil, err
	}
	if err := p.applyOutcome(outcome, report); err != nil {
		return nil, err
	}
	p.lastEpoch = epoch
	if p.db != nil && len(candidates) > 0 {
		// Candidates judged together defer each other where candidates of
		// separate rounds accept the first and reject the second, so a
		// recovery has to cut its replay into the rounds that happened. Like
		// a commit record, this one rides the next fsync.
		if err := p.archiveEvent(trustEvent{AfterEpoch: epoch}, false); err != nil {
			return nil, fmt.Errorf("core: reconcile at peer %s: %w", p.name, err)
		}
	}
	report.sort()
	return report, nil
}

// rebuildEngine replaces a dirty translation engine with a fresh one,
// restored the way recovery restores it: from the engine blob, when a
// durable peer has one, plus the published history after its watermark up to
// lastEpoch (those transactions already reached reconciliation in completed
// rounds; everything later re-enters through the normal Reconcile loop,
// which also regenerates its candidates). Called under the peer mutex. If
// the replay itself fails — e.g. the caller's deadline expires again — the
// engine stays dirty and the next Reconcile retries the rebuild.
func (p *Peer) rebuildEngine(ctx context.Context) error {
	eng, err := exchange.NewEngineWith(p.sys.Peers(), p.sys.Mappings(), p.engCfg)
	if err != nil {
		return err
	}
	since := uint64(0)
	if p.db != nil {
		snap, err := readEngineBlob(p.db.Get, p.name)
		if err == nil && snap != nil {
			err = eng.LoadState(snap.Engine)
			since = snap.Watermark
		}
		if err != nil {
			return err
		}
	}
	if _, _, _, err := replayEngine(ctx, eng, p.store, since, p.lastEpoch); err != nil {
		return err
	}
	p.engine = eng
	p.engineDirty = false
	return nil
}

// Resolve settles a deferred conflict in favor of winner (site-administrator
// action, demo scenario 4) and applies the consequences. On a durable peer
// the decision is archived with one fsynced write before Resolve returns,
// so a crash after Resolve cannot regress the conflict to deferred: recovery
// re-applies the archived decision at its recorded position. A crash during
// Resolve — after the in-memory application but before the fsync — loses
// the decision, exactly as it would have lost a Resolve that never ran.
func (p *Peer) Resolve(ctx context.Context, winner updates.TxnID) (*ReconcileReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	outcome, err := p.state.Resolve(winner)
	p.obsv.observeRecon(p.state.Stats())
	if err != nil {
		return nil, err
	}
	report := &ReconcileReport{Epoch: p.lastEpoch}
	if err := p.applyOutcome(outcome, report); err != nil {
		return nil, err
	}
	if p.db != nil {
		if err := p.archiveEvent(trustEvent{WinnerPeer: winner.Peer, WinnerSeq: winner.Seq, AfterEpoch: p.lastEpoch}, true); err != nil {
			return nil, fmt.Errorf("core: resolve at peer %s: %w", p.name, err)
		}
	}
	report.sort()
	return report, nil
}

// archiveEvent appends one trust event to the peer's "r/" journal, at the
// next sequence.
func (p *Peer) archiveEvent(d trustEvent, sync bool) error {
	data, err := json.Marshal(d)
	if err == nil {
		err = p.db.Put(rkKey(p.name, uint64(p.journalLen)), data, sync)
	}
	if err != nil {
		return fmt.Errorf("archive trust event: %w", err)
	}
	p.journalLen++
	return nil
}

func (p *Peer) applyOutcome(outcome *recon.Outcome, report *ReconcileReport) error {
	for _, txn := range outcome.Accepted {
		if err := p.applyUpdates(txn.Updates); err != nil {
			return err
		}
		p.tracker.RecordWrites(txn)
		if p.applyHook != nil {
			p.applyHook(ApplyEvent{Txn: txn.ID, Epoch: txn.Epoch, Local: false, Updates: txn.Updates})
		}
		p.obsv.acceptedTx.Inc()
		p.obsv.appliedUps.Add(int64(len(txn.Updates)))
		report.Accepted = append(report.Accepted, txn.ID)
		report.AppliedUpdates += len(txn.Updates)
	}
	report.Rejected = append(report.Rejected, outcome.Rejected...)
	report.Deferred = append(report.Deferred, outcome.Deferred...)
	report.Pending = append(report.Pending, outcome.Pending...)
	return nil
}

func (r *ReconcileReport) sort() {
	// Accepted preserves application order; the others sort by id.
	slices.SortFunc(r.Rejected, updates.TxnID.Compare)
	slices.SortFunc(r.Deferred, updates.TxnID.Compare)
	slices.SortFunc(r.Pending, updates.TxnID.Compare)
}

// candidate is a fetched transaction as this peer's reconciliation judges
// it: translated into the peer's schema, with the dependencies the
// translation adds.
func (p *Peer) candidate(txn *updates.Transaction, res *exchange.Result) *updates.Transaction {
	return &updates.Transaction{
		ID:      txn.ID,
		Epoch:   txn.Epoch,
		Updates: res.PerPeer[p.name],
		Deps:    mergeDeps(txn.Deps, res.ExtraDeps[p.name]),
	}
}

func mergeDeps(a, b []updates.TxnID) []updates.TxnID {
	seen := map[updates.TxnID]bool{}
	var out []updates.TxnID
	for _, id := range a {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, id := range b {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	slices.SortFunc(out, updates.TxnID.Compare)
	return out
}
