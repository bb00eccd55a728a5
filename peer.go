package orchestra

import (
	"context"
	"fmt"
	"io"
	"sync"

	"orchestra/internal/core"
	"orchestra/internal/obs"
	"orchestra/internal/repl"
)

// Peer is the handle for one CDSS participant: local editing through
// transactions, publication, reconciliation under the peer's trust policy,
// read access to the local instance, and streaming change subscriptions.
// A Peer is safe for concurrent use.
type Peer struct {
	sys  *System
	name string
	core *core.Peer
	set  settings

	// mu guards the subscription set and pump state. Lock order: the
	// internal peer mutex (held by core callbacks) may acquire mu, so
	// methods holding mu must never call into p.core.
	mu          sync.Mutex
	subs        map[*subscription]struct{}
	pumpStarted bool
	wake        chan struct{}

	// Subscription-path metric handles, nil when metrics are disabled.
	subEvents *obs.Counter // subscribe_events_total
	pumpRuns  *obs.Counter // subscribe_pump_reconciles_total
}

// Name returns the peer's name.
func (p *Peer) Name() string { return p.name }

// Epoch returns the last store epoch this peer reconciled up to.
func (p *Peer) Epoch() uint64 { return p.core.Epoch() }

// Status returns the peer's disposition of a transaction.
func (p *Peer) Status(id TxnID) Status { return p.core.Status(id) }

// Relations lists the peer's relations in deterministic order.
func (p *Peer) Relations() []*Relation { return p.core.Instance().Schema().Relations() }

// Rows returns the tuples currently stored in the named relation, sorted.
// The read runs under the instance lock, so it is safe against concurrent
// commits and reconciliations (including the subscription pump's).
func (p *Peer) Rows(rel string) ([]Tuple, error) {
	rows, ok := p.core.Instance().Rows(rel)
	if !ok {
		return nil, &taggedError{sentinel: ErrUnknownRelation,
			err: fmt.Errorf("orchestra: peer %s has no relation %s", p.name, rel)}
	}
	out := make([]Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.Tuple
	}
	return out, nil
}

// Explain returns the provenance of a stored tuple: the polynomial plus a
// per-derivation breakdown into supporting transactions and mappings. ok is
// false if the tuple is absent. With WithProvenance(false) the polynomial
// and supports are omitted (only presence is reported).
func (p *Peer) Explain(rel string, tu Tuple) (Provenance, []Support, bool) {
	prov, supports, ok := p.core.Explain(rel, tu)
	if !p.set.provenance {
		return Provenance{}, nil, ok
	}
	return prov, supports, ok
}

// Begin starts a local transaction. Updates accumulate and apply atomically
// at Commit; until then nothing is visible, locally or remotely.
func (p *Peer) Begin() *Txn { return &Txn{peer: p, inner: p.core.NewTransaction()} }

// Publish archives every committed-but-unpublished transaction in the
// shared store, advances the logical clock, and pushes the new epoch to
// other peers' subscriptions.
func (p *Peer) Publish(ctx context.Context) (uint64, error) {
	epoch, _, err := p.PublishAll(ctx)
	return epoch, err
}

// PublishAll is Publish additionally reporting how many committed
// transactions were archived, so callers driving publication bursts can
// tell a no-op publish from a real one. A receiving peer fetches the
// archived burst in one Reconcile and translates it one transaction at a
// time (see Peer.Reconcile).
func (p *Peer) PublishAll(ctx context.Context) (uint64, int, error) {
	if err := p.sys.ctx.Err(); err != nil {
		return 0, 0, ErrClosed
	}
	epoch, published, err := p.core.PublishAll(ctx)
	if err != nil {
		return 0, 0, wrapErr(err)
	}
	if published > 0 { // a no-op publish pushes nothing
		if p.sys.db != nil {
			// Ride the publish: the batch just became durable in the archive,
			// so the queue the checkpoint rewrites shrinks to what is still
			// unpublished, and the image follows whenever its rebase is due.
			// The publish itself succeeded even if the checkpoint fails —
			// recovery would simply replay from the previous checkpoint — so
			// the epoch is still returned.
			if err := p.core.SaveCheckpoint(p.sys.db); err != nil {
				return epoch, published, fmt.Errorf("orchestra: checkpoint after publish at %s: %w", p.name, err)
			}
		}
		p.sys.notifyPublish(p)
	}
	return epoch, published, nil
}

// Checkpoint makes the peer's current state durable in the system's LSM
// tier, as one atomic fsynced batch: the committed-but-unpublished
// transaction queue and the sequence/epoch record, plus, on a geometric
// schedule (whenever the engine has translated an eighth as many
// transactions again as the last image covered), a new image — a snapshot
// of the translation engine, the trust state and the dependency tracker,
// with the instance rows written or removed since the previous image (with
// provenance). It bounds the *loss* window: local commits made after the
// last checkpoint or publish are the only thing a crash can lose. Recovery
// *time* is bounded by that schedule, not by this call: System.Peer
// restores the last image and replays the published history after it, at
// most a ninth of the total. On a durable system checkpoints also
// happen automatically after every successful publish and at System.Close;
// call this to bound the loss window between publishes. Returns an error on
// in-memory systems.
func (p *Peer) Checkpoint() error {
	if p.sys.db == nil {
		return fmt.Errorf("orchestra: peer %s: Checkpoint requires a durable system (open with WithDurableDir)", p.name)
	}
	if err := p.sys.ctx.Err(); err != nil {
		return ErrClosed
	}
	if err := p.core.SaveCheckpoint(p.sys.db); err != nil {
		return wrapErr(err)
	}
	return nil
}

// SnapshotStats summarizes a peer's durable engine snapshot.
type SnapshotStats struct {
	// Preds, Facts, PolyNodes, and Vars describe the snapshot's union
	// database: predicates with encoded extents, total facts, distinct
	// interned provenance polynomials, and distinct provenance variables.
	Preds, Facts, PolyNodes, Vars int
	// Bytes is the full encoded snapshot size.
	Bytes int
	// Epoch is the store epoch the snapshot is valid at: recovery replays
	// only transactions published after it.
	Epoch uint64
}

// SnapshotStats reports the peer's durable engine snapshot without
// materializing it — what `orchestra inspect` dumps. ok is false when the
// peer has no snapshot yet (no checkpoint has run, or the last one found
// the engine unusable and skipped the snapshot). Returns an error on
// in-memory systems.
func (p *Peer) SnapshotStats() (stats SnapshotStats, ok bool, err error) {
	if p.sys.db == nil {
		return SnapshotStats{}, false, fmt.Errorf("orchestra: peer %s: SnapshotStats requires a durable system (open with WithDurableDir)", p.name)
	}
	st, epoch, ok, err := core.EngineSnapshotStats(p.sys.db, p.name)
	if err != nil || !ok {
		return SnapshotStats{}, false, wrapErr(err)
	}
	return SnapshotStats{
		Preds: st.Preds, Facts: st.Facts, PolyNodes: st.PolyNodes, Vars: st.Vars,
		Bytes: st.Bytes, Epoch: epoch,
	}, true, nil
}

// Reconcile fetches newly published transactions, translates them into the
// local schema through the mappings (maintaining provenance), applies the
// trust policy, and applies the accepted transactions locally. The fetched
// backlog translates one transaction at a time, each through one seeded
// semi-naive fixpoint over the union database, so the instance and its
// provenance are the same whether the peer reconciles after every
// publication or once after a burst. The context bounds the translation
// fixpoints: an expired context returns before any local state changes, and
// a runaway recursive chase stops within one fixpoint iteration of the
// deadline.
//
// With WithStrictConflicts, a round that defers transactions for manual
// resolution returns the report alongside ErrConflictPending.
func (p *Peer) Reconcile(ctx context.Context) (*ReconcileReport, error) {
	if err := p.sys.ctx.Err(); err != nil {
		return nil, ErrClosed
	}
	report, err := p.core.Reconcile(ctx)
	if err != nil {
		return nil, wrapErr(err)
	}
	if p.set.strict && len(report.Deferred) > 0 {
		return report, &taggedError{sentinel: ErrConflictPending,
			err: fmt.Errorf("orchestra: reconcile at %s deferred %d transaction(s) awaiting resolution", p.name, len(report.Deferred))}
	}
	return report, nil
}

// Resolve settles a deferred conflict in favor of winner (the site
// administrator's decision) and applies the consequences. Resolving a
// transaction that is not deferred returns ErrConflictPending-tagged
// detail.
func (p *Peer) Resolve(ctx context.Context, winner TxnID) (*ReconcileReport, error) {
	if err := p.sys.ctx.Err(); err != nil {
		return nil, ErrClosed
	}
	report, err := p.core.Resolve(ctx, winner)
	if err != nil {
		return nil, wrapErr(err)
	}
	return report, nil
}

// RunREPL runs the interactive command loop (insert/delete/modify, publish,
// reconcile, query, explain, resolve) against this peer, reading commands
// from in and printing to out.
func (p *Peer) RunREPL(in io.Reader, out io.Writer) error {
	return repl.New(p.core, out).Run(in)
}

// poke nudges the peer's auto-reconcile pump without blocking.
func (p *Peer) poke() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Txn is an in-progress local transaction against one peer.
type Txn struct {
	peer  *Peer
	inner *core.Txn
	done  bool
}

// Insert schedules an insertion. Inserting a tuple whose primary key is
// held by a different stored tuple fails Commit with ErrKeyViolation; use
// Modify to overwrite.
func (t *Txn) Insert(rel string, tu Tuple) *Txn {
	t.inner.Insert(rel, tu)
	return t
}

// Delete schedules a deletion of the exact tuple.
func (t *Txn) Delete(rel string, tu Tuple) *Txn {
	t.inner.Delete(rel, tu)
	return t
}

// Modify schedules replacing old with new (same primary key, or a declared
// key move).
func (t *Txn) Modify(rel string, old, new Tuple) *Txn {
	t.inner.Modify(rel, old, new)
	return t
}

// Commit validates the updates, applies them atomically to the local
// instance, and queues the transaction for the next Publish. On error
// nothing is applied. Committing (or aborting) twice returns ErrTxnFinished.
func (t *Txn) Commit() (TxnID, error) {
	if t.done {
		return TxnID{}, &taggedError{sentinel: ErrTxnFinished,
			err: fmt.Errorf("orchestra: commit on a finished transaction")}
	}
	t.done = true
	txn, err := t.inner.Commit()
	if err != nil {
		return TxnID{}, wrapErr(err)
	}
	return txn.ID, nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	t.done = true
	t.inner.Abort()
}
