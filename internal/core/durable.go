package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"orchestra/internal/codec"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/updates"
)

// This file is the peer-side half of the durable tier: peers checkpoint
// their state into the same LSM database that holds the published archive
// (p2p.DurableStore, prefix "a/"), and recover after a crash by loading the
// checkpoint image and replaying only the published suffix it does not
// already cover. The image is one value, the engine blob (engineblob.go):
// engine, instance and trust state at one epoch W. A checkpoint rewrites it
// when there is none yet or blobRebaseDue says so, and otherwise writes only
// the meta record and the unpublished queue.
//
// Checkpoint key layout (esc is lsm.AppendString, the order-preserving
// escaped string encoding); the "c/", "e/", and "r/" prefixes cannot
// collide with each other or with the archive keyspace. Every value is
// binary and reads back through one codec.Reader:
//
//	c/<esc peer>m                        -> checkpointMeta (appendMeta)
//	c/<esc peer>u<index be32>            -> unpublished transaction (updates.AppendTxn)
//	e/<esc peer>                         -> the image (engineblob.go)
//	r/<esc peer><seq be64>               -> trustEvent (appendEvent)
//
// Earlier layouts also kept the instance as one row per tuple under
// c/<esc peer>r; a recovery that meets them replays the whole archive, and
// the next image deletes them.
//
// The image turns recovery from O(history) into O(suffix). The published
// archive is the image's delta log: recovery restores the image and replays
// Since(W). The "r/" journal holds what that log cannot — when the peer did
// what with it since the image: where each reconciliation round ended
// (candidates judged together defer each other, candidates of separate
// rounds do not), where each local commit was accepted (the archive has the
// transaction, but at the epoch it was published), and each Resolve
// decision, which would otherwise regress to deferred.

const (
	ckPrefix = "c/"
	ekPrefix = "e/"
	rkPrefix = "r/"
)

// checkpointMeta is the record every checkpoint rewrites: the epoch the
// peer had reconciled up to, and where the local transaction counter stood.
// Both can be ahead of the image, whose own epoch is the blob's watermark.
type checkpointMeta struct {
	NextSeq   uint64
	LastEpoch uint64
}

// appendMeta appends the meta record: nextSeq, lastEpoch as uvarints.
func appendMeta(buf []byte, m checkpointMeta) []byte {
	buf = binary.AppendUvarint(buf, m.NextSeq)
	return binary.AppendUvarint(buf, m.LastEpoch)
}

func decodeMeta(data []byte) (checkpointMeta, error) {
	r := codec.NewReader(data, ErrBadEngineBlob)
	m := checkpointMeta{NextSeq: r.Uvarint(), LastEpoch: r.Uvarint()}
	return m, r.Done()
}

// decodeQueued decodes one unpublished-queue value.
func decodeQueued(data []byte) (*updates.Transaction, error) {
	r := codec.NewReader(data, ErrBadEngineBlob)
	t := &updates.Transaction{}
	updates.ReadTxn(r, t)
	return t, r.Done()
}

func ckBase(peer string) []byte {
	return lsm.AppendString([]byte(ckPrefix), peer)
}

func ckMetaKey(peer string) []byte { return append(ckBase(peer), 'm') }

func ckUnpubPrefix(peer string) []byte { return append(ckBase(peer), 'u') }

func ckUnpubKey(peer string, idx int) []byte {
	return binary.BigEndian.AppendUint32(ckUnpubPrefix(peer), uint32(idx))
}

func ekKey(peer string) []byte {
	return lsm.AppendString([]byte(ekPrefix), peer)
}

func rkBase(peer string) []byte {
	return lsm.AppendString([]byte(rkPrefix), peer)
}

func rkKey(peer string, seq uint64) []byte {
	return binary.BigEndian.AppendUint64(rkBase(peer), seq)
}

// trustEvent is one entry of the peer's journal of what it did to its trust
// state since the image, told apart by whose transaction it names: nobody's
// — a reconciliation round that judged every candidate up to AfterEpoch; the
// peer's own — a local commit, accepted unconditionally the moment it was
// made; anyone else's — a Peer.Resolve in favour of that winner. For the
// last two AfterEpoch is the peer's lastEpoch at the time. Recovery replays
// the journal in order against the published history: a round judges the
// candidates up to its epoch together, a commit or decision lands after the
// round its epoch names and before any later one.
type trustEvent struct {
	ID         updates.TxnID // zero for the end of a round
	AfterEpoch uint64
}

// appendEvent appends a journal record: peer, seq, afterEpoch.
func appendEvent(buf []byte, d trustEvent) []byte {
	buf = codec.AppendString(buf, d.ID.Peer)
	buf = binary.AppendUvarint(buf, d.ID.Seq)
	return binary.AppendUvarint(buf, d.AfterEpoch)
}

func decodeEvent(data []byte) (trustEvent, error) {
	r := codec.NewReader(data, ErrBadEngineBlob)
	d := trustEvent{ID: updates.TxnID{Peer: r.Str(), Seq: r.Uvarint()}, AfterEpoch: r.Uvarint()}
	return d, r.Done()
}

// blobRebaseDue is the rule that decides which checkpoints carry an engine
// blob. A blob is the whole engine, so writing one costs O(history); the
// archive already holds every transaction since the last one, so skipping
// it costs only replay at recovery. Rewriting once the engine has applied
// an eighth as many transactions again as the last blob covered keeps both
// bounded: blob bytes written per transaction stay constant (a geometric
// series, about nine times the final blob in total), and recovery replays
// at most a ninth of the history. The rule counts transactions, nothing
// timed, so two runs of one schedule write the same bytes.
func blobRebaseDue(covered, applied int) bool {
	return applied > covered && (applied-covered)*8 >= covered
}

// SaveCheckpoint brings the peer's durable state in db — the database the
// peer was recovered from — up to date as ONE atomic, fsynced lsm.Batch.
// Every checkpoint writes the (nextSeq, lastEpoch) meta record and the
// committed-but-unpublished queue, and its fsync makes the trust journal
// durable with them. When there is no image yet or blobRebaseDue says so,
// the batch also rewrites the image, the engine blob. A crash leaves either
// the old state or the new one, never a blend: the batch is a single WAL
// record, and recovery replays it all or not at all.
//
// An image folds the whole trust journal into the saved trust state, so the
// same batch clears the "r/" archive. A checkpoint without one (not due yet,
// or a failed Apply left the engine undefined and unencodable) keeps the
// previous image and the journal.
func (p *Peer) SaveCheckpoint(db *lsm.DB) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if db == nil || p.db != db {
		return fmt.Errorf("core: checkpoint %s: peer was not recovered from this database", p.name)
	}
	sp := p.obsv.checkpointSpan.Start(p.name)
	defer p.obsv.endSpan(sp, p.name)
	p.obsv.checkpoints.Inc()
	b := lsm.NewBatch()
	var totalBytes int64
	put := func(key, val []byte) {
		b.Put(key, val)
		totalBytes += int64(len(key) + len(val))
	}

	for i, t := range p.unpublished {
		put(ckUnpubKey(p.name, i), updates.AppendTxn(nil, t))
	}
	for i := len(p.unpublished); i < p.ckUnpub; i++ {
		b.Delete(ckUnpubKey(p.name, i))
	}
	put(ckMetaKey(p.name), appendMeta(nil, checkpointMeta{NextSeq: p.nextSeq, LastEpoch: p.lastEpoch}))

	applied := p.engine.AppliedCount()
	image := !p.engineDirty && (!p.hasBlob || blobRebaseDue(p.blobTxns, applied))
	if image {
		// The batch is encoded into the log record, so the image buffer is
		// free again once Apply returns: the next image reuses it.
		p.imageBuf = p.appendImage(p.imageBuf[:0])
		put(ekKey(p.name), p.imageBuf)
		for _, k := range p.staleRows {
			b.Delete(k)
		}
		// The saved trust state already reflects every journaled event.
		for i := range p.journalLen {
			b.Delete(rkKey(p.name, uint64(i)))
		}
	}

	if err := db.Apply(b, true); err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", p.name, err)
	}
	p.obsv.checkpointBytes.Set(totalBytes)
	p.ckUnpub = len(p.unpublished)
	if image {
		p.obsv.blobWrites.Inc()
		p.hasBlob, p.blobTxns, p.journalLen, p.staleRows = true, applied, 0, nil
	}
	return nil
}

// replayEngine brings an engine restored to epoch since — loaded from an
// engine blob of that watermark, or fresh at 0 — to where a live peer's
// stood at epoch upTo: it replays through eng what was published after since
// up to upTo. It returns the replayed transactions with their translations,
// and the store's epoch.
func replayEngine(ctx context.Context, eng *exchange.Engine, store p2p.Store, since, upTo uint64) ([]*updates.Transaction, []*exchange.Result, uint64, error) {
	txns, head, err := store.Since(since)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("fetch history: %w", err)
	}
	if i := slices.IndexFunc(txns, func(t *updates.Transaction) bool { return t.Epoch > upTo }); i >= 0 {
		txns = txns[:i]
	}
	results, err := eng.ApplyAll(ctx, txns)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("replay translations: %w", err)
	}
	return txns, results, head, nil
}

// RecoverPeerWith reconstructs a peer from its durable checkpoint in db
// plus the published history in store. The invariant it restores: the
// recovered peer is indistinguishable — instance rows, provenance, trust
// state (with it the last-writer index a commit's dependencies come from),
// engine state, unpublished queue, sequence counter, settled conflicts —
// from the same peer having processed the same history live.
//
// There is one path. The image — engine, instance and trust state —
// restores as a whole at its watermark W; with no usable blob everything
// starts empty and W is 0. Everything published after W is fetched and its
// translations replayed — a translation depends only on the transactions
// before it, never on how they were batched — then its trust decisions
// replay in epoch order, every outcome into the trust state and the
// instance, with the journaled rounds, commits and Resolve decisions at
// their recorded positions. blobRebaseDue keeps W close enough to the head
// that the replay is at most a ninth of the history.
func RecoverPeerWith(ctx context.Context, name string, sys *System, store p2p.Store, policy *recon.Policy, cfg exchange.Config, db *lsm.DB) (*Peer, error) {
	p, err := NewPeerWith(name, sys, store, policy, cfg)
	if err != nil {
		return nil, err
	}
	p.db = db
	fail := func(stage string, err error) (*Peer, error) {
		return nil, fmt.Errorf("core: recover peer %s: %s: %w", name, stage, err)
	}
	loadStart := time.Now()

	// Phase 1 — load the checkpoint: meta record, image, unpublished queue,
	// journal. No meta record means no checkpoint was ever taken: recovery
	// degenerates to a full-history replay from a fresh peer, the same code
	// path.
	meta := checkpointMeta{NextSeq: 1}
	var ckUnpublished []*updates.Transaction
	sn := db.Snapshot()
	raw, ok, err := sn.Get(ckMetaKey(name))
	if err == nil && ok {
		meta, err = decodeMeta(raw)
	}
	if err != nil {
		sn.Close()
		return fail("meta", err)
	}
	// A blob from another layout version is dropped, which leaves the
	// full-replay path below. The rounds and commits its trust state had
	// folded in are gone from the journal, so everything up to its epoch is
	// judged as one round: exact when that history held no conflict, and a
	// valid reconciliation of it otherwise.
	image, err := readEngineBlob(sn.Get, name)
	if err != nil {
		sn.Close()
		return fail("engine snapshot", err)
	}
	if image == nil {
		// Instance rows an earlier layout kept beside its blob are at an
		// epoch the replay cannot start from: loading them and replaying the
		// whole archive would apply their history twice. They are dropped,
		// and the next image deletes them.
		rows := append(ckBase(name), 'r')
		err = sn.Scan(rows, lsm.PrefixEnd(rows), func(k, _ []byte) bool {
			p.staleRows = append(p.staleRows, bytes.Clone(k))
			return true
		})
		if err != nil {
			sn.Close()
			return fail("earlier-layout rows", err)
		}
	}
	up := ckUnpubPrefix(name)
	err = sn.Walk(up, lsm.PrefixEnd(up), func(k, v []byte) error {
		t, err := decodeQueued(v)
		if err == nil {
			ckUnpublished = append(ckUnpublished, t)
		}
		return err
	})
	if err != nil {
		sn.Close()
		return fail("checkpoint unpublished", err)
	}
	var events []trustEvent
	rb := rkBase(name)
	err = sn.Walk(rb, lsm.PrefixEnd(rb), func(k, v []byte) error {
		d, err := decodeEvent(v)
		if err != nil {
			return err
		}
		// The journal is written at consecutive sequences from 0 and cleared
		// as a whole; archiveEvent relies on that to key the next record.
		if len(k) != len(rb)+8 || binary.BigEndian.Uint64(k[len(rb):]) != uint64(len(events)) {
			return fmt.Errorf("decision archive key %x out of sequence", k)
		}
		events = append(events, d)
		// A commit record whose transaction the crash took back still burns
		// its sequence number: reissuing it would leave two records for one
		// transaction id.
		if d.ID.Peer == name && d.ID.Seq >= p.nextSeq {
			p.nextSeq = d.ID.Seq + 1
		}
		return nil
	})
	sn.Close()
	if err != nil {
		return fail("checkpoint decisions", err)
	}
	if meta.NextSeq > p.nextSeq {
		p.nextSeq = meta.NextSeq
	}
	p.ckUnpub = len(ckUnpublished)
	p.journalLen = len(events)

	W := uint64(0)
	if image != nil {
		W, err = p.readImage(image)
		if err == nil && W > meta.LastEpoch {
			// A blob is written in the same atomic batch as a meta record of
			// its own epoch, and later checkpoints only raise that; a blob
			// from the future means the keyspace was tampered with.
			err = fmt.Errorf("watermark %d is past checkpoint epoch %d", W, meta.LastEpoch)
		}
		if err != nil {
			return fail("engine snapshot", err)
		}
		p.hasBlob, p.blobTxns = true, p.engine.AppliedCount()
	}
	p.recLoadNs = time.Since(loadStart).Nanoseconds()

	// Phase 2 — replay translations of the history the image does not
	// cover, leaving the engine exactly where a live peer's would be.
	txns, results, storeEpoch, err := replayEngine(ctx, p.engine, store, W, math.MaxUint64)
	if err != nil {
		return fail("replay history", err)
	}
	p.recReplayTxns = int64(len(txns))
	p.pendingRecovery = true

	// The bodies of our own transactions this recovery can see: published
	// after W, or queued at the checkpoint.
	own := map[updates.TxnID]*updates.Transaction{}
	for _, t := range ckUnpublished {
		own[t.ID] = t
	}
	for _, t := range txns {
		if t.ID.Peer == name {
			own[t.ID] = t
		}
	}

	// Phase 3 — replay the trust state's events in their live order.
	// Candidate runs are flushed through state.Reconcile at every journaled
	// trust event — the end of a live round, which judged exactly the
	// candidates up to its epoch together; a local commit or a Resolve
	// decision, which happened exactly between the epochs its AfterEpoch
	// records (acceptance order decides write conflicts). What lies past the
	// last journaled round is judged as one round, as the Reconcile the peer
	// would run next would. Every outcome applies to the instance too: the
	// rows are the image's, at W. What the blob's trust state already holds
	// is recognised by its status, never by which path led here.
	var run []*updates.Transaction
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		outcome, err := p.state.Reconcile(policy, run)
		if err != nil {
			return err
		}
		for _, t := range outcome.Accepted {
			if err := p.applyUpdates(t.Updates); err != nil {
				return err
			}
		}
		run = nil
		return nil
	}
	// acceptOwn re-enters one of our own transactions into the trust state
	// and the instance, unless the blob already holds it — and then so do
	// the rows.
	acceptOwn := func(t *updates.Transaction) error {
		if p.state.Status(t.ID) != recon.StatusUnknown {
			return nil
		}
		if err := p.applyUpdates(t.Updates); err != nil {
			return err
		}
		return p.state.AcceptLocal(t)
	}
	applyEvent := func(d trustEvent) error {
		id := d.ID
		if id.Peer == "" {
			return nil // the end of a round: the flush before this call was it
		}
		if id.Peer == name {
			// A local commit. Its record reaches the log before anything that
			// could make the transaction itself durable, so a record without
			// a body is a commit the crash took back.
			if t := own[id]; t != nil {
				return acceptOwn(t)
			}
			return nil
		}
		if p.state.Status(id) == recon.StatusAccepted {
			return nil // already settled; re-application is a no-op
		}
		outcome, err := p.state.Resolve(id)
		if err != nil {
			return err
		}
		for _, t := range outcome.Accepted {
			if err := p.applyUpdates(t.Updates); err != nil {
				return err
			}
		}
		return nil
	}
	di := 0
	for i, txn := range txns {
		for di < len(events) && events[di].AfterEpoch < txn.Epoch {
			if err := flush(); err != nil {
				return fail("replay decisions", err)
			}
			if err := applyEvent(events[di]); err != nil {
				return fail("reapply trust event", err)
			}
			di++
		}
		if txn.ID.Peer == name {
			// Our own published transaction: accepted already, where its
			// commit record stood. Only a commit made while the peer was not
			// attached to this database has none, and enters here, at the
			// one position the archive can give it.
			if p.state.Status(txn.ID) == recon.StatusUnknown {
				if err := flush(); err != nil {
					return fail("replay decisions", err)
				}
				if err := acceptOwn(txn); err != nil {
					return fail("accept own txn", err)
				}
			}
			if txn.ID.Seq >= p.nextSeq {
				p.nextSeq = txn.ID.Seq + 1
			}
			continue
		}
		run = append(run, p.candidate(txn, results[i]))
	}
	// Whatever is still unjudged lies past the last journaled round: judging
	// it now is a round of this peer's like any Reconcile, and journaled as
	// one, so the next recovery cuts its replay here too.
	newRound := len(run) > 0
	if err := flush(); err != nil {
		return fail("replay decisions", err)
	}
	for ; di < len(events); di++ {
		if err := applyEvent(events[di]); err != nil {
			return fail("reapply trust event", err)
		}
	}
	// The queue the checkpoint saved, less what was published between the
	// checkpoint and the crash: the archive has that, and the engine has
	// just replayed it. The queued commits are in the trust state by now —
	// from the blob or from their journal records — unless the blob that
	// folded them in was dropped; those re-enter here.
	for _, t := range ckUnpublished {
		if p.engine.Applied(t.ID) {
			continue
		}
		if err := acceptOwn(t); err != nil {
			return fail("restore unpublished", err)
		}
		p.unpublished = append(p.unpublished, t)
	}

	p.lastEpoch = max(storeEpoch, meta.LastEpoch)
	if newRound {
		if err := p.archiveEvent(trustEvent{AfterEpoch: p.lastEpoch}, false); err != nil {
			return fail("journal the recovery round", err)
		}
	}
	return p, nil
}
