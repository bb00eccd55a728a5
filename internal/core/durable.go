package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/p2p"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// This file is the peer-side half of the durable tier: peers checkpoint
// their state into the same LSM database that holds the published archive
// (p2p.DurableStore, prefix "a/"), and recover after a crash by loading the
// checkpoint image and replaying only the published suffix it does not
// already cover. The image is the engine blob and the instance rows, both at
// one epoch W; a checkpoint rewrites it when there is none yet or
// blobRebaseDue says so, and otherwise writes only the meta record and the
// unpublished queue.
//
// Checkpoint key layout (esc is lsm.AppendString, the order-preserving
// escaped string encoding); the "c/", "e/", and "r/" prefixes cannot
// collide with each other or with the archive keyspace:
//
//	c/<esc peer>m                        -> JSON checkpointMeta
//	c/<esc peer>r<esc rel><tuple bytes>  -> binary provenance polynomial (encodeProv)
//	c/<esc peer>u<index be32>            -> JSON p2p.WireTxn (unpublished)
//	e/<esc peer>                         -> engine snapshot blob (engineblob.go)
//	r/<esc peer><seq be64>               -> JSON trustEvent
//
// The tuple decodes from the row key itself; the value holds only the
// stored annotation, so a checkpoint relation is a contiguous, key-ordered
// range.
//
// The image turns recovery from O(history) into O(suffix): the "e/" blob
// captures the translation engine (union database, dead and base tokens,
// applied set), the reconciliation state and the dependency tracker, and the
// "c/" rows the instance, all valid at the blob's watermark W. The published
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
	NextSeq   uint64 `json:"next_seq"`
	LastEpoch uint64 `json:"last_epoch"`
}

func ckBase(peer string) []byte {
	return lsm.AppendString([]byte(ckPrefix), peer)
}

func ckMetaKey(peer string) []byte { return append(ckBase(peer), 'm') }

func ckRowPrefix(peer string) []byte { return append(ckBase(peer), 'r') }

func ckRelPrefix(peer, rel string) []byte {
	return lsm.AppendString(ckRowPrefix(peer), rel)
}

func ckRowKey(peer, rel string, tu schema.Tuple) []byte {
	return lsm.AppendTuple(ckRelPrefix(peer, rel), tu)
}

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
// round its epoch names and before any later one. (The field names predate
// the other two kinds.)
type trustEvent struct {
	WinnerPeer string `json:"winner_peer"`
	WinnerSeq  uint64 `json:"winner_seq"`
	AfterEpoch uint64 `json:"after_epoch"`
}

// encodeProv/provDecoder are the binary form of a provenance polynomial: a
// sum of monomials as varints with length-prefixed variable names, in the
// layout of N[X]'s coef·x1^k1·…·xn^kn — encodeProv writes 1 in every
// coefficient and power slot. The codec writes names, read monomial by
// monomial through NumMonomials/Monomial, so it is independent of the
// polynomial's in-memory token ids and node layout; provDecoder writes
// straight into that layout through a provenance.Arena. Checkpoint rows
// decode on every recovery, so the format is sized for that hot path (the
// earlier JSON form dominated snapshot-restore time).
func encodeProv(p provenance.Poly) ([]byte, error) {
	buf := binary.AppendUvarint(nil, uint64(p.NumMonomials()))
	for i := range p.NumMonomials() {
		m := p.Monomial(i)
		buf = binary.AppendUvarint(buf, 1) // coefficient
		buf = binary.AppendUvarint(buf, uint64(len(m)))
		for _, t := range m {
			x := t.Var()
			buf = binary.AppendUvarint(buf, uint64(len(x)))
			buf = append(buf, x...)
			buf = binary.AppendUvarint(buf, 1) // power
		}
	}
	return buf, nil
}

// ErrBadProv reports bytes provDecoder refuses: cut short, followed by
// trailing bytes, or holding a zero coefficient, a power other than 1, or
// monomials out of canonical order. Any coefficient from 1 up reads as
// presence: rows written while the instance summed re-inserts hold 2.
var ErrBadProv = errors.New("core: malformed provenance encoding")

// provDecoder decodes a run of encodeProv values — a recovery scan over
// thousands of checkpoint rows, an engine blob's transactions — carving
// their storage from one provenance.Arena, so the run pays a handful of
// allocations instead of several per value.
type provDecoder struct {
	arena provenance.Arena
}

func (d *provDecoder) decode(data []byte) (provenance.Poly, error) {
	bad := func(what string) (provenance.Poly, error) {
		return provenance.Poly{}, fmt.Errorf("%w: %s", ErrBadProv, what)
	}
	uvar := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	// Every monomial takes at least two bytes and every variable at least
	// two, so a count the remaining bytes cannot hold is corrupt — refused
	// before it sizes an arena reservation.
	nMonos, ok := uvar()
	if !ok || nMonos > uint64(len(data))/2 {
		return bad("truncated")
	}
	d.arena.Begin(int(nMonos))
	for i := uint64(0); i < nMonos; i++ {
		coef, ok := uvar()
		if !ok {
			return bad("truncated")
		}
		if coef == 0 {
			return bad("zero coefficient")
		}
		nVars, ok := uvar()
		if !ok || nVars > uint64(len(data))/2 {
			return bad("truncated")
		}
		for j := uint64(0); j < nVars; j++ {
			l, ok := uvar()
			if !ok || uint64(len(data)) < l {
				return bad("truncated")
			}
			x := provenance.Mint(provenance.Var(data[:l]))
			data = data[l:]
			pow, ok := uvar()
			if !ok {
				return bad("truncated")
			}
			if pow != 1 {
				return bad(fmt.Sprintf("power %d: a witness holds each variable once", pow))
			}
			d.arena.Add(x)
		}
		d.arena.End()
	}
	if len(data) != 0 {
		return bad(fmt.Sprintf("%d trailing bytes", len(data)))
	}
	p, err := d.arena.Poly()
	if err != nil {
		return provenance.Poly{}, fmt.Errorf("%w: %w", ErrBadProv, err)
	}
	return p, nil
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
// the batch also rewrites the image: the engine blob, and a Put of the
// current annotation (or a Delete, if the tuple is gone) for every row
// applyUpdates touched since the previous image. A crash leaves either the
// old state or the new one, never a blend: the batch is a single WAL record,
// and recovery replays it all or not at all.
//
// An image folds the whole trust journal into the saved trust state, so the
// same batch clears the "r/" archive. A checkpoint without one (not due yet,
// or a failed Apply left the engine undefined and unencodable) keeps the
// previous image and the journal, and its dirty rows wait for the next.
func (p *Peer) SaveCheckpoint(db *lsm.DB) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if db == nil || p.db != db {
		return fmt.Errorf("core: checkpoint %s: peer was not recovered from this database", p.name)
	}
	sp := p.obsv.startSpan("core_checkpoint", p.name)
	defer p.obsv.endSpan(sp, p.name)
	p.obsv.checkpoints.Inc()
	fail := func(stage string, err error) error {
		return fmt.Errorf("core: checkpoint %s: %s: %w", p.name, stage, err)
	}
	b := lsm.NewBatch()
	var totalBytes int64
	put := func(key, val []byte) {
		b.Put(key, val)
		totalBytes += int64(len(key) + len(val))
	}

	for i, t := range p.unpublished {
		data, err := json.Marshal(p2p.EncodeTxn(t))
		if err != nil {
			return fail("encode unpublished txn", err)
		}
		put(ckUnpubKey(p.name, i), data)
	}
	for i := len(p.unpublished); i < p.ckUnpub; i++ {
		b.Delete(ckUnpubKey(p.name, i))
	}
	meta, err := json.Marshal(checkpointMeta{NextSeq: p.nextSeq, LastEpoch: p.lastEpoch})
	if err != nil {
		return fail("encode meta", err)
	}
	put(ckMetaKey(p.name), meta)

	applied := p.engine.AppliedCount()
	image := !p.engineDirty && (!p.hasBlob || blobRebaseDue(p.blobTxns, applied))
	var keys []string
	if image {
		engBlob, err := p.engine.SaveState()
		if err != nil {
			return fail("engine state", err)
		}
		blob, err := encodeEngineBlob(p.lastEpoch, engBlob, p.state.Save(), p.tracker.Save())
		if err != nil {
			return fail("engine snapshot", err)
		}
		put(ekKey(p.name), blob)
		// Sorted, so the batch — and with it the WAL — is a function of the
		// schedule, not of map iteration order.
		keys = slices.Sorted(maps.Keys(p.dirty))
		for _, k := range keys {
			d := p.dirty[k]
			row, ok := p.local.Table(d.rel).Get(d.tu)
			if !ok {
				b.Delete([]byte(k))
				continue
			}
			val, err := encodeProv(row.Prov)
			if err != nil {
				return fail("encode provenance", err)
			}
			put([]byte(k), val)
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
		// The image now matches memory; only now forget what made it differ.
		p.obsv.checkpointRows.Add(int64(len(keys)))
		p.obsv.blobWrites.Inc()
		clear(p.dirty)
		p.hasBlob, p.blobTxns, p.journalLen = true, applied, 0
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
// state, dependency tracker, engine state, unpublished queue, sequence
// counter, settled conflicts — from the same peer having processed the same
// history live.
//
// There is one path. The image — engine, trust state, tracker and instance
// rows — restores as a whole at its watermark W; with no usable blob
// everything starts empty and W is 0. Everything published after W is
// fetched and its translations replayed — a translation depends only on the
// transactions before it, never on how they were batched — then its trust
// decisions replay in epoch order, every outcome into the trust state, the
// tracker and the instance, with the journaled rounds, commits and Resolve
// decisions at their recorded positions. blobRebaseDue keeps W close enough
// to the head that the replay is at most a ninth of the history.
func RecoverPeerWith(ctx context.Context, name string, sys *System, store p2p.Store, policy *recon.Policy, cfg exchange.Config, db *lsm.DB) (*Peer, error) {
	p, err := NewPeerWith(name, sys, store, policy, cfg)
	if err != nil {
		return nil, err
	}
	p.db, p.dirty = db, map[string]dirtyRow{}
	fail := func(stage string, err error) (*Peer, error) {
		return nil, fmt.Errorf("core: recover peer %s: %s: %w", name, stage, err)
	}
	loadStart := time.Now()

	// Phase 1 — load the checkpoint: meta record, engine snapshot blob,
	// instance rows, unpublished queue, journal. No meta record means no
	// checkpoint was ever taken: recovery degenerates to a full-history
	// replay from a fresh peer, the same code path.
	meta := checkpointMeta{NextSeq: 1}
	var ckUnpublished []*updates.Transaction
	sn := db.Snapshot()
	raw, ok, err := sn.Get(ckMetaKey(name))
	if err == nil && ok {
		err = json.Unmarshal(raw, &meta)
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
	snap, err := readEngineBlob(sn.Get, name)
	if err == nil && snap != nil && snap.Watermark > meta.LastEpoch {
		// A blob is written in the same atomic batch as a meta record of its
		// own epoch, and later checkpoints only raise that; a blob from the
		// future means the keyspace was tampered with.
		err = fmt.Errorf("watermark %d is past checkpoint epoch %d", snap.Watermark, meta.LastEpoch)
	}
	if err != nil {
		sn.Close()
		return fail("engine snapshot", err)
	}
	rp := ckRowPrefix(name)
	var pd provDecoder
	err = sn.Walk(rp, lsm.PrefixEnd(rp), func(k, v []byte) error {
		rel, rest, err := lsm.DecodeString(k[len(rp):])
		if err != nil {
			return err
		}
		tu, err := lsm.DecodeTuple(rest)
		if err != nil {
			return err
		}
		if snap == nil {
			// Rows without a usable blob are at an epoch the replay cannot
			// start from: loading them and replaying the whole archive would
			// apply their history twice. They are dropped, and the next
			// image deletes whichever the replay does not rewrite.
			p.touch(rel, tu)
			return nil
		}
		prov, err := pd.decode(v)
		if err != nil {
			return err
		}
		_, err = p.local.Upsert(rel, tu, prov)
		return err
	})
	if err != nil {
		sn.Close()
		return fail("checkpoint rows", err)
	}
	up := ckUnpubPrefix(name)
	err = sn.Walk(up, lsm.PrefixEnd(up), func(k, v []byte) error {
		var w p2p.WireTxn
		if err := json.Unmarshal(v, &w); err != nil {
			return err
		}
		t, err := p2p.DecodeTxn(w)
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
		var d trustEvent
		if err := json.Unmarshal(v, &d); err != nil {
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
		if d.WinnerPeer == name && d.WinnerSeq >= p.nextSeq {
			p.nextSeq = d.WinnerSeq + 1
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
	if snap != nil {
		if err := p.engine.LoadState(snap.Engine); err != nil {
			return fail("restore engine", err)
		}
		if err := p.state.Restore(snap.State); err != nil {
			return fail("restore trust state", err)
		}
		p.tracker.Restore(snap.Writers)
		W, p.hasBlob, p.blobTxns = snap.Watermark, true, p.engine.AppliedCount()
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
			// RecordWrites, not Record: replay must restore the archived
			// dependency edges, not recompute them against replay-time state.
			p.tracker.RecordWrites(t)
		}
		run = nil
		return nil
	}
	// acceptOwn re-enters one of our own transactions into the trust state,
	// the tracker and the instance, unless the blob already holds it — and
	// then so do the rows.
	acceptOwn := func(t *updates.Transaction) error {
		if p.state.Status(t.ID) != recon.StatusUnknown {
			return nil
		}
		if err := p.applyUpdates(t.Updates); err != nil {
			return err
		}
		if err := p.state.AcceptLocal(t); err != nil {
			return err
		}
		p.tracker.RecordWrites(t)
		return nil
	}
	applyEvent := func(d trustEvent) error {
		id := updates.TxnID{Peer: d.WinnerPeer, Seq: d.WinnerSeq}
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
			p.tracker.RecordWrites(t)
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
