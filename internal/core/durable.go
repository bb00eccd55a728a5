package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
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
// their full engine state into the same LSM database that holds the
// published archive (p2p.DurableStore, prefix "a/"), and recover after a
// crash by loading the checkpoint and replaying only the published suffix
// the checkpoint does not already cover.
//
// Checkpoint key layout (esc is lsm.AppendString, the order-preserving
// escaped string encoding); the "c/", "e/", and "r/" prefixes cannot
// collide with each other or with the archive keyspace:
//
//	c/<esc peer>m                        -> JSON checkpointMeta
//	c/<esc peer>r<esc rel><tuple bytes>  -> binary provenance polynomial (encodeProv)
//	c/<esc peer>u<index be32>            -> JSON p2p.WireTxn (unpublished)
//	e/<esc peer>                         -> engine snapshot blob (engineblob.go)
//	r/<esc peer><seq be64>               -> JSON resolveDecision
//
// The tuple decodes from the row key itself; the value holds only the
// stored annotation, so a checkpoint relation is a contiguous, key-ordered
// range.
//
// The "e/" blob turns recovery from O(history) into O(suffix): it captures
// the translation engine (union database, token log, base tokens, applied
// set), the reconciliation state, the dependency tracker, and the adaptive
// window's learned drain latency, all valid at the checkpoint epoch. The
// "r/" archive makes Resolve decisions durable between checkpoints:
// recovery re-applies them at their recorded position instead of letting
// settled conflicts regress to deferred.

const (
	ckPrefix = "c/"
	ekPrefix = "e/"
	rkPrefix = "r/"
)

// checkpointMeta is the atomically-swapped summary record: which epoch the
// rows reflect, and where the local transaction counter stood.
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

// resolveDecision is one archived Peer.Resolve outcome. AfterEpoch is the
// peer's lastEpoch when the decision was made: recovery re-applies the
// decision after replaying every transaction up to that epoch and before
// any later one, reproducing the live ordering. InstanceApplied is set when
// a later checkpoint captured the decision's instance effects in its rows
// but could not fold the trust-state transition into an engine snapshot (a
// dirty-engine checkpoint): recovery then repairs the trust state without
// double-applying the winner's updates.
type resolveDecision struct {
	WinnerPeer      string `json:"winner_peer"`
	WinnerSeq       uint64 `json:"winner_seq"`
	AfterEpoch      uint64 `json:"after_epoch"`
	InstanceApplied bool   `json:"instance_applied,omitempty"`
}

// ckPrefixEnd returns the tightest exclusive upper bound for a key prefix
// (nil means "to the end of the keyspace").
func ckPrefixEnd(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// encodeProv/decodeProv are the binary form of a provenance polynomial: a
// sum of coef·x1^k1·…·xn^kn monomials as varints with length-prefixed
// variable names. Serializing through Monomials keeps the codec independent
// of the polynomial's interned in-memory representation; checkpoint rows
// decode on every recovery, so the format is sized for that hot path (the
// earlier JSON form dominated snapshot-restore time).
func encodeProv(p provenance.Poly) ([]byte, error) {
	ms := p.Monomials()
	buf := binary.AppendUvarint(nil, uint64(len(ms)))
	for _, m := range ms {
		buf = binary.AppendUvarint(buf, m.Coef)
		buf = binary.AppendUvarint(buf, uint64(len(m.Vars)))
		for _, vp := range m.Vars {
			buf = binary.AppendUvarint(buf, uint64(len(vp.Var)))
			buf = append(buf, vp.Var...)
			buf = binary.AppendUvarint(buf, uint64(vp.Pow))
		}
	}
	return buf, nil
}

func decodeProv(data []byte) (provenance.Poly, error) {
	var d provDecoder
	return d.decode(data)
}

// provDecoder decodes a run of encodeProv values, carving the monomial and
// variable-power slices from chunked arenas so a recovery scan over
// thousands of rows pays a handful of allocations instead of several per
// row. FromCanonicalMonomials takes ownership of the slices it is handed,
// which is what makes arena-backed sub-slices sound: each decoded value
// gets its own disjoint reservation, never recycled.
type provDecoder struct {
	monoArena []provenance.Monomial
	vpArena   []provenance.VarPow
}

func (d *provDecoder) monos(n int) []provenance.Monomial {
	if n > cap(d.monoArena)-len(d.monoArena) {
		size := 1024
		if n > size {
			size = n
		}
		d.monoArena = make([]provenance.Monomial, 0, size)
	}
	s := d.monoArena[len(d.monoArena) : len(d.monoArena) : len(d.monoArena)+n]
	d.monoArena = d.monoArena[:len(d.monoArena)+n]
	return s
}

func (d *provDecoder) varPows(n int) []provenance.VarPow {
	if n > cap(d.vpArena)-len(d.vpArena) {
		size := 2048
		if n > size {
			size = n
		}
		d.vpArena = make([]provenance.VarPow, 0, size)
	}
	s := d.vpArena[len(d.vpArena) : len(d.vpArena) : len(d.vpArena)+n]
	d.vpArena = d.vpArena[:len(d.vpArena)+n]
	return s
}

func (d *provDecoder) decode(data []byte) (provenance.Poly, error) {
	bad := func() (provenance.Poly, error) {
		return provenance.Poly{}, fmt.Errorf("core: truncated provenance encoding")
	}
	uvar := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	nMonos, ok := uvar()
	if !ok {
		return bad()
	}
	ms := d.monos(int(nMonos))
	for i := uint64(0); i < nMonos; i++ {
		m := provenance.Monomial{}
		if m.Coef, ok = uvar(); !ok {
			return bad()
		}
		nVars, ok := uvar()
		if !ok {
			return bad()
		}
		m.Vars = d.varPows(int(nVars))
		for j := uint64(0); j < nVars; j++ {
			l, ok := uvar()
			if !ok || uint64(len(data)) < l {
				return bad()
			}
			v := provenance.Var(data[:l])
			data = data[l:]
			pow, ok := uvar()
			if !ok {
				return bad()
			}
			m.Vars = append(m.Vars, provenance.VarPow{Var: v, Pow: int(pow)})
		}
		ms = append(ms, m)
	}
	if len(data) != 0 {
		return provenance.Poly{}, fmt.Errorf("core: %d trailing bytes after provenance encoding", len(data))
	}
	return provenance.FromCanonicalMonomials(ms), nil
}

// SaveCheckpoint writes the peer's durable state — every local instance row
// with its provenance, the committed-but-unpublished transaction queue, the
// (nextSeq, lastEpoch) meta record, and (engine permitting) the engine
// snapshot blob — as ONE atomic, fsynced lsm.Batch that also deletes
// whatever the previous checkpoint wrote and this one did not. A crash
// therefore leaves either the old checkpoint or the new one, never a blend:
// the batch is a single WAL record, and recovery replays it all or not at
// all.
//
// The engine snapshot folds every archived Resolve decision into the saved
// trust state, so the same batch clears the decision archive. A dirty
// engine (a failed Apply left it undefined) cannot snapshot: the stale blob
// is deleted in the batch, and the decision archive is instead rewritten to
// record that its instance effects are now covered by the checkpoint rows.
func (p *Peer) SaveCheckpoint(db *lsm.DB) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.obsv.startSpan("core_checkpoint", p.name)
	defer p.obsv.endSpan(sp, p.name)
	p.obsv.checkpoints.Inc()
	b := lsm.NewBatch()
	var totalBytes int64
	live := map[string]bool{}
	s := p.sys.Schema(p.name)
	for _, rel := range s.Relations() {
		rows, _ := p.local.Rows(rel.Name)
		for _, row := range rows {
			key := ckRowKey(p.name, rel.Name, row.Tuple)
			val, err := encodeProv(row.Prov)
			if err != nil {
				return fmt.Errorf("core: checkpoint %s: encode provenance: %w", p.name, err)
			}
			b.Put(key, val)
			totalBytes += int64(len(key) + len(val))
			live[string(key)] = true
		}
	}
	for i, t := range p.unpublished {
		data, err := json.Marshal(p2p.EncodeTxn(t))
		if err != nil {
			return fmt.Errorf("core: checkpoint %s: encode unpublished txn: %w", p.name, err)
		}
		key := ckUnpubKey(p.name, i)
		b.Put(key, data)
		totalBytes += int64(len(key) + len(data))
		live[string(key)] = true
	}
	meta, err := json.Marshal(checkpointMeta{NextSeq: p.nextSeq, LastEpoch: p.lastEpoch})
	if err != nil {
		return err
	}
	mk := ckMetaKey(p.name)
	b.Put(mk, meta)
	totalBytes += int64(len(mk) + len(meta))
	live[string(mk)] = true

	sn := db.Snapshot()
	defer sn.Close()
	ek := ekKey(p.name)
	rb := rkBase(p.name)
	snapshotted := !p.engineDirty
	if snapshotted {
		engBlob, err := p.engine.SaveState()
		if err != nil {
			return fmt.Errorf("core: checkpoint %s: engine state: %w", p.name, err)
		}
		blob, err := encodeEngineBlob(p.lastEpoch, p.win.PerTxnSeconds(), engBlob, p.state.Save(), p.tracker.Save())
		if err != nil {
			return fmt.Errorf("core: checkpoint %s: engine snapshot: %w", p.name, err)
		}
		b.Put(ek, blob)
		totalBytes += int64(len(ek) + len(blob))
		// The saved trust state already reflects every archived decision;
		// clear the archive in the same atomic batch.
		err = sn.Scan(rb, ckPrefixEnd(rb), func(k, v []byte) bool {
			b.Delete(append([]byte(nil), k...))
			return true
		})
		if err != nil {
			return fmt.Errorf("core: checkpoint %s: sweep decisions: %w", p.name, err)
		}
	} else {
		b.Delete(ek)
		// Keep the decisions (a snapshot-less recovery still needs them to
		// repair the trust state) but mark their instance effects as covered
		// by the rows this checkpoint writes.
		var derr error
		err = sn.Scan(rb, ckPrefixEnd(rb), func(k, v []byte) bool {
			var d resolveDecision
			if e := json.Unmarshal(v, &d); e != nil {
				derr = e
				return false
			}
			if !d.InstanceApplied {
				d.InstanceApplied = true
				data, e := json.Marshal(d)
				if e != nil {
					derr = e
					return false
				}
				b.Put(append([]byte(nil), k...), data)
			}
			return true
		})
		if err == nil {
			err = derr
		}
		if err != nil {
			return fmt.Errorf("core: checkpoint %s: rewrite decisions: %w", p.name, err)
		}
	}

	// Sweep the previous checkpoint: any key under this peer's prefix that
	// the new checkpoint does not reassert is deleted in the same batch, so
	// deleted rows and drained unpublished slots cannot leak back in.
	base := ckBase(p.name)
	err = sn.Scan(base, ckPrefixEnd(base), func(k, v []byte) bool {
		if !live[string(k)] {
			b.Delete(append([]byte(nil), k...))
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("core: checkpoint %s: sweep previous: %w", p.name, err)
	}
	if err := db.Apply(b, true); err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", p.name, err)
	}
	if snapshotted {
		p.resolveSeq = 0
	}
	p.obsv.checkpointBytes.Set(totalBytes)
	return nil
}

// RecoverPeerWith reconstructs a peer from its durable checkpoint in db
// plus the published history in store. The invariant it restores: the
// recovered peer is indistinguishable — instance rows, provenance, trust
// state, dependency tracker, engine state, unpublished queue, sequence
// counter, settled conflicts — from the same peer having processed the same
// history live.
//
// With an engine snapshot ("e/" blob) the whole recovery is O(suffix): the
// engine, trust state, and tracker restore from the blob, only
// transactions with epoch > the snapshot's watermark are fetched and
// replayed, and archived Resolve decisions re-apply at their recorded
// positions. Without a snapshot (no checkpoint ever, or the last one found
// the engine dirty) recovery falls back to a full-history replay: the
// checkpoint rows still spare the instance re-application for epochs ≤
// LastEpoch (E), while translations and trust decisions replay from epoch
// 0 — relying on ApplyAll's pinned batch-composition property — and
// archived decisions repair the otherwise-regressed conflict state.
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

	// Phase 1 — load the checkpoint: meta record, engine snapshot blob,
	// instance rows, unpublished queue, archived decisions. No meta record
	// means no checkpoint was ever taken: recovery degenerates to a
	// full-history replay from a fresh peer (E = 0), the same code path.
	meta := checkpointMeta{NextSeq: 1}
	var ckUnpublished []*updates.Transaction
	var snap *engineSnapshot
	var decisions []resolveDecision
	sn := db.Snapshot()
	if raw, ok, err := sn.Get(ckMetaKey(name)); err != nil {
		sn.Close()
		return fail("read meta", err)
	} else if ok {
		if err := json.Unmarshal(raw, &meta); err != nil {
			sn.Close()
			return fail("decode meta", err)
		}
	}
	if raw, ok, err := sn.Get(ekKey(name)); err != nil {
		sn.Close()
		return fail("read engine snapshot", err)
	} else if ok {
		if snap, err = decodeEngineBlob(raw); err != nil {
			sn.Close()
			return fail("decode engine snapshot", err)
		}
	}
	rp := ckRowPrefix(name)
	var derr error
	var pd provDecoder
	err = sn.Scan(rp, ckPrefixEnd(rp), func(k, v []byte) bool {
		rel, rest, e := lsm.DecodeString(k[len(rp):])
		if e != nil {
			derr = e
			return false
		}
		tu, e := lsm.DecodeTuple(rest)
		if e != nil {
			derr = e
			return false
		}
		prov, e := pd.decode(v)
		if e != nil {
			derr = e
			return false
		}
		if _, e := p.local.Upsert(rel, tu, prov); e != nil {
			derr = e
			return false
		}
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		sn.Close()
		return fail("checkpoint rows", err)
	}
	up := ckUnpubPrefix(name)
	derr = nil
	err = sn.Scan(up, ckPrefixEnd(up), func(k, v []byte) bool {
		var w p2p.WireTxn
		if e := json.Unmarshal(v, &w); e != nil {
			derr = e
			return false
		}
		t, e := p2p.DecodeTxn(w)
		if e != nil {
			derr = e
			return false
		}
		ckUnpublished = append(ckUnpublished, t)
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		sn.Close()
		return fail("checkpoint unpublished", err)
	}
	rb := rkBase(name)
	derr = nil
	err = sn.Scan(rb, ckPrefixEnd(rb), func(k, v []byte) bool {
		var d resolveDecision
		if e := json.Unmarshal(v, &d); e != nil {
			derr = e
			return false
		}
		decisions = append(decisions, d)
		if len(k) >= len(rb)+8 {
			if seq := binary.BigEndian.Uint64(k[len(rb):]); seq >= p.resolveSeq {
				p.resolveSeq = seq + 1
			}
		}
		return true
	})
	sn.Close()
	if err == nil {
		err = derr
	}
	if err != nil {
		return fail("checkpoint decisions", err)
	}
	p.nextSeq = meta.NextSeq
	E := meta.LastEpoch

	restored := snap != nil
	if restored {
		if snap.Watermark != E {
			// Blob and meta are written in the same atomic batch; a mismatch
			// means the keyspace was tampered with.
			return fail("engine snapshot", fmt.Errorf("watermark %d != checkpoint epoch %d", snap.Watermark, E))
		}
		if err := p.engine.LoadState(snap.Engine); err != nil {
			return fail("restore engine", err)
		}
		if err := p.state.Restore(snap.State); err != nil {
			return fail("restore trust state", err)
		}
		p.tracker.Restore(snap.Writers)
		p.win.SeedPerTxn(snap.PerTxn)
	}
	p.recLoadNs = time.Since(loadStart).Nanoseconds()

	// Phase 2 — fetch the history the restored state does not cover (the
	// suffix after E with a snapshot, everything without one) and replay
	// translations through the engine in adaptive windows (same
	// group-commit shape as Reconcile), leaving the engine exactly where a
	// live peer's would be.
	sinceEpoch := uint64(0)
	if restored {
		sinceEpoch = E
	}
	txns, storeEpoch, err := store.Since(sinceEpoch)
	if err != nil {
		return fail("fetch history", err)
	}
	p.recReplayTxns = int64(len(txns))
	p.pendingRecovery = true
	results := make([]*exchange.Result, 0, len(txns))
	for rest := txns; len(rest) > 0; {
		n := p.win.Next(len(rest))
		start := time.Now()
		rs, err := p.engine.ApplyAll(ctx, rest[:n])
		if err != nil {
			return fail("replay translations", err)
		}
		p.win.Observe(n, time.Since(start))
		results = append(results, rs...)
		rest = rest[n:]
	}

	// A checkpoint-unpublished transaction that later shows up in the store
	// was published in the window between the checkpoint and the crash: it
	// re-enters the trust state at its epoch slot and must NOT be restored
	// to the unpublished queue (the archive already has it).
	ownInStore := map[updates.TxnID]bool{}
	for _, t := range txns {
		if t.ID.Peer == name {
			ownInStore[t.ID] = true
		}
	}
	inCk := map[updates.TxnID]bool{}
	for _, t := range ckUnpublished {
		inCk[t.ID] = true
	}

	// Phase 3 — replay decisions in epoch order. Candidate runs are flushed
	// through state.Reconcile at every boundary that changes what "applying
	// the outcome" means: at each of our own transactions (AcceptLocal must
	// interleave at its true position — acceptance order decides write
	// conflicts), at each archived Resolve decision (the decision settled
	// conflicts exactly between the epochs its AfterEpoch records), and at
	// the E boundary (outcomes at epochs ≤ E are already reflected in the
	// checkpoint rows and must not re-apply; outcomes after E must).
	// Batch-insensitivity of state.Reconcile makes the coarser replay
	// partitioning equivalent to the original round structure. With a
	// restored snapshot every fetched transaction is post-E, so every
	// outcome applies and the trust state picks up where the blob left off.
	var run []*updates.Transaction
	var runRes []*exchange.Result
	runPre := false
	flush := func(pre bool) error {
		if len(run) == 0 {
			return nil
		}
		cands := make([]*updates.Transaction, 0, len(run))
		for i, txn := range run {
			cands = append(cands, &updates.Transaction{
				ID:      txn.ID,
				Epoch:   txn.Epoch,
				Updates: runRes[i].PerPeer[name],
				Deps:    mergeDeps(txn.Deps, runRes[i].ExtraDeps[name]),
			})
		}
		outcome, err := p.state.Reconcile(policy, cands)
		if err != nil {
			return err
		}
		for _, t := range outcome.Accepted {
			if !pre {
				if err := p.applyUpdates(t.Updates); err != nil {
					return err
				}
			}
			// RecordWrites, not Record: replay must restore the archived
			// dependency edges, not recompute them against replay-time state.
			p.tracker.RecordWrites(t)
		}
		run, runRes = nil, nil
		return nil
	}
	restoreUnpublished := func() error {
		for _, t := range ckUnpublished {
			if ownInStore[t.ID] {
				continue
			}
			// With a restored snapshot the blob's trust state and tracker
			// already hold these (they were accepted at commit time, before
			// the checkpoint); only the queue needs rebuilding.
			if !restored {
				if err := p.state.AcceptLocal(t); err != nil {
					return err
				}
				p.tracker.RecordWrites(t)
			}
			p.unpublished = append(p.unpublished, t)
		}
		return nil
	}
	applyDecision := func(d resolveDecision) error {
		winner := updates.TxnID{Peer: d.WinnerPeer, Seq: d.WinnerSeq}
		if p.state.Status(winner) == recon.StatusAccepted {
			return nil // already settled; re-application is a no-op
		}
		outcome, err := p.state.Resolve(winner)
		if err != nil {
			return err
		}
		for _, t := range outcome.Accepted {
			if !d.InstanceApplied {
				if err := p.applyUpdates(t.Updates); err != nil {
					return err
				}
			}
			p.tracker.RecordWrites(t)
		}
		return nil
	}
	di := 0
	crossed := false
	for i, txn := range txns {
		for di < len(decisions) && decisions[di].AfterEpoch < txn.Epoch {
			if err := flush(runPre); err != nil {
				return fail("replay decisions", err)
			}
			if err := applyDecision(decisions[di]); err != nil {
				return fail("reapply resolve decision", err)
			}
			di++
		}
		pre := txn.Epoch <= E
		if !pre && !crossed {
			// Entering the post-checkpoint suffix: settle everything the
			// checkpoint covers, then re-accept the never-published local
			// commits — they were trusted before the crash, so they must be
			// in the trust state before any suffix candidate is judged.
			if err := flush(true); err != nil {
				return fail("replay decisions", err)
			}
			if err := restoreUnpublished(); err != nil {
				return fail("restore unpublished", err)
			}
			crossed = true
		}
		if txn.ID.Peer == name {
			if err := flush(runPre); err != nil {
				return fail("replay decisions", err)
			}
			// Our own published transaction. With a restored snapshot it may
			// already be in the trust state (it sat in the unpublished queue
			// at checkpoint time and published before the crash); otherwise
			// its effects are in the checkpoint if it published before the
			// checkpoint (epoch ≤ E) or was in the checkpointed unpublished
			// queue, and it must re-apply if it committed after.
			known := p.state.Status(txn.ID) != recon.StatusUnknown
			if !known {
				if !pre && !inCk[txn.ID] {
					if err := p.applyUpdates(txn.Updates); err != nil {
						return fail("reapply own txn", err)
					}
				}
				if err := p.state.AcceptLocal(txn); err != nil {
					return fail("accept own txn", err)
				}
				p.tracker.RecordWrites(txn)
			}
			if txn.ID.Seq >= p.nextSeq {
				p.nextSeq = txn.ID.Seq + 1
			}
			continue
		}
		run = append(run, txn)
		runRes = append(runRes, results[i])
		runPre = pre
	}
	if err := flush(runPre); err != nil {
		return fail("replay decisions", err)
	}
	for ; di < len(decisions); di++ {
		if err := applyDecision(decisions[di]); err != nil {
			return fail("reapply resolve decision", err)
		}
	}
	if !crossed {
		if err := restoreUnpublished(); err != nil {
			return fail("restore unpublished", err)
		}
	}

	p.lastEpoch = storeEpoch
	if E > p.lastEpoch {
		p.lastEpoch = E
	}
	return p, nil
}
