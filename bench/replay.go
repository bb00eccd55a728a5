package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/datalog"
	"orchestra/internal/datalog/magic"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/mapping"
	"orchestra/internal/obs"
	"orchestra/internal/p2p"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
)

// replayOut is what the staged layer replay measured: the very transactions
// and queries of the traced run, fed straight into each layer's public
// entry points, one layer at a time. Times are ms unless named otherwise.
type replayOut struct {
	// exchange
	applyInsertMs, applyDeleteMs float64 // totals over the measured rounds
	insertTxns, deleteTxns       int
	saveStateMs, loadStateMs     float64
	stateBytes                   int
	recomputeMs                  float64
	// datalog under exchange (Incremental fed the same base facts)
	incrementalMs float64
	fullEvalMs    float64 // EvalCtx, annotations on
	fullEvalNoMs  float64 // EvalCtx, annotations off
	// datalog under queries: per evaluated query, and the totals those
	// samples stand for once scaled to every query of the run
	goalEvalMs  []float64
	goalFullMs  []float64
	queryMs     float64 // all queries, annotations on
	queryProvMs float64 // the part of queryMs annotations cost
	mirrorMs    float64 // keeping the reader's query mirror in step with its instance
	// recon and storage, at the reader
	reconMs, resolveMs, storageMs float64
	reconTxns, storageUps         int
	// the committing side: AcceptLocal and the publisher's own instance writes
	reconLocalMs, storageLocalMs float64
	// twin is the reader's instance as the replay rebuilt it.
	twin *storage.Instance
	// p2p codec, over the whole history
	encodeMsPerTxn, decodeMsPerTxn float64
	encodedBytesPerTxn             int64
	codecTxns                      int
	// lsm (durable only)
	syncApplyMs  []float64
	lsmEventsMs  float64 // the traced run's durable writes replayed, total
	lsmArchiveMs float64 // the archive-batch share of lsmEventsMs
	getUs        []float64
	scanMBPerS   float64
	// scanCheckpointMs prices the range scan a checkpoint's sweep makes, on
	// the run's own database at its end.
	scanCheckpointMs float64
	medianBatch      int64
	monomials        []float64 // per sampled reader tuple
}

// replayLayers runs the staged replay for a finished traced run.
func replayLayers(o *runOut) (*replayOut, error) {
	p, e := o.plan, o.env
	ctx := context.Background()
	out := &replayOut{}
	history, _, err := e.store.Since(0)
	if err != nil {
		return nil, err
	}
	if err := replayReader(ctx, p, history, out); err != nil {
		return nil, fmt.Errorf("reader replay: %w", err)
	}
	if err := replayDatalog(ctx, p, history, out); err != nil {
		return nil, fmt.Errorf("datalog replay: %w", err)
	}
	if err := replayCodec(history, out); err != nil {
		return nil, fmt.Errorf("codec replay: %w", err)
	}
	if p.durable {
		if err := replayLSM(o, out); err != nil {
			return nil, fmt.Errorf("lsm replay: %w", err)
		}
	}
	sampleMonomials(o, out)
	return out, nil
}

func insertOnly(t *updates.Transaction) bool {
	for _, u := range t.Updates {
		if u.Op != updates.OpInsert {
			return false
		}
	}
	return true
}

// roundTxns cuts the published history into the plan's rounds: each
// PublishAll of a round is one epoch, in burst order.
func roundTxns(p *plan, history []*updates.Transaction) [][]*updates.Transaction {
	rounds := p.allRounds()
	out := make([][]*updates.Transaction, len(rounds))
	epoch, i := uint64(0), 0
	for r, rp := range rounds {
		epoch += uint64(len(rp.bursts))
		for i < len(history) && history[i].Epoch <= epoch {
			out[r] = append(out[r], history[i])
			i++
		}
	}
	return out
}

// keyOfFor returns the primary-key projection recon.State wants.
func keyOfFor(s *schema.Schema) func(string, schema.Tuple) schema.Tuple {
	return func(rel string, tu schema.Tuple) schema.Tuple {
		if r := s.Relation(rel); r != nil {
			return r.KeyOf(tu)
		}
		return tu
	}
}

// querySampleStride spreads the evaluated steady-state queries over the
// stream; it shares no factor with the period of the query mix.
const querySampleStride = 7

// replayReader rebuilds the reader peer one layer at a time, round by round
// as the run went: the round's transactions through exchange.Engine.ApplyAll
// (the batch one Reconcile drains), the translated candidates through
// recon.State.Reconcile and Resolve under the reader's policy, the accepted
// updates into a storage.Instance and its datalog query mirror, and the
// round's queries through magic.EvalGoal over a snapshot of that mirror.
// Each publisher's committing side (local accept, own instance writes) is
// replayed beside it.
func replayReader(ctx context.Context, p *plan, history []*updates.Transaction, out *replayOut) error {
	eng, err := exchange.NewEngineWith(p.peers, p.mappings, engineConfig(p))
	if err != nil {
		return err
	}
	reader := p.reader
	state := recon.NewState(keyOfFor(p.peers[reader]))
	policy := p.policies[reader]
	if policy == nil {
		policy = recon.TrustAll(1)
	}
	inst := storage.NewInstance(p.peers[reader])
	mirror := datalog.NewDB()
	pubState := map[string]*recon.State{}
	pubInst := map[string]*storage.Instance{}
	for _, n := range p.publisher {
		pubState[n] = recon.NewState(keyOfFor(p.peers[n]))
		pubInst[n] = storage.NewInstance(p.peers[n])
	}
	// apply writes accepted transactions into the reader's instance and
	// mirror the way core.Peer.applyUpdates does.
	apply := func(txns []*updates.Transaction, measured bool) error {
		for _, t := range txns {
			t0 := time.Now()
			if err := applyTo(inst, t.Updates); err != nil {
				return err
			}
			t1 := time.Now()
			for _, u := range t.Updates {
				if u.Old != nil {
					mirror.Remove(u.Rel, u.Old)
				}
				if u.New != nil {
					if row, ok := inst.Table(u.Rel).Get(u.New); ok {
						mirror.Set(u.Rel, u.New, row.Prov)
					}
				}
			}
			if measured {
				out.storageMs += float64(t1.Sub(t0).Nanoseconds()) / 1e6
				out.mirrorMs += msSince(t1)
				out.storageUps += len(t.Updates)
			}
		}
		return nil
	}
	seq := map[string]uint64{}
	// Steady-state queries are sampled; first-after-write ones all run.
	var firstMs, steadyMs float64
	var steadies, steadySampled int
	// steadyBareMs times the sampled steady-state evaluations again with
	// annotations off, to find what annotations cost a query. (A
	// first-after-write pair would differ by the index rebuild as well.)
	var steadyBareMs float64
	evalGoal := func(gq core.GoalQuery, opts datalog.Options) (float64, error) {
		t0 := time.Now()
		_, _, err := magic.EvalGoal(ctx, gq.Rules, gq.Goal, mirror.Snapshot(), opts, magic.Options{})
		return msSince(t0), err
	}
	rounds := p.allRounds()
	for r, batch := range roundTxns(p, history) {
		rp := rounds[r]
		measured := r > len(p.preload) // preload, then the warm round, then the measured ones
		// Split timing between insert-only and deleting transactions by
		// applying maximal runs of each kind, as ApplyAll itself does.
		var results []*exchange.Result
		for i := 0; i < len(batch); {
			j := i + 1
			ins := insertOnly(batch[i])
			for j < len(batch) && insertOnly(batch[j]) == ins {
				j++
			}
			t0 := time.Now()
			rs, err := eng.ApplyAll(ctx, batch[i:j])
			ms := msSince(t0)
			if err != nil {
				return err
			}
			if measured {
				if ins {
					out.applyInsertMs += ms
					out.insertTxns += j - i
				} else {
					out.applyDeleteMs += ms
					out.deleteTxns += j - i
				}
			}
			results = append(results, rs...)
			i = j
		}
		for _, t := range batch {
			t0 := time.Now()
			if err := pubState[t.ID.Peer].AcceptLocal(t); err != nil {
				return err
			}
			t1 := time.Now()
			if err := applyTo(pubInst[t.ID.Peer], t.Updates); err != nil {
				return err
			}
			if measured {
				out.reconLocalMs += float64(t1.Sub(t0).Nanoseconds()) / 1e6
				out.storageLocalMs += msSince(t1)
			}
		}
		// PublishAll keeps a copy-on-write snapshot of the publisher's
		// instance: its next write copies the tables it touches.
		for _, b := range rp.bursts {
			pubInst[b.peer].Snapshot()
		}
		var cands []*updates.Transaction
		for i, t := range batch {
			if t.ID.Peer == reader {
				continue
			}
			cands = append(cands, &updates.Transaction{
				ID: t.ID, Epoch: t.Epoch,
				Updates: results[i].PerPeer[reader],
				Deps:    unionDeps(t.Deps, results[i].ExtraDeps[reader]),
			})
		}
		t0 := time.Now()
		outcome, err := state.Reconcile(policy, cands)
		if err != nil {
			return err
		}
		if measured {
			out.reconMs += msSince(t0)
			out.reconTxns += len(cands)
		}
		if err := apply(outcome.Accepted, measured); err != nil {
			return err
		}
		// Deferred pairs resolve as the run resolved them: after the round,
		// in commit order, when the reader is the arbiter.
		for _, b := range rp.bursts {
			for _, t := range b.txns {
				seq[b.peer]++
				if !t.resolveWinner || reader != p.arbiter {
					continue
				}
				t0 := time.Now()
				oc, err := state.Resolve(updates.TxnID{Peer: b.peer, Seq: seq[b.peer]})
				if err != nil {
					return err
				}
				if measured {
					out.resolveMs += msSince(t0)
				}
				if err := apply(oc.Accepted, measured); err != nil {
					return err
				}
			}
		}
		if !measured {
			continue
		}
		// The round's queries, over a fresh snapshot of the mirror each, as
		// core's query path takes one. The first follows the round's writes
		// and pays for what they invalidated; of the rest a fixed stride is
		// evaluated and stands for all of them.
		for i, q := range rp.queries {
			if i > 0 {
				steadies++
				if steadies%querySampleStride != 0 {
					continue
				}
				steadySampled++
			}
			gq := goalQuery(q)
			ms, err := evalGoal(gq, datalog.Options{Provenance: true})
			if err != nil {
				return err
			}
			out.goalEvalMs = append(out.goalEvalMs, ms)
			if i == 0 {
				firstMs += ms
				continue
			}
			steadyMs += ms
			bare, err := evalGoal(gq, datalog.Options{})
			if err != nil {
				return err
			}
			steadyBareMs += bare
		}
	}
	out.queryMs = firstMs + steadyMs*ratio(float64(steadies), float64(steadySampled))
	if steadyMs > steadyBareMs {
		out.queryProvMs = out.queryMs * (1 - steadyBareMs/steadyMs)
	}
	out.twin = inst

	// Goal-directed against full evaluation, on the final mirror.
	last := rounds[len(rounds)-1].queries
	for i := 0; i < len(last) && i < 10; i++ {
		gq := goalQuery(last[i])
		t0 := time.Now()
		if _, err := magic.EvalGoalFull(ctx, gq.Rules, gq.Goal, mirror.Snapshot(), datalog.Options{Provenance: true}); err != nil {
			return err
		}
		out.goalFullMs = append(out.goalFullMs, msSince(t0))
	}

	t0 := time.Now()
	blob, err := eng.SaveState()
	if err != nil {
		return err
	}
	out.saveStateMs, out.stateBytes = msSince(t0), len(blob)
	fresh, err := exchange.NewEngineWith(p.peers, p.mappings, engineConfig(p))
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := fresh.LoadState(blob); err != nil {
		return err
	}
	out.loadStateMs = msSince(t0)
	t0 = time.Now()
	if _, err := eng.Recompute(ctx); err != nil {
		return err
	}
	out.recomputeMs = msSince(t0)
	return nil
}

// applyTo writes updates into a storage instance the way core applies them.
func applyTo(inst *storage.Instance, ups []updates.Update) error {
	for _, u := range ups {
		prov := u.Prov
		if prov.IsZero() {
			prov = provenance.One()
		}
		if u.Old != nil {
			if _, err := inst.Delete(u.Rel, u.Old); err != nil {
				return err
			}
		}
		if u.New != nil {
			if _, err := inst.Upsert(u.Rel, u.New, prov); err != nil {
				return err
			}
		}
	}
	return nil
}

func unionDeps(a, b []updates.TxnID) []updates.TxnID {
	seen := map[updates.TxnID]bool{}
	var out []updates.TxnID
	for _, ids := range [][]updates.TxnID{a, b} {
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// replayDatalog feeds the same base facts straight into a
// datalog.Incremental over the compiled mapping program — the evaluator
// alone, without the exchange layer's collation — and then evaluates the
// final base facts from scratch with annotations on and off.
func replayDatalog(ctx context.Context, p *plan, history []*updates.Transaction, out *replayOut) error {
	prog, err := mapping.Compile(p.mappings)
	if err != nil {
		return err
	}
	cfg := engineConfig(p)
	maxMono := cfg.MaxMonomials
	switch {
	case maxMono == 0:
		maxMono = exchange.DefaultMaxMonomials
	case maxMono < 0:
		maxMono = 0
	}
	opts := datalog.Options{Provenance: true, ChaseSubsumption: true, MaxMonomials: maxMono}
	inc, err := datalog.NewIncremental(prog, datalog.NewDB(), opts)
	if err != nil {
		return err
	}
	base := map[string][]provenance.Var{} // pred/key -> live tokens
	edb := datalog.NewDB()
	for r, batch := range roundTxns(p, history) {
		measured := r > len(p.preload)
		t0 := time.Now()
		var groups [][]datalog.Fact2
		flush := func() error {
			if len(groups) == 0 {
				return nil
			}
			_, err := inc.InsertGroups(ctx, groups)
			groups = nil
			return err
		}
		for _, t := range batch {
			var g []datalog.Fact2
			for i, u := range t.Updates {
				pred := mapping.Qualify(t.ID.Peer, u.Rel)
				if u.Old != nil {
					if err := flush(); err != nil {
						return err
					}
					k := pred + "/" + u.Old.Key()
					inc.DeleteBase(base[k])
					delete(base, k)
					edb.Remove(pred, u.Old)
				}
				if u.New != nil {
					tok := t.Token(i)
					g = append(g, datalog.Fact2{Pred: pred, Tuple: u.New, Prov: provenance.NewVar(tok)})
					k := pred + "/" + u.New.Key()
					base[k] = append(base[k], tok)
					edb.Add(pred, u.New, provenance.NewVar(tok))
				}
			}
			if len(g) > 0 {
				groups = append(groups, g)
			}
		}
		if err := flush(); err != nil {
			return err
		}
		if measured {
			out.incrementalMs += msSince(t0)
		}
	}
	t0 := time.Now()
	if _, err := datalog.EvalCtx(ctx, prog, edb, opts); err != nil {
		return err
	}
	out.fullEvalMs = msSince(t0)
	plain := opts
	plain.Provenance = false
	t0 = time.Now()
	if _, err := datalog.EvalCtx(ctx, prog, edb, plain); err != nil {
		return err
	}
	out.fullEvalNoMs = msSince(t0)
	return nil
}

// replayCodec prices the archive codec alone, both ways: EncodeTxn + JSON
// as DurableStore.Publish writes a transaction, JSON + DecodeTxn as Since
// reads it back.
func replayCodec(history []*updates.Transaction, out *replayOut) error {
	encoded := make([][]byte, len(history))
	var bytes int64
	t0 := time.Now()
	for i, t := range history {
		data, err := json.Marshal(p2p.EncodeTxn(t))
		if err != nil {
			return err
		}
		encoded[i] = data
		bytes += int64(len(data))
	}
	encodeMs := msSince(t0)
	t0 = time.Now()
	for _, data := range encoded {
		var w p2p.WireTxn
		if err := json.Unmarshal(data, &w); err != nil {
			return err
		}
		if _, err := p2p.DecodeTxn(w); err != nil {
			return err
		}
	}
	n := float64(len(history))
	out.encodeMsPerTxn, out.decodeMsPerTxn = ratio(encodeMs, n), ratio(msSince(t0), n)
	out.encodedBytesPerTxn = int64(ratio(float64(bytes), n))
	out.codecTxns = len(history)
	return nil
}

// kv is one stored entry.
type kv struct{ k, v []byte }

// checkpointShape reads one peer's newest checkpoint out of the run's own
// database: its row entries and its engine blob, the entries a checkpoint
// batch is made of.
func checkpointShape(db *lsm.DB, peer string) (rows []kv, blob kv, err error) {
	sn := db.Snapshot()
	defer sn.Close()
	collect := func(prefix []byte, fn func(kv)) error {
		hi := append(append([]byte(nil), prefix...), 0xff)
		return sn.Scan(prefix, hi, func(k, v []byte) bool {
			fn(kv{append([]byte(nil), k...), append([]byte(nil), v...)})
			return true
		})
	}
	if err = collect(lsm.AppendString([]byte("c/"), peer), func(e kv) { rows = append(rows, e) }); err != nil {
		return nil, kv{}, err
	}
	err = collect(lsm.AppendString([]byte("e/"), peer), func(e kv) { blob = e })
	return rows, blob, err
}

// replayLSM prices the LSM tier alone on a scratch database: the traced
// run's durable writes, each as one fsynced batch of the byte size the run
// logged — archive batches as fresh small entries, checkpoint batches as a
// prefix of the reader's real checkpoint entries rewritten under the same
// keys each time, as real checkpoints rewrite theirs — then direct synced
// applies at the median batch size, and point reads and scans of the run's
// own database.
func replayLSM(o *runOut, out *replayOut) error {
	dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "lsm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := lsm.Open(dir, lsm.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer db.Close()
	rows, blob, err := checkpointShape(o.env.db, o.plan.reader)
	if err != nil {
		return err
	}
	shapeBytes := int64(len(blob.k) + len(blob.v))
	for _, e := range rows {
		shapeBytes += int64(len(e.k) + len(e.v))
	}
	const valBytes = 96
	val := make([]byte, valBytes)
	fresh := 0
	batchOf := func(ev lsmEvent) *lsm.Batch {
		b := lsm.NewBatch()
		if ev.kind == "archive" || shapeBytes == 0 {
			for n := ev.bytes; n > 0; n -= valBytes + 24 {
				b.Put([]byte(fmt.Sprintf("a/t/%016d", fresh)), val)
				fresh++
			}
			return b
		}
		// The instance and the engine state both grew over the run: an
		// earlier, smaller checkpoint is the same share of each.
		share := float64(ev.bytes) / float64(shapeBytes)
		prefix := []byte(ev.kind + "/")
		for i, n := 0, int(share*float64(len(rows))); i < n; i++ {
			e := rows[i%len(rows)]
			key := append(append([]byte(nil), prefix...), e.k...)
			if i >= len(rows) { // a checkpoint larger than the reader's: more rows
				key = append(key, byte(i/len(rows)))
			}
			b.Put(key, e.v)
		}
		b.Put(append(prefix, blob.k...), make([]byte, int(share*float64(len(blob.v)))))
		return b
	}
	var sizes []float64
	for _, ev := range o.lsmEvents {
		// A publish event covers the archive batch and the ride-along
		// checkpoint; the archive share is the encoded burst.
		parts := []lsmEvent{ev}
		if ev.kind == "publish" {
			arch := out.encodedBytesPerTxn * int64(len(o.plan.rounds[0].bursts[0].txns))
			if arch > ev.bytes {
				arch = ev.bytes
			}
			parts = []lsmEvent{{kind: "archive", bytes: arch}, {kind: "ride-along", bytes: ev.bytes - arch}}
		}
		for _, part := range parts {
			if part.bytes <= 0 {
				continue
			}
			sizes = append(sizes, float64(part.bytes))
			b := batchOf(part)
			t0 := time.Now()
			if err := db.Apply(b, true); err != nil {
				return err
			}
			ms := msSince(t0)
			out.lsmEventsMs += ms
			if part.kind == "archive" {
				out.lsmArchiveMs += ms
			}
		}
	}
	out.medianBatch = int64(median(sizes))
	for i := 0; i < 200; i++ {
		b := batchOf(lsmEvent{kind: "archive", bytes: out.medianBatch})
		t0 := time.Now()
		if err := db.Apply(b, true); err != nil {
			return err
		}
		out.syncApplyMs = append(out.syncApplyMs, msSince(t0))
	}
	// Reads against the run's own database: the reader's checkpoint
	// keyspace, which a checkpoint's sweep and a recovery both scan.
	ckLo := lsm.AppendString([]byte("c/"), o.plan.reader)
	ckHi := append(append([]byte(nil), ckLo...), 0xff)
	var scans []float64
	for i := 0; i < 5; i++ {
		// A fresh snapshot each time: that is what each sweep pays for.
		sn := o.env.db.Snapshot()
		t0 := time.Now()
		err := sn.Scan(ckLo, ckHi, func(k, v []byte) bool { return true })
		scans = append(scans, msSince(t0))
		sn.Close()
		if err != nil {
			return err
		}
	}
	out.scanCheckpointMs = median(scans)
	sn := o.env.db.Snapshot()
	defer sn.Close()
	var keys [][]byte
	var scanned int64
	t0 := time.Now()
	i := 0
	err = sn.Scan(nil, nil, func(k, v []byte) bool {
		scanned += int64(len(k) + len(v))
		if i%37 == 0 && len(keys) < 2000 {
			keys = append(keys, append([]byte(nil), k...))
		}
		i++
		return true
	})
	if err != nil {
		return err
	}
	if s := time.Since(t0).Seconds(); s > 0 {
		out.scanMBPerS = float64(scanned) / 1e6 / s
	}
	for _, k := range keys {
		t0 := time.Now()
		if _, _, err := sn.Get(k); err != nil {
			return err
		}
		out.getUs = append(out.getUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return nil
}

// sampleMonomials reads provenance sizes through Explain on a spread of the
// reader's tuples.
func sampleMonomials(o *runOut, out *replayOut) {
	reader := o.env.peers[o.plan.reader]
	for _, rel := range reader.Relations() {
		rows, err := reader.Rows(rel.Name)
		if err != nil {
			continue
		}
		step := len(rows)/500 + 1
		for i := 0; i < len(rows); i += step {
			if prov, ok := reader.Explain(rel.Name, rows[i]); ok {
				out.monomials = append(out.monomials, float64(prov.NumMonomials()))
			}
		}
	}
}
