package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"

	"orchestra"
	"orchestra/internal/workload"
)

// Workload names. They are stable: later issues cite them.
const (
	wlExchangeInsert  = "exchange-insert"
	wlDurablePipeline = "durable-pipeline"
	wlQueryPoint      = "query-point"
	wlConflictChurn   = "conflict-churn"
)

// workloadInfo names a workload and records why it was chosen.
type workloadInfo struct {
	name string
	why  string
	// setups is how many times a timed run sets up; setup_s is their median.
	// The cheaper a set-up, the more of them it takes to steady the median.
	setups int
	gen    func(seed int64, seconds int) *plan
}

var workloads = []workloadInfo{
	{wlExchangeInsert, "join/split chain with exact provenance: translation-bound, so exchange, datalog and provenance do the work and storage layers idle", 5, genExchangeInsert},
	{wlDurablePipeline, "durable chain with cheap mappings, fsync per publish, growing checkpoints, kill and recover: storage-bound, evaluator nearly idle", 9, genDurablePipeline},
	{wlQueryPoint, "goal-directed point and recursive queries on a large Figure 2 instance beside small writes: query planning and probing dominate", 3, genQueryPoint},
	{wlConflictChurn, "mesh with two conflicting publishers, deletes and modifies, trust rejections, deferrals and resolves: reconciliation and deletion paths", 9, genConflictChurn},
}

func findWorkload(name string) *workloadInfo {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// qterm is one argument of a query atom: a free variable, or a bound value.
type qterm struct {
	name  string // free variable name when bound is nil
	bound *orchestra.Value
}

func free(name string) qterm       { return qterm{name: name} }
func bind(v orchestra.Value) qterm { return qterm{bound: &v} }
func (t qterm) String() string {
	if t.bound != nil {
		return "=" + t.bound.Key()
	}
	return "?" + t.name
}

type qatom struct {
	pred string
	args []qterm
}

type qrule struct {
	head string
	vars []string
	body []qatom
}

// querySpec is a goal query in a form both the SDK builder and the core
// GoalQuery can be made from.
type querySpec struct {
	kind  string // "point" | "reach" | "readback"
	goal  qatom
	rules []qrule
	// wantMin is the least number of answers a correct evaluation returns.
	wantMin int
}

// txnPlan is one local transaction: its updates, in the committing peer's
// schema.
type txnPlan struct {
	ups []orchestra.Update
	// resolveWinner marks the transaction the arbiter resolves its deferred
	// conflict in favour of.
	resolveWinner bool
}

// burst is the transactions one publisher commits before one PublishAll.
type burst struct {
	peer string
	txns []txnPlan
}

// roundPlan is one write round and the reads that follow it.
type roundPlan struct {
	bursts []burst
	// queries are issued at plan.reader after every peer has reconciled.
	queries []querySpec
	// checkpoint asks every non-publishing peer for an explicit Checkpoint
	// after the round (durable workload only).
	checkpoint bool
}

// expectCounts is what the generator knows the reconciliation outcome must
// be, per peer, summed over the measured rounds (warm round included).
type expectCounts struct {
	accepted, rejected, deferred int
}

// plan is everything a run needs, generated from the seed alone.
type plan struct {
	info     *workloadInfo
	seed     int64
	names    []string
	peers    map[string]*orchestra.PeerSchema
	mappings []*orchestra.Mapping
	policies map[string]*orchestra.TrustPolicy
	// maxMonomials is the witness bound handed to WithMaxMonomials (0 keeps
	// the engine default, negative removes the bound).
	maxMonomials int
	durable      bool
	publisher    []string // peers that commit
	reader       string   // peer that answers queries and whose Reconcile is sampled
	arbiter      string   // peer that resolves deferred conflicts ("" when none)
	// preload and warm run during set-up: preload builds the base instance,
	// warm is one round shaped like the measured ones.
	preload []roundPlan
	warm    roundPlan
	rounds  []roundPlan
	// primaryQueries makes queries, not transactions, the workload's primary
	// operation (alloc_bytes_per_op divides by them).
	primaryQueries bool
	// expect holds the generator's expected reconcile and resolve counts per
	// peer over every round, set-up included; nil when every candidate is
	// simply accepted.
	expect map[string]expectCounts
	// expectRows, when non-nil, is the generator's own model of each peer's
	// final S relation (tuple keys), an oracle independent of the engine.
	expectRows map[string]map[string]bool
}

func (p *plan) schema() *orchestra.Schema {
	s := orchestra.NewSchema()
	for _, n := range p.names {
		s.Peer(n, p.peers[n])
	}
	s.Mappings(p.mappings...)
	for n, pol := range p.policies {
		s.Trust(n, pol)
	}
	return s
}

// allRounds lists every round in the order the run plays them: preload,
// the warm round, the measured rounds.
func (p *plan) allRounds() []roundPlan {
	out := make([]roundPlan, 0, len(p.preload)+1+len(p.rounds))
	out = append(out, p.preload...)
	out = append(out, p.warm)
	return append(out, p.rounds...)
}

func fromTopology(t *workload.Topology) (names []string, peers map[string]*orchestra.PeerSchema, ms []*orchestra.Mapping) {
	return t.Names, t.Peers, t.Mappings
}

// digest hashes the whole generated stream — every update of every
// transaction and every query, in issue order — so two runs can prove they
// were fed byte-identical inputs.
func (p *plan) digest() string {
	h := sha256.New()
	hashBurst := func(b burst) {
		fmt.Fprintf(h, "B%s\n", b.peer)
		for _, t := range b.txns {
			fmt.Fprintf(h, "T%v\n", t.resolveWinner)
			for _, u := range t.ups {
				fmt.Fprintf(h, "%d|%s|%s|%s\n", u.Op, u.Rel, u.Old.Key(), u.New.Key())
			}
		}
	}
	hashRound := func(r roundPlan) {
		for _, b := range r.bursts {
			hashBurst(b)
		}
		for _, q := range r.queries {
			hashQuery(h, q)
		}
		fmt.Fprintf(h, "C%v\n", r.checkpoint)
	}
	for _, r := range p.allRounds() {
		hashRound(r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashQuery(h hash.Hash, q querySpec) {
	fmt.Fprintf(h, "Q%s %s%v\n", q.kind, q.goal.pred, q.goal.args)
}

// userBytes is the payload size of a tuple: 8 per number, len per string.
func userBytes(t orchestra.Tuple) int64 {
	var n int64
	for _, v := range t {
		if v.Kind() == orchestra.KindString {
			n += int64(len(v.Str()))
		} else {
			n += 8
		}
	}
	return n
}

// seqFor derives a sequence string from the seed and a key, so different
// seeds publish different values under the same key layout.
func seqFor(seed, oid, pid int64) string {
	return workload.Sequence(oid+seed*7919, pid+seed*104729)
}

// scale turns a per-second operation rate into this run's fixed count. All
// sizes are counts, never durations, so a given (seed, seconds) repeats the
// same work exactly.
func scale(perSecond float64, seconds, floor int) int {
	n := int(perSecond * float64(seconds))
	if n < floor {
		n = floor
	}
	return n
}

func insertS(oid, pid int64, seq string) orchestra.Update {
	return orchestra.Update{Rel: "S", Op: orchestra.OpInsert, New: workload.STuple(oid, pid, seq)}
}

// readbackS asks the reader for the sequence stored under one S key.
func readbackS(oid, pid int64) querySpec {
	return querySpec{kind: "readback", wantMin: 1, goal: qatom{pred: "S",
		args: []qterm{bind(orchestra.Int(oid)), bind(orchestra.Int(pid)), free("seq")}}}
}

// readBacks is how many of a write round's newest keys the reader looks up
// afterwards: the first query follows the writes and pays for the query
// mirror's re-sync, the rest find it in step.
const readBacks = 3

// lastKeys returns the newest n of keys, repeating the newest when there are
// fewer.
func lastKeys(keys [][2]int64, n int) [][2]int64 {
	out := make([][2]int64, 0, n)
	for i := len(keys) - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, keys[i])
	}
	for len(out) > 0 && len(out) < n {
		out = append(out, out[0])
	}
	return out
}

// baseTxn inserts the O and P dimension rows the S stream joins against.
func baseTxn(norg, nprot int) txnPlan {
	var t txnPlan
	for i := 0; i < norg; i++ {
		t.ups = append(t.ups, orchestra.Update{Rel: "O", Op: orchestra.OpInsert, New: workload.OTuple(workload.Organism(i), int64(i))})
	}
	for i := 0; i < nprot; i++ {
		t.ups = append(t.ups, orchestra.Update{Rel: "P", Op: orchestra.OpInsert, New: workload.PTuple(workload.Protein(i), int64(i))})
	}
	return t
}

// Round rates per measured second, calibrated at the seed commit on 2 cores
// so that `--seconds 15`, BENCHMARK.json's run_seconds, measures about
// fifteen seconds. A round costs more as the instance grows, so the measured
// phase is not proportional to the count at other sizes. They are the only
// sizing knobs; shrink them together if a time cap requires it.
const (
	exchangeRoundsPerSec = 20.0
	durableRoundsPerSec  = 10.0
	queryRoundsPerSec    = 43.0
	conflictRoundsPerSec = 28.0
	minRounds            = 40
)

// genExchangeInsert: workload.ChainJoinSplit(4), the VLDB'07 join/split
// chain, preloaded with O/P/S base data at p00; each round p00 commits 32
// five-insert transactions.
func genExchangeInsert(seed int64, seconds int) *plan {
	const (
		norg, nprot = 250, 250
		burstTxns   = 16
		txnInserts  = 5
		preloadS    = 1600
	)
	rng := rand.New(rand.NewSource(seed))
	p := &plan{seed: seed}
	p.names, p.peers, p.mappings = fromTopology(workload.ChainJoinSplit(4))
	p.maxMonomials = -1 // exact witness sets
	pub := p.names[0]
	p.publisher = []string{pub}
	// The Σ2 peer one join away reads: chase subsumption collapses the
	// Skolemized O and P rows at p02, so little of a burst survives the
	// second join to p03.
	p.reader = p.names[1]
	keys := rng.Perm(norg * nprot)
	next := 0
	takeBurst := func() (burst, []querySpec) {
		b := burst{peer: pub}
		var written [][2]int64
		for t := 0; t < burstTxns; t++ {
			var tp txnPlan
			for u := 0; u < txnInserts; u++ {
				k := keys[next]
				next++
				oid, pid := int64(k/nprot), int64(k%nprot)
				tp.ups = append(tp.ups, insertS(oid, pid, seqFor(seed, oid, pid)))
				written = append(written, [2]int64{oid, pid})
			}
			b.txns = append(b.txns, tp)
		}
		// Read back the joined OPS rows of the burst's newest inserts.
		var qs []querySpec
		for _, k := range lastKeys(written, readBacks) {
			qs = append(qs, querySpec{kind: "readback", wantMin: 1, goal: qatom{pred: "OPS", args: []qterm{
				bind(orchestra.String(workload.Organism(int(k[0])))),
				bind(orchestra.String(workload.Protein(int(k[1])))), free("seq")}}})
		}
		return b, qs
	}
	p.preload = append(p.preload, roundPlan{bursts: []burst{{peer: pub, txns: []txnPlan{baseTxn(norg, nprot)}}}})
	for i := 0; i < preloadS/(burstTxns*txnInserts); i++ {
		b, _ := takeBurst()
		p.preload = append(p.preload, roundPlan{bursts: []burst{b}})
	}
	mk := func() roundPlan {
		b, qs := takeBurst()
		return roundPlan{bursts: []burst{b}, queries: qs}
	}
	p.warm = mk()
	for r, n := 0, scale(exchangeRoundsPerSec, seconds, minRounds); r < n; r++ {
		p.rounds = append(p.rounds, mk())
	}
	return p
}

// genDurablePipeline: workload.Chain(3) on the durable tier; rounds of
// commit-16 → PublishAll → Reconcile everywhere, an explicit Checkpoint at
// each subscriber every 20 rounds, a goal query per round.
func genDurablePipeline(seed int64, seconds int) *plan {
	const (
		norg, nprot     = 50, 50
		burstTxns       = 8
		txnInserts      = 1
		preloadBursts   = 10
		checkpointEvery = 10
	)
	p := &plan{seed: seed, durable: true}
	p.names, p.peers, p.mappings = fromTopology(workload.Chain(3))
	pub := p.names[0]
	p.publisher = []string{pub}
	p.reader = p.names[len(p.names)-1]
	next := int64(0)
	takeBurst := func() (burst, []querySpec) {
		b := burst{peer: pub}
		var written [][2]int64
		for t := 0; t < burstTxns; t++ {
			var tp txnPlan
			for u := 0; u < txnInserts; u++ {
				oid, pid := next%1000, next/1000
				next++
				tp.ups = append(tp.ups, insertS(oid, pid, seqFor(seed, oid, pid)))
				written = append(written, [2]int64{oid, pid})
			}
			b.txns = append(b.txns, tp)
		}
		var qs []querySpec
		for _, k := range lastKeys(written, readBacks) {
			qs = append(qs, readbackS(k[0], k[1]))
		}
		return b, qs
	}
	// One preload round, so that set-up pays for a handful of fsyncs, not
	// dozens: fsync latency here swings by a factor of two between minutes,
	// and setup_s should not be a measurement of it.
	pre := burst{peer: pub, txns: []txnPlan{baseTxn(norg, nprot)}}
	for i := 0; i < preloadBursts; i++ {
		b, _ := takeBurst()
		pre.txns = append(pre.txns, b.txns...)
	}
	p.preload = []roundPlan{{bursts: []burst{pre}}}
	mk := func(r int) roundPlan {
		b, qs := takeBurst()
		return roundPlan{bursts: []burst{b}, queries: qs, checkpoint: (r+1)%checkpointEvery == 0}
	}
	p.warm = mk(0)
	for r, n := 0, scale(durableRoundsPerSec, seconds, minRounds); r < n; r++ {
		p.rounds = append(p.rounds, mk(r))
	}
	return p
}

// Query-point layout: organisms/oids 0..qpN-1 in chain blocks of qpBlock
// (S(i,i+1) edges inside a block drive the recursive query); pids
// qpN..2*qpN-1 are leaf proteins (qpLeaves per organism at preload).
const (
	qpN       = 600
	qpBlock   = 10
	qpLeaves  = 4
	qpQueries = 50 // queries between write rounds
)

func opsPointQuery(org string) querySpec {
	return querySpec{kind: "point", wantMin: 1,
		goal: qatom{pred: "OPSV", args: []qterm{bind(orchestra.String(org)), free("p"), free("s")}},
		rules: []qrule{{head: "OPSV", vars: []string{"o", "p", "s"}, body: []qatom{
			{pred: "O", args: []qterm{free("o"), free("oid")}},
			{pred: "P", args: []qterm{free("p"), free("pid")}},
			{pred: "S", args: []qterm{free("oid"), free("pid"), free("s")}},
		}}}}
}

func reachQuery(src int64) querySpec {
	return querySpec{kind: "reach", wantMin: 1,
		goal: qatom{pred: "reach", args: []qterm{bind(orchestra.Int(src)), free("y")}},
		rules: []qrule{
			{head: "reach", vars: []string{"x", "y"}, body: []qatom{
				{pred: "S", args: []qterm{free("x"), free("y"), free("s")}}}},
			{head: "reach", vars: []string{"x", "z"}, body: []qatom{
				{pred: "reach", args: []qterm{free("x"), free("y")}},
				{pred: "S", args: []qterm{free("y"), free("z"), free("s")}}}},
		}}
}

// genQueryPoint: the Figure 2 CDSS preloaded at alaska; queries at beijing
// (80% OPS point lookups binding one organism, 20% recursive reachability,
// Zipf-skewed keys), one small write round after every qpQueries queries.
func genQueryPoint(seed int64, seconds int) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{seed: seed, primaryQueries: true}
	p.names = []string{workload.Alaska, workload.Beijing, workload.Crete, workload.Dresden}
	p.peers = workload.Figure2Peers()
	p.mappings = workload.Figure2Mappings()
	pub := workload.Alaska
	p.publisher = []string{pub}
	p.reader = workload.Beijing

	perm := rng.Perm(qpN) // rank -> organism, so the hot keys differ per seed
	zipf := rand.NewZipf(rng, 1.1, 4, qpN-1)
	used := map[[2]int64]bool{}
	var pre []orchestra.Update
	for i := 0; i < qpN; i++ {
		pre = append(pre, orchestra.Update{Rel: "O", Op: orchestra.OpInsert, New: workload.OTuple(workload.Organism(i), int64(i))})
	}
	for i := 0; i < 2*qpN; i++ {
		pre = append(pre, orchestra.Update{Rel: "P", Op: orchestra.OpInsert, New: workload.PTuple(workload.Protein(i), int64(i))})
	}
	addS := func(dst *[]orchestra.Update, oid, pid int64) {
		used[[2]int64{oid, pid}] = true
		*dst = append(*dst, insertS(oid, pid, seqFor(seed, oid, pid)))
	}
	freshLeaf := func(oid int64) int64 {
		for {
			pid := int64(qpN + rng.Intn(qpN))
			if !used[[2]int64{oid, pid}] {
				return pid
			}
		}
	}
	for i := int64(0); i < qpN; i++ {
		if (i+1)%qpBlock != 0 {
			addS(&pre, i, i+1)
		}
		for l := 0; l < qpLeaves; l++ {
			addS(&pre, i, freshLeaf(i))
		}
	}
	// Preload in bursts of 16 transactions of 50 updates.
	for len(pre) > 0 {
		b := burst{peer: pub}
		for t := 0; t < 16 && len(pre) > 0; t++ {
			n := 50
			if n > len(pre) {
				n = len(pre)
			}
			b.txns = append(b.txns, txnPlan{ups: pre[:n:n]})
			pre = pre[n:]
		}
		p.preload = append(p.preload, roundPlan{bursts: []burst{b}})
	}
	mk := func() roundPlan {
		var tp txnPlan
		for u := 0; u < 3; u++ {
			oid := int64(rng.Intn(qpN))
			addS(&tp.ups, oid, freshLeaf(oid))
		}
		r := roundPlan{bursts: []burst{{peer: pub, txns: []txnPlan{tp}}}}
		for q := 0; q < qpQueries; q++ {
			org := perm[zipf.Uint64()]
			if q%5 == 4 {
				r.queries = append(r.queries, reachQuery(int64(org)))
			} else {
				r.queries = append(r.queries, opsPointQuery(workload.Organism(org)))
			}
		}
		return r
	}
	p.warm = mk()
	for r, n := 0, scale(queryRoundsPerSec, seconds, minRounds); r < n; r++ {
		p.rounds = append(p.rounds, mk())
	}
	return p
}

// genConflictChurn: workload.Mesh(3); p00 and p01 publish streams from
// workload.ConflictingStreams (rate 0.2) interleaved with deletes and
// modifies of their own earlier tuples (30% of updates); p02 arbitrates.
// At p02 an even-oid conflict is decided by priority (p00 wins, p01's
// transaction is rejected) and an odd-oid conflict ties, is deferred, and
// is resolved at the end of its round for a seed-chosen winner.
func genConflictChurn(seed int64, seconds int) *plan {
	const (
		streamPerRound = 7 // stream inserts per publisher per round
		churnPerRound  = 3 // delete/modify transactions per publisher per round
		conflictRate   = 0.2
		preloadRounds  = 10
	)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	p := &plan{seed: seed}
	p.names, p.peers, p.mappings = fromTopology(workload.Mesh(3))
	a, b, c := p.names[0], p.names[1], p.names[2]
	p.publisher = []string{a, b}
	p.reader, p.arbiter = c, c
	p.policies = map[string]*orchestra.TrustPolicy{c: {
		Default: 1,
		Conditions: []orchestra.TrustCondition{{Priority: 2, Matches: func(origin string, u orchestra.Update) bool {
			t := u.Target()
			return origin == a && u.Rel == "S" && len(t) > 0 && t[0].IntVal()%2 == 0
		}}},
	}}
	nRounds := scale(conflictRoundsPerSec, seconds, minRounds)
	total := (preloadRounds + 1 + nRounds) * streamPerRound
	sa, sb := workload.ConflictingStreams(a, b, total, conflictRate, seed)

	// model of every peer's S relation: key "oid/pid" -> tuple key.
	model := map[string]map[string]string{a: {}, b: {}, c: {}}
	type owned struct {
		oid, pid int64
		tup      orchestra.Tuple
	}
	pools := map[string][]owned{}
	p.expect = map[string]expectCounts{}
	setAll := func(k string, tup orchestra.Tuple) {
		for _, m := range model {
			m[k] = tup.Key()
		}
	}
	next, stamp := 0, int64(0)
	mk := func() roundPlan {
		ba, bb := burst{peer: a}, burst{peer: b}
		var cleanA [][2]int64 // this round's unconflicted keys of p00, read back at the arbiter
		exp := map[string]*expectCounts{a: {}, b: {}, c: {}}
		for i := 0; i < streamPerRound; i++ {
			ua, ub := sa[next].Updates[0], sb[next].Updates[0]
			next++
			// Re-value the generator's tuples from the seed (its sequences
			// depend only on the key).
			oa, pa := ua.New[0].IntVal(), ua.New[1].IntVal()
			ob, pb := ub.New[0].IntVal(), ub.New[1].IntVal()
			ta := workload.STuple(oa, pa, seqFor(seed, oa, 1))
			tb := workload.STuple(ob, pb, seqFor(seed, ob, 2))
			ka, kb := fmt.Sprintf("%d/%d", oa, pa), fmt.Sprintf("%d/%d", ob, pb)
			pa2 := txnPlan{ups: []orchestra.Update{{Rel: "S", Op: orchestra.OpInsert, New: ta}}}
			pb2 := txnPlan{ups: []orchestra.Update{{Rel: "S", Op: orchestra.OpInsert, New: tb}}}
			if ka == kb { // conflict: each publisher keeps its own value
				model[a][ka], model[b][kb] = ta.Key(), tb.Key()
				exp[a].rejected++
				exp[b].rejected++
				if oa%2 == 0 {
					model[c][ka] = ta.Key()
					exp[c].accepted++
					exp[c].rejected++
				} else {
					exp[c].deferred += 2
					exp[c].accepted++ // by Resolve
					exp[c].rejected++ // by Resolve
					if rng.Intn(2) == 0 {
						pa2.resolveWinner = true
						model[c][ka] = ta.Key()
					} else {
						pb2.resolveWinner = true
						model[c][kb] = tb.Key()
					}
				}
			} else {
				setAll(ka, ta)
				setAll(kb, tb)
				pools[a] = append(pools[a], owned{oa, pa, ta})
				pools[b] = append(pools[b], owned{ob, pb, tb})
				exp[a].accepted++
				exp[b].accepted++
				exp[c].accepted += 2
				cleanA = append(cleanA, [2]int64{oa, pa})
			}
			ba.txns = append(ba.txns, pa2)
			bb.txns = append(bb.txns, pb2)
		}
		// Churn: each publisher deletes or modifies tuples it published in an
		// earlier round (never a conflicted key), so every peer accepts them.
		for _, pubr := range []struct {
			peer string
			bst  *burst
		}{{a, &ba}, {b, &bb}} {
			pool := pools[pubr.peer]
			// This round's inserts are the pool's tail; churn only older ones.
			old := len(pool) - streamPerRound
			for i := 0; i < churnPerRound && old > 1; i++ {
				j := rng.Intn(old)
				o := pool[j]
				k := fmt.Sprintf("%d/%d", o.oid, o.pid)
				var u orchestra.Update
				if i == churnPerRound-1 { // one delete, the rest modifies
					u = orchestra.Update{Rel: "S", Op: orchestra.OpDelete, Old: o.tup}
					for _, m := range model {
						delete(m, k)
					}
					pool[j] = pool[old-1]
					pool = append(pool[:old-1], pool[old:]...)
					old--
				} else {
					stamp++
					nt := workload.STuple(o.oid, o.pid, seqFor(seed+stamp, o.oid, o.pid))
					u = orchestra.Update{Rel: "S", Op: orchestra.OpModify, Old: o.tup, New: nt}
					setAll(k, nt)
					pool[j].tup = nt
				}
				pubr.bst.txns = append(pubr.bst.txns, txnPlan{ups: []orchestra.Update{u}})
				for _, n := range p.names {
					if n != pubr.peer {
						exp[n].accepted++
					}
				}
			}
			pools[pubr.peer] = pool
		}
		for n, e := range exp {
			t := p.expect[n]
			t.accepted += e.accepted
			t.rejected += e.rejected
			t.deferred += e.deferred
			p.expect[n] = t
		}
		r := roundPlan{bursts: []burst{ba, bb}}
		for _, k := range lastKeys(cleanA, readBacks) {
			r.queries = append(r.queries, readbackS(k[0], k[1]))
		}
		if len(r.queries) == 0 { // every insert of the round conflicted: look one up anyway
			q := readbackS(sa[next-1].Updates[0].New[0].IntVal(), sa[next-1].Updates[0].New[1].IntVal())
			q.wantMin = 0
			r.queries = append(r.queries, q)
		}
		return r
	}
	for i := 0; i < preloadRounds; i++ {
		r := mk()
		r.queries = nil
		p.preload = append(p.preload, r)
	}
	p.warm = mk()
	for r := 0; r < nRounds; r++ {
		p.rounds = append(p.rounds, mk())
	}
	p.expectRows = map[string]map[string]bool{}
	for n, m := range model {
		rows := map[string]bool{}
		for _, tk := range m {
			rows[tk] = true
		}
		p.expectRows[n] = rows
	}
	return p
}
