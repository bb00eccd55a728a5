package main

import (
	"context"
	"fmt"
	"time"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/datalog"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/obs"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
)

// wholeBacklog is the reconcile window every system under test runs with:
// one Reconcile translates its whole backlog in one ApplyAll. The default
// window adapts to observed drain latency, so on a slow machine it splits a
// burst differently, and where the witness bound truncates a polynomial the
// monomials kept depend on that split: the same inputs would end in
// different provenance from run to run.
const wholeBacklog = -1

// peerAPI is the slice of the peer lifecycle the workloads drive. The SDK
// peer implements it for every timed run and the in-memory traced runs; the
// durable traced run implements it over core.Peer so that the decorated
// store and the LSM database it assembled itself sit under each operation.
type peerAPI interface {
	Commit(ups []orchestra.Update) (orchestra.TxnID, error)
	PublishAll(ctx context.Context) (uint64, int, error)
	Reconcile(ctx context.Context) (*orchestra.ReconcileReport, error)
	Resolve(ctx context.Context, winner orchestra.TxnID) (*orchestra.ReconcileReport, error)
	Query(ctx context.Context, q querySpec) (int, error)
	Checkpoint() error
	Rows(rel string) ([]orchestra.Tuple, error)
	Explain(rel string, tu orchestra.Tuple) (orchestra.Provenance, bool)
	Status(id orchestra.TxnID) orchestra.Status
	Relations() []*orchestra.Relation
}

// env is one open system under test.
type env struct {
	peers map[string]peerAPI
	// store is the archive as the harness reads it (history, oracle,
	// recovery checks): never the decorated one, so those reads leave no
	// spans and no counts. timed is the decorator the system under test
	// writes through in a traced run.
	store orchestra.Store
	timed *timedStore
	// metrics returns the system's registry snapshot (nil in timed runs).
	metrics func() *orchestra.MetricsSnapshot
	// db is the LSM database of a self-assembled durable stack (nil
	// otherwise); the traced durable run reads Stats and scans from it.
	db *lsm.DB
	// walBytes reads the LSM's logged-bytes counter cheaply (nil unless the
	// stack is self-assembled); deltas around an operation size its batches.
	walBytes func() int64
	close    func() error
}

// timedStore decorates the p2p.Store seam with spans.
type timedStore struct {
	inner p2p.Store
	tr    *tracer
	// sinceTxns counts the transactions Since handed back.
	sinceTxns int
}

func (s *timedStore) Publish(txns []*orchestra.Transaction) (uint64, error) {
	id := s.tr.start("store.Publish", "p2p")
	defer s.tr.end(id)
	return s.inner.Publish(txns)
}

func (s *timedStore) Since(since uint64) ([]*orchestra.Transaction, uint64, error) {
	id := s.tr.start("store.Since", "p2p")
	defer s.tr.end(id)
	txns, epoch, err := s.inner.Since(since)
	s.sinceTxns += len(txns)
	return txns, epoch, err
}

func (s *timedStore) Epoch() (uint64, error) { return s.inner.Epoch() }

// sdkPeer drives the public SDK.
type sdkPeer struct{ p *orchestra.Peer }

func (s sdkPeer) Commit(ups []orchestra.Update) (orchestra.TxnID, error) {
	tx := s.p.Begin()
	for _, u := range ups {
		switch u.Op {
		case orchestra.OpInsert:
			tx.Insert(u.Rel, u.New)
		case orchestra.OpDelete:
			tx.Delete(u.Rel, u.Old)
		case orchestra.OpModify:
			tx.Modify(u.Rel, u.Old, u.New)
		}
	}
	return tx.Commit()
}

func (s sdkPeer) PublishAll(ctx context.Context) (uint64, int, error) { return s.p.PublishAll(ctx) }
func (s sdkPeer) Reconcile(ctx context.Context) (*orchestra.ReconcileReport, error) {
	return s.p.Reconcile(ctx)
}
func (s sdkPeer) Resolve(ctx context.Context, w orchestra.TxnID) (*orchestra.ReconcileReport, error) {
	return s.p.Resolve(ctx, w)
}
func (s sdkPeer) Checkpoint() error                          { return s.p.Checkpoint() }
func (s sdkPeer) Rows(rel string) ([]orchestra.Tuple, error) { return s.p.Rows(rel) }
func (s sdkPeer) Status(id orchestra.TxnID) orchestra.Status { return s.p.Status(id) }
func (s sdkPeer) Relations() []*orchestra.Relation           { return s.p.Relations() }
func (s sdkPeer) Explain(rel string, tu orchestra.Tuple) (orchestra.Provenance, bool) {
	prov, _, ok := s.p.Explain(rel, tu)
	return prov, ok
}

func sdkTerm(t qterm) orchestra.QueryTerm {
	if t.bound != nil {
		return orchestra.Bind(*t.bound)
	}
	return orchestra.Free(t.name)
}

func sdkTerms(ts []qterm) []orchestra.QueryTerm {
	out := make([]orchestra.QueryTerm, len(ts))
	for i, t := range ts {
		out[i] = sdkTerm(t)
	}
	return out
}

func (s sdkPeer) Query(ctx context.Context, q querySpec) (int, error) {
	b := s.p.Query(ctx, q.goal.pred, sdkTerms(q.goal.args)...)
	for _, r := range q.rules {
		body := make([]orchestra.QueryLiteral, len(r.body))
		for i, a := range r.body {
			body[i] = orchestra.Atom(a.pred, sdkTerms(a.args)...)
		}
		b = b.Rule(r.head, r.vars, body...)
	}
	ans, err := b.All()
	return len(ans), err
}

// corePeer drives core.Peer directly, repeating what the SDK's durable path
// does around it (ride-along checkpoint after a publish).
type corePeer struct {
	p  *core.Peer
	db *lsm.DB
	tr *tracer
}

func (c corePeer) Commit(ups []orchestra.Update) (orchestra.TxnID, error) {
	tx := c.p.NewTransaction()
	for _, u := range ups {
		switch u.Op {
		case orchestra.OpInsert:
			tx.Insert(u.Rel, u.New)
		case orchestra.OpDelete:
			tx.Delete(u.Rel, u.Old)
		case orchestra.OpModify:
			tx.Modify(u.Rel, u.Old, u.New)
		}
	}
	t, err := tx.Commit()
	if err != nil {
		return orchestra.TxnID{}, err
	}
	return t.ID, nil
}

func (c corePeer) PublishAll(ctx context.Context) (uint64, int, error) {
	epoch, n, err := c.p.PublishAll(ctx)
	if err != nil || n == 0 {
		return epoch, n, err
	}
	id := c.tr.start("core.SaveCheckpoint(ride-along)", "core")
	err = c.p.SaveCheckpoint(c.db)
	c.tr.end(id)
	return epoch, n, err
}

func (c corePeer) Reconcile(ctx context.Context) (*orchestra.ReconcileReport, error) {
	return c.p.Reconcile(ctx)
}
func (c corePeer) Resolve(ctx context.Context, w orchestra.TxnID) (*orchestra.ReconcileReport, error) {
	return c.p.Resolve(ctx, w)
}
func (c corePeer) Checkpoint() error                          { return c.p.SaveCheckpoint(c.db) }
func (c corePeer) Status(id orchestra.TxnID) orchestra.Status { return c.p.Status(id) }
func (c corePeer) Relations() []*orchestra.Relation           { return instView{c.p.Instance()}.Relations() }
func (c corePeer) Rows(rel string) ([]orchestra.Tuple, error) {
	return instView{c.p.Instance()}.Rows(rel)
}

func (c corePeer) Explain(rel string, tu orchestra.Tuple) (orchestra.Provenance, bool) {
	prov, _, ok := c.p.Explain(rel, tu)
	return prov, ok
}

func coreTerms(ts []qterm) []datalog.Term {
	out := make([]datalog.Term, len(ts))
	for i, t := range ts {
		if t.bound != nil {
			out[i] = datalog.C(*t.bound)
		} else {
			out[i] = datalog.V(t.name)
		}
	}
	return out
}

// goalQuery builds the core form of a query spec; the staged datalog replay
// uses it too.
func goalQuery(q querySpec) core.GoalQuery {
	gq := core.GoalQuery{Goal: datalog.NewAtom(q.goal.pred, coreTerms(q.goal.args)...)}
	for _, r := range q.rules {
		head := make([]datalog.HeadTerm, len(r.vars))
		for i, v := range r.vars {
			head[i] = datalog.HV(v)
		}
		body := make([]datalog.Literal, len(r.body))
		for i, a := range r.body {
			body[i] = datalog.Pos(datalog.NewAtom(a.pred, coreTerms(a.args)...))
		}
		gq.Rules = append(gq.Rules, datalog.Rule{
			ID:   fmt.Sprintf("%s/%d", r.head, len(gq.Rules)),
			Head: datalog.Head{Pred: r.head, Terms: head},
			Body: body,
		})
	}
	return gq
}

func (c corePeer) Query(ctx context.Context, q querySpec) (int, error) {
	ans, err := c.p.QueryGoal(ctx, goalQuery(q))
	return len(ans), err
}

// openSDK opens the plan's system through the public SDK. With a tracer the
// store seam is decorated (in memory) and metrics stay on; without one the
// run is the timed configuration: WithMetrics(false), no spans.
func openSDK(p *plan, dir string, tr *tracer) (*env, error) {
	opts := []orchestra.Option{orchestra.WithMaxMonomials(p.maxMonomials), orchestra.WithReconcileWindow(wholeBacklog)}
	if tr == nil {
		opts = append(opts, orchestra.WithMetrics(false))
	}
	var timed *timedStore
	if p.durable {
		opts = append(opts, orchestra.WithDurableDir(dir))
	} else if tr != nil {
		timed = &timedStore{inner: orchestra.NewMemoryStore(), tr: tr}
		opts = append(opts, orchestra.WithStore(timed))
	}
	sys, err := orchestra.Open(p.schema(), opts...)
	if err != nil {
		return nil, err
	}
	e := &env{peers: map[string]peerAPI{}, store: sys.Store(), timed: timed, close: sys.Close}
	if timed != nil {
		e.store = timed.inner
	}
	if tr != nil {
		e.metrics = sys.Metrics
	}
	for _, n := range p.names {
		sp, err := sys.Peer(n)
		if err != nil {
			sys.Close()
			return nil, err
		}
		e.peers[n] = sdkPeer{sp}
	}
	return e, nil
}

// openCoreDurable assembles the durable stack the way orchestra.Open and
// System.Peer do — lsm.Open, p2p.NewDurableStore, core.RecoverPeerWith,
// SetObserver — but with the store seam decorated, so the traced run sees
// the archive under each operation.
func openCoreDurable(p *plan, dir string, tr *tracer) (*env, error) {
	reg := obs.NewRegistry()
	stats := &datalog.EvalStats{}
	db, err := lsm.Open(dir, lsm.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	ds, err := p2p.NewDurableStore(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	ds.SetMetrics(reg)
	store := &timedStore{inner: ds, tr: tr}
	cs, err := core.NewSystem(p.peers, p.mappings)
	if err != nil {
		db.Close()
		return nil, err
	}
	e := &env{peers: map[string]peerAPI{}, store: ds, timed: store, db: db}
	ctx := context.Background()
	for _, n := range p.names {
		pol := p.policies[n]
		if pol == nil {
			pol = recon.TrustAll(1)
		}
		cp, err := core.RecoverPeerWith(ctx, n, cs, store, pol, exchange.Config{Stats: stats, MaxMonomials: p.maxMonomials, ReconcileWindow: wholeBacklog}, db)
		if err != nil {
			db.Close()
			return nil, err
		}
		cp.SetObserver(reg, 0)
		e.peers[n] = corePeer{p: cp, db: db, tr: tr}
	}
	e.metrics = func() *orchestra.MetricsSnapshot {
		snap := reg.Snapshot()
		return &orchestra.MetricsSnapshot{
			Counters: snap.Counters, Gauges: snap.Gauges, Histograms: snap.Histograms,
			Eval: orchestra.EvalCounters{
				Probes: stats.Probes.Load(), PushdownProbes: stats.PushdownProbes.Load(),
				Candidates: stats.Candidates.Load(), Emitted: stats.Emitted.Load(),
				Suppressed: stats.Suppressed.Load(), HashJoinBuilds: stats.HashJoinBuilds.Load(),
				Rounds: stats.Rounds.Load(), ParallelRounds: stats.ParallelRounds.Load(),
				WorkersUsed: stats.WorkersUsed.Load(), PeakLive: stats.PeakLive.Load(),
			},
		}
	}
	e.walBytes = reg.Counter("lsm_wal_bytes_total").Value
	e.close = db.Close
	return e, nil
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
