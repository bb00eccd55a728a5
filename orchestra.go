package orchestra

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"orchestra/internal/core"
	"orchestra/internal/datalog"
	"orchestra/internal/demo"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/obs"
	"orchestra/internal/p2p"
)

// System is an open confederation: the shared published-update store, the
// compiled mappings, and the peers opened against them. It is the facade's
// root object; create one with Open and release it with Close.
type System struct {
	core     *core.System
	store    Store
	base     settings
	policies map[string]*TrustPolicy
	// db is the durable LSM tier (WithDurableDir); nil for in-memory
	// systems. It backs both the published archive and peer checkpoints,
	// and is owned by the System: Close checkpoints open peers into it and
	// releases it.
	db        *lsm.DB
	closeOnce sync.Once
	closeErr  error

	// reg is the system-wide metrics registry (nil with WithMetrics(false));
	// stats is the engine-shared datalog counter block every peer's
	// evaluations accumulate into. See metrics.go.
	reg   *obs.Registry
	stats *datalog.EvalStats

	// ctx is the system lifetime; Close cancels it, stopping subscription
	// pumps and ending every active subscription with ErrClosed.
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	peers map[string]*Peer
}

// Open validates the confederation description and opens a System over it.
// Options set system-wide defaults (parallelism, witness bounds, the shared
// store, the default trust policy); System.Peer can override the trust
// policy per peer.
func Open(sch *Schema, opts ...Option) (*System, error) {
	if sch == nil {
		return nil, fmt.Errorf("orchestra: Open with a nil schema")
	}
	peers, mappings, policies, err := sch.resolve()
	if err != nil {
		return nil, wrapErr(err)
	}
	cs, err := core.NewSystem(peers, mappings)
	if err != nil {
		return nil, wrapErr(err)
	}
	base := defaultSettings().apply(opts)
	reg, stats := newSystemObservability(base.metrics)
	store := base.store
	var db *lsm.DB
	if base.durableDir != "" {
		if store != nil {
			return nil, fmt.Errorf("orchestra: WithDurableDir and WithStore are mutually exclusive — the durable tier is the store")
		}
		var ds *p2p.DurableStore
		if db, ds, err = openDurableTier(base.durableDir, reg); err != nil {
			return nil, err
		}
		store = ds
	}
	if store == nil {
		store = NewMemoryStore()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &System{
		core:     cs,
		store:    store,
		base:     base,
		policies: policies,
		db:       db,
		reg:      reg,
		stats:    stats,
		ctx:      ctx,
		cancel:   cancel,
		peers:    map[string]*Peer{},
	}, nil
}

// openDurableTier opens the LSM database in dir and the archive inside it.
func openDurableTier(dir string, reg *obs.Registry) (*lsm.DB, *p2p.DurableStore, error) {
	db, err := lsm.Open(dir, lsm.Options{Metrics: reg})
	if err != nil {
		return nil, nil, fmt.Errorf("orchestra: open durable tier: %w", err)
	}
	ds, err := p2p.NewDurableStore(db)
	if err != nil {
		db.Close()
		return nil, nil, fmt.Errorf("orchestra: open durable tier: %w", err)
	}
	ds.SetMetrics(reg)
	return db, ds, nil
}

// Peer opens (or returns the already-open handle for) the named peer.
// Per-peer options — most usefully WithTrustPolicy — must be given on the
// first open; a later call with options for an open peer is an error.
// The effective trust policy is resolved in precedence order: per-peer
// option, schema-declared policy, Open-level default, trust-all at 1.
func (s *System) Peer(name string, opts ...Option) (*Peer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx.Err() != nil {
		return nil, ErrClosed
	}
	if p, ok := s.peers[name]; ok {
		if len(opts) > 0 {
			return nil, fmt.Errorf("orchestra: peer %s already open; per-peer options must be given on first open", name)
		}
		return p, nil
	}
	set := s.base.apply(opts)
	pol := set.policy
	if pol == s.base.policy { // not overridden per peer: schema declarations win
		pol = policyFor(s.policies, s.base.policy, name)
	}
	cfg := exchange.Config{
		Parallelism:     set.parallelism,
		MaxMonomials:    set.maxMonomials,
		ReconcileWindow: set.reconcileWindow,
		Stats:           s.stats,
	}
	var cp *core.Peer
	var err error
	if s.db != nil {
		// Durable tier: the peer comes back from its last checkpoint plus a
		// replay of the published suffix, instead of starting empty.
		cp, err = core.RecoverPeerWith(s.ctx, name, s.core, s.store, pol, cfg, s.db)
	} else {
		cp, err = core.NewPeerWith(name, s.core, s.store, pol, cfg)
	}
	if err != nil {
		return nil, wrapErr(err)
	}
	p := &Peer{
		sys:       s,
		name:      name,
		core:      cp,
		set:       set,
		wake:      make(chan struct{}, 1),
		subs:      map[*subscription]struct{}{},
		subEvents: s.reg.Counter("subscribe_events_total"),
		pumpRuns:  s.reg.Counter("subscribe_pump_reconciles_total"),
	}
	cp.SetApplyHook(p.fanout)
	cp.SetObserver(s.reg, set.slowOp)
	s.peers[name] = p
	return p, nil
}

// Epoch returns the shared store's current logical clock.
func (s *System) Epoch() (uint64, error) { return s.store.Epoch() }

// ReconcileAll reconciles every open peer once, in deterministic (name)
// order, and returns the per-peer reports. Each peer translates its
// fetched backlog as one group-committed batch (see Peer.Reconcile and
// WithReconcileWindow), so draining a publication burst across the
// confederation costs a handful of seeded fixpoints per peer rather than
// one per transaction. On error the partial report map is returned
// alongside it; with WithStrictConflicts a deferred conflict at
// any peer surfaces as ErrConflictPending, after later peers have still
// been reconciled.
func (s *System) ReconcileAll(ctx context.Context) (map[string]*ReconcileReport, error) {
	if s.ctx.Err() != nil {
		return nil, ErrClosed
	}
	s.mu.Lock()
	peers := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].name < peers[j].name })
	out := make(map[string]*ReconcileReport, len(peers))
	var firstErr error
	for _, p := range peers {
		rep, err := p.Reconcile(ctx)
		if rep != nil {
			out[p.name] = rep
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

// Store returns the shared published-update store.
func (s *System) Store() Store { return s.store }

// Close releases the system: subscription pumps stop and every active
// subscription ends with ErrClosed. Peers' local state stays readable, but
// operations that would advance the system return ErrClosed. On a durable
// system, Close first checkpoints every open peer (so a clean shutdown
// loses nothing, including committed-but-unpublished transactions) and
// then releases the LSM database. Close is idempotent.
func (s *System) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		if s.db == nil {
			return
		}
		s.mu.Lock()
		peers := make([]*Peer, 0, len(s.peers))
		for _, p := range s.peers {
			peers = append(peers, p)
		}
		s.mu.Unlock()
		sort.Slice(peers, func(i, j int) bool { return peers[i].name < peers[j].name })
		for _, p := range peers {
			if err := p.core.SaveCheckpoint(s.db); err != nil && s.closeErr == nil {
				s.closeErr = fmt.Errorf("orchestra: close: checkpoint %s: %w", p.name, err)
			}
		}
		if err := s.db.Close(); err != nil && s.closeErr == nil {
			s.closeErr = fmt.Errorf("orchestra: close durable tier: %w", err)
		}
	})
	return s.closeErr
}

// notifyPublish pokes every other peer's auto-reconcile pump after origin
// published, pushing the new epoch to their subscribers.
func (s *System) notifyPublish(origin *Peer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.peers {
		if p != origin {
			p.poke()
		}
	}
}

// RunDemoScenario runs one of the SIGMOD 2007 demonstration scenarios
// (1..DemoScenarios) over the paper's Figure 2 bioinformatics CDSS,
// printing state transitions to w.
func RunDemoScenario(w io.Writer, n int) error { return demo.Run(w, n) }

// DemoScenarios returns the number of demonstration scenarios.
func DemoScenarios() int { return demo.Scenarios() }
