package core

import (
	"log/slog"
	"time"

	"orchestra/internal/datalog"
	"orchestra/internal/obs"
	"orchestra/internal/recon"
)

// observer is a peer's resolved observability surface: span tracing for the
// publish/reconcile/checkpoint/query operations, exchange-layer batch and
// drain metrics, and structured slow-operation logging. The zero value is a
// disabled observer — every handle is nil (obs handles no-op on nil) and
// every method returns after a nil check — so un-instrumented peers pay no
// clock reads or atomics. Installed once via Peer.SetObserver; handles are
// resolved there, never per operation.
type observer struct {
	reg    *obs.Registry
	slowOp time.Duration
	// stats is the peer's engine-shared datalog.EvalStats (from
	// exchange.Config.Stats); the observer folds per-operation fixpoint-round
	// deltas out of it and installs it as the default query stats sink.
	stats *datalog.EvalStats

	publishes   *obs.Counter   // core_publish_total
	publishedTx *obs.Counter   // core_published_txns_total
	reconciles  *obs.Counter   // core_reconcile_total
	acceptedTx  *obs.Counter   // core_accepted_txns_total
	appliedUps  *obs.Counter   // core_applied_updates_total
	checkpoints *obs.Counter   // core_checkpoint_total
	queries     *obs.Counter   // core_query_total
	prepares    *obs.Counter   // core_query_prepares_total (query shapes compiled)
	replans     *obs.Counter   // core_query_replans_total (plans rebuilt: a size tie flipped)
	batchTxns   *obs.Histogram // exchange_applyall_batch_txns
	drainTxnNs  *obs.Histogram // exchange_drain_txn_ns (per-txn drain latency)
	fixRounds   *obs.Histogram // datalog_fixpoint_rounds (per reconcile/query)

	reconVisited  *obs.Counter // recon_visited_txns_total (nodes examined by Reconcile/Resolve)
	reconPending  *obs.Gauge   // recon_pending_txns (seen, unapplied: distrusted or missing antecedents)
	reconDeferred *obs.Gauge   // recon_deferred_txns (conflicts awaiting Resolve)
	// visitedSeen is the part of the state's cumulative work counter that
	// predates the observer or is already in reconVisited.
	visitedSeen uint64

	recoveryTxns    *obs.Histogram // recovery_replay_txns (suffix length per recovery)
	recoveryLoadNs  *obs.Histogram // recovery_load_ns (checkpoint+snapshot load time)
	checkpointBytes *obs.Gauge     // checkpoint_bytes (last checkpoint batch size)
	blobWrites      *obs.Counter   // core_engine_blob_writes_total (checkpoints that rebased the blob)

	// The operations' spans, resolved once so an operation's span allocates
	// nothing; drainSpan is the reconcile span's per-window child.
	publishSpan, reconcileSpan, drainSpan, checkpointSpan, querySpan *obs.SpanKind
}

// SetObserver installs the peer's observability surface: operation spans and
// counters record into reg, and operations slower than slowOp (when > 0) log
// a structured warning through log/slog. The engine's evaluation counters
// ride the peer's exchange.Config.Stats, so callers that want fixpoint-round
// deltas must have built the peer with Config.Stats set. Passing a nil reg
// disables observation again.
func (p *Peer) SetObserver(reg *obs.Registry, slowOp time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if reg == nil {
		p.obsv = observer{}
		return
	}
	p.obsv = observer{
		reg:         reg,
		slowOp:      slowOp,
		stats:       p.engCfg.Stats,
		publishes:   reg.Counter("core_publish_total"),
		publishedTx: reg.Counter("core_published_txns_total"),
		reconciles:  reg.Counter("core_reconcile_total"),
		acceptedTx:  reg.Counter("core_accepted_txns_total"),
		appliedUps:  reg.Counter("core_applied_updates_total"),
		checkpoints: reg.Counter("core_checkpoint_total"),
		queries:     reg.Counter("core_query_total"),
		prepares:    reg.Counter("core_query_prepares_total"),
		replans:     reg.Counter("core_query_replans_total"),
		batchTxns:   reg.Histogram("exchange_applyall_batch_txns"),
		drainTxnNs:  reg.Histogram("exchange_drain_txn_ns"),
		fixRounds:   reg.Histogram("datalog_fixpoint_rounds"),

		reconVisited:  reg.Counter("recon_visited_txns_total"),
		reconPending:  reg.Gauge("recon_pending_txns"),
		reconDeferred: reg.Gauge("recon_deferred_txns"),
		visitedSeen:   p.state.Stats().Visited,

		recoveryTxns:    reg.Histogram("recovery_replay_txns"),
		recoveryLoadNs:  reg.Histogram("recovery_load_ns"),
		checkpointBytes: reg.Gauge("checkpoint_bytes"),
		blobWrites:      reg.Counter("core_engine_blob_writes_total"),

		publishSpan:    reg.SpanKind("core_publish"),
		reconcileSpan:  reg.SpanKind("core_reconcile"),
		drainSpan:      reg.SpanKind("exchange_drain"),
		checkpointSpan: reg.SpanKind("core_checkpoint"),
		querySpan:      reg.SpanKind("core_query"),
	}
	// Recovery runs before the observer is installed (RecoverPeerWith is
	// called by the facade before SetObserver); the peer buffers its
	// recovery stats and they flush here, on first installation.
	if p.pendingRecovery {
		p.obsv.recoveryTxns.Observe(p.recReplayTxns)
		p.obsv.recoveryLoadNs.Observe(p.recLoadNs)
		p.pendingRecovery = false
	}
}

// endSpan completes sp and emits the slow-operation warning when its
// duration crosses the configured threshold. Safe on the zero span, which
// a disabled observer's nil kinds start.
func (o *observer) endSpan(sp obs.Span, peer string) {
	d := sp.End()
	if o.slowOp > 0 && d > o.slowOp {
		slog.Warn("orchestra: slow operation",
			"op", sp.Name(), "peer", peer, "duration", d, "threshold", o.slowOp)
	}
}

// roundsNow reads the engine's cumulative fixpoint-round counter (0 when no
// stats struct is installed).
func (o *observer) roundsNow() int64 {
	if o.stats == nil {
		return 0
	}
	return o.stats.Rounds.Load()
}

// observeRounds records the fixpoint rounds one operation consumed.
func (o *observer) observeRounds(before int64) {
	if o.stats == nil {
		return
	}
	if d := o.stats.Rounds.Load() - before; d > 0 {
		o.fixRounds.Observe(d)
	}
}

// observeRecon exports the trust state's work counter and open-set sizes
// after a Reconcile or Resolve.
func (o *observer) observeRecon(st recon.Stats) {
	if o.reg == nil {
		return
	}
	o.reconVisited.Add(int64(st.Visited - o.visitedSeen))
	o.visitedSeen = st.Visited
	o.reconPending.Set(int64(st.Pending))
	o.reconDeferred.Set(int64(st.Deferred))
}

// observeDrain records one drained ApplyAll batch: its size and per-txn
// drain latency.
func (o *observer) observeDrain(n int, elapsed time.Duration) {
	if o.reg == nil || n <= 0 {
		return
	}
	o.batchTxns.Observe(int64(n))
	o.drainTxnNs.Observe(elapsed.Nanoseconds() / int64(n))
}
