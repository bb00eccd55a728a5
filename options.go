package orchestra

import "time"

// Option tunes Open (system-wide defaults) and System.Peer (per-peer
// overrides). Options replace the exported configuration structs the
// internal layers use; the zero configuration is always valid.
type Option func(*settings)

// settings is the resolved option set. A peer starts from the system's
// settings and applies its own options on top.
type settings struct {
	parallelism     int
	maxMonomials    int
	reconcileWindow int
	provenance      bool
	store           Store
	policy          *TrustPolicy
	strict          bool
	durableDir      string
	metrics         bool
	slowOp          time.Duration
}

func defaultSettings() settings {
	return settings{provenance: true, metrics: true}
}

func (s settings) apply(opts []Option) settings {
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithParallelism bounds how many goroutines evaluate independent mapping
// rules within a fixpoint round. 0 (the default) adapts: each round picks
// a worker count from its delta size, up to runtime.GOMAXPROCS(0), falling
// back to sequential evaluation when the round is too small to amortize
// fan-out.
// n > 1 allows n workers, even past the CPU count; 1 or negative forces
// sequential evaluation. Results are byte-identical at every setting.
func WithParallelism(n int) Option { return func(s *settings) { s.parallelism = n } }

// WithReconcileWindow caps how many fetched transactions one Reconcile
// feeds through a single group-committed translation batch: n > 0 means at
// most n; 0 (the default) or negative translates the whole backlog as one
// batch. Tuples are identical at every setting — the cap only trades peak
// memory and time-to-first-change against per-batch amortization.
func WithReconcileWindow(n int) Option { return func(s *settings) { s.reconcileWindow = n } }

// WithMaxMonomials bounds each tuple's provenance witness set. 0 (the
// default) keeps the engine default (8); negative removes the bound, at
// combinatorial cost on dense mapping graphs.
func WithMaxMonomials(n int) Option { return func(s *settings) { s.maxMonomials = n } }

// WithProvenance toggles provenance on query answers, subscription changes,
// and Explain (default true). Update exchange itself always maintains
// provenance internally — deletion propagation and provenance-based trust
// are impossible without it — so disabling this only strips annotations
// from what the API hands back.
func WithProvenance(enabled bool) Option { return func(s *settings) { s.provenance = enabled } }

// WithStore selects the published-update store the confederation shares
// (default: a fresh in-process store). System-level; ignored on System.Peer.
func WithStore(st Store) Option { return func(s *settings) { s.store = st } }

// WithDurableDir puts the system on the durable LSM tier rooted at dir:
// the published-transaction archive lives in a log-structured store
// (checksummed WAL, sorted checkpointed SSTables) instead of process
// memory, every Publish group-commits its batch as one fsynced WAL record,
// and peers checkpoint their local instances into the same database —
// automatically after each successful publish, or on demand with
// Peer.Checkpoint. System.Peer then recovers each peer from its last
// checkpoint plus the published suffix, so a process crash loses at most
// the local commits made after the last checkpoint or publish. Mutually
// exclusive with WithStore (the durable tier IS the store); system-level,
// ignored on System.Peer. System.Close checkpoints every open peer and
// releases the database.
func WithDurableDir(dir string) Option { return func(s *settings) { s.durableDir = dir } }

// WithTrustPolicy sets the trust policy — at Open, the default for every
// peer; at System.Peer, that peer's policy. It overrides any policy the
// parsed schema text declared for the peer. Default: trust everything at
// priority 1.
func WithTrustPolicy(p *TrustPolicy) Option { return func(s *settings) { s.policy = p } }

// WithStrictConflicts makes Reconcile fail with ErrConflictPending when a
// round defers transactions for manual resolution, instead of reporting
// them and succeeding. Pipelines that must not proceed past unresolved
// disagreement set this; interactive peers usually keep the default.
func WithStrictConflicts() Option { return func(s *settings) { s.strict = true } }

// WithMetrics toggles the system's observability layer (default true): the
// metrics registry behind System.Metrics and System.DebugHandler, operation
// span tracing, and the layer counters fed by lsm/exchange/datalog/core.
// Disabling it reduces instrumentation to nil checks on hot paths — the
// overhead benchmark gate in CI holds the enabled path within a few percent
// of this disabled baseline. System-level; ignored on System.Peer.
func WithMetrics(enabled bool) Option { return func(s *settings) { s.metrics = enabled } }

// WithSlowOpThreshold makes every publish, reconcile, checkpoint, or query
// slower than d emit one structured warning through log/slog (op, peer,
// duration). 0 (the default) disables slow-op logging. Requires metrics to
// be enabled. At Open it sets the default for every peer; at System.Peer it
// overrides for that peer.
func WithSlowOpThreshold(d time.Duration) Option { return func(s *settings) { s.slowOp = d } }
