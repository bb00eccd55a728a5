package orchestra

import (
	"orchestra/internal/core"
	"orchestra/internal/lsm"
	"orchestra/internal/mapping"
	"orchestra/internal/p2p"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// This file re-exports the value-level vocabulary of the SDK — values,
// tuples, relations, mappings, trust policies, transaction ids, and stores —
// so that programs drive the system through this package alone. The types
// are aliases: data built here flows into the internal layers without
// conversion, and internal results (reports, rows, provenance) can be
// consumed directly.

// Values and tuples.
type (
	// Value is a single attribute value.
	Value = schema.Value
	// Tuple is an ordered list of values.
	Tuple = schema.Tuple
	// Kind enumerates the runtime type of a Value.
	Kind = schema.Kind
)

// Value kinds.
const (
	KindString      = schema.KindString
	KindInt         = schema.KindInt
	KindFloat       = schema.KindFloat
	KindBool        = schema.KindBool
	KindLabeledNull = schema.KindLabeledNull
)

// String constructs a string Value.
func String(s string) Value { return schema.String(s) }

// Int constructs an integer Value.
func Int(i int64) Value { return schema.Int(i) }

// Float constructs a float Value.
func Float(f float64) Value { return schema.Float(f) }

// Bool constructs a boolean Value.
func Bool(b bool) Value { return schema.Bool(b) }

// NewTuple builds a tuple from values.
func NewTuple(vs ...Value) Tuple { return schema.NewTuple(vs...) }

// Relations and peer schemas.
type (
	// Attribute is one typed column of a relation.
	Attribute = schema.Attribute
	// Relation describes one relation: name, attributes, and key columns.
	Relation = schema.Relation
	// PeerSchema is the relational schema of a single peer.
	PeerSchema = schema.Schema
)

// NewPeerSchema creates an empty peer schema.
func NewPeerSchema(name string) *PeerSchema { return schema.NewSchema(name) }

// NewRelation builds a relation descriptor; key names must reference
// declared attributes.
func NewRelation(name string, attrs []Attribute, keyCols ...string) (*Relation, error) {
	return schema.NewRelation(name, attrs, keyCols...)
}

// MustRelation is NewRelation, panicking on error — for static schemas.
func MustRelation(name string, attrs []Attribute, keyCols ...string) *Relation {
	return schema.MustRelation(name, attrs, keyCols...)
}

// Mappings.

// Mapping is one declarative schema mapping (a tgd) between two peers.
type Mapping = mapping.Mapping

// IdentityMappings returns the mappings that copy every relation of s
// verbatim from the source peer to the target peer.
func IdentityMappings(id, source, target string, s *PeerSchema) []*Mapping {
	return mapping.Identity(id, source, target, s)
}

// Trust policies.
type (
	// TrustPolicy is a peer's trust policy: ordered conditions plus the
	// default priority for unmatched updates.
	TrustPolicy = recon.Policy
	// TrustCondition assigns a priority to updates a predicate matches.
	TrustCondition = recon.Condition
	// Status is the local disposition of a transaction after reconciliation.
	Status = recon.Status
)

// Distrusted is the priority that marks an update as not trusted.
const Distrusted = recon.Distrusted

// Reconciliation statuses.
const (
	StatusUnknown  = recon.StatusUnknown
	StatusPending  = recon.StatusPending
	StatusAccepted = recon.StatusAccepted
	StatusRejected = recon.StatusRejected
	StatusDeferred = recon.StatusDeferred
)

// TrustAll returns a policy that assigns every update the same priority.
func TrustAll(priority int) *TrustPolicy { return recon.TrustAll(priority) }

// FromPeer matches updates from transactions published by peer.
func FromPeer(peer string, priority int) TrustCondition { return recon.FromPeer(peer, priority) }

// OnRelation matches updates against a given local relation.
func OnRelation(rel string, priority int) TrustCondition { return recon.OnRelation(rel, priority) }

// TupleWhere matches updates whose target tuple satisfies pred.
func TupleWhere(rel string, pred func(Tuple) bool, priority int) TrustCondition {
	return recon.TupleWhere(rel, pred, priority)
}

// ThroughMapping matches updates whose provenance passes through the given
// mapping — trust by how data was assembled. It sees only the witnesses
// the witness bound kept (WithMaxMonomials): a derivation through the
// mapping along a longer path can be cut, and the decision then differs
// from the one at an unbounded engine.
func ThroughMapping(mappingID string, priority int) TrustCondition {
	return recon.ThroughMapping(mappingID, priority)
}

// DerivedFromPeer matches updates whose provenance mentions a token minted
// by the given peer — trust by where data originated. Like ThroughMapping,
// it sees only the witnesses the witness bound kept.
func DerivedFromPeer(peer string, priority int) TrustCondition {
	return recon.DerivedFromPeer(peer, priority)
}

// Transactions and updates.
type (
	// TxnID identifies a published transaction globally.
	TxnID = updates.TxnID
	// Transaction is an atomic group of updates published at one epoch.
	Transaction = updates.Transaction
	// Update is one tuple-level change against a relation.
	Update = updates.Update
	// Op is the kind of a tuple-level update.
	Op = updates.Op
)

// Update operations.
const (
	OpInsert = updates.OpInsert
	OpDelete = updates.OpDelete
	OpModify = updates.OpModify
)

// Provenance.
type (
	// Provenance is a provenance polynomial annotating a tuple.
	Provenance = provenance.Poly
	// Support is one alternative derivation of a tuple: contributing
	// transactions and the mappings the data passed through.
	Support = core.Support
)

// ReconcileReport summarizes one reconciliation round.
type ReconcileReport = core.ReconcileReport

// Stores. The published-update store is the archive every peer publishes to
// and reconciles from; it can live in process, on disk, or behind TCP
// replicas.
type (
	// Store is the published-transaction archive interface.
	Store = p2p.Store
	// StoreServer serves a Store over TCP.
	StoreServer = p2p.Server
	// WireTxn is the JSON form of a Transaction, which `orchestra log`
	// prints. The TCP store protocol and the durable archive carry a
	// binary encoding instead.
	WireTxn = p2p.WireTxn
)

// NewMemoryStore creates an empty in-process store.
func NewMemoryStore() *p2p.MemoryStore { return p2p.NewMemoryStore() }

// DurableStore is a Store archived in an LSM directory of its own (see
// OpenDurableStore). A System opened WithDurableDir has its store inside the
// system's directory instead and needs none of this.
type DurableStore struct {
	*p2p.DurableStore
	db *lsm.DB
}

// OpenDurableStore opens (or creates) a durable store in dir: every Publish
// is one fsynced write, and a reopened store serves what was acknowledged.
func OpenDurableStore(dir string) (*DurableStore, error) {
	db, ds, err := openDurableTier(dir, nil)
	if err != nil {
		return nil, err
	}
	return &DurableStore{DurableStore: ds, db: db}, nil
}

// Close releases the directory.
func (s *DurableStore) Close() error { return s.db.Close() }

// NewStoreServer serves store over TCP at addr ("host:0" picks a port).
func NewStoreServer(store Store, addr string) (*StoreServer, error) {
	return p2p.NewServer(store, addr)
}

// DialStore returns a Store backed by a remote store replica.
func DialStore(addr string) Store { return p2p.NewClient(addr) }

// NewReplicatedStore fans publishes out to every reachable replica and reads
// from the reachable replica with the highest epoch.
func NewReplicatedStore(replicas ...Store) Store { return p2p.NewReplicatedStore(replicas...) }

// AntiEntropy merges the contents of two in-process stores, bringing a
// rejoined replica back in sync. A merged transaction keeps the epoch the
// replica that had it assigned, so one a replica missed while it was down is
// not delivered to a peer that has already read past that epoch.
func AntiEntropy(a, b *p2p.MemoryStore) { p2p.AntiEntropy(a, b) }

// EncodeTxn converts a transaction to its JSON form, for inspection and
// log dumps.
func EncodeTxn(t *Transaction) WireTxn { return p2p.EncodeTxn(t) }
