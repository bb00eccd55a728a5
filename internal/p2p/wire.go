package p2p

import (
	"errors"
	"fmt"

	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// ErrBadWire reports a malformed transaction, on the wire or in the
// archive: no publishing peer, a sequence number 0 (no peer commits one:
// sequences start at 1), an unknown update op, or an undecodable
// tuple/transaction-id encoding. Every DecodeTxn failure and every archived
// value DurableStore.Since cannot read wraps it (and the underlying parse
// error, when there is one), so callers dispatch with errors.Is/errors.As
// like the rest of the error taxonomy.
var ErrBadWire = errors.New("p2p: malformed wire transaction")

// MaxRequestBytes caps one request frame a Server will buffer. A publish of
// a hundred thousand typical transactions fits; a peer that never sends the
// terminator cannot make a replica allocate more than this per connection.
const MaxRequestBytes = 32 << 20

// ErrFrameTooLarge reports a request frame longer than MaxRequestBytes. The
// server answers with it and closes the connection.
var ErrFrameTooLarge = errors.New("p2p: request frame too large")

// Wire representations: over the TCP protocol transactions travel as JSON
// with tuples encoded by their canonical injective keys (schema.Tuple.Key),
// which round-trip exactly; `orchestra log` prints the same form. The
// durable archive stores the binary updates.AppendTxn encoding instead.
// Provenance does not travel — published transactions carry original
// updates whose provenance (their own tokens) is re-minted
// deterministically by the receiving side's exchange engine.

// WireUpdate is the wire form of updates.Update.
type WireUpdate struct {
	Rel string `json:"rel"`
	Op  uint8  `json:"op"`
	Old string `json:"old,omitempty"`
	New string `json:"new,omitempty"`
}

// WireTxn is the JSON form of updates.Transaction: the TCP protocol's, and
// the one kept for inspection.
type WireTxn struct {
	Peer    string       `json:"peer"`
	Seq     uint64       `json:"seq"`
	Epoch   uint64       `json:"epoch"`
	Updates []WireUpdate `json:"updates"`
	Deps    []string     `json:"deps,omitempty"`
}

// EncodeTxn converts a transaction to its JSON form (WireTxn).
func EncodeTxn(t *updates.Transaction) WireTxn {
	w := WireTxn{Peer: t.ID.Peer, Seq: t.ID.Seq, Epoch: t.Epoch}
	for _, u := range t.Updates {
		wu := WireUpdate{Rel: u.Rel, Op: uint8(u.Op)}
		if u.Old != nil {
			wu.Old = u.Old.Key()
		}
		if u.New != nil {
			wu.New = u.New.Key()
		}
		w.Updates = append(w.Updates, wu)
	}
	for _, d := range t.Deps {
		w.Deps = append(w.Deps, d.String())
	}
	return w
}

// DecodeTxn converts wire form back to a transaction.
func DecodeTxn(w WireTxn) (*updates.Transaction, error) {
	if w.Peer == "" || w.Seq == 0 {
		return nil, fmt.Errorf("%w: transaction id %q:%d", ErrBadWire, w.Peer, w.Seq)
	}
	t := &updates.Transaction{
		ID:    updates.TxnID{Peer: w.Peer, Seq: w.Seq},
		Epoch: w.Epoch,
	}
	for _, wu := range w.Updates {
		u := updates.Update{Rel: wu.Rel, Op: updates.Op(wu.Op)}
		if wu.Op > uint8(updates.OpModify) {
			return nil, fmt.Errorf("%w: unknown op %d", ErrBadWire, wu.Op)
		}
		if wu.Old != "" {
			tu, err := schema.ParseTupleKey(wu.Old)
			if err != nil {
				return nil, fmt.Errorf("%w: bad old tuple: %w", ErrBadWire, err)
			}
			u.Old = tu
		}
		if wu.New != "" {
			tu, err := schema.ParseTupleKey(wu.New)
			if err != nil {
				return nil, fmt.Errorf("%w: bad new tuple: %w", ErrBadWire, err)
			}
			u.New = tu
		}
		t.Updates = append(t.Updates, u)
	}
	for _, d := range w.Deps {
		id, err := updates.ParseTxnID(d)
		if err != nil {
			return nil, fmt.Errorf("%w: bad dep: %w", ErrBadWire, err)
		}
		t.Deps = append(t.Deps, id)
	}
	return t, nil
}

// request and response are the TCP protocol frames (JSON, one per line).
type request struct {
	Op    string    `json:"op"` // "publish", "since", "epoch"
	Epoch uint64    `json:"epoch,omitempty"`
	Txns  []WireTxn `json:"txns,omitempty"`
}

type response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code carries the sentinel identity of well-known errors across the
	// wire (errCodeFor/sentinelForCode), so clients rebuild an error that
	// still matches errors.Is even though Error itself is just a string.
	Code  string    `json:"code,omitempty"`
	Epoch uint64    `json:"epoch,omitempty"`
	Txns  []WireTxn `json:"txns,omitempty"`
}

// Wire error codes. Every sentinel that must survive the TCP protocol gets
// a stable code; unknown codes degrade to a plain string error.
var wireSentinels = map[string]error{
	"already_published": ErrAlreadyPublished,
	"frame_too_large":   ErrFrameTooLarge,
}

// errCodeFor maps an error to its wire code ("" when it has none).
func errCodeFor(err error) string {
	for code, sentinel := range wireSentinels {
		if errors.Is(err, sentinel) {
			return code
		}
	}
	return ""
}

// sentinelForCode maps a wire code back to the sentinel it stands for (nil
// for an unknown code).
func sentinelForCode(code string) error { return wireSentinels[code] }

// wireError is a server-reported error rebuilt on the client with its
// sentinel identity: Error() keeps the server's exact message, Unwrap makes
// errors.Is(err, sentinel) hold across the protocol boundary.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }
