package updates

import (
	"encoding/binary"

	"orchestra/internal/codec"
	"orchestra/internal/schema"
)

// AppendTxn appends t's durable binary form to buf. It is the one encoding
// of a stored transaction: the published archive, a peer's unpublished
// queue and the engine blob's trust-state entries all hold it (DESIGN.md
// §11, §13). Layout (uvarint integers, uvarint-length-prefixed strings):
//
//	peer, seq, epoch
//	nUps · { rel, op byte, old tuple key, new tuple key }
//	nDeps · { peer, seq }
//
// Tuples are their schema.Tuple.Key strings, "" for no tuple. Provenance
// is not written: a published update's is its own token, which the
// receiving engine mints again, and a format that stores translated
// provenance writes it beside the transaction.
func AppendTxn(buf []byte, t *Transaction) []byte {
	buf = codec.AppendString(buf, t.ID.Peer)
	buf = binary.AppendUvarint(buf, t.ID.Seq)
	buf = binary.AppendUvarint(buf, t.Epoch)
	buf = binary.AppendUvarint(buf, uint64(len(t.Updates)))
	for _, u := range t.Updates {
		buf = codec.AppendString(buf, u.Rel)
		buf = append(buf, byte(u.Op))
		buf = codec.AppendString(buf, u.Old.Key())
		buf = codec.AppendString(buf, u.New.Key())
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.Deps)))
	for _, d := range t.Deps {
		buf = codec.AppendString(buf, d.Peer)
		buf = binary.AppendUvarint(buf, d.Seq)
	}
	return buf
}

// ReadTxn reads one AppendTxn encoding from r into t and returns r's
// error. It refuses, through r, an id without a peer or with sequence 0
// (no peer commits one: sequences start at 1), an unknown op and a tuple
// key schema.ParseTupleKey refuses; whatever it accepts re-encodes to the
// bytes it read (FuzzReadTxn).
func ReadTxn(r *codec.Reader, t *Transaction) error {
	t.ID = TxnID{Peer: r.Name(), Seq: r.Uvarint()}
	t.Epoch = r.Uvarint()
	if r.Err() == nil && (t.ID.Peer == "" || t.ID.Seq == 0) {
		r.Fail("transaction id %q:%d", t.ID.Peer, t.ID.Seq)
	}
	// An update takes at least four bytes, a dependency two.
	if n := r.Count("update", 4); n > 0 {
		t.Updates = make([]Update, 0, n)
		for range n {
			u := Update{Rel: r.Name(), Op: Op(r.Byte())}
			if r.Err() == nil && u.Op > OpModify {
				r.Fail("unknown op %d", u.Op)
			}
			u.Old = readTuple(r)
			u.New = readTuple(r)
			if r.Err() != nil {
				return r.Err()
			}
			t.Updates = append(t.Updates, u)
		}
	}
	if n := r.Count("dependency", 2); n > 0 {
		t.Deps = make([]TxnID, 0, n)
		for range n {
			t.Deps = append(t.Deps, TxnID{Peer: r.Name(), Seq: r.Uvarint()})
		}
	}
	return r.Err()
}

// readTuple reads an update's old or new tuple key; "" is no tuple.
func readTuple(r *codec.Reader) schema.Tuple {
	key := r.Str()
	if key == "" {
		return nil
	}
	t, err := schema.ParseTupleKey(key)
	if err != nil {
		r.Fail("%w", err)
	}
	return t
}
