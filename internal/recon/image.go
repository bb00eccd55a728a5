package recon

import (
	"encoding/binary"
	"slices"

	"orchestra/internal/codec"
	"orchestra/internal/provenance"
	"orchestra/internal/updates"
)

// The trust state's section of a peer's image (DESIGN.md §13), written
// straight from the state and read straight into one. Layout (uvarint
// integers, length-prefixed strings; the image names the layout):
//
//	the provenance table of the open transactions' update annotations
//	nTxns · { status, prio (zig-zag), updates.AppendTxn bytes,
//	          one table index per update }
//	nWrites · { key, peer, seq, del flag, tupleKey }
//
// Transactions go in TxnID order and writes in key order, so equal states
// write equal bytes. Each transaction is written as the state holds it:
// whole while open, a skeleton once closed (see node).

// AppendState appends the state's image section to buf.
func (s *State) AppendState(buf []byte) []byte {
	ids := s.IDs()
	open := 0
	for _, n := range s.pending {
		open += len(n.txn.Updates)
	}
	for _, n := range s.deferred {
		open += len(n.txn.Updates)
	}
	w := provenance.NewTableWriter(open) // only open nodes hold updates
	for _, id := range ids {
		for _, u := range s.nodes[id].txn.Updates {
			w.Index(u.Prov)
		}
	}
	buf = w.AppendTable(buf)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		n := s.nodes[id]
		buf = binary.AppendUvarint(buf, uint64(n.status))
		buf = binary.AppendVarint(buf, int64(n.prio))
		buf = updates.AppendTxn(buf, n.txn)
		for _, u := range n.txn.Updates {
			buf = binary.AppendUvarint(buf, uint64(w.Index(u.Prov)))
		}
	}

	keys := make([]string, 0, len(s.acceptedWrites))
	for k := range s.acceptedWrites {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		wv := s.acceptedWrites[k]
		buf = codec.AppendString(buf, k)
		buf = codec.AppendString(buf, wv.writer.Peer)
		buf = binary.AppendUvarint(buf, wv.writer.Seq)
		if wv.del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = codec.AppendString(buf, wv.tupKey)
	}
	return buf
}

// ReadState replaces the state's contents with a section AppendState
// wrote, read from r, and returns r's error. The keyOf projection and the
// work counter are kept; the open-set indexes are rebuilt from the
// statuses. Bytes AppendState never writes fail r: an unknown status, a
// closed transaction with updates, transactions out of TxnID order (an id
// twice among them), writes out of key order, a del flag other than 0 or
// 1, any fault provenance.ReadTable or updates.ReadTxn finds, and an
// update of an open transaction that valid refuses (the peer's schema has
// no such relation, or a tuple does not conform to it). On error the state
// is left as it was.
func (s *State) ReadState(r *codec.Reader, valid func(*updates.Update) error) error {
	table := provenance.ReadTable(r)
	// Transactions are carved from shared chunks: recovery reads one per
	// transaction of the history. An entry takes at least seven bytes, a
	// write five.
	nTxns := r.Count("transaction", 7)
	fresh := NewState(s.keyOf)
	fresh.nodes = make(map[updates.TxnID]*node, nTxns)
	fresh.visited = s.visited
	var chunk []updates.Transaction
	var prev updates.TxnID
	for i := 0; i < nTxns && r.Err() == nil; i++ {
		if len(chunk) == 0 {
			chunk = make([]updates.Transaction, min(nTxns-i, 256))
		}
		t := &chunk[0]
		chunk = chunk[1:]
		code := r.Uvarint()
		if r.Err() == nil && (code < uint64(StatusPending) || code > uint64(StatusDeferred)) {
			r.Fail("unknown status %d", code)
		}
		status := Status(code)
		prio := int(r.Varint())
		updates.ReadTxn(r, t)
		switch {
		case r.Err() != nil:
		case i > 0 && prev.Compare(t.ID) >= 0:
			r.Fail("transaction %s after %s", t.ID, prev)
		case len(t.Updates) > 0 && (status == StatusAccepted || status == StatusRejected):
			r.Fail("updates on a %v transaction", status)
		}
		prev = t.ID
		for j := range t.Updates {
			t.Updates[j].Prov = table.Ref(r)
		}
		for j := 0; j < len(t.Updates) && r.Err() == nil; j++ {
			if err := valid(&t.Updates[j]); err != nil {
				r.Fail("transaction %s: %v", t.ID, err)
			}
		}
		if r.Err() != nil {
			break
		}
		n := fresh.add(t)
		n.prio = prio
		fresh.move(n, status)
	}
	table.Finish(r)

	nWrites := r.Count("write", 5)
	fresh.acceptedWrites = make(map[string]writeVal, nWrites)
	var prevKey string
	for i := 0; i < nWrites && r.Err() == nil; i++ {
		key := r.Str()
		if r.Err() == nil && i > 0 && key <= prevKey {
			r.Fail("write to %q after %q", key, prevKey)
		}
		prevKey = key
		w := writeVal{writer: updates.TxnID{Peer: r.Name(), Seq: r.Uvarint()}}
		switch del := r.Byte(); {
		case del == 1:
			w.del = true
		case del > 1 && r.Err() == nil:
			r.Fail("del flag %d", del)
		}
		w.tupKey = r.Str()
		fresh.acceptedWrites[key] = w
	}
	if err := r.Err(); err != nil {
		return err
	}
	*s = *fresh
	return nil
}
