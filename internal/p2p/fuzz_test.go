package p2p

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"orchestra/internal/updates"
)

// FuzzDecodeTxn: whatever JSON names a wire transaction, DecodeTxn either
// refuses it with ErrBadWire or returns a transaction of a named peer with a
// sequence number from 1 that survives the JSON form exactly — encoding it
// and decoding that yields the same encoding.
func FuzzDecodeTxn(f *testing.F) {
	for _, seed := range []string{
		`{"peer":"a","seq":1,"updates":[{"rel":"R","op":9}]}`,
		`{"peer":"a","seq":1,"epoch":0,"updates":[{"rel":"R","op":0,"new":"3|s:x"}]}`,
		`{"peer":"beijing","seq":7,"epoch":3,"updates":[{"rel":"S","op":2,"old":"3|i:1|5|s:AAA","new":"3|i:1|5|s:CCC"},{"rel":"S","op":1,"old":"3|i:2"}],"deps":["alaska:3","crete:11"]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireTxn
		if json.Unmarshal(data, &w) != nil {
			return
		}
		txn, err := DecodeTxn(w)
		if err != nil {
			if !errors.Is(err, ErrBadWire) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if txn.ID.Peer == "" || txn.ID.Seq == 0 {
			t.Fatalf("decoded transaction id %s, which no commit has", txn.ID)
		}
		if txn.ID.Peer != w.Peer || txn.ID.Seq != w.Seq || txn.Epoch != w.Epoch ||
			len(txn.Updates) != len(w.Updates) || len(txn.Deps) != len(w.Deps) {
			t.Fatalf("decoded %+v from %+v", txn, w)
		}
		enc := EncodeTxn(txn)
		again, err := DecodeTxn(enc)
		if err != nil {
			t.Fatalf("re-decoding %+v: %v", enc, err)
		}
		if got := EncodeTxn(again); !reflect.DeepEqual(got, enc) {
			t.Fatalf("round trip changed the transaction:\n%+v\n%+v", enc, got)
		}
	})
}

// FuzzServerRequest: whatever payload a request frame carries, the server
// answers with a well-formed response frame — a success with the store's
// epoch and decodable transactions, or an error — and never panics.
func FuzzServerRequest(f *testing.F) {
	payload := func(frame []byte) []byte { return frame[frameHeaderLen:] }
	for _, seed := range [][]byte{
		{opEpoch},
		{opSince, 0},
		{opSince, 3},
		{0x7f},
		{},
		{opEpoch, 0},
		{opSince, 0x80, 0x00},
		{opPublish, 5, 1, 'a'},
		payload(publishFrame(txn("a", 1, updates.Update{Rel: "R", Op: 9}))),
		payload(publishFrame(txn("a", 2, updates.Insert("R", tup("x"))))),
		payload(publishFrame(txn("z", 1, updates.Insert("R", tup("x"))))),
		payload(publishFrame(&updates.Transaction{
			ID: updates.TxnID{Peer: "beijing", Seq: 7}, Epoch: 3,
			Updates: []updates.Update{updates.Modify("S", tup("1", "AAA"), tup("1", "CCC")), updates.Delete("S", tup("2"))},
			Deps:    []updates.TxnID{{Peer: "alaska", Seq: 3}, {Peer: "crete", Seq: 11}},
		})),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		store := NewMemoryStore()
		if _, err := store.Publish([]*updates.Transaction{txn("z", 1, updates.Insert("R", tup("x")))}); err != nil {
			t.Fatal(err)
		}
		out := (&Server{store: store}).respond(req)
		payload, err := readFrame(bytes.NewReader(out))
		if err != nil || len(payload) != len(out)-frameHeaderLen {
			t.Fatalf("response frame % x: %v", out, err)
		}
		rep := decodeReply(t, payload)
		if epoch, err := store.Epoch(); err != nil || (rep.err == nil && rep.epoch != epoch) {
			t.Fatalf("response epoch %d, store epoch %d (%v)", rep.epoch, epoch, err)
		}
	})
}
