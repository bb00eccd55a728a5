package p2p

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"orchestra/internal/updates"
)

// wireSeeds are the frames the protocol tests send, good and bad.
var wireSeeds = []string{
	`{"op":"epoch"}`,
	`{"op":"since","epoch":3}`,
	`{"op":"frobnicate"}`,
	`{not json`,
	`{"op":"publish","txns":[{"peer":"a","seq":1,"updates":[{"rel":"R","op":9}]}]}`,
	`{"op":"publish","txns":[{"peer":"a","seq":1,"epoch":0,"updates":[{"rel":"R","op":0,"new":"3|s:x"}]}]}`,
	`{"op":"publish","txns":[{"peer":"beijing","seq":7,"epoch":3,"updates":[{"rel":"S","op":2,"old":"3|i:1|5|s:AAA","new":"3|i:1|5|s:CCC"},{"rel":"S","op":1,"old":"3|i:2"}],"deps":["alaska:3","crete:11"]}]}`,
}

// FuzzDecodeTxn: whatever JSON names a wire transaction, DecodeTxn either
// refuses it with ErrBadWire or returns a transaction of a named peer with a
// sequence number from 1 that survives the wire exactly — encoding it and
// decoding that yields the same encoding.
func FuzzDecodeTxn(f *testing.F) {
	for _, seed := range wireSeeds {
		var req request
		if json.Unmarshal([]byte(seed), &req) != nil {
			continue
		}
		for _, w := range req.Txns {
			data, err := json.Marshal(w)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
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

// FuzzServerRequest: whatever line a connection sends, the server answers
// with a well-formed response — OK with a decodable payload, or an error
// message — and never panics.
func FuzzServerRequest(f *testing.F) {
	for _, seed := range wireSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		store := NewMemoryStore()
		if _, err := store.Publish([]*updates.Transaction{txn("z", 1, updates.Insert("R", tup("x")))}); err != nil {
			t.Fatal(err)
		}
		resp := (&Server{store: store}).respond(line)
		if resp.OK == (resp.Error != "") {
			t.Fatalf("response is neither a success nor an error: %+v", resp)
		}
		data, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("unencodable response %+v: %v", resp, err)
		}
		var back response
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("undecodable response %s: %v", data, err)
		}
		for _, w := range back.Txns {
			if _, err := DecodeTxn(w); err != nil {
				t.Fatalf("response carries an undecodable transaction %+v: %v", w, err)
			}
		}
		if epoch, err := store.Epoch(); err != nil || (resp.OK && resp.Epoch != epoch) {
			t.Fatalf("response epoch %d, store epoch %d (%v)", resp.Epoch, epoch, err)
		}
	})
}
