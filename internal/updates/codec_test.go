package updates

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"orchestra/internal/codec"
	"orchestra/internal/schema"
)

var errBadTest = errors.New("updates test: malformed transaction")

// codecTxns are transactions that exercise every part of AppendTxn's
// layout: every op, nil and present tuples, repeated names, dependencies,
// and values of every kind inside the tuple keys.
func codecTxns() []*Transaction {
	s := schema.NewTuple(schema.String("mouse"), schema.Float(-0.5), schema.Bool(true))
	return []*Transaction{
		{ID: TxnID{Peer: "a", Seq: 1}},
		{ID: TxnID{Peer: "alaska", Seq: 7}, Epoch: 3, Updates: []Update{
			Insert("O", tup(1, 2)), Insert("O", s),
		}},
		{ID: TxnID{Peer: "b", Seq: math.MaxUint64}, Epoch: math.MaxUint64, Updates: []Update{
			Delete("P", tup(-1)), Modify("P", tup(-1), tup(300)),
		}, Deps: []TxnID{{Peer: "alaska", Seq: 7}, {Peer: "b", Seq: 1}}},
	}
}

func TestTxnCodecRoundTrip(t *testing.T) {
	var buf []byte
	txns := codecTxns()
	for _, x := range txns {
		buf = AppendTxn(buf, x)
	}
	r := codec.NewReader(buf, errBadTest)
	for _, want := range txns {
		var got Transaction
		if err := ReadTxn(r, &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() || !reflect.DeepEqual(got.Deps, want.Deps) {
			t.Fatalf("read %v deps %v, want %v deps %v", &got, got.Deps, want, want.Deps)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadTxn: whatever bytes arrive as a stored transaction, ReadTxn
// refuses them with the reader's sentinel or reads a transaction whose
// AppendTxn is exactly the bytes it consumed, and never panics.
func FuzzReadTxn(f *testing.F) {
	for _, x := range codecTxns() {
		enc := AppendTxn(nil, x)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{1, 'a', 0x81, 0x00, 0, 0, 0})         // seq 1 spelled in two bytes
	f.Add([]byte{1, 'a', 1, 0, 1, 1, 'R', 3, 0, 0, 0}) // op 3
	f.Fuzz(func(t *testing.T, data []byte) {
		var x Transaction
		if err := ReadTxn(codec.NewReader(data, errBadTest), &x); err != nil {
			if !errors.Is(err, errBadTest) {
				t.Fatalf("untyped read error: %v", err)
			}
			return
		}
		// ReadTxn stops where the encoding ends; what follows is the next
		// value's.
		if enc := AppendTxn(nil, &x); !bytes.HasPrefix(data, enc) {
			t.Fatalf("read %v from %x, which re-encodes to %x", &x, data, enc)
		}
	})
}
