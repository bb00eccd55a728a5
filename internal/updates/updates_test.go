package updates

import (
	"math"
	"testing"

	"orchestra/internal/schema"
)

func tup(vs ...int64) schema.Tuple {
	out := make(schema.Tuple, len(vs))
	for i, v := range vs {
		out[i] = schema.Int(v)
	}
	return out
}

func TestUpdateConstructors(t *testing.T) {
	ins := Insert("R", tup(1, 2))
	if ins.Op != OpInsert || !ins.Target().Equal(tup(1, 2)) || ins.Old != nil {
		t.Errorf("Insert = %v", ins)
	}
	del := Delete("R", tup(1, 2))
	if del.Op != OpDelete || !del.Target().Equal(tup(1, 2)) || del.New != nil {
		t.Errorf("Delete = %v", del)
	}
	mod := Modify("R", tup(1, 2), tup(1, 3))
	if mod.Op != OpModify || !mod.Target().Equal(tup(1, 3)) {
		t.Errorf("Modify = %v", mod)
	}
	for _, u := range []Update{ins, del, mod} {
		if u.String() == "" {
			t.Error("empty render")
		}
	}
	if OpInsert.String() != "+" || OpDelete.String() != "-" || OpModify.String() != "±" {
		t.Error("op rendering wrong")
	}
}

func TestTxnIDRoundTrip(t *testing.T) {
	ids := []TxnID{{Peer: "alaska", Seq: 0}, {Peer: "a:b", Seq: 42}, {Peer: "x", Seq: 1 << 60}, {Peer: "max", Seq: math.MaxUint64}}
	for _, id := range ids {
		got, err := ParseTxnID(id.String())
		if err != nil {
			t.Fatalf("ParseTxnID(%q): %v", id.String(), err)
		}
		if got != id {
			t.Errorf("round trip %v -> %v", id, got)
		}
	}
	// Only the string String writes parses: no padding, no seq past 2^64-1.
	for _, bad := range []string{"", "nope", "x:y", "a:", "a:007", "a:18446744073709551616", "a:18446744073709551623"} {
		if _, err := ParseTxnID(bad); err == nil {
			t.Errorf("ParseTxnID(%q) accepted", bad)
		}
	}
	if !(TxnID{Peer: "a", Seq: 2}).Less(TxnID{Peer: "b", Seq: 1}) {
		t.Error("peer order wrong")
	}
	if !(TxnID{Peer: "a", Seq: 1}).Less(TxnID{Peer: "a", Seq: 2}) {
		t.Error("seq order wrong")
	}
	a2 := TxnID{Peer: "a", Seq: 2}
	if a2.Compare(TxnID{Peer: "b", Seq: 1}) >= 0 || a2.Compare(TxnID{Peer: "a", Seq: 1}) <= 0 || a2.Compare(a2) != 0 {
		t.Error("Compare disagrees with Less")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	txn := &Transaction{ID: TxnID{Peer: "beijing", Seq: 7}}
	tok := txn.Token(3)
	id, ok := TokenTxn(tok)
	if !ok || id != txn.ID {
		t.Errorf("TokenTxn(%q) = %v, %v", tok, id, ok)
	}
	if _, ok := TokenTxn("M_ac"); ok {
		t.Error("mapping token misparsed as update token")
	}
}
func TestTransactionString(t *testing.T) {
	txn := &Transaction{ID: TxnID{Peer: "p", Seq: 1}, Epoch: 3,
		Updates: []Update{Insert("R", tup(1))}}
	if txn.String() == "" {
		t.Error("empty render")
	}
}
