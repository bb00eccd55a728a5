// Package updates defines the CDSS's basic unit of information transfer:
// tuple-level updates grouped into transactions, together with the logical
// clock (epochs). As Section 2 of the ORCHESTRA paper describes, the CDSS
// propagates, translates, and detects conflicts among *transactions*, not
// bare tuples, and data dependencies between transactions (one modifies a
// tuple inserted by another) induce a dependency graph that reconciliation
// must respect. internal/recon holds that graph, one node per transaction,
// and the last accepted writer of each key, from which a local commit's
// dependencies are derived (recon.State.LastWriters).
package updates

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Op is the kind of a tuple-level update.
type Op uint8

const (
	// OpInsert adds a new tuple.
	OpInsert Op = iota
	// OpDelete removes an existing tuple.
	OpDelete
	// OpModify replaces an existing tuple (same primary key) with a new one.
	OpModify
)

// String renders the op.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "+"
	case OpDelete:
		return "-"
	case OpModify:
		return "±"
	default:
		return "?"
	}
}

// Update is one tuple-level change against a relation. Old is set for
// deletes and modifies; New is set for inserts and modifies.
type Update struct {
	Rel string
	Op  Op
	Old schema.Tuple
	New schema.Tuple
	// Prov carries the provenance polynomial attached during update
	// translation; for freshly published local updates it is the update's
	// own token.
	Prov provenance.Poly
}

// Insert constructs an insertion update.
func Insert(rel string, t schema.Tuple) Update { return Update{Rel: rel, Op: OpInsert, New: t} }

// Delete constructs a deletion update.
func Delete(rel string, t schema.Tuple) Update { return Update{Rel: rel, Op: OpDelete, Old: t} }

// Modify constructs a modification update.
func Modify(rel string, old, new schema.Tuple) Update {
	return Update{Rel: rel, Op: OpModify, Old: old, New: new}
}

// Target returns the tuple the update writes (New for insert/modify, Old
// for delete).
func (u Update) Target() schema.Tuple {
	if u.Op == OpDelete {
		return u.Old
	}
	return u.New
}

// String renders the update.
func (u Update) String() string {
	switch u.Op {
	case OpInsert:
		return fmt.Sprintf("+%s%s", u.Rel, u.New)
	case OpDelete:
		return fmt.Sprintf("-%s%s", u.Rel, u.Old)
	default:
		return fmt.Sprintf("±%s%s→%s", u.Rel, u.Old, u.New)
	}
}

// TxnID identifies a transaction globally: the publishing peer plus a
// per-peer sequence number.
type TxnID struct {
	Peer string
	Seq  uint64
}

// String renders the id as peer:seq.
func (id TxnID) String() string { return fmt.Sprintf("%s:%d", id.Peer, id.Seq) }

// ParseTxnID parses peer:seq, refusing any seq String would not write (see
// ParseSeq), so one transaction has one id string. The digits are parsed by
// hand: this sits on the token-parsing hot path (provenance attribution,
// kill sets, dependency extraction), where fmt.Sscanf cost dominated
// whole-profile collation.
func ParseTxnID(s string) (TxnID, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return TxnID{}, fmt.Errorf("updates: malformed txn id %q", s)
	}
	seq, ok := ParseSeq(s[i+1:])
	if !ok {
		return TxnID{}, fmt.Errorf("updates: malformed txn id %q", s)
	}
	return TxnID{Peer: s[:i], Seq: seq}, nil
}

// ParseSeq parses a sequence number or update index written in decimal as
// strconv.FormatUint writes it: digits only, no leading zero unless the
// number is 0, and a value that fits in a uint64. Any other spelling — a
// padded "007", or digits that wrap around 2^64 — would let a second string
// name the same number.
func ParseSeq(d string) (uint64, bool) {
	if d == "" || (d[0] == '0' && len(d) > 1) {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(d); i++ {
		c := d[i]
		if c < '0' || c > '9' || n > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// Compare orders transaction ids (peer, then seq) for determinism; it is the
// comparison slices.SortFunc and slices.BinarySearchFunc take.
func (id TxnID) Compare(o TxnID) int {
	if c := strings.Compare(id.Peer, o.Peer); c != 0 {
		return c
	}
	return cmp.Compare(id.Seq, o.Seq)
}

// Less reports whether id sorts before o.
func (id TxnID) Less(o TxnID) bool { return id.Compare(o) < 0 }

// Transaction is an atomic group of updates published by one peer at one
// epoch, with explicit antecedent dependencies.
type Transaction struct {
	ID      TxnID
	Epoch   uint64
	Updates []Update
	// Deps lists antecedent transactions whose effects this transaction
	// reads or overwrites; it can only be applied if they are applied.
	Deps []TxnID
}

// Token mints the provenance token for the i-th update of the transaction.
// One token per published tuple-level update is the granularity at which
// ORCHESTRA traces provenance and assigns trust. Built by hand rather than
// fmt — token minting sits on the translation hot path.
func (t *Transaction) Token(i int) provenance.Var {
	b := make([]byte, 0, len(t.ID.Peer)+16)
	b = append(b, t.ID.Peer...)
	b = append(b, ':')
	b = strconv.AppendUint(b, t.ID.Seq, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(i), 10)
	return provenance.Var(b)
}

// TokenTxn recovers the transaction id encoded in a provenance token, or
// false if the token is not an update token.
func TokenTxn(v provenance.Var) (TxnID, bool) {
	s := string(v)
	slash := strings.LastIndexByte(s, '/')
	if slash < 0 {
		return TxnID{}, false
	}
	id, err := ParseTxnID(s[:slash])
	if err != nil {
		return TxnID{}, false
	}
	return id, true
}

// String renders the transaction.
func (t *Transaction) String() string {
	parts := make([]string, len(t.Updates))
	for i, u := range t.Updates {
		parts[i] = u.String()
	}
	return fmt.Sprintf("txn %s@%d {%s}", t.ID, t.Epoch, strings.Join(parts, "; "))
}
