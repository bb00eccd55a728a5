package exchange

import (
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/updates"
)

func TestSplitToken(t *testing.T) {
	cases := []struct {
		tok  provenance.Var
		id   updates.TxnID
		idx  int
		isUp bool
	}{
		{"p:3/0", updates.TxnID{Peer: "p", Seq: 3}, 0, true},
		{"p:3/17", updates.TxnID{Peer: "p", Seq: 3}, 17, true},
		{"peer:12/345", updates.TxnID{Peer: "peer", Seq: 12}, 345, true},
		// Trailing slash: no digits follow, so there is no update index.
		// The old parser's empty digit loop fell through to index 0.
		{"peer:3/", updates.TxnID{Peer: "peer", Seq: 3}, -1, true},
		// Garbage after the slash is not an index either, nor is a padded
		// or overflowing one.
		{"p:3/x1", updates.TxnID{Peer: "p", Seq: 3}, -1, true},
		{"p:3/07", updates.TxnID{Peer: "p", Seq: 3}, -1, true},
		{"p:3/18446744073709551623", updates.TxnID{Peer: "p", Seq: 3}, -1, true},
		// A non-canonical seq does not name a transaction.
		{"p:03/0", updates.TxnID{}, -1, false},
		// Mapping tokens (no slash) are not update tokens.
		{"M_AC", updates.TxnID{}, -1, false},
		{"", updates.TxnID{}, -1, false},
		// A slash without a parseable peer:seq prefix is not an update token.
		{"nocolon/4", updates.TxnID{}, -1, false},
	}
	for _, c := range cases {
		id, idx, ok := splitToken(c.tok)
		if id != c.id || idx != c.idx || ok != c.isUp {
			t.Errorf("splitToken(%q) = (%v, %d, %v), want (%v, %d, %v)",
				c.tok, id, idx, ok, c.id, c.idx, c.isUp)
		}
	}
}

func TestTokenNewer(t *testing.T) {
	cases := []struct {
		a, b provenance.Var
		want bool
		why  string
	}{
		{"p:10/0", "p:9/0", true, "same peer, numerically later seq is newer"},
		{"p:9/0", "p:10/0", false, "same peer, numerically earlier seq is older"},
		{"p:2/3", "p:2/1", true, "same txn, higher update index is newer"},
		{"p:2/1", "p:2/3", false, "same txn, lower update index is older"},
		// Cross-peer: the lexicographic fallback ordered "a:10/0" below
		// "b:9/0" by the peer prefix; sequence numbers compare numerically
		// first so the later publication wins regardless of peer name.
		{"a:10/0", "b:9/0", true, "cross-peer, higher seq is newer"},
		{"b:9/0", "a:10/0", false, "cross-peer, lower seq is older"},
		{"b:2/0", "a:2/0", true, "cross-peer seq tie breaks by peer name"},
		// Update tokens are newer than mapping tokens.
		{"p:1/0", "M_AC", true, "update token beats mapping token"},
		{"M_AC", "p:1/0", false, "mapping token loses to update token"},
		// Pure mapping tokens fall back to a deterministic string order.
		{"M_CD", "M_AC", true, "mapping tokens order lexicographically"},
		{"M_AC", "M_CD", false, "mapping tokens order lexicographically"},
	}
	for _, c := range cases {
		if got := tokenNewer(c.a, c.b); got != c.want {
			t.Errorf("tokenNewer(%q, %q) = %v, want %v (%s)", c.a, c.b, got, c.want, c.why)
		}
	}
	// Antisymmetry on distinct tokens: exactly one direction is newer.
	toks := []provenance.Var{"p:1/0", "p:1/1", "p:2/0", "q:1/0", "q:3/2", "M_AC", "M_CD", "p:3/"}
	for _, a := range toks {
		for _, b := range toks {
			if a == b {
				continue
			}
			x, y := tokenNewer(a, b), tokenNewer(b, a)
			if x == y {
				t.Errorf("tokenNewer(%q,%q)=%v and tokenNewer(%q,%q)=%v: order is not antisymmetric",
					a, b, x, b, a, y)
			}
		}
	}
}
