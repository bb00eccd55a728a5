package orchestra_test

// BenchmarkReconcileHistory prices one in-memory reconciliation round — a
// sixteen-transaction delta through recon.State.Reconcile, then the Resolve
// of the conflict it deferred — on top of a history of accepted
// transactions. A round decides only about its candidates and the open
// (pending, deferred) transactions, so its cost must not depend on how long
// the history is (DESIGN.md §4.2). ORCH_RECONCILE_HISTORY sets the history
// length (default 1024; scripts/reconcile_scaling.sh runs it at 1k and 16k
// and compares).

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

func BenchmarkReconcileHistory(b *testing.B) {
	history := 1024
	if s := os.Getenv("ORCH_RECONCILE_HISTORY"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 16 {
			b.Fatalf("ORCH_RECONCILE_HISTORY=%q: want an integer >= 16", s)
		}
		history = n
	}
	row := func(k, v int64) schema.Tuple { return schema.Tuple{schema.Int(k), schema.Int(v)} }
	seq := map[string]uint64{}
	txn := func(peer string, deps []updates.TxnID, us ...updates.Update) *updates.Transaction {
		seq[peer]++
		return &updates.Transaction{ID: updates.TxnID{Peer: peer, Seq: seq[peer]}, Updates: us, Deps: deps}
	}
	state := recon.NewState(func(_ string, tu schema.Tuple) schema.Tuple { return tu.Project([]int{0}) })
	policy := recon.TrustAll(1)
	reconcile := func(cands []*updates.Transaction) {
		if _, err := state.Reconcile(policy, cands); err != nil {
			b.Fatal(err)
		}
	}
	for done := 0; done < history; {
		var batch []*updates.Transaction
		for ; len(batch) < 16 && done < history; done++ {
			batch = append(batch, txn("history", nil, updates.Insert("R", row(int64(done), 0))))
		}
		reconcile(batch)
	}
	// One round: twelve fresh inserts, two modifies of history rows (one
	// antecedent each), and two writers of one key that defer each other
	// until the first is chosen.
	fresh := int64(history)
	// Building the history leaves garbage in proportion to it; collect it
	// now so that the timed rounds do not pay for a mark phase they did not
	// cause.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var delta []*updates.Transaction
		for j := 0; j < 12; j++ {
			fresh++
			delta = append(delta, txn("a", nil, updates.Insert("R", row(fresh, 1))))
		}
		for j := 0; j < 2; j++ {
			k := int64((2*i + j) % history)
			writer := []updates.TxnID{{Peer: "history", Seq: uint64(k + 1)}}
			delta = append(delta, txn("a", writer, updates.Modify("R", row(k, 0), row(k, 1))))
		}
		fresh++
		winner := txn("b", nil, updates.Insert("R", row(fresh, 1)))
		delta = append(delta, winner, txn("c", nil, updates.Insert("R", row(fresh, 2))))
		reconcile(delta)
		if _, err := state.Resolve(winner.ID); err != nil {
			b.Fatal(err)
		}
	}
}
