package orchestra_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"orchestra"
)

// geneSchema builds the two-peer identity confederation used across the
// public API tests.
func geneSchema(t testing.TB) *orchestra.Schema {
	t.Helper()
	genes := orchestra.NewPeerSchema("genes")
	genes.MustAddRelation(orchestra.MustRelation("Gene",
		[]orchestra.Attribute{
			{Name: "name", Type: orchestra.KindString},
			{Name: "chromosome", Type: orchestra.KindInt},
		}, "name"))
	return orchestra.NewSchema().
		Peer("alice", genes).
		Peer("bob", genes).
		Identity("M_ab", "alice", "bob").
		Identity("M_ba", "bob", "alice")
}

func openGenes(t testing.TB, opts ...orchestra.Option) (*orchestra.System, *orchestra.Peer, *orchestra.Peer) {
	t.Helper()
	sys, err := orchestra.Open(geneSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	alice, err := sys.Peer("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.Peer("bob")
	if err != nil {
		t.Fatal(err)
	}
	return sys, alice, bob
}

func gene(name string, chrom int64) orchestra.Tuple {
	return orchestra.NewTuple(orchestra.String(name), orchestra.Int(chrom))
}

func TestPublishReconcileRoundTrip(t *testing.T) {
	ctx := context.Background()
	_, alice, bob := openGenes(t)
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	epoch, err := alice.Publish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epoch)
	}
	report, err := bob.Reconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Accepted) != 1 {
		t.Fatalf("accepted = %v, want one transaction", report.Accepted)
	}
	rows, err := bob.Rows("Gene")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].Equal(gene("BRCA1", 17)) {
		t.Fatalf("bob rows = %v", rows)
	}
}

func TestKeyViolationOnPublishPath(t *testing.T) {
	ctx := context.Background()
	_, alice, _ := openGenes(t)
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := alice.Begin().Insert("Gene", gene("BRCA1", 99)).Commit()
	if !errors.Is(err, orchestra.ErrKeyViolation) {
		t.Fatalf("errors.Is(err, ErrKeyViolation) = false; err = %v", err)
	}
	var kv *orchestra.KeyViolation
	if !errors.As(err, &kv) {
		t.Fatalf("errors.As KeyViolation detail = false; err = %v", err)
	}
	if kv.Relation != "Gene" {
		t.Fatalf("violation relation = %s", kv.Relation)
	}
	// Re-inserting the identical tuple is not a violation (set semantics).
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatalf("identical re-insert: %v", err)
	}
	// Two inserts colliding inside one transaction are a violation too, with
	// the same sentinel and detail record, and nothing is applied.
	_, err = alice.Begin().Insert("Gene", gene("TP53", 17)).Insert("Gene", gene("TP53", 18)).Commit()
	kv = nil
	if !errors.Is(err, orchestra.ErrKeyViolation) || !errors.As(err, &kv) {
		t.Fatalf("intra-transaction collision: err = %v", err)
	}
	if !kv.Existing.Equal(gene("TP53", 17)) || !kv.New.Equal(gene("TP53", 18)) {
		t.Fatalf("violation detail = %+v", kv)
	}
	rows, err := alice.Rows("Gene")
	if err != nil || len(rows) != 1 {
		t.Fatalf("failed commit applied data: %v, %v", rows, err)
	}
}

func TestTypedErrors(t *testing.T) {
	sys, alice, _ := openGenes(t)
	if _, err := sys.Peer("mallory"); !errors.Is(err, orchestra.ErrUnknownPeer) {
		t.Fatalf("unknown peer: %v", err)
	}
	if _, err := alice.Begin().Insert("Nope", gene("x", 1)).Commit(); !errors.Is(err, orchestra.ErrUnknownRelation) {
		t.Fatalf("unknown relation: %v", err)
	}
	if _, err := alice.Rows("Nope"); !errors.Is(err, orchestra.ErrUnknownRelation) {
		t.Fatalf("rows on unknown relation: %v", err)
	}
	txn := alice.Begin().Insert("Gene", gene("TP53", 17))
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); !errors.Is(err, orchestra.ErrTxnFinished) {
		t.Fatalf("double commit: %v", err)
	}
	if _, err := alice.Resolve(context.Background(), orchestra.TxnID{Peer: "x", Seq: 1}); !errors.Is(err, orchestra.ErrConflictPending) {
		t.Fatalf("resolve non-deferred: %v", err)
	}
}

func TestErrorMessagesKeepInternalDetail(t *testing.T) {
	_, alice, _ := openGenes(t)
	_, err := alice.Begin().Insert("Nope", gene("x", 1)).Commit()
	if err == nil || !strings.Contains(err.Error(), "Nope") {
		t.Fatalf("detail lost: %v", err)
	}
}

func TestStrictConflictsOption(t *testing.T) {
	ctx := context.Background()
	genes := orchestra.NewPeerSchema("genes")
	genes.MustAddRelation(orchestra.MustRelation("Gene",
		[]orchestra.Attribute{
			{Name: "name", Type: orchestra.KindString},
			{Name: "chromosome", Type: orchestra.KindInt},
		}, "name"))
	sch := orchestra.NewSchema().
		Peer("a", genes).Peer("b", genes).Peer("c", genes).
		Identity("M_ac", "a", "c").
		Identity("M_bc", "b", "c")
	sys, err := orchestra.Open(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	a, err := sys.Peer("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Peer("b")
	if err != nil {
		t.Fatal(err)
	}
	c, err := sys.Peer("c", orchestra.WithStrictConflicts())
	if err != nil {
		t.Fatal(err)
	}
	// a and b publish conflicting writes at equal priority: c defers.
	if _, err := a.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Begin().Insert("Gene", gene("BRCA1", 13)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	report, err := c.Reconcile(ctx)
	if !errors.Is(err, orchestra.ErrConflictPending) {
		t.Fatalf("strict reconcile error = %v, want ErrConflictPending", err)
	}
	if report == nil || len(report.Deferred) != 2 {
		t.Fatalf("report = %+v, want both transactions deferred", report)
	}
	m := sys.Metrics()
	visited := m.Counters["recon_visited_txns_total"]
	if m.Gauges["recon_deferred_txns"] != 2 || m.Gauges["recon_pending_txns"] != 0 || visited == 0 {
		t.Errorf("after the deferral: recon gauges %v, %d nodes visited", m.Gauges, visited)
	}
	// Resolving in favor of a's transaction settles the conflict.
	if _, err := c.Resolve(ctx, report.Deferred[0]); err != nil {
		t.Fatal(err)
	}
	m = sys.Metrics()
	if m.Gauges["recon_deferred_txns"] != 0 || m.Counters["recon_visited_txns_total"] <= visited {
		t.Errorf("after the resolution: recon gauges %v, %d nodes visited (was %d)", m.Gauges, m.Counters["recon_visited_txns_total"], visited)
	}
	rows, err := c.Rows("Gene")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("c rows = %v", rows)
	}
}

// trustBlockSchema declares b's trust in a in the schema text.
const trustBlockSchema = `
peer a {
    relation R(x int, y string) key(x)
}
peer b like a
mapping identity M_ab a b
trust b {
    peer a 2
    default 0
}
`

func TestParseSchemaAndTrustBlocks(t *testing.T) {
	ctx := context.Background()
	sch, err := orchestra.ParseSchemaString(trustBlockSchema)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := orchestra.Open(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	a, err := sys.Peer("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Peer("b")
	if err != nil {
		t.Fatal(err)
	}
	id, err := a.Begin().Insert("R", orchestra.NewTuple(orchestra.Int(1), orchestra.String("v"))).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if got := b.Status(id); got != orchestra.StatusAccepted {
		t.Fatalf("status = %v, want accepted (trust block applied)", got)
	}
}

// TestWithTrustPolicyOverridesSchemaTrust: a policy given at System.Peer
// replaces the one the schema text declared for that peer.
func TestWithTrustPolicyOverridesSchemaTrust(t *testing.T) {
	ctx := context.Background()
	sch, err := orchestra.ParseSchemaString(trustBlockSchema)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := orchestra.Open(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	a, err := sys.Peer("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Peer("b", orchestra.WithTrustPolicy(orchestra.TrustAll(orchestra.Distrusted)))
	if err != nil {
		t.Fatal(err)
	}
	id, err := a.Begin().Insert("R", orchestra.NewTuple(orchestra.Int(1), orchestra.String("v"))).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if got := b.Status(id); got != orchestra.StatusPending {
		t.Fatalf("status = %v, want pending: untrusted under WithTrustPolicy, which overrides the trust block", got)
	}
	if rows, err := b.Rows("R"); err != nil || len(rows) != 0 {
		t.Fatalf("b rows = %v, %v; want none", rows, err)
	}
}

func TestWithProvenanceFalseStripsAnnotations(t *testing.T) {
	ctx := context.Background()
	_, alice, bob := openGenes(t, orchestra.WithProvenance(false))
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	subCtx, cancel := context.WithCancel(ctx)
	feed := bob.Subscribe(subCtx, orchestra.WithoutAutoReconcile())
	if _, err := bob.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	for c, err := range feed {
		if err != nil {
			break
		}
		if !c.Prov.IsZero() {
			t.Fatalf("change carries provenance despite WithProvenance(false): %+v", c)
		}
	}
	prov, supports, ok := bob.Explain("Gene", gene("BRCA1", 17))
	if !ok {
		t.Fatal("tuple missing")
	}
	if !prov.IsZero() || supports != nil {
		t.Fatalf("explain leaked provenance: %v %v", prov, supports)
	}
}

func TestSystemClose(t *testing.T) {
	ctx := context.Background()
	sys, alice, _ := openGenes(t)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); !errors.Is(err, orchestra.ErrClosed) {
		t.Fatalf("publish after close: %v", err)
	}
	if _, err := sys.Peer("alice"); !errors.Is(err, orchestra.ErrClosed) {
		t.Fatalf("peer after close: %v", err)
	}
}
