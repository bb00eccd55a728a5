package orchestra_test

import (
	"context"
	"fmt"
	"log"

	"orchestra"
)

// exampleSchema declares a two-peer confederation sharing one relation.
func exampleSchema() *orchestra.Schema {
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

func ExampleOpen() {
	sys, err := orchestra.Open(exampleSchema())
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	alice, err := sys.Peer("alice")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(alice.Name())
	// Output: alice
}

func ExamplePeer_Publish() {
	ctx := context.Background()
	sys, err := orchestra.Open(exampleSchema())
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	alice, _ := sys.Peer("alice")
	bob, _ := sys.Peer("bob")

	// Alice edits locally and publishes; Bob reconciles and receives the
	// tuple translated through the mappings.
	brca1 := orchestra.NewTuple(orchestra.String("BRCA1"), orchestra.Int(17))
	if _, err := alice.Begin().Insert("Gene", brca1).Commit(); err != nil {
		log.Fatal(err)
	}
	epoch, err := alice.Publish(ctx)
	if err != nil {
		log.Fatal(err)
	}
	report, err := bob.Reconcile(ctx)
	if err != nil {
		log.Fatal(err)
	}
	rows, _ := bob.Rows("Gene")
	fmt.Printf("epoch %d: bob accepted %d txn(s), holds %v\n", epoch, len(report.Accepted), rows)
	// Output: epoch 1: bob accepted 1 txn(s), holds [(BRCA1, 17)]
}

func ExamplePeer_Query() {
	ctx := context.Background()
	links := orchestra.NewPeerSchema("links")
	links.MustAddRelation(orchestra.MustRelation("Follows",
		[]orchestra.Attribute{
			{Name: "src", Type: orchestra.KindString},
			{Name: "dst", Type: orchestra.KindString},
		}, "src", "dst"))
	sys, err := orchestra.Open(orchestra.NewSchema().Peer("alice", links))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	alice, _ := sys.Peer("alice")
	tx := alice.Begin()
	for _, e := range [][2]string{{"ann", "bea"}, {"bea", "cal"}, {"cal", "dan"}, {"eve", "fay"}} {
		tx.Insert("Follows", orchestra.NewTuple(orchestra.String(e[0]), orchestra.String(e[1])))
	}
	if _, err := tx.Commit(); err != nil {
		log.Fatal(err)
	}

	// Who can ann reach, transitively? The goal binds the source argument,
	// so goal-directed evaluation explores only ann's component — eve's
	// edge is never touched.
	q := alice.Query(ctx, "reach", orchestra.Bind(orchestra.String("ann")), orchestra.Free("who")).
		Rule("reach", []string{"a", "b"},
			orchestra.Atom("Follows", orchestra.Free("a"), orchestra.Free("b"))).
		Rule("reach", []string{"a", "c"},
			orchestra.Atom("reach", orchestra.Free("a"), orchestra.Free("b")),
			orchestra.Atom("Follows", orchestra.Free("b"), orchestra.Free("c")))
	for ans, err := range q.Stream() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(ans.Tuple)
	}
	// Output:
	// (bea)
	// (cal)
	// (dan)
}

func ExamplePeer_Subscribe() {
	ctx := context.Background()
	sys, err := orchestra.Open(exampleSchema())
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	alice, _ := sys.Peer("alice")
	bob, _ := sys.Peer("bob")

	// Bob subscribes before anything publishes; the feed is consumed after
	// the explicit Reconcile below (WithoutAutoReconcile keeps delivery
	// deterministic for this example — drop it to have epochs pushed).
	subCtx, cancel := context.WithCancel(ctx)
	feed := bob.Subscribe(subCtx, orchestra.WithoutAutoReconcile())

	if _, err := alice.Begin().
		Insert("Gene", orchestra.NewTuple(orchestra.String("BRCA1"), orchestra.Int(17))).
		Insert("Gene", orchestra.NewTuple(orchestra.String("TP53"), orchestra.Int(17))).
		Commit(); err != nil {
		log.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := bob.Reconcile(ctx); err != nil {
		log.Fatal(err)
	}
	cancel() // end the stream once the epoch is in

	for change, err := range feed {
		if err != nil {
			break // context.Canceled: the feed is drained
		}
		fmt.Printf("epoch %d %s %s%v\n", change.Epoch, change.Op, change.Rel, change.New)
	}
	// Changes within a transaction arrive in canonical tuple-key order.
	// Output:
	// epoch 1 + Gene(TP53, 17)
	// epoch 1 + Gene(BRCA1, 17)
}
