// Command quickstart is the smallest possible ORCHESTRA CDSS, driven
// entirely through the public orchestra SDK: two peers sharing one schema,
// linked by identity mappings. Alice inserts a tuple and publishes; Bob
// reconciles and receives it; Bob corrects it and Alice picks up the
// change. Along the way it shows the typed error taxonomy (a conflicting
// insert fails with ErrKeyViolation) and the change-subscription feed Bob
// uses to observe his table evolving.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"

	"orchestra"
)

func main() {
	ctx := context.Background()

	// One relation: Gene(name, chromosome), keyed by name.
	genes := orchestra.NewPeerSchema("genes")
	genes.MustAddRelation(orchestra.MustRelation("Gene",
		[]orchestra.Attribute{
			{Name: "name", Type: orchestra.KindString},
			{Name: "chromosome", Type: orchestra.KindInt},
		}, "name"))

	sch := orchestra.NewSchema().
		Peer("alice", genes).
		Peer("bob", genes).
		Identity("M_ab", "alice", "bob").
		Identity("M_ba", "bob", "alice")

	sys, err := orchestra.Open(sch)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	alice, err := sys.Peer("alice")
	if err != nil {
		log.Fatal(err)
	}
	bob, err := sys.Peer("bob")
	if err != nil {
		log.Fatal(err)
	}

	// Bob follows his own table through the change feed; the collected
	// lines are printed at the end. WithoutAutoReconcile keeps delivery
	// tied to the explicit Reconcile calls below, so output is
	// deterministic.
	subCtx, cancelSub := context.WithCancel(ctx)
	sub := bob.Subscribe(subCtx, orchestra.WithoutAutoReconcile()) // registers now; consumed below
	var feed []string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c, err := range sub {
			if err != nil {
				return // context canceled: feed closed
			}
			origin := "remote"
			if c.Local {
				origin = "local"
			}
			feed = append(feed, fmt.Sprintf("epoch %d %s %s%v (%s %s)", c.Epoch, c.Op, c.Rel, c.New, origin, c.Txn))
		}
	}()

	// Alice edits locally, then publishes.
	brca1 := orchestra.NewTuple(orchestra.String("BRCA1"), orchestra.Int(17))
	if _, err := alice.Begin().Insert("Gene", brca1).Commit(); err != nil {
		log.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		log.Fatal(err)
	}

	// Bob reconciles and receives Alice's tuple.
	report, err := bob.Reconcile(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob reconciled to epoch %d: accepted %d txn(s)\n", report.Epoch, len(report.Accepted))
	fmt.Printf("bob's Gene table: %v\n", rows(bob))

	// Inserting a different tuple under a stored key is a typed error.
	dup := orchestra.NewTuple(orchestra.String("BRCA1"), orchestra.Int(99))
	if _, err := bob.Begin().Insert("Gene", dup).Commit(); errors.Is(err, orchestra.ErrKeyViolation) {
		fmt.Println("conflicting insert rejected with ErrKeyViolation; using Modify instead")
	} else {
		log.Fatalf("expected a key violation, got %v", err)
	}

	// Bob corrects the chromosome and publishes; Alice picks it up.
	fixed := orchestra.NewTuple(orchestra.String("BRCA1"), orchestra.Int(13))
	if _, err := bob.Begin().Modify("Gene", brca1, fixed).Commit(); err != nil {
		log.Fatal(err)
	}
	if _, err := bob.Publish(ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := alice.Reconcile(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice's Gene table after Bob's fix: %v\n", rows(alice))

	cancelSub()
	wg.Wait()
	fmt.Println("bob's change feed:")
	for _, line := range feed {
		fmt.Printf("  %s\n", line)
	}
}

func rows(p *orchestra.Peer) []string {
	tuples, err := p.Rows("Gene")
	if err != nil {
		log.Fatal(err)
	}
	var out []string
	for _, tu := range tuples {
		out = append(out, tu.String())
	}
	return out
}
