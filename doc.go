// Package orchestra is a from-scratch Go reproduction of the ORCHESTRA
// collaborative data sharing system (Green, Karvounarakis, Taylor, Biton,
// Ives, Tannen — SIGMOD 2007) and the machinery of its companion papers:
// update exchange with mappings and provenance (VLDB 2007), provenance
// semirings (PODS 2007), and reconciliation with disagreement (SIGMOD
// 2006).
//
// This package is the public SDK — the one supported way to drive the
// system. Describe a confederation with NewSchema (or ParseSchema for the
// textual format), open it with Open, and drive peers through the handles
// System.Peer returns:
//
//	sys, _ := orchestra.Open(sch, orchestra.WithParallelism(4))
//	defer sys.Close()
//	alice, _ := sys.Peer("alice")
//	id, _ := alice.Begin().Insert("Gene", tuple).Commit()
//	alice.Publish(ctx)
//	bob, _ := sys.Peer("bob")
//	bob.Reconcile(ctx) // bob receives alice's data translated into his schema
//
// Every operation that can run a translation fixpoint takes a
// context.Context and honors cancellation and deadlines cooperatively.
// Errors at the public boundary wrap the typed sentinels ErrKeyViolation,
// ErrUnknownRelation, ErrUnknownPeer, ErrTxnFinished, ErrConflictPending,
// ErrInvalidQuery for errors.Is dispatch. Peer.Subscribe streams collated
// insert/delete/modify changes as epochs publish, so consumers maintain
// downstream views incrementally.
//
// Peer.Query is the goal-directed query surface: name a goal with bound
// (Bind) and free (Free) argument modes, optionally define recursive view
// rules over the peer's relations, and range over provenance-carrying
// answers:
//
//	q := alice.Query(ctx, "reach", orchestra.Bind(orchestra.String("ann")), orchestra.Free("who")).
//	    Rule("reach", []string{"a", "b"}, orchestra.Atom("Follows", orchestra.Free("a"), orchestra.Free("b"))).
//	    Rule("reach", []string{"a", "c"},
//	        orchestra.Atom("reach", orchestra.Free("a"), orchestra.Free("b")),
//	        orchestra.Atom("Follows", orchestra.Free("b"), orchestra.Free("c")))
//	for ans, err := range q.Stream() { ... }
//
// Evaluation is demand-driven through the magic-sets rewrite: only facts
// reachable from the goal's bound arguments drive the fixpoint, with
// answers (tuples and provenance) identical to the full fixpoint.
//
// See README for a tour and DESIGN.md for the system inventory, the design
// decisions (goal-directed querying is §7), and what measures each of them
// (§2: the repo benchmark declared by BENCHMARK.json, in bench/).
package orchestra
