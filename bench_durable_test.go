package orchestra_test

// BenchmarkRecovery prices bringing a crashed peer back from its checkpoint
// plus the published suffix, the startup cost WithDurableDir adds over an
// empty open. The durable write path is the benchmark's durable-pipeline
// workload (bench/).

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/workload"
)

// durableBurst is the number of transactions one Publish archives.
const durableBurst = 32

// BenchmarkRecovery: recover a peer whose checkpoint covers all but a fixed
// two-epoch suffix of the published history, versus recovering from the
// archive alone (no checkpoint — full replay). The gap is what the engine
// snapshot buys: the restore-then-suffix path scales with the suffix, the
// replay path with the whole history. ORCH_RECOVERY_TXNS sets the total
// transaction count (default 256; scripts/recovery_scaling.sh sweeps it to
// assert the scaling split holds as the history grows).
func BenchmarkRecovery(b *testing.B) {
	total := 256
	if s := os.Getenv("ORCH_RECOVERY_TXNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 4*durableBurst {
			b.Fatalf("ORCH_RECOVERY_TXNS=%q: want an integer >= %d", s, 4*durableBurst)
		}
		total = n
	}
	epochs := total / durableBurst
	for _, withCheckpoint := range []bool{true, false} {
		name := "from-checkpoint"
		if !withCheckpoint {
			name = "full-replay"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			db, err := lsm.Open(dir, lsm.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ds, err := p2p.NewDurableStore(db)
			if err != nil {
				b.Fatal(err)
			}
			// A three-peer chain: the subscriber sits two mapping hops from
			// the publisher, so full replay re-runs a multi-hop chase per
			// transaction — the translation work the engine snapshot spares.
			topo := workload.Chain(3)
			sys, err := core.NewSystem(topo.Peers, topo.Mappings)
			if err != nil {
				b.Fatal(err)
			}
			pub, err := core.NewPeer(topo.Names[0], sys, ds, recon.TrustAll(1))
			if err != nil {
				b.Fatal(err)
			}
			// The subscriber checkpoints, so it comes up attached to db — the
			// way the SDK creates a durable peer: through recovery.
			ctx := context.Background()
			sub, err := core.RecoverPeerWith(ctx, topo.Names[len(topo.Names)-1], sys, ds, recon.TrustAll(1), exchange.Config{}, db)
			if err != nil {
				b.Fatal(err)
			}
			key := int64(0)
			for epoch := 0; epoch < epochs; epoch++ {
				// One epoch = a burst of single-insert transactions archived
				// by one Publish.
				for j := 0; j < durableBurst; j++ {
					if _, err := pub.NewTransaction().
						Insert("S", workload.STuple(key, key, fmt.Sprintf("SEQ-%d", key))).
						Commit(); err != nil {
						b.Fatal(err)
					}
					key++
				}
				if _, err := pub.Publish(ctx); err != nil {
					b.Fatal(err)
				}
				if _, err := sub.Reconcile(ctx); err != nil {
					b.Fatal(err)
				}
				// Checkpoint with two epochs still to come: the replay suffix
				// stays fixed no matter how long the history grows.
				if withCheckpoint && epoch == epochs-3 {
					if err := sub.SaveCheckpoint(db); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := core.RecoverPeerWith(ctx, topo.Names[len(topo.Names)-1], sys, ds, recon.TrustAll(1), exchange.Config{}, db)
				if err != nil {
					b.Fatal(err)
				}
				if rows, _ := p.Instance().Rows("S"); len(rows) == 0 {
					b.Fatal("recovered empty")
				}
			}
			b.StopTimer()
			db.Close()
		})
	}
}
