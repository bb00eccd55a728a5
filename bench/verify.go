package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"orchestra"
	"orchestra/internal/exchange"
	"orchestra/internal/mapping"
	"orchestra/internal/provenance"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
)

// skolemFree returns a function that cuts a polynomial down to the
// derivations that pass through no Skolemizing mapping.
//
// Chase subsumption keeps the first Skolem-padded variant of a tuple it
// derives and drops later ones, so which labeled null represents an invented
// value — and every row and derivation joined through it — depends on
// derivation order, which differs between Recompute's batch and incremental
// maintenance and, with adaptive windows, between two runs. Rows and
// derivations that exist only through a Skolemizing mapping are therefore
// counted but not compared; everything else must match exactly.
func skolemFree(p *plan) func(provenance.Poly) provenance.Poly {
	skolem := map[provenance.Var]bool{}
	for _, m := range p.mappings {
		if len(m.ExistentialVars()) > 0 {
			skolem[provenance.Var(m.ID)] = true
		}
	}
	return func(prov provenance.Poly) provenance.Poly {
		return prov.Restrict(func(v provenance.Var) bool { return !skolem[v] })
	}
}

// instanceView is what a digest reads of one peer's instance.
type instanceView interface {
	Relations() []*orchestra.Relation
	Rows(rel string) ([]orchestra.Tuple, error)
	Explain(rel string, tu orchestra.Tuple) (orchestra.Provenance, bool)
}

// digestView returns an order-independent digest of a whole instance: every
// row's relation, tuple and Explain polynomial (its Skolem-free part)
// hashed, the row hashes XORed, plus the count of rows hashed.
func digestView(p *plan, v instanceView) string {
	clean := skolemFree(p)
	var acc [sha256.Size]byte
	count := 0
	for _, rel := range v.Relations() {
		rows, err := v.Rows(rel.Name)
		if err != nil {
			return "error: " + err.Error()
		}
		for _, tu := range rows {
			prov, _ := v.Explain(rel.Name, tu)
			if prov = clean(prov); prov.IsZero() {
				continue
			}
			count++
			h := sha256.Sum256([]byte(rel.Name + "\x00" + tu.Key() + "\x00" + prov.String()))
			for i := range acc {
				acc[i] ^= h[i]
			}
		}
	}
	return fmt.Sprintf("%d:%s", count, hex.EncodeToString(acc[:8]))
}

// digestPeers digests every peer of an open system.
func digestPeers(p *plan, e *env) map[string]string {
	out := map[string]string{}
	for _, n := range p.names {
		out[n] = digestView(p, e.peers[n])
	}
	return out
}

// instView reads a bare storage.Instance the way a peer is read.
type instView struct{ inst *storage.Instance }

func (v instView) Relations() []*orchestra.Relation { return v.inst.Schema().Relations() }

func (v instView) Rows(rel string) ([]orchestra.Tuple, error) {
	rows, ok := v.inst.Rows(rel)
	if !ok {
		return nil, fmt.Errorf("no relation %s", rel)
	}
	out := make([]orchestra.Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.Tuple
	}
	return out, nil
}

func (v instView) Explain(rel string, tu orchestra.Tuple) (orchestra.Provenance, bool) {
	row, ok := v.inst.Table(rel).Get(tu)
	return row.Prov, ok
}

// verify checks the run's outputs: reconcile counts against the generator's
// expectation, each peer's rows against the generator's model (when it has
// one) and against exchange.Engine.Recompute over the published history.
// Every check is one attempted operation; a miss is a failed one.
func verify(o *runOut) {
	p, e := o.plan, o.env
	for n, want := range p.expect {
		o.attempted++
		if got := o.counts[n]; got != want {
			o.fail("peer %s reconcile counts accepted/rejected/deferred = %d/%d/%d, generator expects %d/%d/%d",
				n, got.accepted, got.rejected, got.deferred, want.accepted, want.rejected, want.deferred)
		}
	}
	for n, want := range p.expectRows {
		o.attempted++
		rows, err := e.peers[n].Rows("S")
		if err != nil {
			o.fail("rows %s.S: %v", n, err)
			continue
		}
		if len(rows) != len(want) {
			o.fail("peer %s holds %d S rows, generator's model has %d", n, len(rows), len(want))
			continue
		}
		for _, tu := range rows {
			if !want[tu.Key()] {
				o.fail("peer %s holds S%v, absent from the generator's model", n, tu)
				break
			}
		}
	}
	if err := verifyRecompute(o); err != nil {
		o.attempted++
		o.fail("recompute oracle: %v", err)
	}
}

// verifyRecompute replays the published history into a fresh engine,
// recomputes the union database from its base facts, and checks that each
// peer holds exactly the facts of its relations that are derivable from the
// transactions that peer accepted — restricted, as skolemFree explains, to
// rows with a derivation free of Skolemizing mappings.
func verifyRecompute(o *runOut) error {
	p, e := o.plan, o.env
	ctx := context.Background()
	history, _, err := e.store.Since(0)
	if err != nil {
		return err
	}
	eng, err := exchange.NewEngineWith(p.peers, p.mappings, engineConfig(p))
	if err != nil {
		return err
	}
	if _, err := eng.ApplyAll(ctx, history); err != nil {
		return err
	}
	db, err := eng.Recompute(ctx)
	if err != nil {
		return err
	}
	clean := skolemFree(p)
	for _, n := range p.names {
		peer := e.peers[n]
		alive := func(v provenance.Var) bool {
			id, isTok := updates.TokenTxn(v)
			return !isTok || peer.Status(id) == orchestra.StatusAccepted
		}
		for _, rel := range peer.Relations() {
			o.attempted++
			rows, err := peer.Rows(rel.Name)
			if err != nil {
				return err
			}
			have := make(map[string]bool, len(rows))
			for _, tu := range rows {
				if prov, _ := peer.Explain(rel.Name, tu); !clean(prov).IsZero() {
					have[tu.Key()] = true
				}
			}
			o.rows += len(have)
			o.skolemRows += len(rows) - len(have)
			want := 0
			pred := mapping.Qualify(n, rel.Name)
			if db.Has(pred) {
				for _, f := range db.Rel(pred).Facts() {
					if clean(f.Prov.Restrict(alive)).IsZero() {
						continue
					}
					want++
					if !have[f.Tuple.Key()] {
						o.fail("peer %s lacks %s%v, which Recompute derives", n, rel.Name, f.Tuple)
						want = -1
						break
					}
				}
			}
			if want >= 0 && want != len(have) {
				o.fail("peer %s holds %d Skolem-free %s rows, Recompute derives %d", n, len(have), rel.Name, want)
			}
		}
	}
	return nil
}

// engineConfig mirrors the exchange.Config the SDK builds from the plan.
func engineConfig(p *plan) exchange.Config {
	return exchange.Config{MaxMonomials: p.maxMonomials}
}
