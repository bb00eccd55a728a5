package workload

import (
	"fmt"
	"math/rand"

	"orchestra/internal/mapping"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// Topology is a synthetic CDSS configuration: peers, schemas, mappings.
type Topology struct {
	Names    []string
	Peers    map[string]*schema.Schema
	Mappings []*mapping.Mapping
}

// peerName returns the canonical name of the i-th synthetic peer.
func peerName(i int) string { return fmt.Sprintf("p%02d", i) }

// Chain builds n peers sharing Σ1, linked p0 ↔ p1 ↔ ... ↔ pn-1 with
// bidirectional identity mappings — the linear confederations the paper's
// scaling discussion envisions.
func Chain(n int) *Topology {
	t := &Topology{Peers: map[string]*schema.Schema{}}
	s1 := Sigma1()
	for i := 0; i < n; i++ {
		name := peerName(i)
		t.Names = append(t.Names, name)
		t.Peers[name] = s1
	}
	for i := 0; i+1 < n; i++ {
		a, b := peerName(i), peerName(i+1)
		t.Mappings = append(t.Mappings, mapping.Identity(fmt.Sprintf("M_%s_%s", a, b), a, b, s1)...)
		t.Mappings = append(t.Mappings, mapping.Identity(fmt.Sprintf("M_%s_%s", b, a), b, a, s1)...)
	}
	return t
}

// Star builds a hub (p00) with n-1 spokes, all sharing Σ1, bidirectional
// identity mappings hub ↔ spoke — the "curated central registry" shape.
func Star(n int) *Topology {
	t := &Topology{Peers: map[string]*schema.Schema{}}
	s1 := Sigma1()
	for i := 0; i < n; i++ {
		name := peerName(i)
		t.Names = append(t.Names, name)
		t.Peers[name] = s1
	}
	hub := peerName(0)
	for i := 1; i < n; i++ {
		sp := peerName(i)
		t.Mappings = append(t.Mappings, mapping.Identity(fmt.Sprintf("M_%s_%s", hub, sp), hub, sp, s1)...)
		t.Mappings = append(t.Mappings, mapping.Identity(fmt.Sprintf("M_%s_%s", sp, hub), sp, hub, s1)...)
	}
	return t
}

// Mesh builds a complete graph over n peers sharing Σ1 (every ordered pair
// has an identity mapping) — the worst-case mapping count.
func Mesh(n int) *Topology {
	t := &Topology{Peers: map[string]*schema.Schema{}}
	s1 := Sigma1()
	for i := 0; i < n; i++ {
		name := peerName(i)
		t.Names = append(t.Names, name)
		t.Peers[name] = s1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a, b := peerName(i), peerName(j)
			t.Mappings = append(t.Mappings, mapping.Identity(fmt.Sprintf("M_%s_%s", a, b), a, b, s1)...)
		}
	}
	return t
}

// ChainJoinSplit builds a chain alternating Σ1 and Σ2 peers, linked by the
// Figure 2 join/split mappings — every hop does real structural
// transformation (3-way join one way, Skolemizing split the other).
func ChainJoinSplit(n int) *Topology {
	t := &Topology{Peers: map[string]*schema.Schema{}}
	s1, s2 := Sigma1(), Sigma2()
	for i := 0; i < n; i++ {
		name := peerName(i)
		t.Names = append(t.Names, name)
		if i%2 == 0 {
			t.Peers[name] = s1
		} else {
			t.Peers[name] = s2
		}
	}
	for i := 0; i+1 < n; i++ {
		a, b := peerName(i), peerName(i+1)
		if i%2 == 0 {
			t.Mappings = append(t.Mappings, JoinMapping(fmt.Sprintf("M_%s_%s", a, b), a, b))
			t.Mappings = append(t.Mappings, SplitMapping(fmt.Sprintf("M_%s_%s", b, a), b, a))
		} else {
			t.Mappings = append(t.Mappings, SplitMapping(fmt.Sprintf("M_%s_%s", a, b), a, b))
			t.Mappings = append(t.Mappings, JoinMapping(fmt.Sprintf("M_%s_%s", b, a), b, a))
		}
	}
	return t
}

// OPBaseTxn builds one transaction inserting norg organisms and nprot
// proteins at the given peer — the dimension tables the S stream joins
// against.
func OPBaseTxn(peer string, seq uint64, norg, nprot int) *updates.Transaction {
	t := &updates.Transaction{ID: updates.TxnID{Peer: peer, Seq: seq}}
	for i := 0; i < norg; i++ {
		t.Updates = append(t.Updates, updates.Insert("O", OTuple(Organism(i), int64(i))))
	}
	for i := 0; i < nprot; i++ {
		t.Updates = append(t.Updates, updates.Insert("P", PTuple(Protein(i), int64(i))))
	}
	return t
}

// StreamOpts tunes the synthetic update stream.
type StreamOpts struct {
	// TxnSize is the number of tuple-level updates per transaction.
	TxnSize int
	// KeySpace bounds the (oid, pid) key space: oid in [0, KeySpace),
	// pid in [0, KeySpace).
	KeySpace int64
	// ModifyFrac is the fraction of updates that modify an existing key
	// (the rest insert fresh keys). Modifies target keys already written
	// by this generator.
	ModifyFrac float64
	// Seed makes the stream deterministic.
	Seed int64
}

// Stream generates n transactions of S-relation updates at the given peer.
// Generated transactions carry correct Deps for modifies of keys written by
// earlier transactions in the same stream.
func Stream(peer string, startSeq uint64, n int, o StreamOpts) []*updates.Transaction {
	if o.TxnSize <= 0 {
		o.TxnSize = 1
	}
	if o.KeySpace <= 0 {
		o.KeySpace = 1 << 30
	}
	rng := rand.New(rand.NewSource(o.Seed))
	type lastWrite struct {
		id  updates.TxnID
		tup schema.Tuple
	}
	written := map[[2]int64]lastWrite{}
	var keys [][2]int64
	var out []*updates.Transaction
	nextFresh := int64(0)
	for i := 0; i < n; i++ {
		t := &updates.Transaction{ID: updates.TxnID{Peer: peer, Seq: startSeq + uint64(i)}}
		depSet := map[updates.TxnID]bool{}
		for j := 0; j < o.TxnSize; j++ {
			if len(keys) > 0 && rng.Float64() < o.ModifyFrac {
				k := keys[rng.Intn(len(keys))]
				lw := written[k]
				newTup := STuple(k[0], k[1], Sequence(k[0]+int64(i)+1, k[1]+int64(j)+7))
				t.Updates = append(t.Updates, updates.Modify("S", lw.tup, newTup))
				if lw.id != t.ID {
					depSet[lw.id] = true
				}
				written[k] = lastWrite{id: t.ID, tup: newTup}
			} else {
				oid := nextFresh % o.KeySpace
				pid := nextFresh / o.KeySpace
				nextFresh++
				k := [2]int64{oid, pid}
				tup := STuple(oid, pid, Sequence(oid, pid))
				t.Updates = append(t.Updates, updates.Insert("S", tup))
				keys = append(keys, k)
				written[k] = lastWrite{id: t.ID, tup: tup}
			}
		}
		for d := range depSet {
			t.Deps = append(t.Deps, d)
		}
		out = append(out, t)
	}
	return out
}

// ConflictingStreams generates two same-length transaction streams from two
// peers where approximately conflictRate of the transaction pairs write the
// same S key with different sequences — the publishers of the benchmark's
// conflict-churn workload.
func ConflictingStreams(peerA, peerB string, n int, conflictRate float64, seed int64) (a, b []*updates.Transaction) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		keyA := [2]int64{int64(i), 0}
		keyB := [2]int64{int64(i), 1}
		if rng.Float64() < conflictRate {
			keyB = keyA // same key, different value: conflict
		}
		ta := &updates.Transaction{ID: updates.TxnID{Peer: peerA, Seq: uint64(i + 1)}}
		ta.Updates = append(ta.Updates, updates.Insert("S", STuple(keyA[0], keyA[1], Sequence(keyA[0], 1))))
		tb := &updates.Transaction{ID: updates.TxnID{Peer: peerB, Seq: uint64(i + 1)}}
		tb.Updates = append(tb.Updates, updates.Insert("S", STuple(keyB[0], keyB[1], Sequence(keyB[0], 2))))
		a = append(a, ta)
		b = append(b, tb)
	}
	return a, b
}
