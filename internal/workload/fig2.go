// Package workload provides the paper's Figure 2 bioinformatics CDSS as a
// reusable fixture, plus synthetic workload generators (peers, mapping
// topologies, update streams with tunable conflict rates) for the tests
// and the repo benchmark in bench/.
package workload

import (
	"fmt"

	"orchestra/internal/datalog"
	"orchestra/internal/mapping"
	"orchestra/internal/schema"
)

// Peer names of Figure 2: the Universities of Alaska, Beijing, Crete, and
// Dresden.
const (
	Alaska  = "alaska"
	Beijing = "beijing"
	Crete   = "crete"
	Dresden = "dresden"
)

// Sigma1 builds Σ1 = {O(org, oid), P(prot, pid), S(oid, pid, seq)}, the
// schema shared by Alaska and Beijing. oid and pid are the keys; S is keyed
// by (oid, pid).
func Sigma1() *schema.Schema {
	s := schema.NewSchema("Σ1")
	s.MustAddRelation(schema.MustRelation("O",
		[]schema.Attribute{{Name: "org", Type: schema.KindString}, {Name: "oid", Type: schema.KindInt}},
		"oid"))
	s.MustAddRelation(schema.MustRelation("P",
		[]schema.Attribute{{Name: "prot", Type: schema.KindString}, {Name: "pid", Type: schema.KindInt}},
		"pid"))
	s.MustAddRelation(schema.MustRelation("S",
		[]schema.Attribute{{Name: "oid", Type: schema.KindInt}, {Name: "pid", Type: schema.KindInt}, {Name: "seq", Type: schema.KindString}},
		"oid", "pid"))
	return s
}

// Sigma2 builds Σ2 = {OPS(org, prot, seq)}, the schema shared by Crete and
// Dresden, keyed by (org, prot).
func Sigma2() *schema.Schema {
	s := schema.NewSchema("Σ2")
	s.MustAddRelation(schema.MustRelation("OPS",
		[]schema.Attribute{{Name: "org", Type: schema.KindString}, {Name: "prot", Type: schema.KindString}, {Name: "seq", Type: schema.KindString}},
		"org", "prot"))
	return s
}

// Figure2Peers returns the peer -> schema map of the demo CDSS.
func Figure2Peers() map[string]*schema.Schema {
	s1, s2 := Sigma1(), Sigma2()
	return map[string]*schema.Schema{
		Alaska:  s1,
		Beijing: s1,
		Crete:   s2,
		Dresden: s2,
	}
}

// Figure2Mappings returns the mappings of Figure 2:
//
//	MA↔B  identity between Alaska and Beijing (Σ1)
//	MC↔D  identity between Crete and Dresden (Σ2)
//	MA→C  join of O, P, S into OPS
//	MC→A  split of OPS into O, P, S with invented oid/pid
func Figure2Mappings() []*mapping.Mapping {
	var ms []*mapping.Mapping
	ms = append(ms, mapping.Identity("M_AB", Alaska, Beijing, Sigma1())...)
	ms = append(ms, mapping.Identity("M_BA", Beijing, Alaska, Sigma1())...)
	ms = append(ms, mapping.Identity("M_CD", Crete, Dresden, Sigma2())...)
	ms = append(ms, mapping.Identity("M_DC", Dresden, Crete, Sigma2())...)
	ms = append(ms, JoinMapping("M_AC", Alaska, Crete))
	ms = append(ms, SplitMapping("M_CA", Crete, Alaska))
	return ms
}

// JoinMapping builds MA→C-style mapping: OPS(org,prot,seq) :- O(org,oid),
// P(prot,pid), S(oid,pid,seq).
func JoinMapping(id, source, target string) *mapping.Mapping {
	return &mapping.Mapping{
		ID: id, Source: source, Target: target,
		Body: []datalog.Literal{
			datalog.Pos(datalog.NewAtom(mapping.Qualify(source, "O"), datalog.V("org"), datalog.V("oid"))),
			datalog.Pos(datalog.NewAtom(mapping.Qualify(source, "P"), datalog.V("prot"), datalog.V("pid"))),
			datalog.Pos(datalog.NewAtom(mapping.Qualify(source, "S"), datalog.V("oid"), datalog.V("pid"), datalog.V("seq"))),
		},
		Head: []datalog.Atom{
			datalog.NewAtom(mapping.Qualify(target, "OPS"), datalog.V("org"), datalog.V("prot"), datalog.V("seq")),
		},
	}
}

// SplitMapping builds MC→A-style mapping: O(org,oid), P(prot,pid),
// S(oid,pid,seq) :- OPS(org,prot,seq), with oid and pid existential
// (Skolemized into labeled nulls).
func SplitMapping(id, source, target string) *mapping.Mapping {
	return &mapping.Mapping{
		ID: id, Source: source, Target: target,
		Body: []datalog.Literal{
			datalog.Pos(datalog.NewAtom(mapping.Qualify(source, "OPS"), datalog.V("org"), datalog.V("prot"), datalog.V("seq"))),
		},
		Head: []datalog.Atom{
			datalog.NewAtom(mapping.Qualify(target, "O"), datalog.V("org"), datalog.V("oid")),
			datalog.NewAtom(mapping.Qualify(target, "P"), datalog.V("prot"), datalog.V("pid")),
			datalog.NewAtom(mapping.Qualify(target, "S"), datalog.V("oid"), datalog.V("pid"), datalog.V("seq")),
		},
	}
}

// Organisms and proteins used by the synthetic bioinformatics generator.
var (
	organisms = []string{"mouse", "rat", "fly", "worm", "yeast", "zebrafish", "human", "arabidopsis"}
	proteins  = []string{"p53", "brca1", "ins", "hbb", "myc", "egfr", "tnf", "apoe", "cftr", "dmd"}
)

// Organism returns the i-th synthetic organism name (wrapping, with a
// numeric suffix after the base list is exhausted).
func Organism(i int) string {
	if i < len(organisms) {
		return organisms[i]
	}
	return fmt.Sprintf("%s-%d", organisms[i%len(organisms)], i/len(organisms))
}

// Protein returns the i-th synthetic protein name.
func Protein(i int) string {
	if i < len(proteins) {
		return proteins[i]
	}
	return fmt.Sprintf("%s-%d", proteins[i%len(proteins)], i/len(proteins))
}

// Sequence returns a deterministic pseudo-DNA sequence for (oid, pid).
func Sequence(oid, pid int64) string {
	const bases = "ACGT"
	x := uint64(oid)*2654435761 + uint64(pid)*40503 + 12345
	out := make([]byte, 12)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = bases[(x>>33)%4]
	}
	return string(out)
}

// OTuple, PTuple and STuple build Σ1 tuples.
func OTuple(org string, oid int64) schema.Tuple {
	return schema.NewTuple(schema.String(org), schema.Int(oid))
}

// PTuple builds a P(prot, pid) tuple.
func PTuple(prot string, pid int64) schema.Tuple {
	return schema.NewTuple(schema.String(prot), schema.Int(pid))
}

// STuple builds an S(oid, pid, seq) tuple.
func STuple(oid, pid int64, seq string) schema.Tuple {
	return schema.NewTuple(schema.Int(oid), schema.Int(pid), schema.String(seq))
}

// OPSTuple builds a Σ2 OPS(org, prot, seq) tuple.
func OPSTuple(org, prot, seq string) schema.Tuple {
	return schema.NewTuple(schema.String(org), schema.String(prot), schema.String(seq))
}
