package config

import (
	"context"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// policyFor returns the peer's parsed trust policy, or trust-all at
// priority 1 when the configuration declares none.
func policyFor(cfg *Config, peer string) *recon.Policy {
	if p, ok := cfg.Policies[peer]; ok {
		return p
	}
	return recon.TrustAll(1)
}

const fig2Conf = `
# The paper's Figure 2 CDSS.
peer alaska {
    relation O(org string, oid int) key(oid)
    relation P(prot string, pid int) key(pid)
    relation S(oid int, pid int, seq string) key(oid, pid)
}
peer beijing like alaska
peer crete {
    relation OPS(org string, prot string, seq string) key(org, prot)
}
peer dresden like crete

mapping identity M_AB alaska beijing
mapping identity M_BA beijing alaska
mapping identity M_CD crete dresden
mapping identity M_DC dresden crete
mapping M_AC = crete.OPS(org, prot, seq) :-
    alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq).
mapping M_CA = alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq) :-
    crete.OPS(org, prot, seq).

trust crete {
    peer beijing 2
    peer dresden 1
    default 0
}
`

func TestParseFigure2Config(t *testing.T) {
	cfg, err := Parse(strings.NewReader(fig2Conf))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Peers) != 4 {
		t.Fatalf("peers = %d", len(cfg.Peers))
	}
	if cfg.Peers["alaska"] != cfg.Peers["beijing"] {
		t.Error("'like' did not share the schema")
	}
	if cfg.Peers["alaska"].Relation("S").Arity() != 3 {
		t.Error("S arity wrong")
	}
	// 4 identity groups (3+3+1+1 rules) + join + split.
	if len(cfg.Mappings) != 10 {
		t.Errorf("mappings = %d", len(cfg.Mappings))
	}
	sys, err := core.NewSystem(cfg.Peers, cfg.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Schema("dresden").Relation("OPS") == nil {
		t.Error("dresden schema wrong")
	}
	// Policies: crete custom, others default trust-all.
	if policyFor(cfg, "crete").Default != recon.Distrusted {
		t.Error("crete default wrong")
	}
	if policyFor(cfg, "alaska").Default != 1 {
		t.Error("alaska fallback policy wrong")
	}
}

// The config-built CDSS passes demo scenario 2 end to end.
func TestConfigDrivenScenario(t *testing.T) {
	cfg, err := Parse(strings.NewReader(fig2Conf))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(cfg.Peers, cfg.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	store := p2p.NewMemoryStore()
	mk := func(name string) *core.Peer {
		p, err := core.NewPeer(name, sys, store, policyFor(cfg, name))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	beijing, dresden, crete := mk("beijing"), mk("dresden"), mk("crete")
	if _, err := beijing.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "AAAA")).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := beijing.Publish(context.Background()); err != nil {
		t.Fatal(err)
	}
	dTxn, err := dresden.NewTransaction().
		Insert("OPS", workload.OPSTuple("mouse", "p53", "CCCC")).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dresden.Publish(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := crete.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if crete.Status(dTxn.ID) != recon.StatusRejected {
		t.Errorf("dresden at crete = %s", crete.Status(dTxn.ID))
	}
	if _, ok := crete.Instance().Table("OPS").Get(workload.OPSTuple("mouse", "p53", "AAAA")); !ok {
		t.Error("beijing's tuple missing at crete")
	}
	_ = updates.TxnID{}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"unknown directive": "frobnicate x\n",
		"peer no name":      "peer\n",
		"bad peer syntax":   "peer a [\n",
		"like unknown":      "peer a like b\n",
		"dup peer":          "peer a {\n}\npeer a {\n}\n",
		"unclosed peer":     "peer a {\nrelation R(x int)\n",
		"bad relation":      "peer a {\nrelation R\n}\n",
		"bad attr":          "peer a {\nrelation R(x)\n}\n",
		"bad type":          "peer a {\nrelation R(x blob)\n}\n",
		"bad key":           "peer a {\nrelation R(x int) key(y)\n}\n",
		"bad key syntax":    "peer a {\nrelation R(x int) keyz\n}\n",
		"identity unknown":  "peer a {\nrelation R(x int)\n}\nmapping identity M a b\n",
		"identity usage":    "peer a {\nrelation R(x int)\n}\nmapping identity M a\n",
		"mapping usage":     "peer a {\nrelation R(x int)\n}\nmapping M\n",
		"mapping unterminated": "peer a {\nrelation R(x int)\n}\n" +
			"mapping M = a.R(x) :- a.R(x)\n",
		"mapping unknown peer": "peer a {\nrelation R(x int)\n}\n" +
			"mapping M = b.R(x) :- a.R(x).\n",
		"trust unknown peer": "peer a {\nrelation R(x int)\n}\ntrust b {\n}\n",
		"trust bad entry":    "peer a {\nrelation R(x int)\n}\ntrust a {\nwhatever\n}\n",
		"trust bad number":   "peer a {\nrelation R(x int)\n}\ntrust a {\npeer a x\n}\n",
		"trust unclosed":     "peer a {\nrelation R(x int)\n}\ntrust a {\n",
		"dup trust":          "peer a {\nrelation R(x int)\n}\ntrust a {\n}\ntrust a {\n}\n",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTrustConditionKinds(t *testing.T) {
	src := `
peer a {
    relation R(x int)
}
trust a {
    peer b 3
    mapping M_x 2
    relation R 4
    default 1
}
`
	cfg, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	pol := policyFor(cfg, "a")
	if len(pol.Conditions) != 3 || pol.Default != 1 {
		t.Fatalf("policy = %+v", pol)
	}
	// The relation condition matches updates on R.
	u := updates.Insert("R", workload.OTuple("x", 1)[:1])
	if got := pol.PriorityOf(&updates.Transaction{
		ID:      updates.TxnID{Peer: "z", Seq: 1},
		Updates: []updates.Update{u},
	}); got != 4 {
		t.Errorf("priority = %d", got)
	}
}
