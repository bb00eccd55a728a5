package repl

import (
	"strings"
	"testing"

	"orchestra/internal/config"
	"orchestra/internal/core"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
)

// policyFor returns the peer's parsed trust policy, or trust-all at
// priority 1 when the configuration declares none.
func policyFor(cfg *config.Config, peer string) *recon.Policy {
	if p, ok := cfg.Policies[peer]; ok {
		return p
	}
	return recon.TrustAll(1)
}

// TestConfigNodesOverTCP drives the exact deployment shape of
// `orchestra node -config examples/fig2.conf -store ADDR`: a config-built
// system, REPL-driven peers, and a real TCP store replica between them.
func TestConfigNodesOverTCP(t *testing.T) {
	conf := `
peer alaska {
    relation O(org string, oid int) key(oid)
    relation P(prot string, pid int) key(pid)
    relation S(oid int, pid int, seq string) key(oid, pid)
}
peer crete {
    relation OPS(org string, prot string, seq string) key(org, prot)
}
mapping M_AC = crete.OPS(org, prot, seq) :-
    alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq).
`
	cfg, err := config.Parse(strings.NewReader(conf))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(cfg.Peers, cfg.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p2p.NewServer(p2p.NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mkNode := func(name string) (*REPL, *strings.Builder) {
		peer, err := core.NewPeer(name, sys, p2p.NewClient(srv.Addr()), policyFor(cfg, name))
		if err != nil {
			t.Fatal(err)
		}
		out := &strings.Builder{}
		return New(peer, out), out
	}
	alaska, _ := mkNode("alaska")
	crete, outC := mkNode("crete")

	if err := alaska.Run(strings.NewReader(`
begin
insert O worm 4
insert P dmd 40
insert S 4 40 CAGT
commit
publish
`)); err != nil {
		t.Fatal(err)
	}
	if err := crete.Run(strings.NewReader(`
reconcile
dump OPS
explain OPS worm dmd CAGT
`)); err != nil {
		t.Fatal(err)
	}
	out := outC.String()
	for _, frag := range []string{
		"accepted [alaska:1]",
		"(worm, dmd, CAGT)",
		"mappings=[M_AC]",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("crete transcript missing %q:\n%s", frag, out)
		}
	}
}
