package datalog_test

import (
	"context"
	"testing"
	"unsafe"

	"orchestra/internal/datalog"
	"orchestra/internal/mapping"
	"orchestra/internal/provenance"
	"orchestra/internal/workload"
)

// A derivation that only adds a witness to a stored row merges into the
// stored fact: the change Insert reports carries the stored tuple itself,
// not a copy of it. On a three-peer identity mesh, p00 publishes O(a),
// which the mappings derive at p01 and p02; p01 then publishes the same
// tuple, whose derivations back to p00 and on to p02 only gain witnesses.
func TestStoredRowNotCopied(t *testing.T) {
	topo := workload.Mesh(3)
	prog, err := mapping.Compile(topo.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := datalog.NewIncremental(prog, datalog.NewDB(), datalog.Options{
		Provenance: true, ChaseSubsumption: true, MaxMonomials: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tu := workload.OTuple("a", 1)
	if _, err := inc.Insert(ctx, []datalog.Fact2{{Pred: mapping.Qualify(topo.Names[0], "O"), Tuple: tu, Prov: provenance.NewVar("x")}}); err != nil {
		t.Fatal(err)
	}
	cs, err := inc.Insert(ctx, []datalog.Fact2{{Pred: mapping.Qualify(topo.Names[1], "O"), Tuple: tu.Clone(), Prov: provenance.NewVar("y")}})
	if err != nil {
		t.Fatal(err)
	}
	witnessOnly := 0
	for _, c := range cs {
		if c.Fresh || c.Removed {
			continue
		}
		witnessOnly++
		f, ok := inc.DB().Rel(c.Pred).Get(c.Tuple)
		if !ok {
			t.Fatalf("%s%v: changed but not stored", c.Pred, c.Tuple)
		}
		if unsafe.SliceData(c.Tuple) != unsafe.SliceData(f.Tuple) {
			t.Errorf("%s%v: the change carries a copy of the stored tuple", c.Pred, c.Tuple)
		}
	}
	if witnessOnly == 0 {
		t.Fatalf("no change only added a witness: %v", cs)
	}
}
