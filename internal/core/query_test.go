package core

import (
	"context"
	"errors"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// conjunctive answers the conjunctive query sel :- body as a goal query: the
// body becomes one view rule whose head the goal names.
func conjunctive(p *Peer, sel []string, body ...datalog.Literal) ([]Answer, error) {
	head := make([]datalog.HeadTerm, len(sel))
	goal := make([]datalog.Term, len(sel))
	for i, v := range sel {
		head[i] = datalog.HV(v)
		goal[i] = datalog.V(v)
	}
	return p.QueryGoal(context.Background(), GoalQuery{
		Goal:  datalog.NewAtom("q", goal...),
		Rules: []datalog.Rule{{ID: "q", Head: datalog.Head{Pred: "q", Terms: head}, Body: body}},
	})
}

func TestQueryJoin(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("O", workload.OTuple("rat", 2)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "ACGT")))

	// Organisms with a known sequence for p53.
	ans, err := conjunctive(alaska, []string{"org", "seq"},
		datalog.Pos(datalog.NewAtom("O", datalog.V("org"), datalog.V("oid"))),
		datalog.Pos(datalog.NewAtom("P", datalog.C(schema.String("p53")), datalog.V("pid"))),
		datalog.Pos(datalog.NewAtom("S", datalog.V("oid"), datalog.V("pid"), datalog.V("seq"))),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 {
		t.Fatalf("answers = %v", ans)
	}
	if !ans[0].Tuple.Equal(schema.NewTuple(schema.String("mouse"), schema.String("ACGT"))) {
		t.Errorf("answer = %v", ans[0].Tuple)
	}
	if ans[0].Prov.IsZero() {
		t.Error("answer has no provenance")
	}
}

func TestQueryNegationAndBuiltin(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("O", workload.OTuple("rat", 2)).
		Insert("S", workload.STuple(1, 10, "ACGT")))

	// Organisms with oid < 5 that have NO sequence entry for pid 10.
	body := []datalog.Literal{
		datalog.Pos(datalog.NewAtom("O", datalog.V("org"), datalog.V("oid"))),
		datalog.Cmp(datalog.V("oid"), datalog.OpLt, datalog.C(schema.Int(5))),
		datalog.Neg(datalog.NewAtom("S", datalog.V("oid"), datalog.C(schema.Int(10)), datalog.V("seq"))),
	}
	// Negated atom has an unbound variable seq — unsafe; expect an error.
	if _, err := conjunctive(alaska, []string{"org"}, body...); err == nil {
		t.Fatal("unsafe query accepted")
	}
	// Bind seq via a constant instead.
	body[2] = datalog.Neg(datalog.NewAtom("S", datalog.V("oid"), datalog.C(schema.Int(10)), datalog.C(schema.String("ACGT"))))
	ans, err := conjunctive(alaska, []string{"org"}, body...)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || !ans[0].Tuple[0].Equal(schema.String("rat")) {
		t.Errorf("answers = %v", ans)
	}
}

func TestQueryValidation(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	// Unknown relation: evaluates over an empty extent, no answers.
	ans, err := conjunctive(alaska, []string{"x"}, datalog.Pos(datalog.NewAtom("NOPE", datalog.V("x"))))
	if err != nil || len(ans) != 0 {
		t.Errorf("unknown relation: %v %v", ans, err)
	}
}

// QueryGoal with view rules: a recursive same-organism closure over S,
// goal-directed from a bound oid, must agree with the full fixpoint on
// tuples and provenance.
func TestQueryGoalRecursiveView(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	tx := alaska.NewTransaction()
	// Chain 1 -> 2 -> 3 -> 4 via "links" expressed as S rows; oid column
	// links to pid column.
	for i := int64(1); i < 5; i++ {
		tx.Insert("S", workload.STuple(i, i+1, "ACGT"))
	}
	tx.Insert("S", workload.STuple(10, 11, "TTTT")) // disconnected
	commit(t, tx)

	rules := []datalog.Rule{
		{
			ID:   "l0",
			Head: datalog.NewHead("linked", datalog.HV("a"), datalog.HV("b")),
			Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("S", datalog.V("a"), datalog.V("b"), datalog.V("s")))},
		},
		{
			ID:   "l1",
			Head: datalog.NewHead("linked", datalog.HV("a"), datalog.HV("c")),
			Body: []datalog.Literal{
				datalog.Pos(datalog.NewAtom("linked", datalog.V("a"), datalog.V("b"))),
				datalog.Pos(datalog.NewAtom("S", datalog.V("b"), datalog.V("c"), datalog.V("s"))),
			},
		},
	}
	gq := GoalQuery{
		Goal:  datalog.NewAtom("linked", datalog.C(schema.Int(1)), datalog.V("x")),
		Rules: rules,
	}
	goalAns, err := alaska.QueryGoal(context.Background(), gq)
	if err != nil {
		t.Fatal(err)
	}
	gq.Mode = FullFixpoint
	fullAns, err := alaska.QueryGoal(context.Background(), gq)
	if err != nil {
		t.Fatal(err)
	}
	if len(goalAns) != 4 { // 2, 3, 4, 5
		t.Fatalf("answers = %v", goalAns)
	}
	if len(fullAns) != len(goalAns) {
		t.Fatalf("full fixpoint diverges: %v vs %v", fullAns, goalAns)
	}
	for i := range goalAns {
		if !goalAns[i].Tuple.Equal(fullAns[i].Tuple) || !goalAns[i].Prov.Equal(fullAns[i].Prov) {
			t.Fatalf("answer %d diverges: %+v vs %+v", i, goalAns[i], fullAns[i])
		}
	}
}

func TestQueryGoalValidation(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	ctx := context.Background()
	cases := []GoalQuery{
		{}, // empty goal
		{ // rule head shadows the stored relation O
			Goal: datalog.NewAtom("O", datalog.V("x"), datalog.V("y")),
			Rules: []datalog.Rule{{ID: "shadow", Head: datalog.NewHead("O", datalog.HV("x"), datalog.HV("y")),
				Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("P", datalog.V("x"), datalog.V("y")))}}},
		},
		{ // reserved name
			Goal: datalog.NewAtom("v@bf", datalog.V("x")),
		},
		{ // goal arity mismatch against the stored relation
			Goal: datalog.NewAtom("O", datalog.V("x")),
		},
		{ // body atom aliasing a rewrite-internal predicate
			Goal: datalog.NewAtom("v", datalog.V("x")),
			Rules: []datalog.Rule{{ID: "alias", Head: datalog.NewHead("v", datalog.HV("x")),
				Body: []datalog.Literal{
					datalog.Pos(datalog.NewAtom("O", datalog.V("x"), datalog.V("y"))),
					datalog.Pos(datalog.NewAtom("magic@f@goal")),
				}}},
		},
	}
	for i, gq := range cases {
		if _, err := alaska.QueryGoal(ctx, gq); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("case %d: err = %v, want ErrInvalidQuery", i, err)
		}
	}
}

func TestQueryGoalNoProvenance(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("mouse", 1)))
	ans, err := alaska.QueryGoal(context.Background(), GoalQuery{
		Goal:         datalog.NewAtom("O", datalog.V("org"), datalog.V("oid")),
		NoProvenance: true,
	})
	if err != nil || len(ans) != 1 {
		t.Fatalf("answers = %v, err %v", ans, err)
	}
	if !ans[0].Prov.IsZero() {
		t.Errorf("NoProvenance answer carries %v", ans[0].Prov)
	}
}

func TestExplainTracesOrigins(t *testing.T) {
	peers, _ := fig2(t)
	alaska, dresden := peers[workload.Alaska], peers[workload.Dresden]
	aTxn := commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "ACGT")))
	publish(t, alaska)
	reconcile(t, dresden)

	prov, supports, ok := dresden.Explain("OPS", workload.OPSTuple("mouse", "p53", "ACGT"))
	if !ok {
		t.Fatal("tuple not found")
	}
	if prov.IsZero() {
		t.Fatal("no provenance recorded")
	}
	if len(supports) == 0 {
		t.Fatal("no supports decoded")
	}
	foundTxn := false
	foundMapping := false
	for _, s := range supports {
		for _, id := range s.Txns {
			if id == aTxn.ID {
				foundTxn = true
			}
		}
		for _, m := range s.Mappings {
			if m == "M_AC" {
				foundMapping = true
			}
		}
	}
	if !foundTxn {
		t.Errorf("supports missing origin txn: %+v", supports)
	}
	if !foundMapping {
		t.Errorf("supports missing join mapping: %+v", supports)
	}

	// Missing tuple and unknown relation.
	if _, _, ok := dresden.Explain("OPS", workload.OPSTuple("no", "such", "row")); ok {
		t.Error("phantom explain")
	}
	if _, _, ok := dresden.Explain("NOPE", workload.OPSTuple("a", "b", "c")); ok {
		t.Error("unknown relation explain")
	}
}

func TestExplainLocalTuple(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	txn := commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("mouse", 1)))
	_, supports, ok := alaska.Explain("O", workload.OTuple("mouse", 1))
	if !ok {
		t.Fatal("local tuple not found")
	}
	// A locally inserted tuple is supported by its own transaction... but
	// local commits record provenance One (trusted axiomatically), so the
	// supports list may be a single empty derivation.
	_ = txn
	if len(supports) != 1 {
		t.Errorf("supports = %+v", supports)
	}
}

// A row inserted twice reads the same annotation in the instance, in
// Explain and in a query answer: the instance stores the witness set the
// evaluator derives, not a count of inserts.
func TestReinsertedRowReadsOneWitness(t *testing.T) {
	peers, _ := fig2(t)
	alaska, beijing := peers[workload.Alaska], peers[workload.Beijing]
	tu := workload.OTuple("mouse", 1)
	for i := 0; i < 2; i++ {
		commit(t, alaska.NewTransaction().Insert("O", tu))
	}
	commit(t, beijing.NewTransaction().Insert("O", tu))
	publish(t, beijing)
	reconcile(t, alaska)
	rows, _ := alaska.Instance().Rows("O")
	local := func(provenance.Var) bool { return false }
	if len(rows) != 1 || !rows[0].Prov.Restrict(local).IsOne() {
		t.Fatalf("rows = %v, want one row whose token-free part is 1: two local commits are one witness", rows)
	}
	want := rows[0].Prov
	if prov, supports, ok := alaska.Explain("O", tu); !ok || !prov.Equal(want) || len(supports) != want.NumMonomials() {
		t.Errorf("Explain = %v %+v %v, want %v with one support per witness", prov, supports, ok, want)
	}
	ans, err := alaska.QueryGoal(context.Background(), GoalQuery{Goal: datalog.NewAtom("O", datalog.V("org"), datalog.V("oid"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || !ans[0].Prov.Equal(want) {
		t.Errorf("answers = %+v, want one answer annotated %v", ans, want)
	}
}

// Query answers respect reconciliation: rejected data never shows up.
func TestQuerySeesOnlyAcceptedData(t *testing.T) {
	peers, _ := fig2(t)
	beijing, dresden, crete := peers[workload.Beijing], peers[workload.Dresden], peers[workload.Crete]
	commit(t, beijing.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "AAAA")))
	publish(t, beijing)
	commit(t, dresden.NewTransaction().
		Insert("OPS", workload.OPSTuple("mouse", "p53", "CCCC")))
	publish(t, dresden)
	reconcile(t, crete)

	ans, err := conjunctive(crete, []string{"seq"},
		datalog.Pos(datalog.NewAtom("OPS",
			datalog.C(schema.String("mouse")), datalog.C(schema.String("p53")), datalog.V("seq"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || !ans[0].Tuple[0].Equal(schema.String("AAAA")) {
		t.Errorf("answers = %v", ans)
	}
}

func TestDecodeSupportsMixed(t *testing.T) {
	// Two alternative derivations: one via alaska:1's update 0 through
	// mapping M_AC, one via beijing:2's update 1 directly.
	p := provenance.NewVar("alaska:1/0").Mul(provenance.NewVar("M_AC")).
		Add(provenance.NewVar("beijing:2/1"))
	sup := DecodeSupports(p)
	if len(sup) != 2 {
		t.Fatalf("supports = %+v", sup)
	}
	// Canonical monomial order puts alaska's monomial second or first
	// depending on keys; find each.
	var viaMapping, direct *Support
	for i := range sup {
		if len(sup[i].Mappings) == 1 {
			viaMapping = &sup[i]
		} else {
			direct = &sup[i]
		}
	}
	if viaMapping == nil || direct == nil {
		t.Fatalf("supports = %+v", sup)
	}
	if len(viaMapping.Txns) != 1 || viaMapping.Txns[0] != (updates.TxnID{Peer: "alaska", Seq: 1}) ||
		viaMapping.Mappings[0] != "M_AC" {
		t.Errorf("viaMapping = %+v", viaMapping)
	}
	if len(direct.Txns) != 1 || direct.Txns[0] != (updates.TxnID{Peer: "beijing", Seq: 2}) {
		t.Errorf("direct = %+v", direct)
	}
}
