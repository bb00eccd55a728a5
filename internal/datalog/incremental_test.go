package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

func tok(i, j int) provenance.Var { return provenance.Var(fmt.Sprintf("e%d_%d", i, j)) }

func TestIncrementalInsertMatchesBatch(t *testing.T) {
	edges := [][2]string{{"a", "b"}, {"b", "c"}}
	edb := NewDB()
	for i, e := range edges {
		edb.Add("E", edge(e[0], e[1]), provenance.NewVar(provenance.Var(fmt.Sprint("e", i))))
	}
	inc, err := NewIncremental(tcProgram(), edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inc.DB().Rel("T").Len() != 3 { // ab, bc, ac
		t.Fatalf("initial T = %v", inc.DB().Rel("T").Facts())
	}
	// Insert c->d incrementally.
	changes, err := inc.Insert(context.Background(), []Fact2{{Pred: "E", Tuple: edge("c", "d"), Prov: provenance.NewVar("e2")}})
	if err != nil {
		t.Fatal(err)
	}
	// New T facts: cd, bd, ad (+ base E change).
	newT := 0
	for _, c := range changes {
		if c.Pred == "T" && c.Fresh {
			newT++
		}
	}
	if newT != 3 {
		t.Errorf("incremental derived %d new T facts, want 3; changes=%v", newT, changes)
	}
	// Compare against batch evaluation from scratch.
	edb.Add("E", edge("c", "d"), provenance.NewVar("e2"))
	batch, err := EvalCtx(context.Background(), tcProgram(), edb, Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Rel("T").Len() != inc.DB().Rel("T").Len() {
		t.Fatalf("incremental T=%d, batch T=%d", inc.DB().Rel("T").Len(), batch.Rel("T").Len())
	}
	for _, f := range batch.Rel("T").Facts() {
		g, ok := inc.DB().Rel("T").Get(f.Tuple)
		if !ok {
			t.Errorf("missing %v", f.Tuple)
			continue
		}
		if !g.Prov.Equal(f.Prov) {
			t.Errorf("prov mismatch for %v: inc=%v batch=%v", f.Tuple, g.Prov, f.Prov)
		}
	}
}

func TestIncrementalInsertNoOp(t *testing.T) {
	edb := NewDB()
	edb.Add("E", edge("a", "b"), provenance.NewVar("e0"))
	inc, err := NewIncremental(tcProgram(), edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Re-inserting the same fact with the same provenance changes nothing.
	changes, err := inc.Insert(context.Background(), []Fact2{{Pred: "E", Tuple: edge("a", "b"), Prov: provenance.NewVar("e0")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Errorf("no-op insert produced %v", changes)
	}
}

func TestIncrementalDeleteBase(t *testing.T) {
	// Diamond: a->b->d and a->c->d. Deleting edge b->d keeps T(a,d) alive
	// through c; deleting c->d too removes it.
	edb := NewDB()
	type e struct {
		from, to string
		tok      provenance.Var
	}
	es := []e{{"a", "b", "ab"}, {"b", "d", "bd"}, {"a", "c", "ac"}, {"c", "d", "cd"}}
	for _, x := range es {
		edb.Add("E", edge(x.from, x.to), provenance.NewVar(x.tok))
	}
	inc, err := NewIncremental(tcProgram(), edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !inc.DB().Rel("T").Contains(edge("a", "d")) {
		t.Fatal("T(a,d) missing")
	}
	// Kill bd.
	changes := inc.DeleteBase([]provenance.Var{"bd"})
	// T(b,d) must be removed; T(a,d) must survive with reduced provenance.
	removedBD := false
	for _, c := range changes {
		if c.Pred == "T" && c.Tuple.Equal(edge("b", "d")) && c.Removed {
			removedBD = true
		}
		if c.Pred == "T" && c.Tuple.Equal(edge("a", "d")) && c.Removed {
			t.Error("T(a,d) wrongly removed")
		}
	}
	if !removedBD {
		t.Error("T(b,d) not removed")
	}
	if !inc.DB().Rel("T").Contains(edge("a", "d")) {
		t.Error("T(a,d) lost")
	}
	// Kill cd: now T(a,d) must go.
	inc.DeleteBase([]provenance.Var{"cd"})
	if inc.DB().Rel("T").Contains(edge("a", "d")) {
		t.Error("T(a,d) survived with no derivation")
	}
	// E(b,d) itself must be gone (its own token died).
	if inc.DB().Rel("E").Contains(edge("b", "d")) {
		t.Error("base fact E(b,d) survived token kill")
	}
}

func TestIncrementalDeleteMatchesBatch(t *testing.T) {
	// Random graphs: incremental delete must agree with recomputation.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(3)
		var all [][2]int
		edb := NewDB()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.25 {
					all = append(all, [2]int{i, j})
					edb.Add("E", edge(fmt.Sprint("v", i), fmt.Sprint("v", j)), provenance.NewVar(tok(i, j)))
				}
			}
		}
		if len(all) == 0 {
			continue
		}
		inc, err := NewIncremental(tcProgram(), edb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Delete a random half of the edges incrementally.
		kill := all[:len(all)/2]
		var toks []provenance.Var
		for _, k := range kill {
			toks = append(toks, tok(k[0], k[1]))
		}
		inc.DeleteBase(toks)
		// Recompute from the surviving edges.
		edb2 := NewDB()
		for _, k := range all[len(all)/2:] {
			edb2.Add("E", edge(fmt.Sprint("v", k[0]), fmt.Sprint("v", k[1])), provenance.NewVar(tok(k[0], k[1])))
		}
		batch, err := EvalCtx(context.Background(), tcProgram(), edb2, Options{Provenance: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := inc.DB().Rel("T").Len(), batch.Rel("T").Len(); got != want {
			t.Fatalf("trial %d: incremental T=%d, batch T=%d", trial, got, want)
		}
		for _, f := range batch.Rel("T").Facts() {
			if !inc.DB().Rel("T").Contains(f.Tuple) {
				t.Fatalf("trial %d: missing %v", trial, f.Tuple)
			}
		}
	}
}

func TestIncrementalRejectsNegation(t *testing.T) {
	prog := &Program{Rules: []Rule{{
		ID:   "n",
		Head: NewHead("P", HV("x")),
		Body: []Literal{Pos(NewAtom("A", V("x"))), Neg(NewAtom("B", V("x")))},
	}}}
	if _, err := NewIncremental(prog, NewDB(), Options{}); err == nil {
		t.Error("negation accepted by incremental engine")
	}
}

// joinProgram is J(x) :- A(x), B(x), plus J(x) :- C(x) — a one-token
// derivation that beats the two-token one under a binding witness cut. Each
// rule multiplies in its mapping token, as compiled mappings do.
func joinProgram() *Program {
	return &Program{Rules: []Rule{
		{ID: "ab", ProvToken: "Mab", Head: NewHead("J", HV("x")), Body: []Literal{Pos(NewAtom("A", V("x"))), Pos(NewAtom("B", V("x")))}},
		{ID: "c", ProvToken: "Mc", Head: NewHead("J", HV("x")), Body: []Literal{Pos(NewAtom("C", V("x")))}},
	}}
}

func insertOne(t *testing.T, inc *Incremental, pred, x string, v provenance.Var) {
	t.Helper()
	f := Fact2{Pred: pred, Tuple: schema.NewTuple(schema.String(x)), Prov: provenance.NewVar(v)}
	if _, err := inc.Insert(context.Background(), []Fact2{f}); err != nil {
		t.Fatal(err)
	}
}

// DependentCount counts the stored facts whose annotation mentions the
// token now — not a fact DeleteBase removed, nor one whose only mention of
// it the witness cut dropped.
func TestDependentCountCountsLiveMentionsOnly(t *testing.T) {
	inc, err := NewIncremental(joinProgram(), NewDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	insertOne(t, inc, "A", "1", "a")
	insertOne(t, inc, "B", "1", "b")
	if n := inc.DependentCount("b"); n != 2 { // B(1), J(1)
		t.Fatalf("DependentCount(b) = %d before the deletion, want 2", n)
	}
	inc.DeleteBase([]provenance.Var{"a"})
	if inc.DB().Rel("J").Len() != 0 {
		t.Fatalf("J = %v after killing a", inc.DB().Rel("J").Facts())
	}
	if n := inc.DependentCount("b"); n != 1 { // B(1) only
		t.Errorf("DependentCount(b) = %d after J(1) was removed, want 1", n)
	}

	cut, err := NewIncremental(joinProgram(), NewDB(), Options{MaxMonomials: 1})
	if err != nil {
		t.Fatal(err)
	}
	insertOne(t, cut, "A", "1", "a")
	insertOne(t, cut, "B", "1", "b")
	if n := cut.DependentCount("b"); n != 2 {
		t.Fatalf("DependentCount(b) = %d before the cut, want 2", n)
	}
	insertOne(t, cut, "C", "1", "c") // J(1) keeps c·Mc and drops a·b·Mab
	j1 := schema.NewTuple(schema.String("1"))
	if f, _ := cut.DB().Rel("J").Get(j1); mentions(f.Prov, provenance.Mint("b")) || !mentions(f.Prov, provenance.Mint("c")) {
		t.Fatalf("J(1) @ %s, want the cut to keep c·Mc", f.Prov)
	}
	if n := cut.DependentCount("b"); n != 1 {
		t.Errorf("DependentCount(b) = %d after the cut dropped J(1)'s a·b·Mab, want 1", n)
	}

	// A mapping's token is no base fact's: nothing depends on it, and
	// killing it deletes nothing.
	if n := cut.DependentCount("Mc"); n != 0 {
		t.Errorf("DependentCount(Mc) = %d, want 0", n)
	}
	if cs := cut.Affected([]provenance.Var{"Mc"}); len(cs) != 0 {
		t.Errorf("Affected(Mc) = %v, want no change", cs)
	}
	if cs := cut.DeleteBase([]provenance.Var{"Mc"}); len(cs) != 0 || !cut.DB().Rel("J").Contains(j1) {
		t.Errorf("DeleteBase(Mc) = %v, want no change", cs)
	}
}

// A fact whose later merges bring a token in again is listed under it once
// per merge, and DependentCount still counts it once; so does the
// deletion walk. J(1) = a·b·Mab is listed under b at the index build, and
// again when A(1) gains a2 and J(1) the witness a2·b·Mab.
func TestDependentCountCountsRepeatedEntriesOnce(t *testing.T) {
	inc, err := NewIncremental(joinProgram(), NewDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	insertOne(t, inc, "A", "1", "a")
	insertOne(t, inc, "B", "1", "b")
	if n := inc.DependentCount("b"); n != 2 { // B(1), J(1)
		t.Fatalf("DependentCount(b) = %d, want 2", n)
	}
	insertOne(t, inc, "A", "1", "a2")
	if refs := inc.tokenIndex[provenance.Mint("b")]; len(refs) != 3 {
		t.Fatalf("b's list = %v, want B(1) once and J(1) twice", refs)
	}
	if n := inc.DependentCount("b"); n != 2 {
		t.Errorf("DependentCount(b) = %d with J(1) listed twice, want 2", n)
	}
	if refs := inc.tokenIndex[provenance.Mint("b")]; len(refs) != 2 {
		t.Errorf("b's list = %v after DependentCount, want it compacted to 2 entries", refs)
	}
	insertOne(t, inc, "A", "1", "a3")
	if cs := inc.DeleteBase([]provenance.Var{"b"}); len(cs) != 2 || !cs[0].Removed || !cs[1].Removed {
		t.Errorf("DeleteBase(b) = %v, want B(1) and J(1) removed once each", cs)
	}
}

// The deletion index is built by the first deletion-side call, once, and
// kept up to date by later merges; inserts alone never build it, and a
// restored engine builds its own on first use.
func TestTokenIndexBuiltOnFirstDeletion(t *testing.T) {
	var st EvalStats
	edb := NewDB()
	edb.Add("E", edge("a", "b"), provenance.NewVar("ab"))
	inc, err := NewIncremental(tcProgram(), edb, Options{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range [][2]string{{"b", "c"}, {"c", "d"}} {
		if _, err := inc.Insert(context.Background(), []Fact2{{Pred: "E", Tuple: edge(e[0], e[1]), Prov: provenance.NewVar(tok(0, i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.TokenIndexBuilds.Load(); n != 0 {
		t.Fatalf("inserts built the token index %d times", n)
	}
	inc.DeleteBase([]provenance.Var{tok(0, 1)}) // c->d
	if n := st.TokenIndexBuilds.Load(); n != 1 {
		t.Fatalf("first DeleteBase: %d index builds, want 1", n)
	}
	// Facts merged after the build are found through the maintained index.
	if _, err := inc.Insert(context.Background(), []Fact2{{Pred: "E", Tuple: edge("c", "e"), Prov: provenance.NewVar("ce")}}); err != nil {
		t.Fatal(err)
	}
	if n := inc.DependentCount("ce"); n != 4 { // E(c,e), T(c,e), T(b,e), T(a,e)
		t.Errorf("DependentCount(ce) = %d, want 4", n)
	}
	if cs := inc.Affected([]provenance.Var{"ce"}); len(cs) != 4 {
		t.Errorf("Affected(ce) = %v, want 4 removals", cs)
	}
	inc.DeleteBase([]provenance.Var{"ce"})
	if inc.DB().Rel("T").Contains(edge("a", "e")) {
		t.Error("T(a,e) survived the deletion of c->e")
	}
	if n := st.TokenIndexBuilds.Load(); n != 1 {
		t.Fatalf("%d index builds after later deletions, want 1", n)
	}

	restored, err := RestoreIncremental(tcProgram(), inc.DB().Snapshot(), Options{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if n := st.TokenIndexBuilds.Load(); n != 1 {
		t.Fatalf("RestoreIncremental built the index (%d builds)", n)
	}
	restored.DeleteBase([]provenance.Var{"ab"})
	if n := st.TokenIndexBuilds.Load(); n != 2 {
		t.Fatalf("restored engine's first DeleteBase: %d builds in all, want 2", n)
	}
	if restored.DB().Rel("T").Contains(edge("a", "c")) {
		t.Error("restored engine kept T(a,c) after a->b died")
	}
}

func TestIncrementalInsertThenDeleteRoundTrip(t *testing.T) {
	edb := NewDB()
	edb.Add("E", edge("a", "b"), provenance.NewVar("ab"))
	inc, err := NewIncremental(tcProgram(), edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := inc.DB().Rel("T").Len()
	if _, err := inc.Insert(context.Background(), []Fact2{{Pred: "E", Tuple: edge("b", "c"), Prov: provenance.NewVar("bc")}}); err != nil {
		t.Fatal(err)
	}
	inc.DeleteBase([]provenance.Var{"bc"})
	if inc.DB().Rel("T").Len() != before {
		t.Errorf("T size %d after round trip, want %d", inc.DB().Rel("T").Len(), before)
	}
	if inc.DB().Rel("E").Contains(edge("b", "c")) {
		t.Error("base edge survived")
	}
}
