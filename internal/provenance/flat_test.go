package provenance

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// flatModel is a polynomial as the definition states it: a list of
// monomials, each a list of names, in canonical order — names within a
// monomial ascending, monomials ascending by key, no repeats. Over alphabet
// (no name holds ';') the key order is total.
type flatModel [][]Var

// modelOf canonicalizes raw monomials into a flatModel.
func modelOf(raw [][]Var) flatModel {
	var out flatModel
	for _, m := range raw {
		m = slices.Clone(m)
		slices.Sort(m)
		out = append(out, slices.Compact(m))
	}
	key := func(m []Var) string {
		var b strings.Builder
		for _, x := range m {
			b.WriteString(string(x) + ";")
		}
		return b.String()
	}
	slices.SortFunc(out, func(a, b []Var) int { return strings.Compare(key(a), key(b)) })
	return slices.CompactFunc(out, slices.Equal)
}

func (f flatModel) has(m []Var) bool {
	return slices.ContainsFunc(f, func(x []Var) bool { return slices.Equal(x, m) })
}

func (f flatModel) String() string {
	if len(f) == 0 {
		return "0"
	}
	parts := make([]string, len(f))
	for i, m := range f {
		parts[i] = "1"
		for j, x := range m {
			if j == 0 {
				parts[i] = string(x)
			} else {
				parts[i] += "·" + string(x)
			}
		}
	}
	return strings.Join(parts, " + ")
}

// names spells a monomial view out.
func names(m Monomial) []Var {
	out := make([]Var, len(m))
	for i, t := range m {
		out[i] = t.Var()
	}
	return out
}

// monosOf mints a model's monomials.
func monosOf(raw [][]Var) []Monomial {
	out := make([]Monomial, len(raw))
	for i, m := range raw {
		out[i] = mono(m...)
	}
	return out
}

// randRaw draws up to six monomials of up to five names from alphabet,
// unsorted and with repeats.
func randRaw(rng *rand.Rand) [][]Var {
	raw := make([][]Var, rng.Intn(7))
	for i := range raw {
		for d := rng.Intn(6); d > 0; d-- {
			raw[i] = append(raw[i], alphabet[rng.Intn(len(alphabet))])
		}
	}
	return raw
}

// arenaPoly builds the model's polynomial through an Arena.
func arenaPoly(t *testing.T, a *Arena, f flatModel) Poly {
	t.Helper()
	a.Begin(len(f))
	for _, m := range f {
		for _, x := range m {
			a.Add(Mint(x))
		}
		a.End()
	}
	p, err := a.Poly()
	if err != nil {
		t.Fatalf("Arena.Poly(%v): %v", f, err)
	}
	return p
}

// checkFlat holds p to its model through every accessor of the layout.
func checkFlat(t *testing.T, what string, p Poly, want flatModel, a *Arena) {
	t.Helper()
	if p.NumMonomials() != len(want) {
		t.Fatalf("%s = %v: %d monomials, want %v", what, p, p.NumMonomials(), want)
	}
	var toks []Var
	for i, w := range want {
		m := p.Monomial(i)
		if got := names(m); !slices.Equal(got, w) {
			t.Fatalf("%s: Monomial(%d) = %v, want %v", what, i, got, w)
		}
		if cap(m) != len(m) {
			t.Fatalf("%s: Monomial(%d) has capacity %d beyond its length %d", what, i, cap(m), len(m))
		}
		toks = append(toks, w...)
	}
	if got := names(Monomial(p.Tokens())); !slices.Equal(got, toks) {
		t.Fatalf("%s: Tokens() = %v, want %v", what, got, toks)
	}
	if p.String() != want.String() {
		t.Fatalf("%s: String() = %q, want %q", what, p, want)
	}
	if q := arenaPoly(t, a, want); !p.Equal(q) || !q.Equal(p) || p.Hash() != q.Hash() {
		t.Fatalf("%s = %v is not Equal to the arena's %v", what, p, q)
	}
	if q := FromMonomials(monosOf(want)); !p.Equal(q) {
		t.Fatalf("%s = %v is not Equal to FromMonomials of its model", what, p)
	}
	// A view cannot grow into its neighbour.
	if len(want) > 0 {
		before := p.String()
		_ = append(p.Monomial(0), Mint("zz"))
		if p.String() != before {
			t.Fatalf("%s: appending to Monomial(0) changed the polynomial to %v", what, p)
		}
	}
}

// TestFlatNodeLayout holds every constructor of the flat node —
// FromMonomials, Mul, MergeWitness, Arena.Poly — to a slice-of-sets model
// under the accessors, Equal, Subsumes, RestrictTokens and String.
func TestFlatNodeLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var a Arena
	for i := 0; i < 3000; i++ {
		rp, rq := randRaw(rng), randRaw(rng)
		fp, fq := modelOf(rp), modelOf(rq)
		in := monosOf(rp)
		p := FromMonomials(in)
		checkFlat(t, "FromMonomials", p, fp, &a)
		// The node owns its tokens: scribbling over the input changes nothing.
		for _, m := range in {
			for j := range m {
				m[j] = Mint("zz")
			}
		}
		checkFlat(t, "FromMonomials after its input changed", p, fp, &a)
		q := FromMonomials(monosOf(rq))

		var prod [][]Var
		for _, x := range fp {
			for _, y := range fq {
				prod = append(prod, append(slices.Clone(x), y...))
			}
		}
		checkFlat(t, "Mul", p.Mul(q), modelOf(prod), &a)

		union := modelOf(append(slices.Clone(fp), fq...))
		var fresh flatModel
		for _, m := range union {
			if !fp.has(m) {
				fresh = append(fresh, m)
			}
		}
		merged, gotFresh, changed, _ := MergeWitness(p, q, 0)
		checkFlat(t, "MergeWitness merged", merged, union, &a)
		if changed != (len(fresh) > 0) {
			t.Fatalf("MergeWitness(%v, %v) changed = %v", p, q, changed)
		}
		if changed {
			checkFlat(t, "MergeWitness fresh", gotFresh, fresh, &a)
		}

		subsumes := true
		for _, m := range fq {
			subsumes = subsumes && fp.has(m)
		}
		if p.Subsumes(q) != subsumes {
			t.Fatalf("%v.Subsumes(%v) = %v, want %v", p, q, !subsumes, subsumes)
		}

		dead := alphabet[rng.Intn(len(alphabet))]
		var kept flatModel
		for _, m := range fp {
			if !slices.Contains(m, dead) {
				kept = append(kept, m)
			}
		}
		checkFlat(t, "RestrictTokens", p.RestrictTokens(func(x Token) bool { return x.Var() != dead }), kept, &a)
	}
}

// TestArenaRefusesAndRecovers checks that a refused or abandoned buffer
// leaves the arena able to build the next polynomial.
func TestArenaRefusesAndRecovers(t *testing.T) {
	var a Arena
	a.Begin(2)
	a.Add(Mint("b"))
	a.End()
	a.Add(Mint("a"))
	a.End()
	if _, err := a.Poly(); !errors.Is(err, ErrNotCanonical) {
		t.Fatalf("b + a: err = %v, want ErrNotCanonical", err)
	}
	a.Begin(3)
	a.Add(Mint("a")) // abandoned mid-monomial, as a decoder that hits bad bytes does
	want := flatModel{{"a", "b"}, {"x:1/2"}}
	p := arenaPoly(t, &a, want)
	checkFlat(t, "after refusal", p, want, &a)
}

// TestWitnessKernelAllocs pins what the kernel allocates: nothing for a
// merge that changes nothing, and at most the result's node and buffer for
// a product of two single monomials or a merge of one new monomial.
func TestWitnessKernelAllocs(t *testing.T) {
	stored := benchWitnessSet()
	known := stored.Filter(func(m Monomial) bool { return len(m) == 2 })
	if n := testing.AllocsPerRun(100, func() { benchSink, _, _, _ = MergeWitness(stored, known, 8) }); n != 0 {
		t.Errorf("merging a known witness allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { benchSink = stored.Add(stored) }); n != 0 {
		t.Errorf("p + p allocates %v times, want 0", n)
	}
	if !scratchPooled() {
		t.Skip("sync.Pool drops scratch (as under the race detector), so the pooled operations' allocations cannot be counted")
	}
	const runs = 200
	fresh := make([]Poly, runs+1)
	for i := range fresh {
		fresh[i] = NewVar(Var(fmt.Sprint("alloc:", i)))
	}
	xy := NewVar("x").Mul(NewVar("y"))
	i := 0
	if n := testing.AllocsPerRun(runs, func() { benchSink = xy.Mul(fresh[i]); i++ }); n > 2 {
		t.Errorf("a 1×1 product allocates %v times, want at most 2", n)
	}
	i = 0
	if n := testing.AllocsPerRun(runs, func() { benchSink, _, _, _ = MergeWitness(xy, fresh[i], 0); i++ }); n > 2 {
		t.Errorf("merging one new monomial allocates %v times, want at most 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { benchSink = xy.Mul(fresh[0]) }); n != 0 {
		t.Errorf("a 1×1 product already interned allocates %v times, want 0", n)
	}
}

// scratchPooled reports whether the scratch pool hands back what it is
// given. Under the race detector sync.Pool drops a share of Puts on
// purpose, and every operation that gathers in scratch then allocates.
func scratchPooled() bool {
	var before, after runtime.MemStats
	getScratch().put()
	runtime.ReadMemStats(&before)
	for range 100 {
		getScratch().put()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs == before.Mallocs
}
