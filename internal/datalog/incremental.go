package datalog

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Change describes one fact affected by an incremental operation.
type Change struct {
	Pred  string
	Tuple schema.Tuple
	// Prov is the annotation delta: for insertions, the new provenance
	// part; for deletions, the remaining provenance (zero if the fact was
	// removed entirely).
	Prov provenance.Poly
	// Removed reports that the fact was deleted from the database.
	Removed bool
	// Fresh reports that the fact is entirely new (not just new
	// provenance on an existing tuple).
	Fresh bool
}

// Incremental maintains the fixpoint of a datalog program under base-fact
// insertions and deletions. It is the machinery behind ORCHESTRA's
// incremental update exchange [Green et al., VLDB 2007]: insertions
// propagate with semi-naive evaluation seeded from the delta; deletions
// use the provenance annotations to decide which derived tuples lost all
// their derivations, avoiding full recomputation.
//
// Incremental evaluation always computes witness-set (B[X]) provenance —
// deletion propagation is impossible without annotations. It runs on a
// Prepared: insertions take their plans from the same per-stratum store,
// with the same size-tie re-check, as queries and full evaluation, and run
// on the same stratum loop (evalStratum), seeded with the insertion's delta.
type Incremental struct {
	// pp is the program prepared once. A negation-free program has exactly
	// one stratum, so every propagation runs pp.strata[0].
	pp   *Prepared
	db   *DB
	opts Options
	// tokenIndex maps a provenance token to the facts whose annotation
	// mentions it, as pred -> slots; only deletions read it. It stays
	// nil until the first deletion-side call (DeleteBase, Affected,
	// DependentCount), which builds it with one scan of the database (see
	// tokens); from then on every merge records its new occurrences here.
	// Insert-only streams — the common update-exchange shape — never pay
	// for it. Beyond a killed token's own entry, nothing is pruned when a
	// fact is removed or the witness cut drops a monomial, so readers check
	// each candidate's current annotation; a slot freed and reused by
	// another fact since fails that check like any stale entry.
	tokenIndex map[provenance.Token]map[string]map[uint32]struct{}
	// ruleToks holds the rules' ProvTokens. They name mappings, not base
	// facts, so they are never deleted and the index leaves them out: a
	// mapping's token is in every fact derived through it, so its entries
	// would be most of the index.
	ruleToks map[provenance.Token]bool
	dead     map[provenance.Token]bool
}

// DeadTokens returns the sorted set of tokens killed by DeleteBase since
// construction — part of the serializable engine state: a restored engine
// must keep treating them as dead when later deletions restrict
// annotations.
func (inc *Incremental) DeadTokens() []provenance.Var {
	out := make([]provenance.Var, 0, len(inc.dead))
	for t := range inc.dead {
		out = append(out, t.Var())
	}
	slices.Sort(out)
	return out
}

// RestoreIncremental rebuilds maintained state around a database already at
// fixpoint — the snapshot-restore counterpart of NewIncremental. It skips
// the initial evaluation entirely (the caller warrants db is the fixpoint
// of p over its base facts, e.g. a DecodeDB of a snapshot taken from a
// live Incremental) and prepares the program; plans are built at the first
// insertion, over db as it then stands. The dead set is restored; the
// deletion index is not saved, and is built on first use like a live
// engine's. Ownership of db transfers to the returned Incremental.
func RestoreIncremental(p *Program, db *DB, opts Options, dead []provenance.Var) (*Incremental, error) {
	pp, err := prepareIncremental(p)
	if err != nil {
		return nil, err
	}
	inc := newIncremental(pp, db, opts)
	for _, v := range dead {
		inc.dead[provenance.Mint(v)] = true
	}
	return inc, nil
}

// NewIncremental computes the initial fixpoint over edb and returns the
// maintained state. The input database is captured by copy-on-write
// snapshot, never mutated: extents the maintained fixpoint later touches
// are cloned lazily, on first write.
func NewIncremental(p *Program, edb *DB, opts Options) (*Incremental, error) {
	pp, err := prepareIncremental(p)
	if err != nil {
		return nil, err
	}
	opts.Provenance = true
	res, err := pp.Eval(context.Background(), edb, opts)
	if err != nil {
		return nil, err
	}
	return newIncremental(pp, res, opts), nil
}

// prepareIncremental prepares a program incremental maintenance can serve:
// deletion propagation relies on provenance annotations, which do not
// record negative dependencies (tgd mapping programs are negation-free).
func prepareIncremental(p *Program) (*Prepared, error) {
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if l.Negated {
				return nil, fmt.Errorf("datalog: incremental maintenance requires a negation-free program (rule %s)", r.ID)
			}
		}
	}
	return Prepare(p)
}

// newIncremental wraps db, which must already be the fixpoint of pp's
// program; the token index is left unbuilt.
func newIncremental(pp *Prepared, db *DB, opts Options) *Incremental {
	ensurePreds(pp.prog, db)
	opts.Provenance = true
	inc := &Incremental{
		pp:       pp,
		db:       db,
		opts:     opts,
		ruleToks: map[provenance.Token]bool{},
		dead:     map[provenance.Token]bool{},
	}
	for _, r := range pp.prog.Rules {
		if r.ProvToken != "" {
			inc.ruleToks[provenance.Mint(provenance.Var(r.ProvToken))] = true
		}
	}
	return inc
}

// Plans renders the plans the last evaluation ran, one line per rule, for
// tests and debugging.
func (inc *Incremental) Plans() string {
	var b strings.Builder
	inc.pp.mu.Lock()
	defer inc.pp.mu.Unlock()
	st := &inc.pp.strata[0]
	for i, rp := range st.plans {
		fmt.Fprintf(&b, "%s: [%s]", st.rules[i].ID, rp.full)
		for j, d := range rp.delta {
			if d != nil {
				fmt.Fprintf(&b, " Δ%d [%s]", j, d)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DB returns the maintained database (read-only by convention).
func (inc *Incremental) DB() *DB { return inc.db }

// indexFact records, for every token mentioned in p, that the fact stored
// at slot s of pred depends on it. Before the index is built there is
// nothing to maintain: the build scans what the merges stored.
func (inc *Incremental) indexFact(pred string, s uint32, p provenance.Poly) {
	if inc.tokenIndex == nil {
		return
	}
	for _, x := range p.Tokens() {
		if inc.ruleToks[x] {
			continue
		}
		preds := inc.tokenIndex[x]
		if preds == nil {
			preds = map[string]map[uint32]struct{}{}
			inc.tokenIndex[x] = preds
		}
		slots := preds[pred]
		if slots == nil {
			slots = map[uint32]struct{}{}
			preds[pred] = slots
		}
		slots[s] = struct{}{}
	}
}

// tokens returns the token index, building it on first use with one scan of
// the database.
func (inc *Incremental) tokens() map[provenance.Token]map[string]map[uint32]struct{} {
	if inc.tokenIndex == nil {
		inc.tokenIndex = map[provenance.Token]map[string]map[uint32]struct{}{}
		for pred, rel := range inc.db.rels {
			for s := range rel.meta {
				if rel.live(uint32(s)) {
					inc.indexFact(pred, uint32(s), rel.fact(uint32(s)).Prov)
				}
			}
		}
		if inc.opts.Stats != nil {
			inc.opts.Stats.TokenIndexBuilds.Add(1)
		}
	}
	return inc.tokenIndex
}

// mentions reports whether some monomial of p uses the token v.
func mentions(p provenance.Poly, v provenance.Token) bool {
	return slices.Contains(p.Tokens(), v)
}

// Insert adds base facts and propagates them through the program. It
// returns every change to the database in deterministic order. Cancellation
// is cooperative: the context is checked before the seed merge and once per
// semi-naive iteration, so a propagation started with an expired context
// returns ctx.Err() before mutating the database.
func (inc *Incremental) Insert(ctx context.Context, facts []Fact2) ([]Change, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var changes []Change
	err := inc.insertSeeded(ctx, [][]Fact2{facts}, func(_ int, mr mergeResult) {
		changes = append(changes, Change{Pred: mr.pred, Tuple: mr.tuple, Prov: mr.newPart, Fresh: true})
	}, func(mr mergeResult) {
		changes = append(changes, Change{Pred: mr.pred, Tuple: mr.tuple, Prov: mr.newPart, Fresh: mr.fresh})
	})
	if err != nil {
		return nil, err
	}
	sortChanges(changes)
	return changes, nil
}

// insertSeeded merges each group's base facts, in group order, reporting
// every effective merge to seeded, and then runs the program's stratum
// semi-naive from their delta, reporting every effective derived merge to
// derived. Only seeds of predicates some rule body reads enter the delta: a
// seed no rule reads cannot propagate.
func (inc *Incremental) insertSeeded(ctx context.Context, groups [][]Fact2, seeded func(gi int, mr mergeResult), derived func(mergeResult)) error {
	st := &inc.pp.strata[0]
	delta := pendingDelta{}
	for gi, facts := range groups {
		for _, bf := range facts {
			mr, changed := merge(inc.db.MutableRel(bf.Pred), bf.Tuple, bf.Prov, inc.opts)
			if !changed {
				continue
			}
			mr.pred = bf.Pred
			inc.indexFact(mr.pred, mr.slot, mr.newPart)
			if st.need[mr.pred] {
				delta.add(mr)
			}
			seeded(gi, mr)
		}
	}
	if len(delta) == 0 {
		return nil
	}
	return evalStratum(ctx, st.rules, inc.pp.plansAt(0, inc.db), st.need, inc.db, inc.opts, delta, func(mr mergeResult) {
		inc.indexFact(mr.pred, mr.slot, mr.newPart)
		derived(mr)
	})
}

// predSlot names a stored fact: its predicate and its slot there.
type predSlot struct {
	pred string
	slot uint32
}

// seedSet holds the base facts of a run of insertion groups by tuple hash,
// the predicate and Tuple.Equal settling a shared hash.
type seedSet map[uint64][]Fact2

func (ss seedSet) has(bf Fact2) bool {
	for _, f := range ss[bf.Tuple.Hash()] {
		if f.Pred == bf.Pred && f.Tuple.Equal(bf.Tuple) {
			return true
		}
	}
	return false
}

func (ss seedSet) add(bf Fact2) {
	if !ss.has(bf) {
		h := bf.Tuple.Hash()
		ss[h] = append(ss[h], bf)
	}
}

// Fact2 is a base fact targeted at a predicate (the name Fact is taken by
// the annotated-tuple type).
type Fact2 struct {
	Pred  string
	Tuple schema.Tuple
	Prov  provenance.Poly
}

// groupPart is one batched merge's contribution to a tuple, attributed to
// the insertion group that owns it (see InsertGroups).
type groupPart struct {
	group int
	seed  bool // a base-fact seed merge, not a derived one
	prov  provenance.Poly
}

// groupAcc collects everything a batched propagation did to one tuple, in
// arrival order, so per-group change lists can be replayed afterwards.
type groupAcc struct {
	pred    string
	tuple   schema.Tuple
	existed bool            // stored before the batch
	prior   provenance.Poly // annotation before the batch (zero if !existed)
	parts   []groupPart
}

// InsertGroups is the group-commit form of Insert: it merges every group's
// base facts and runs one semi-naive propagation per seed-disjoint run of
// groups — for a burst of transactions touching distinct tuples, one
// fixpoint for the whole burst — then reconstructs per-group change lists
// equivalent to inserting the groups one Insert call at a time, in order.
// The returned slice is aligned with groups.
//
// Attribution works through the provenance tokens: a monomial derived by
// the batch belongs to the latest group whose seed tokens it mentions —
// exactly the group whose sequential Insert would first derive it, since
// evaluation is monotone and earlier groups' facts are all in place by
// then. For each touched tuple the per-group annotation deltas are then
// replayed in group order through provenance.MergeWitness, the merge the
// sequential inserts run, so reported Prov deltas and Fresh flags match the
// sequential ones. Two groups seeding the SAME tuple would defeat this
// (their pooled delta annotation makes downstream rule firings emit
// monomial mixes that sequential insertion splits across separate merges),
// so the batch is partitioned into runs at every seed overlap and the runs
// propagate sequentially. The one remaining divergence window is a binding
// MaxMonomials bound: when truncation discards witnesses mid-propagation,
// sequential insertion may retain already-derived products of a witness the
// batch never materializes. Both results are valid bounded witness sets;
// they can simply retain different short derivations (see DESIGN.md §8).
func (inc *Incremental) InsertGroups(ctx context.Context, groups [][]Fact2) ([][]Change, error) {
	out := make([][]Change, len(groups))
	// Attribution needs every seed annotation to mention at least one
	// variable (update-exchange seeds are single tokens): a monomial derived
	// from a token-free seed carries no trace of its group. Fall back to
	// sequential insertion for such batches rather than misattribute.
	tokenFree := false
	for _, facts := range groups {
		for _, bf := range facts {
			// The empty monomial sorts first.
			if bf.Prov.NumMonomials() > 0 && len(bf.Prov.Monomial(0)) == 0 {
				tokenFree = true
			}
		}
	}
	if tokenFree {
		for j, g := range groups {
			cs, err := inc.Insert(ctx, g)
			if err != nil {
				return nil, err
			}
			out[j] = cs
		}
		return out, nil
	}
	start := 0
	seen := seedSet{}
	flush := func(end int) error {
		if start >= end {
			return nil
		}
		cs, err := inc.insertGroupRun(ctx, groups[start:end])
		if err != nil {
			return err
		}
		copy(out[start:end], cs)
		start = end
		return nil
	}
	for gi, facts := range groups {
		overlap := false
		for _, bf := range facts {
			if seen.has(bf) {
				overlap = true
				break
			}
		}
		if overlap {
			if err := flush(gi); err != nil {
				return nil, err
			}
			clear(seen)
		}
		for _, bf := range facts {
			seen.add(bf)
		}
	}
	if err := flush(len(groups)); err != nil {
		return nil, err
	}
	return out, nil
}

// insertGroupRun batches one seed-disjoint run of groups through a single
// seeded propagation. See InsertGroups.
func (inc *Incremental) insertGroupRun(ctx context.Context, groups [][]Fact2) ([][]Change, error) {
	out := make([][]Change, len(groups))
	if len(groups) == 1 {
		cs, err := inc.Insert(ctx, groups[0])
		if err != nil {
			return nil, err
		}
		out[0] = cs
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Map each seed token to the latest group that mints it.
	tokenGroup := map[provenance.Token]int{}
	for gi, facts := range groups {
		for _, bf := range facts {
			for _, x := range bf.Prov.Tokens() {
				if old, ok := tokenGroup[x]; !ok || gi > old {
					tokenGroup[x] = gi
				}
			}
		}
	}
	accs := map[predSlot]*groupAcc{}
	touch := func(mr mergeResult) *groupAcc {
		ak := predSlot{mr.pred, mr.slot}
		a := accs[ak]
		if a == nil {
			a = &groupAcc{pred: mr.pred, tuple: mr.tuple, existed: !mr.fresh, prior: mr.prior}
			accs[ak] = a
		}
		return a
	}
	// owner returns the group a derived monomial belongs to: the latest
	// group among its seed tokens. Foreign factors (mapping tokens,
	// pre-batch data) do not contribute.
	owner := func(m provenance.Monomial) int {
		gi := 0
		for _, x := range m {
			if g, ok := tokenGroup[x]; ok && g > gi {
				gi = g
			}
		}
		return gi
	}
	// Seed every group's base facts, in group order, then run one
	// propagation for the whole batch. Each merge's new monomials are split
	// by owning group, preserving arrival order.
	seeded := func(gi int, mr mergeResult) {
		a := touch(mr)
		a.parts = append(a.parts, groupPart{group: gi, seed: true, prov: mr.newPart})
	}
	derived := func(mr mergeResult) {
		a := touch(mr)
		p := mr.newPart
		gi := owner(p.Monomial(0))
		single := true
		for i := 1; i < p.NumMonomials(); i++ {
			if owner(p.Monomial(i)) != gi {
				single = false
				break
			}
		}
		if single {
			a.parts = append(a.parts, groupPart{group: gi, prov: p})
			return
		}
		var order []int
		for i := range p.NumMonomials() {
			if g := owner(p.Monomial(i)); !slices.Contains(order, g) {
				order = append(order, g)
			}
		}
		sort.Ints(order)
		for _, g := range order {
			part := p.Filter(func(m provenance.Monomial) bool { return owner(m) == g })
			a.parts = append(a.parts, groupPart{group: g, prov: part})
		}
	}
	if err := inc.insertSeeded(ctx, groups, seeded, derived); err != nil {
		return nil, err
	}
	// Replay each touched tuple's contributions in group order, rebasing
	// every part onto the group-ordered annotation chain, so each group's
	// reported deltas are the ones its own sequential Insert would produce.
	for _, a := range accs {
		sameGroup := true
		for _, p := range a.parts[1:] {
			if p.group != a.parts[0].group {
				sameGroup = false
				break
			}
		}
		if sameGroup {
			// Single-group tuples (the common case): the batched merges ARE
			// the sequential ones; emit their deltas directly.
			gi := a.parts[0].group
			present := a.existed
			for _, p := range a.parts {
				out[gi] = append(out[gi], Change{Pred: a.pred, Tuple: a.tuple, Prov: p.prov, Fresh: p.seed || !present})
				present = true
			}
			continue
		}
		prev := a.prior
		present := a.existed
		for gi := range groups {
			for _, p := range a.parts {
				if p.group != gi {
					continue
				}
				merged, newPart, changed, _ := provenance.MergeWitness(prev, p.prov, inc.opts.MaxMonomials)
				if !changed {
					continue
				}
				out[gi] = append(out[gi], Change{Pred: a.pred, Tuple: a.tuple, Prov: newPart, Fresh: p.seed || !present})
				present = true
				prev = merged
			}
		}
	}
	for gi := range out {
		sortChanges(out[gi])
	}
	return out, nil
}

// DeleteBase removes base facts by killing their provenance tokens. Every
// fact whose annotation mentions a killed token is re-examined: monomials
// using dead tokens are dropped, and facts with no surviving derivation are
// removed. The returned changes list removed facts (Removed=true) and facts
// that survived with reduced provenance.
//
// The tokens killed are exactly the variables of the given facts' CURRENT
// base annotations that look like update tokens owned by those facts; in
// ORCHESTRA each published tuple carries a unique token, which the exchange
// layer passes in. A rule's ProvToken is not a base fact's and is ignored
// here, as by Affected and DependentCount.
func (inc *Incremental) DeleteBase(tokens []provenance.Var) []Change {
	index := inc.tokens()
	touched := map[string]map[uint32]struct{}{} // pred -> slots
	for _, v := range tokens {
		tok := provenance.Mint(v)
		if inc.ruleToks[tok] {
			continue
		}
		inc.dead[tok] = true
		for pred, slots := range index[tok] {
			tm := touched[pred]
			if tm == nil {
				tm = map[uint32]struct{}{}
				touched[pred] = tm
			}
			for s := range slots {
				tm[s] = struct{}{}
			}
		}
		// Once killed, the token leaves every annotation below.
		delete(index, tok)
	}
	alive := func(t provenance.Token) bool { return !inc.dead[t] }
	var changes []Change
	for pred, slots := range touched {
		rel := inc.db.MutableRel(pred)
		// Ascending slots: the order slots are freed in, and so reused in,
		// does not depend on map iteration.
		for _, s := range slices.Sorted(maps.Keys(slots)) {
			if !rel.live(s) {
				continue
			}
			f := rel.fact(s)
			rest := f.Prov.RestrictTokens(alive)
			if rest.Equal(f.Prov) {
				continue
			}
			if rest.IsZero() {
				tu := f.Tuple // remove zeroes the slot; copy out first
				rel.remove(s) // maintains the hash indexes incrementally
				changes = append(changes, Change{Pred: pred, Tuple: tu, Removed: true})
			} else {
				f.Prov = rest.Intern() // in-place update of the stored fact
				changes = append(changes, Change{Pred: pred, Tuple: f.Tuple, Prov: rest})
			}
		}
	}
	sortChanges(changes)
	return changes
}

// DependentCount returns how many stored facts currently mention the token
// in their provenance — a cheap measure of the collateral damage of killing
// it, used by the exchange layer's view-deletion heuristic. Facts the index
// still lists but that were removed, or whose mention of the token the
// witness cut dropped, do not count.
func (inc *Incremental) DependentCount(v provenance.Var) int {
	n, tok := 0, provenance.Mint(v)
	for pred, slots := range inc.tokens()[tok] {
		rel := inc.db.Rel(pred)
		for s := range slots {
			if rel.live(s) && mentions(rel.fact(s).Prov, tok) {
				n++
			}
		}
	}
	return n
}

// Affected reports, without mutating the database, which facts would be
// removed (Removed=true) or lose provenance if the given tokens were
// killed. The exchange layer uses it to translate a peer's deletion of
// *derived* data: the union database keeps the original publisher's tuples
// (other peers may keep trusting them), while the deleting peer's candidate
// transaction carries the would-be deletions.
func (inc *Incremental) Affected(tokens []provenance.Var) []Change {
	index := inc.tokens()
	toks := make([]provenance.Token, len(tokens))
	tmpDead := map[provenance.Token]bool{}
	for i, v := range tokens {
		toks[i] = provenance.Mint(v)
		tmpDead[toks[i]] = !inc.ruleToks[toks[i]]
	}
	alive := func(t provenance.Token) bool { return !inc.dead[t] && !tmpDead[t] }
	var changes []Change
	seen := map[predSlot]bool{}
	for _, tok := range toks {
		for pred, slots := range index[tok] {
			rel := inc.db.Rel(pred)
			for s := range slots {
				if seen[predSlot{pred, s}] {
					continue
				}
				seen[predSlot{pred, s}] = true
				if !rel.live(s) {
					continue
				}
				f := rel.fact(s)
				rest := f.Prov.RestrictTokens(alive)
				if rest.Equal(f.Prov) {
					continue
				}
				if rest.IsZero() {
					changes = append(changes, Change{Pred: pred, Tuple: f.Tuple, Removed: true})
				} else {
					changes = append(changes, Change{Pred: pred, Tuple: f.Tuple, Prov: rest})
				}
			}
		}
	}
	sortChanges(changes)
	return changes
}

// sortChanges orders a change log by (pred, tuple); the stable sort keeps
// multiple changes to one tuple in derivation (round) order.
func sortChanges(cs []Change) {
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].Pred != cs[j].Pred {
			return cs[i].Pred < cs[j].Pred
		}
		return cs[i].Tuple.Compare(cs[j].Tuple) < 0
	})
}
