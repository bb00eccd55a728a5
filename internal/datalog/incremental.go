package datalog

import (
	"context"
	"fmt"
	"maps"
	"slices"
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
	// scratch is every Insert's evaluation state, reused across calls.
	scratch stratumScratch
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
// returns every change to the database sorted by predicate and tuple, one
// tuple's changes adjacent and in merge order (seed merges first). A seed
// merge that changes its tuple is reported Fresh even when the tuple was
// already stored: publishing a tuple is an insertion at its publisher
// whether or not the mappings had derived it there before. Cancellation is
// cooperative: the context is checked before the seed merge and once per
// semi-naive iteration, so a propagation started with an expired context
// returns ctx.Err() before mutating the database.
func (inc *Incremental) Insert(ctx context.Context, facts []Fact2) ([]Change, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := &inc.pp.strata[0]
	var changes []Change
	sc := &inc.scratch
	sc.delta.reset() // a failed Insert can leave a delta behind
	for _, bf := range facts {
		mr, changed := merge(inc.db.MutableRel(bf.Pred), bf.Tuple, bf.Prov, inc.opts)
		if !changed {
			continue
		}
		mr.pred = bf.Pred
		inc.indexFact(mr.pred, mr.slot, mr.newPart)
		// Only seeds of predicates some rule body reads enter the delta: a
		// seed no rule reads cannot propagate.
		if st.need[mr.pred] {
			sc.delta.add(mr)
		}
		changes = append(changes, Change{Pred: mr.pred, Tuple: mr.tuple, Prov: mr.newPart, Fresh: true})
	}
	if !sc.delta.empty() {
		err := evalStratum(ctx, st.rules, inc.pp.plansAt(0, inc.db), st.need, inc.db, inc.opts, sc, func(mr mergeResult) {
			inc.indexFact(mr.pred, mr.slot, mr.newPart)
			changes = append(changes, Change{Pred: mr.pred, Tuple: mr.tuple, Prov: mr.newPart, Fresh: mr.fresh})
		})
		if err != nil {
			return nil, err
		}
	}
	sortChanges(changes)
	return changes, nil
}

// InsertGroups inserts the facts of every group with one Insert. Nothing in
// the program pools transactions any more (exchange.Engine.ApplyAll runs one
// Insert per transaction); the repository benchmark's layer replay
// (bench/replay.go), which changes only together with the benchmark, still
// calls it by this name.
func (inc *Incremental) InsertGroups(ctx context.Context, groups [][]Fact2) ([]Change, error) {
	return inc.Insert(ctx, slices.Concat(groups...))
}

// predSlot names a stored fact: its predicate and its slot there.
type predSlot struct {
	pred string
	slot uint32
}

// Fact2 is a base fact targeted at a predicate (the name Fact is taken by
// the annotated-tuple type).
type Fact2 struct {
	Pred  string
	Tuple schema.Tuple
	Prov  provenance.Poly
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
	slices.SortStableFunc(cs, func(a, b Change) int {
		if c := strings.Compare(a.Pred, b.Pred); c != 0 {
			return c
		}
		return a.Tuple.Compare(b.Tuple)
	})
}
