package datalog

import (
	"cmp"
	"context"
	"fmt"
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
	// tokenIndex is the deletion index: for each provenance token, the
	// facts whose annotation mentions it, as one list of (pred, slot)
	// entries that every effective merge bringing the token in appends to.
	// Only deletions read it. It stays nil until the first deletion-side
	// call (DeleteBase, Affected, DependentCount), which builds it with one
	// scan of the database (see tokens). Insert-only streams — the common
	// update-exchange shape — never pay for it. A list may name a fact more
	// than once, so its readers sort and compact it before use (so does an
	// append that would grow it). Beyond a killed token's own list, nothing
	// is pruned when a fact is removed or the witness cut drops a monomial,
	// so readers check each entry's current annotation; a slot freed and
	// reused by another fact since fails that check like any stale entry.
	tokenIndex map[provenance.Token][]tokenRef
	// predNames names the predicates tokenRef entries number, and predIDs
	// numbers them.
	predNames []string
	predIDs   map[string]uint32
	// ruleToks holds the rules' ProvTokens. They name mappings, not base
	// facts, so they are never deleted and the index leaves them out: a
	// mapping's token is in every fact derived through it, so its entries
	// would be most of the index.
	ruleToks map[provenance.Token]bool
	// scratch is every Insert's evaluation state, reused across calls.
	scratch stratumScratch
	// keep, when set, limits the change log to fresh and removed facts of
	// the predicates it accepts (LogOnly).
	keep func(pred string) bool
}

// RestoreIncremental rebuilds maintained state around a database already at
// fixpoint — the snapshot-restore counterpart of NewIncremental. It skips
// the initial evaluation entirely (the caller warrants db is the fixpoint
// of p over its base facts, e.g. a ReadDB of a snapshot taken from a
// live Incremental) and prepares the program; plans are built at the first
// insertion, over db as it then stands. The deletion index is not saved,
// and is built on first use like a live engine's. Ownership of db
// transfers to the returned Incremental.
func RestoreIncremental(p *Program, db *DB, opts Options) (*Incremental, error) {
	pp, err := prepareIncremental(p)
	if err != nil {
		return nil, err
	}
	return newIncremental(pp, db, opts), nil
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

// tokenRef is one deletion-index entry: the fact at slot of the predicate
// Incremental.predNames[pred].
type tokenRef struct{ pred, slot uint32 }

// indexFact records, for every token mentioned in p, that the fact stored
// at slot s of pred depends on it. Before the index is built there is
// nothing to maintain: the build scans what the merges stored.
func (inc *Incremental) indexFact(pred string, s uint32, p provenance.Poly) {
	if inc.tokenIndex == nil {
		return
	}
	ref := tokenRef{pred: inc.predID(pred), slot: s}
	for _, x := range p.Tokens() {
		if inc.ruleToks[x] {
			continue
		}
		refs := inc.tokenIndex[x]
		if len(refs) == cap(refs) {
			// Compacting before the list grows keeps it within about twice
			// its distinct entries, however often merges repeat the token.
			refs = compactRefs(refs)
		}
		inc.tokenIndex[x] = append(refs, ref)
	}
}

// predID returns pred's number in tokenRef entries, numbering it on first
// use.
func (inc *Incremental) predID(pred string) uint32 {
	id, ok := inc.predIDs[pred]
	if !ok {
		id = uint32(len(inc.predNames))
		inc.predNames = append(inc.predNames, pred)
		inc.predIDs[pred] = id
	}
	return id
}

// compactRefs sorts refs and drops repeated entries, in place.
func compactRefs(refs []tokenRef) []tokenRef {
	slices.SortFunc(refs, func(a, b tokenRef) int {
		return cmp.Or(cmp.Compare(a.pred, b.pred), cmp.Compare(a.slot, b.slot))
	})
	return slices.Compact(refs)
}

// refs returns the deletion index's list for tok, sorted and compacted
// (and stored back so), building the index on first use.
func (inc *Incremental) refs(tok provenance.Token) []tokenRef {
	index := inc.tokens()
	refs, ok := index[tok]
	if ok {
		refs = compactRefs(refs)
		index[tok] = refs
	}
	return refs
}

// tokens returns the token index, building it on first use with one scan of
// the database.
func (inc *Incremental) tokens() map[provenance.Token][]tokenRef {
	if inc.tokenIndex == nil {
		inc.tokenIndex = map[provenance.Token][]tokenRef{}
		inc.predIDs = map[string]uint32{}
		for pred, rel := range inc.db.rels {
			for s := range uint32(rel.meta.len()) {
				if rel.live(s) {
					inc.indexFact(pred, s, rel.fact(s).Prov)
				}
			}
		}
		if inc.opts.Stats != nil {
			inc.opts.Stats.TokenIndexBuilds.Add(1)
		}
	}
	return inc.tokenIndex
}

// LogOnly limits the change log of later Insert, DeleteBase and Affected
// calls to the facts that are fresh or removed and whose predicate keep
// accepts: a change that only grows or shrinks an annotation is not logged.
// A nil keep, the default, logs every change. The database, and with it
// what every later call does, is the same either way.
func (inc *Incremental) LogOnly(keep func(pred string) bool) { inc.keep = keep }

// logs reports whether a change to a fact of pred, fresh or removed or
// neither, belongs in the change log.
func (inc *Incremental) logs(pred string, freshOrRemoved bool) bool {
	return inc.keep == nil || freshOrRemoved && inc.keep(pred)
}

// mentions reports whether some monomial of p uses the token v.
func mentions(p provenance.Poly, v provenance.Token) bool {
	return slices.Contains(p.Tokens(), v)
}

// Insert adds base facts and propagates them through the program. It
// returns every change to the database (or those LogOnly keeps) sorted by
// predicate and tuple, one tuple's changes adjacent and in merge order
// (seed merges first). A change to a stored fact carries the stored tuple.
// A seed merge that changes its tuple is reported Fresh even when the tuple
// was already stored: publishing a tuple is an insertion at its publisher
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
		if inc.logs(mr.pred, true) {
			changes = append(changes, Change{Pred: mr.pred, Tuple: mr.tuple, Prov: mr.newPart, Fresh: true})
		}
	}
	if !sc.delta.empty() {
		err := evalStratum(ctx, st.rules, inc.pp.plansAt(0, inc.db), st.need, inc.db, inc.opts, sc, func(mr mergeResult) {
			inc.indexFact(mr.pred, mr.slot, mr.newPart)
			if inc.logs(mr.pred, mr.fresh) {
				changes = append(changes, Change{Pred: mr.pred, Tuple: mr.tuple, Prov: mr.newPart, Fresh: mr.fresh})
			}
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
// that survived with reduced provenance, or those of them LogOnly keeps.
//
// The tokens killed are exactly the variables of the given facts' CURRENT
// base annotations that look like update tokens owned by those facts; in
// ORCHESTRA each published tuple carries a unique token, which the exchange
// layer passes in. A rule's ProvToken is not a base fact's and is ignored
// here, as by Affected and DependentCount.
//
// Nothing outlives the call: once the facts the index lists are restricted,
// no annotation mentions a killed token, and none can again — a derivation
// joins only stored facts, and the exchange layer never reuses a token.
func (inc *Incremental) DeleteBase(tokens []provenance.Var) []Change {
	rs := inc.restrictions(tokens)
	for _, v := range tokens {
		// Once killed, the token leaves every annotation below.
		delete(inc.tokenIndex, provenance.Mint(v))
	}
	var changes []Change
	for _, r := range rs {
		rel := inc.db.MutableRel(r.pred)
		f := rel.fact(r.slot)
		removed := r.rest.IsZero()
		// Reported before remove zeroes the slot.
		if inc.logs(r.pred, removed) {
			changes = append(changes, Change{Pred: r.pred, Tuple: f.Tuple, Prov: r.rest, Removed: removed})
		}
		if removed {
			rel.remove(r.slot) // maintains the hash indexes incrementally
		} else {
			f.Prov = r.rest.Intern() // in-place update of the stored fact
		}
	}
	sortChanges(changes)
	return changes
}

// restriction is a stored fact whose annotation a kill changes, and what
// is left of that annotation (zero when nothing is).
type restriction struct {
	pred string
	slot uint32
	rest provenance.Poly
}

// restrictions is the one deletion walk, which DeleteBase applies and
// Affected only reports: it kills the tokens (not the rules' ProvTokens)
// and returns every live fact the index lists under one whose annotation
// that changes, by predicate and ascending slot, so the order DeleteBase
// frees and reuses slots in never depends on map order.
func (inc *Incremental) restrictions(tokens []provenance.Var) []restriction {
	killed := map[provenance.Token]bool{}
	var facts []restriction
	for _, v := range tokens {
		if tok := provenance.Mint(v); !inc.ruleToks[tok] {
			killed[tok] = true
			for _, r := range inc.refs(tok) {
				facts = append(facts, restriction{pred: inc.predNames[r.pred], slot: r.slot})
			}
		}
	}
	slices.SortFunc(facts, func(a, b restriction) int {
		return cmp.Or(strings.Compare(a.pred, b.pred), cmp.Compare(a.slot, b.slot))
	})
	facts = slices.CompactFunc(facts, func(a, b restriction) bool { return a.pred == b.pred && a.slot == b.slot })
	alive := func(t provenance.Token) bool { return !killed[t] }
	changed := facts[:0]
	for _, f := range facts {
		rel := inc.db.Rel(f.pred)
		if !rel.live(f.slot) {
			continue
		}
		prov := rel.fact(f.slot).Prov
		if f.rest = prov.RestrictTokens(alive); !f.rest.Equal(prov) {
			changed = append(changed, f)
		}
	}
	return changed
}

// DependentCount returns how many stored facts currently mention the token
// in their provenance — a cheap measure of the collateral damage of killing
// it, used by the exchange layer's view-deletion heuristic. Each fact
// counts once, however often the index lists it; facts the index still
// lists but that were removed, or whose mention of the token the witness
// cut dropped, do not count.
func (inc *Incremental) DependentCount(v provenance.Var) int {
	n, tok := 0, provenance.Mint(v)
	for _, r := range inc.refs(tok) {
		rel := inc.db.Rel(inc.predNames[r.pred])
		if rel.live(r.slot) && mentions(rel.fact(r.slot).Prov, tok) {
			n++
		}
	}
	return n
}

// Affected reports, without mutating the database, which facts would be
// removed (Removed=true) or lose provenance if the given tokens were
// killed. The exchange layer uses it to translate a peer's deletion of
// *derived* data: the union database keeps the original publisher's tuples
// (other peers may keep trusting them), while the deleting peer's candidate
// transaction carries the would-be deletions. LogOnly limits the report as
// it limits DeleteBase's.
func (inc *Incremental) Affected(tokens []provenance.Var) []Change {
	rs := inc.restrictions(tokens)
	var changes []Change
	for _, r := range rs {
		if removed := r.rest.IsZero(); inc.logs(r.pred, removed) {
			tu := inc.db.Rel(r.pred).fact(r.slot).Tuple
			changes = append(changes, Change{Pred: r.pred, Tuple: tu, Prov: r.rest, Removed: removed})
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
