package datalog

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Change describes one fact affected by an incremental operation.
type Change struct {
	Pred  string
	Tuple schema.Tuple
	// Key is Tuple.Key(), carried from the merge that produced the change
	// so downstream consumers (e.g. exchange collation) need not re-encode
	// the tuple.
	Key string
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
// deletion propagation is impossible without annotations.
type Incremental struct {
	prog    *Program
	strata  [][]Rule
	db      *DB
	pl      *planner
	planTab [][]rulePlans // resolved plans, aligned with strata
	opts    Options
	maxIter int
	// tokenIndex maps a provenance token to the facts whose annotation
	// mentions it, as pred -> tuple keys; only deletions read it. It stays
	// nil until the first deletion-side call (DeleteBase, Affected,
	// DependentCount), which builds it with one scan of the database (see
	// tokens); from then on every merge records its new occurrences here.
	// Insert-only streams — the common update-exchange shape — never pay
	// for it. Beyond a killed token's own entry, nothing is pruned when a
	// fact is removed or the witness cut drops a monomial, so readers check
	// each candidate's current annotation.
	tokenIndex map[provenance.Token]map[string]map[string]bool
	// ruleToks holds the rules' ProvTokens. They name mappings, not base
	// facts, so they are never deleted and the index leaves them out: a
	// mapping's token is in every fact derived through it, so its entries
	// would be most of the index.
	ruleToks map[provenance.Token]bool
	dead     map[provenance.Token]bool
	// needTab[si] is the union of positive body predicates of strata si and
	// later: the only predicates whose changes can seed further semi-naive
	// rounds once propagation has reached stratum si. Delta entries for any
	// other predicate are dead weight (heads that no body consumes — the
	// common update-exchange shape) and are never built.
	needTab []map[string]bool
}

// seedNeed returns the need set for seed-time delta construction (stratum 0
// sees everything later strata consume), or nil when the program has no
// strata.
func (inc *Incremental) seedNeed() map[string]bool {
	if len(inc.needTab) == 0 {
		return nil
	}
	return inc.needTab[0]
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
// live Incremental) but rebuilds everything derived from the program text:
// strata, compiled plans, and the need tables. The dead set is restored;
// the deletion index is not saved, and is built on first use like a live
// engine's. Ownership of db transfers to the returned Incremental.
func RestoreIncremental(p *Program, db *DB, opts Options, dead []provenance.Var) (*Incremental, error) {
	if err := requireNegationFree(p); err != nil {
		return nil, err
	}
	inc, err := newIncremental(p, db, opts)
	if err != nil {
		return nil, err
	}
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
	if err := requireNegationFree(p); err != nil {
		return nil, err
	}
	opts.Provenance = true
	res, err := Eval(p, edb, opts)
	if err != nil {
		return nil, err
	}
	return newIncremental(p, res, opts)
}

// requireNegationFree rejects programs incremental maintenance cannot
// serve: deletion propagation relies on provenance annotations, which do
// not record negative dependencies (tgd mapping programs are negation-free).
func requireNegationFree(p *Program) error {
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if l.Negated {
				return fmt.Errorf("datalog: incremental maintenance requires a negation-free program (rule %s)", r.ID)
			}
		}
	}
	return nil
}

// newIncremental builds the maintained state around db, which must already
// be the fixpoint of p: everything derived from the program text (strata,
// compiled plans, need tables); the token index is left unbuilt.
func newIncremental(p *Program, db *DB, opts Options) (*Incremental, error) {
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	ensurePreds(p, db)
	inc := &Incremental{
		prog:   p,
		strata: strata,
		db:     db,
		pl:     newPlanner(false),
		opts: Options{
			Provenance:       true,
			ChaseSubsumption: opts.ChaseSubsumption,
			MaxMonomials:     opts.MaxMonomials,
			Parallelism:      opts.Parallelism,
			Stats:            opts.Stats,
		},
		maxIter:  maxIter,
		ruleToks: map[provenance.Token]bool{},
		dead:     map[provenance.Token]bool{},
	}
	for _, r := range p.Rules {
		if r.ProvToken != "" {
			inc.ruleToks[provenance.Mint(provenance.Var(r.ProvToken))] = true
		}
	}
	inc.planTab = make([][]rulePlans, len(strata))
	for si, stratum := range strata {
		inc.planTab[si] = inc.pl.plansFor(stratum, db)
	}
	inc.needTab = make([]map[string]bool, len(strata))
	suffix := map[string]bool{}
	for si := len(strata) - 1; si >= 0; si-- {
		for _, r := range strata[si] {
			for _, l := range r.Body {
				if l.Builtin == nil && !l.Negated {
					suffix[l.Atom.Pred] = true
				}
			}
		}
		m := make(map[string]bool, len(suffix))
		for p := range suffix {
			m[p] = true
		}
		inc.needTab[si] = m
	}
	return inc, nil
}

// DB returns the maintained database (read-only by convention).
func (inc *Incremental) DB() *DB { return inc.db }

// indexFact records, for every token mentioned in p, that the fact stored
// under key k in pred depends on it. k must be t.Key() of the stored tuple;
// callers on the hot path already have it. Before the index is built there
// is nothing to maintain: the build scans what the merges stored.
func (inc *Incremental) indexFact(pred, k string, p provenance.Poly) {
	if inc.tokenIndex == nil {
		return
	}
	for _, m := range p.Monomials() {
		for _, x := range m {
			if inc.ruleToks[x] {
				continue
			}
			preds := inc.tokenIndex[x]
			if preds == nil {
				preds = map[string]map[string]bool{}
				inc.tokenIndex[x] = preds
			}
			keys := preds[pred]
			if keys == nil {
				keys = map[string]bool{}
				preds[pred] = keys
			}
			keys[k] = true
		}
	}
}

// tokens returns the token index, building it on first use with one scan of
// the database.
func (inc *Incremental) tokens() map[provenance.Token]map[string]map[string]bool {
	if inc.tokenIndex == nil {
		inc.tokenIndex = map[provenance.Token]map[string]map[string]bool{}
		for pred, rel := range inc.db.rels {
			for k, f := range rel.facts {
				inc.indexFact(pred, k, f.Prov)
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
	for _, m := range p.Monomials() {
		if slices.Contains(m, v) {
			return true
		}
	}
	return false
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
	// Seed: merge the base facts, collecting genuine delta — but only for
	// predicates some rule body consumes (seedNeed); a seed no rule reads
	// cannot propagate, so its delta entry would only be dead weight.
	delta := map[string]map[string]deltaFact{}
	need := inc.seedNeed()
	opts := inc.opts
	for _, bf := range facts {
		mr, changed := merge(inc.db.MutableRel(bf.Pred), bf.Tuple, bf.Prov, opts)
		if !changed {
			continue
		}
		inc.indexFact(bf.Pred, mr.key, mr.newPart)
		if need == nil || need[bf.Pred] {
			addDelta(delta, bf.Pred, mr.key, bf.Tuple, mr.newPart)
		}
		changes = append(changes, Change{Pred: bf.Pred, Tuple: bf.Tuple, Key: mr.key, Prov: mr.newPart, Fresh: true})
	}
	if len(changes) == 0 {
		return nil, nil
	}
	if len(delta) > 0 {
		// Propagate stratum by stratum; the delta from earlier strata feeds
		// later ones. One executor serves every stratum's rounds.
		sink := func(mr mergeResult) {
			changes = append(changes, Change{Pred: mr.pred, Tuple: mr.tuple, Key: mr.key, Prov: mr.newPart, Fresh: mr.fresh})
		}
		var re roundExec
		for si, stratum := range inc.strata {
			var err error
			delta, err = inc.propagate(ctx, stratum, inc.planTab[si], &re, inc.needTab[si], delta, sink)
			if err != nil {
				return nil, err
			}
		}
	}
	sortChanges(changes)
	return changes, nil
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
	key     string
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
			for _, m := range bf.Prov.Monomials() {
				if len(m) == 0 {
					tokenFree = true
				}
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
	seen := map[string]bool{}
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
			if seen[bf.Pred+"\x00"+bf.Tuple.Key()] {
				overlap = true
				break
			}
		}
		if overlap {
			if err := flush(gi); err != nil {
				return nil, err
			}
			seen = map[string]bool{}
		}
		for _, bf := range facts {
			seen[bf.Pred+"\x00"+bf.Tuple.Key()] = true
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
			for _, m := range bf.Prov.Monomials() {
				for _, x := range m {
					if old, ok := tokenGroup[x]; !ok || gi > old {
						tokenGroup[x] = gi
					}
				}
			}
		}
	}
	accs := map[string]*groupAcc{}
	touch := func(pred string, mr mergeResult) *groupAcc {
		ak := pred + "\x00" + mr.key
		a := accs[ak]
		if a == nil {
			a = &groupAcc{pred: pred, key: mr.key, tuple: mr.tuple, existed: !mr.fresh, prior: mr.prior}
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
	opts := inc.opts
	delta := map[string]map[string]deltaFact{}
	need := inc.seedNeed()
	// Seed every group's base facts, in group order.
	for gi, facts := range groups {
		for _, bf := range facts {
			mr, changed := merge(inc.db.MutableRel(bf.Pred), bf.Tuple, bf.Prov, opts)
			if !changed {
				continue
			}
			inc.indexFact(bf.Pred, mr.key, mr.newPart)
			if need == nil || need[bf.Pred] {
				addDelta(delta, bf.Pred, mr.key, bf.Tuple, mr.newPart)
			}
			a := touch(bf.Pred, mr)
			a.parts = append(a.parts, groupPart{group: gi, seed: true, prov: mr.newPart})
		}
	}
	if len(delta) > 0 {
		// One propagation for the whole batch. Each merge's new monomials
		// are split by owning group, preserving arrival order.
		sink := func(mr mergeResult) {
			a := touch(mr.pred, mr)
			monos := mr.newPart.Monomials()
			single := true
			gi := owner(monos[0])
			for _, m := range monos[1:] {
				if owner(m) != gi {
					single = false
					break
				}
			}
			if single {
				a.parts = append(a.parts, groupPart{group: gi, prov: mr.newPart})
				return
			}
			byGroup := map[int][]provenance.Monomial{}
			order := []int{}
			for _, m := range monos {
				g := owner(m)
				if _, ok := byGroup[g]; !ok {
					order = append(order, g)
				}
				byGroup[g] = append(byGroup[g], m)
			}
			sort.Ints(order)
			for _, g := range order {
				a.parts = append(a.parts, groupPart{group: g, prov: provenance.FromMonomials(byGroup[g])})
			}
		}
		var re roundExec
		for si, stratum := range inc.strata {
			var err error
			delta, err = inc.propagate(ctx, stratum, inc.planTab[si], &re, inc.needTab[si], delta, sink)
			if err != nil {
				return nil, err
			}
		}
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
				out[gi] = append(out[gi], Change{Pred: a.pred, Tuple: a.tuple, Key: a.key, Prov: p.prov, Fresh: p.seed || !present})
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
				merged, newPart, changed, _ := provenance.MergeWitness(prev, p.prov, opts.MaxMonomials)
				if !changed {
					continue
				}
				out[gi] = append(out[gi], Change{Pred: a.pred, Tuple: a.tuple, Key: a.key, Prov: newPart, Fresh: p.seed || !present})
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

// propagate runs semi-naive rounds of one stratum starting from seed; it
// returns the accumulated delta (seed plus everything newly derived) so
// later strata can consume it, and reports every effective merge to sink in
// deterministic order. Rounds run on the caller's executor.
//
// need (needTab[si] of the stratum being propagated) filters which merges
// grow the pending delta: a head predicate no body of this or any later
// stratum consumes cannot seed further rounds, so its delta entries are
// never built. sink still observes every merge — the change log is
// unfiltered.
func (inc *Incremental) propagate(ctx context.Context, rules []Rule, plans []rulePlans, re *roundExec, need map[string]bool, seed map[string]map[string]deltaFact, sink func(mergeResult)) (map[string]map[string]deltaFact, error) {
	opts := inc.opts
	// The caller hands over ownership of seed (Insert rebinds its delta to
	// the return value), so the accumulator aliases it instead of copying:
	// per-round results merge into the seed maps after the round has
	// finished reading them.
	accum := seed
	cur := seed
	var jobs []job
	for iter := 0; len(cur) > 0; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if iter >= inc.maxIter {
			return nil, fmt.Errorf("datalog: incremental fixpoint not reached after %d iterations", inc.maxIter)
		}
		next := map[string]map[string]deltaFact{}
		absorb := func(mr mergeResult) {
			inc.indexFact(mr.pred, mr.key, mr.newPart)
			if need == nil || need[mr.pred] {
				addDelta(next, mr.pred, mr.key, mr.tuple, mr.newPart)
			}
			sink(mr)
		}
		jobs = deltaJobs(jobs[:0], rules, plans, cur)
		if err := re.runRound(ctx, jobs, inc.db, opts, nil, absorb); err != nil {
			return nil, err
		}
		copyInto(accum, next)
		cur = next
	}
	return accum, nil
}

func copyInto(dst, src map[string]map[string]deltaFact) {
	for pred, m := range src {
		for k, df := range m {
			addDelta(dst, pred, k, df.tuple, df.prov)
		}
	}
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
	touched := map[string]map[string]bool{} // pred -> keys
	for _, v := range tokens {
		tok := provenance.Mint(v)
		if inc.ruleToks[tok] {
			continue
		}
		inc.dead[tok] = true
		for pred, keys := range index[tok] {
			tm := touched[pred]
			if tm == nil {
				tm = map[string]bool{}
				touched[pred] = tm
			}
			for k := range keys {
				tm[k] = true
			}
		}
		// Once killed, the token leaves every annotation below.
		delete(index, tok)
	}
	alive := func(t provenance.Token) bool { return !inc.dead[t] }
	var changes []Change
	for pred, keys := range touched {
		rel := inc.db.MutableRel(pred)
		for k := range keys {
			f, ok := rel.facts[k]
			if !ok {
				continue
			}
			rest := f.Prov.RestrictTokens(alive)
			if rest.Equal(f.Prov) {
				continue
			}
			if rest.IsZero() {
				tu := f.Tuple // remove zeroes the slab slot; copy out first
				rel.remove(k) // maintains the hash indexes incrementally
				changes = append(changes, Change{Pred: pred, Tuple: tu, Key: k, Removed: true})
			} else {
				f.Prov = rest.Intern() // facts are stored by pointer; in-place update
				changes = append(changes, Change{Pred: pred, Tuple: f.Tuple, Key: k, Prov: rest})
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
	for pred, keys := range inc.tokens()[tok] {
		rel := inc.db.Rel(pred)
		for k := range keys {
			if f, ok := rel.facts[k]; ok && mentions(f.Prov, tok) {
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
	seen := map[string]bool{}
	for _, tok := range toks {
		for pred, keys := range index[tok] {
			rel := inc.db.Rel(pred)
			for k := range keys {
				if seen[pred+"\x00"+k] {
					continue
				}
				seen[pred+"\x00"+k] = true
				f, ok := rel.facts[k]
				if !ok {
					continue
				}
				rest := f.Prov.RestrictTokens(alive)
				if rest.Equal(f.Prov) {
					continue
				}
				if rest.IsZero() {
					changes = append(changes, Change{Pred: pred, Tuple: f.Tuple, Key: k, Removed: true})
				} else {
					changes = append(changes, Change{Pred: pred, Tuple: f.Tuple, Key: k, Prov: rest})
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
