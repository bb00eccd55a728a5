// Package exchange implements ORCHESTRA's update translation: propagating
// published transactions through schema mappings into every peer's schema,
// while maintaining provenance. It follows Green, Karvounarakis, Ives, and
// Tannen, "Update Exchange with Mappings and Provenance" (VLDB 2007), the
// paper the SIGMOD'07 demo cites as its translation machinery ([5]):
//
//   - Mappings compile to datalog rules (internal/mapping) evaluated over a
//     global "union database" of all published data, with one provenance
//     token per published tuple-level update.
//   - Insertions propagate incrementally by semi-naive evaluation seeded
//     with the new tuples.
//   - Deletions propagate by killing the deleted tuples' tokens and testing
//     which derived tuples lost every derivation — no re-derivation of the
//     whole instance.
//
// The result of applying a transaction is the set of derived changes per
// peer; the reconciliation layer groups them into candidate transactions.
package exchange

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"orchestra/internal/datalog"
	"orchestra/internal/mapping"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
)

// DefaultMaxMonomials bounds each tuple's witness set in the union
// database. On dense or cyclic mapping graphs the number of alternative
// derivation paths is combinatorial; ORCHESTRA's prototype avoided the
// blowup by storing provenance one mapping-hop at a time, and bounded
// witness sets are this implementation's equivalent compromise: the
// shortest derivations — the ones trust conditions and deletion
// propagation act on — are always retained. See DESIGN.md §4.
const DefaultMaxMonomials = 8

// Engine maintains the global union database and translates transactions.
type Engine struct {
	peers    map[string]*schema.Schema
	mappings []*mapping.Mapping
	prog     *datalog.Program
	inc      *datalog.Incremental
	// baseTokens maps (qualified pred, tuple key) to the tokens of the
	// published inserts that created the tuple; deletes kill them.
	baseTokens map[string][]provenance.Var
	applied    map[updates.TxnID]bool
	opts       datalog.Options
	// unionSnap memoizes the frozen view handed out by UnionDB between
	// mutations, so polling after every Apply freezes each extent at most
	// once per mutation epoch.
	unionSnap *datalog.DB
}

// Config tunes the datalog evaluation behind the engine's provenance-aware
// translation. The zero value is the default configuration.
type Config struct {
	// MaxMonomials bounds each stored annotation's witness set; 0 means
	// DefaultMaxMonomials, negative means unbounded (exact witness sets, at
	// combinatorial cost on dense mapping graphs).
	MaxMonomials int
	// ReconcileWindow is kept so existing callers compile; it has no
	// effect. ApplyAll translates one transaction at a time, so there is no
	// batch for a window to cap.
	ReconcileWindow int
	// Stats, when non-nil, receives the engine's datalog evaluation counters
	// (probes, emissions, fixpoint rounds). The struct survives engine
	// rebuilds, so an owner installs one struct for the peer's lifetime.
	Stats *datalog.EvalStats
}

// maxMonomials resolves the configured witness bound.
func (c Config) maxMonomials() int {
	switch {
	case c.MaxMonomials == 0:
		return DefaultMaxMonomials
	case c.MaxMonomials < 0:
		return 0 // unbounded
	default:
		return c.MaxMonomials
	}
}

// NewEngineWith builds an engine with explicit evaluation tuning.
func NewEngineWith(peers map[string]*schema.Schema, mappings []*mapping.Mapping, cfg Config) (*Engine, error) {
	prog, err := mapping.Compile(mappings)
	if err != nil {
		return nil, err
	}
	opts := datalog.Options{
		Provenance:       true,
		ChaseSubsumption: true,
		MaxMonomials:     cfg.maxMonomials(),
		Stats:            cfg.Stats,
	}
	inc, err := datalog.NewIncremental(prog, datalog.NewDB(), opts)
	if err != nil {
		return nil, err
	}
	for peer, s := range peers {
		if s == nil {
			return nil, fmt.Errorf("exchange: peer %s has no schema", peer)
		}
	}
	return &Engine{
		peers:      peers,
		mappings:   mappings,
		prog:       prog,
		inc:        inc,
		baseTokens: map[string][]provenance.Var{},
		applied:    map[updates.TxnID]bool{},
		opts:       opts,
	}, nil
}

// Result is the outcome of translating one transaction.
type Result struct {
	// PerPeer maps each peer to the net updates the transaction induces in
	// that peer's schema (including the origin peer's own updates).
	PerPeer map[string][]updates.Update
	// ExtraDeps maps each peer to transactions (other than the applied one)
	// whose published data contributed to a derived insert — the candidate
	// transaction at that peer must also depend on them.
	ExtraDeps map[string][]updates.TxnID
}

// Applied reports whether the transaction has already been fed in.
func (e *Engine) Applied(id updates.TxnID) bool { return e.applied[id] }

// AppliedCount returns how many transactions the engine has applied.
func (e *Engine) AppliedCount() int { return len(e.applied) }

// UnionDB exposes the maintained union database as an O(#preds)
// copy-on-write snapshot: the returned view is frozen — later transactions
// applied to the engine do not show through it, and mutating it cannot
// corrupt the engine's incremental state. Callers that previously relied on
// the returned database tracking the engine live should re-call UnionDB
// after each Apply. The snapshot is memoized until the next Apply, so
// polling is cheap.
func (e *Engine) UnionDB() *datalog.DB {
	if e.unionSnap == nil {
		e.unionSnap = e.inc.DB().Snapshot()
	}
	return e.unionSnap
}

// Apply feeds one published transaction into the union database,
// propagates it through the mappings, and returns the per-peer net changes.
// Transactions must be applied in a causal order (antecedents first); the
// store guarantees this ordering. The context bounds the incremental
// fixpoints the insert runs seed; cancellation mid-transaction can leave a
// prefix of the transaction's updates in the union database, so callers
// should treat a context error as fatal for this engine.
func (e *Engine) Apply(ctx context.Context, txn *updates.Transaction) (*Result, error) {
	rs, err := e.ApplyAll(ctx, []*updates.Transaction{txn})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// ApplyAll feeds a causally ordered batch of published transactions
// through the engine, one at a time: the returned results are aligned with
// txns and identical to calling Apply on each transaction in order, at every
// witness bound, so what a peer is offered never depends on how its backlog
// was batched (DESIGN.md §8).
//
// The whole batch is validated before anything is applied; a validation
// error leaves the engine untouched. After validation, an error (typically
// context cancellation mid-fixpoint) can leave a prefix of the batch
// applied, which the engine declares fatal — the same contract as Apply.
func (e *Engine) ApplyAll(ctx context.Context, txns []*updates.Transaction) ([]*Result, error) {
	seen := map[updates.TxnID]bool{}
	for _, txn := range txns {
		if e.applied[txn.ID] || seen[txn.ID] {
			return nil, fmt.Errorf("%w: %s", ErrAlreadyApplied, txn.ID)
		}
		seen[txn.ID] = true
		origin := txn.ID.Peer
		s, ok := e.peers[origin]
		if !ok {
			return nil, fmt.Errorf("%w %s", ErrUnknownPeer, origin)
		}
		for _, u := range txn.Updates {
			if s.Relation(u.Rel) == nil {
				return nil, fmt.Errorf("%w: peer %s has no relation %s", ErrUnknownRelation, origin, u.Rel)
			}
			switch u.Op {
			case updates.OpInsert, updates.OpDelete, updates.OpModify:
			default:
				return nil, fmt.Errorf("exchange: unknown op %v", u.Op)
			}
		}
	}
	if len(txns) == 0 {
		return nil, nil
	}
	e.unionSnap = nil // the memoized UnionDB view goes stale on mutation
	results := make([]*Result, len(txns))
	for i, txn := range txns {
		res, err := e.applyOne(ctx, txn)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// applyOne translates one (already validated) transaction.
func (e *Engine) applyOne(ctx context.Context, txn *updates.Transaction) (*Result, error) {
	origin := txn.ID.Peer
	var all []datalog.Change
	depSet := map[updates.TxnID]bool{}
	// Consecutive insertions batch into one semi-naive propagation: a run
	// of inserts seeds a single fixpoint instead of cascading per tuple.
	// Runs break at deletions (and the delete half of a modification),
	// which must observe the database state left by the preceding inserts.
	var pend []pendingInsert
	flush := func() error {
		if len(pend) == 0 {
			return nil
		}
		cs, err := e.insertBatch(ctx, pend)
		pend = pend[:0]
		if err != nil {
			return err
		}
		all = append(all, cs...)
		return nil
	}
	for i, u := range txn.Updates {
		pred := mapping.Qualify(origin, u.Rel)
		switch u.Op {
		case updates.OpInsert:
			pend = append(pend, pendingInsert{pred: pred, tuple: u.New, tok: txn.Token(i)})
		case updates.OpDelete:
			if err := flush(); err != nil {
				return nil, err
			}
			all = append(all, e.delete(pred, u.Old, txn.ID, depSet)...)
		case updates.OpModify:
			if err := flush(); err != nil {
				return nil, err
			}
			all = append(all, e.delete(pred, u.Old, txn.ID, depSet)...)
			pend = append(pend, pendingInsert{pred: pred, tuple: u.New, tok: txn.Token(i)})
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	e.applied[txn.ID] = true
	return e.collate(txn, all, depSet)
}

// pendingInsert is one insertion awaiting batched propagation.
type pendingInsert struct {
	pred  string
	tuple schema.Tuple
	tok   provenance.Var
}

// insertBatch feeds a run of insertions through one incremental fixpoint.
func (e *Engine) insertBatch(ctx context.Context, pend []pendingInsert) ([]datalog.Change, error) {
	facts := make([]datalog.Fact2, len(pend))
	for i, p := range pend {
		facts[i] = datalog.Fact2{Pred: p.pred, Tuple: p.tuple, Prov: provenance.NewVar(p.tok)}
	}
	cs, err := e.inc.Insert(ctx, facts)
	if err != nil {
		return nil, err
	}
	for _, p := range pend {
		k := p.pred + "/" + p.tuple.Key()
		e.baseTokens[k] = append(e.baseTokens[k], p.tok)
	}
	return cs, nil
}

// delete translates one deletion. Two cases, per DESIGN.md:
//
//   - The origin peer owns base tokens for the tuple (it published the
//     insert itself): a true retraction. The tokens are killed in the
//     union database and the loss propagates by derivability.
//
//   - The tuple is *derived* at the origin (e.g. Beijing deleting or
//     modifying data it received from Alaska — demo scenario 3): the
//     union database keeps the original publisher's data, because other
//     peers may keep trusting it; the candidate transaction carries the
//     would-be deletions, computed read-only from the tuple's supporting
//     tokens, and gains dependencies on the supporting transactions.
func (e *Engine) delete(pred string, tu schema.Tuple, self updates.TxnID, depSet map[updates.TxnID]bool) []datalog.Change {
	k := pred + "/" + tu.Key()
	if toks := e.baseTokens[k]; len(toks) > 0 {
		delete(e.baseTokens, k)
		return e.inc.DeleteBase(toks)
	}
	f, ok := e.inc.DB().Rel(pred).Get(tu)
	if !ok {
		return nil // deleting a tuple that does not exist: no-op
	}
	supports := e.minimalKillSet(f.Prov)
	if len(supports) == 0 {
		return nil
	}
	for _, v := range supports {
		if id, isTok := updates.TokenTxn(v); isTok && id != self {
			depSet[id] = true
		}
	}
	return e.inc.Affected(supports)
}

// minimalKillSet chooses update tokens whose removal makes the polynomial
// underivable. Deleting a derived tuple is the classic view-deletion
// problem with multiple minimal solutions; we use a greedy hitting set over
// the witness monomials, preferring the token with the least collateral
// damage (fewest other facts depending on it). E.g. modifying a protein
// sequence kills the S-tuple token, not the organism or protein rows.
func (e *Engine) minimalKillSet(p provenance.Poly) []provenance.Var {
	type mono struct {
		toks []provenance.Token
	}
	var monos []mono
	for i := range p.NumMonomials() {
		var toks []provenance.Token
		for _, x := range p.Monomial(i) {
			if _, isTok := updates.TokenTxn(x.Var()); isTok {
				toks = append(toks, x)
			}
		}
		if len(toks) == 0 {
			return nil // a token-free derivation exists; the tuple cannot be killed
		}
		monos = append(monos, mono{toks: toks})
	}
	alive := func(i int, kill map[provenance.Token]bool) bool {
		for _, t := range monos[i].toks {
			if kill[t] {
				return false
			}
		}
		return true
	}
	kill := map[provenance.Token]bool{}
	for {
		remaining := 0
		counts := map[provenance.Token]int{}
		for i := range monos {
			if !alive(i, kill) {
				continue
			}
			remaining++
			for _, t := range monos[i].toks {
				counts[t]++
			}
		}
		if remaining == 0 {
			break
		}
		// Prefer tokens hitting more monomials; break ties by least
		// collateral, then by most recently minted (latest transaction,
		// highest update index) — the most specific contributor. For the
		// Figure 2 join this picks the sequence row over the organism or
		// protein rows when collateral counts tie.
		var best provenance.Var
		var bestTok provenance.Token
		bestCollateral := -1
		bestHits := 0
		for t, hits := range counts {
			v := t.Var()
			collateral := e.inc.DependentCount(v)
			better := bestCollateral == -1 || hits > bestHits ||
				(hits == bestHits && (collateral < bestCollateral ||
					(collateral == bestCollateral && tokenNewer(v, best))))
			if better {
				best, bestTok, bestCollateral, bestHits = v, t, collateral, hits
			}
		}
		kill[bestTok] = true
	}
	out := make([]provenance.Var, 0, len(kill))
	for t := range kill {
		out = append(out, t.Var())
	}
	slices.Sort(out)
	return out
}

// compareQualifiedKeys orders (pred, tuple) pairs exactly as sort.Strings
// orders the strings pred+"/"+tuple.Key(), without building them when the
// predicates decide: comparing pred+"/" first is exact unless one of those
// is a proper prefix of the other, which needs a '/' inside a predicate
// name, and then the strings are built.
func compareQualifiedKeys(pa string, ta schema.Tuple, pb string, tb schema.Tuple) int {
	if pa == pb {
		return schema.CompareKeys(ta, tb)
	}
	n := min(len(pa), len(pb))
	if c := strings.Compare(pa[:n], pb[:n]); c != 0 {
		return c
	}
	// One predicate is a proper prefix of the other; '/' follows the
	// shorter one.
	at := func(p string) byte {
		if n < len(p) {
			return p[n]
		}
		return '/'
	}
	if x, y := at(pa), at(pb); x != y {
		return cmp.Compare(x, y)
	}
	return strings.Compare(pa+"/"+ta.Key(), pb+"/"+tb.Key())
}

// collate turns raw changes into per-peer net updates, pairing same-key
// delete/insert into modifications and dropping provenance-only changes.
// Each inserted update carries the tuple's full stored annotation as of
// this transaction — the complete witness set trust evaluation and
// subscribers should see, not just the fixpoint's first-emission slice.
func (e *Engine) collate(txn *updates.Transaction, changes []datalog.Change, depSet map[updates.TxnID]bool) (*Result, error) {
	type slot struct {
		pred     string
		tuple    schema.Tuple
		inserted *datalog.Change
		removed  *datalog.Change
	}
	// Net effect per (pred, full tuple): insertion cancelled by removal
	// and vice versa. Slots are found by tuple hash, the predicate and
	// Equal settling a shared one.
	net := map[uint64][]*slot{}
	order := []*slot{}
	for i := range changes {
		c := &changes[i]
		if !c.Fresh && !c.Removed {
			continue // provenance-only growth or shrink
		}
		k := c.Tuple.Hash()
		var s *slot
		for _, x := range net[k] {
			if x.pred == c.Pred && x.tuple.Equal(c.Tuple) {
				s = x
				break
			}
		}
		if s == nil {
			s = &slot{pred: c.Pred, tuple: c.Tuple}
			net[k] = append(net[k], s)
			order = append(order, s)
		}
		if c.Removed {
			if s.inserted != nil {
				s.inserted = nil // inserted then removed within this txn
			} else {
				s.removed = c
			}
		} else {
			if s.removed != nil && s.removed.Tuple.Equal(c.Tuple) {
				s.removed = nil // removed then re-inserted: no net change
			} else {
				s.inserted = c
			}
		}
	}
	slices.SortFunc(order, func(a, b *slot) int { return compareQualifiedKeys(a.pred, a.tuple, b.pred, b.tuple) })

	res := &Result{PerPeer: map[string][]updates.Update{}, ExtraDeps: map[string][]updates.TxnID{}}
	extra := map[string]map[updates.TxnID]bool{}
	type keyed struct {
		dels map[string]updates.Update // relation-key -> delete update
		rel  *schema.Relation
	}
	// First pass: collect deletes per (peer, rel, key) so inserts can be
	// paired into modifies.
	pendingDel := map[string]map[string]schema.Tuple{} // peer.rel -> keyKey -> old tuple
	for _, s := range order {
		if s.removed == nil {
			continue
		}
		peer, rel, err := mapping.SplitQualified(s.pred)
		if err != nil {
			return nil, err
		}
		r := e.peers[peer].Relation(rel)
		if r == nil {
			continue // mapping wrote to a relation the peer doesn't declare
		}
		m := pendingDel[s.pred]
		if m == nil {
			m = map[string]schema.Tuple{}
			pendingDel[s.pred] = m
		}
		m[r.KeyOf(s.removed.Tuple).Key()] = s.removed.Tuple
	}
	// Second pass: emit updates.
	for _, s := range order {
		if s.inserted == nil {
			continue
		}
		peer, rel, err := mapping.SplitQualified(s.pred)
		if err != nil {
			return nil, err
		}
		r := e.peers[peer].Relation(rel)
		if r == nil {
			continue
		}
		var u updates.Update
		matched := false
		if len(pendingDel) > 0 { // key projection only needed when deletes can pair
			kk := r.KeyOf(s.inserted.Tuple).Key()
			if old, ok := pendingDel[s.pred][kk]; ok {
				u = updates.Modify(rel, old, s.inserted.Tuple)
				delete(pendingDel[s.pred], kk)
				matched = true
			}
		}
		if !matched {
			u = updates.Insert(rel, s.inserted.Tuple)
		}
		u.Prov = s.inserted.Prov
		if f, ok := e.inc.DB().Rel(s.pred).Get(s.inserted.Tuple); ok {
			u.Prov = f.Prov
		}
		res.PerPeer[peer] = append(res.PerPeer[peer], u)
		// Extra dependencies: the candidate needs *one* derivation of the
		// tuple to hold, so it depends on the transactions of the monomial
		// with the fewest foreign contributors — not the union over all
		// alternative derivations (which would turn genuine conflicts
		// between independent publishers into false dependencies).
		for _, id := range minimalDeps(u.Prov, txn.ID) {
			if extra[peer] == nil {
				extra[peer] = map[updates.TxnID]bool{}
			}
			extra[peer][id] = true
		}
	}
	// Remaining unpaired deletes.
	for pred, m := range pendingDel {
		peer, rel, err := mapping.SplitQualified(pred)
		if err != nil {
			return nil, err
		}
		keys := make([]string, 0, len(m))
		for kk := range m {
			keys = append(keys, kk)
		}
		sort.Strings(keys)
		for _, kk := range keys {
			res.PerPeer[peer] = append(res.PerPeer[peer], updates.Delete(rel, m[kk]))
		}
	}
	// Dependencies from foreign deletions apply to every peer that
	// received updates from this transaction.
	for peer := range res.PerPeer {
		ids := extra[peer]
		if ids == nil {
			ids = map[updates.TxnID]bool{}
			extra[peer] = ids
		}
		for id := range depSet {
			ids[id] = true
		}
	}
	for peer, ids := range extra {
		out := make([]updates.TxnID, 0, len(ids))
		for id := range ids {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		res.ExtraDeps[peer] = out
	}
	return res, nil
}

// tokenNewer orders update tokens by recency: higher sequence number first,
// then higher update index, then peer name as a deterministic tie-break.
// Update tokens always order newer than non-update (mapping) tokens; the raw
// string comparison is only the fallback when neither side parses. Comparing
// the parsed numeric fields matters: the old lexicographic fallback ordered
// cross-peer tokens by their string prefix, so a seq-10 token could lose to
// a seq-2 token published earlier.
func tokenNewer(a, b provenance.Var) bool {
	ida, ia, aok := splitToken(a)
	idb, ib, bok := splitToken(b)
	switch {
	case aok && bok:
		if ida.Seq != idb.Seq {
			return ida.Seq > idb.Seq
		}
		if ia != ib {
			return ia > ib
		}
		return ida.Peer > idb.Peer
	case aok != bok:
		return aok
	default:
		return a > b
	}
}

// splitToken parses "peer:seq/idx" into the transaction id, the update
// index, and whether the token is an update token at all. idx is -1 when no
// canonical index (see updates.ParseSeq) follows the slash, as in the
// trailing-slash form "peer:seq/".
func splitToken(v provenance.Var) (updates.TxnID, int, bool) {
	id, ok := updates.TokenTxn(v)
	if !ok {
		return updates.TxnID{}, -1, false
	}
	s := string(v)
	n, ok := updates.ParseSeq(s[strings.LastIndexByte(s, '/')+1:])
	if !ok || n > math.MaxInt {
		return id, -1, true
	}
	return id, int(n), true
}

// minimalDeps returns the foreign transaction set of the monomial of p with
// the fewest foreign contributors (ties broken deterministically).
func minimalDeps(p provenance.Poly, self updates.TxnID) []updates.TxnID {
	var best []updates.TxnID
	found := false
	var ids []updates.TxnID // reused across monomials; winners are copied out
	for i := range p.NumMonomials() {
		ids = ids[:0]
		for _, x := range p.Monomial(i) {
			id, ok := updates.TokenTxn(x.Var())
			if !ok || id == self {
				continue
			}
			dup := false
			for _, e := range ids {
				if e == id {
					dup = true
					break
				}
			}
			if !dup {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		if !found || len(ids) < len(best) || (len(ids) == len(best) && lessIDs(ids, best)) {
			best = append(best[:0], ids...)
			found = true
		}
	}
	return best
}

func lessIDs(a, b []updates.TxnID) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i].Less(b[i])
		}
	}
	return len(a) < len(b)
}

// MaterializePeer builds the storage instance a peer would hold if it
// accepted exactly the transactions for which trusts returns true: a tuple
// is present iff its provenance is derivable using only tokens of trusted
// transactions (mapping tokens are always alive). This is the declarative
// counterpart of incrementally applying accepted candidate updates, used
// for cross-checking and for cold-start materialization. The context is
// checked per relation; materialization mutates only the returned instance,
// so cancellation is safe at any point.
func (e *Engine) MaterializePeer(ctx context.Context, peer string, trusts func(updates.TxnID) bool) (*storage.Instance, error) {
	s, ok := e.peers[peer]
	if !ok {
		return nil, fmt.Errorf("%w %s", ErrUnknownPeer, peer)
	}
	alive := func(v provenance.Var) bool {
		id, isTok := updates.TokenTxn(v)
		if !isTok {
			return true // mapping token
		}
		return trusts(id)
	}
	inst := storage.NewInstance(s)
	db := e.inc.DB()
	for _, rel := range s.Relations() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pred := mapping.Qualify(peer, rel.Name)
		if !db.Has(pred) {
			continue
		}
		for _, f := range db.Rel(pred).Facts() {
			if !f.Prov.Derivable(alive) {
				continue
			}
			// Two trusted transactions can disagree on a key;
			// materialization is first-writer-wins here, and
			// reconciliation is responsible for not trusting conflicting
			// transactions simultaneously.
			if prev, ok := inst.Table(rel.Name).GetByKey(rel.KeyOf(f.Tuple)); ok && !prev.Tuple.Equal(f.Tuple) {
				continue
			}
			if _, err := inst.Upsert(rel.Name, f.Tuple, f.Prov.Restrict(alive)); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

// Recompute rebuilds the union database from scratch using the base facts
// currently alive — the non-incremental baseline incremental maintenance is
// checked and priced against (the repo benchmark's exchange.recompute_ms).
func (e *Engine) Recompute(ctx context.Context) (*datalog.DB, error) {
	edb := datalog.NewDB()
	for k, toks := range e.baseTokens {
		// k is pred + "/" + tupleKey
		for i := 0; i < len(k); i++ {
			if k[i] == '/' {
				pred := k[:i]
				tu, err := schema.ParseTupleKey(k[i+1:])
				if err != nil {
					return nil, err
				}
				p := provenance.Zero()
				for _, t := range toks {
					p = p.Add(provenance.NewVar(t))
				}
				edb.Add(pred, tu, p)
				break
			}
		}
	}
	return datalog.EvalCtx(ctx, e.prog, edb, e.opts)
}
