package orchestra

import (
	"context"
	"iter"
	"sync"

	"orchestra/internal/core"
	"orchestra/internal/provenance"
	"orchestra/internal/updates"
)

// Change is one tuple-level change applied at a peer, collated per
// publishing transaction: inserts, deletes, and modifies arrive exactly as
// update exchange derived them for this peer's schema, so a downstream
// consumer can maintain a view incrementally instead of re-materializing.
type Change struct {
	// Epoch is the store epoch the originating transaction published at.
	Epoch uint64
	// Txn identifies the originating (publishing) transaction.
	Txn TxnID
	// Local reports whether the change is this peer's own publish (true)
	// or data that arrived through reconciliation (false).
	Local bool
	// Rel is the local relation the change targets.
	Rel string
	// Op is the change kind: OpInsert, OpDelete, or OpModify.
	Op Op
	// Old is set for deletes and modifies; New for inserts and modifies.
	Old, New Tuple
	// Prov carries the change's provenance polynomial, unless the system
	// was opened with WithProvenance(false).
	Prov Provenance
}

// SubscribeOption tunes one subscription.
type SubscribeOption func(*subSettings)

type subSettings struct {
	relations     map[string]bool
	autoReconcile bool
}

func defaultSubSettings() subSettings { return subSettings{autoReconcile: true} }

func (s subSettings) apply(opts []SubscribeOption) subSettings {
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithRelations restricts the subscription to changes on the named
// relations (default: all).
func WithRelations(rels ...string) SubscribeOption {
	return func(s *subSettings) {
		if s.relations == nil {
			s.relations = map[string]bool{}
		}
		for _, r := range rels {
			s.relations[r] = true
		}
	}
}

// WithoutAutoReconcile leaves reconciliation to explicit Reconcile calls:
// the subscription then only observes changes those calls (and local
// publishes) apply, instead of having a background pump chase every epoch.
func WithoutAutoReconcile() SubscribeOption {
	return func(s *subSettings) { s.autoReconcile = false }
}

// subEvent is one queued delivery: a change, or an asynchronous pump error.
type subEvent struct {
	change Change
	err    error
}

// subscription is one consumer's lossless queue. The apply hook appends
// under mu and pokes wake; the consuming iterator drains in batches.
type subscription struct {
	mu    sync.Mutex
	queue []subEvent
	wake  chan struct{}
	set   subSettings
}

func (s *subscription) push(evs ...subEvent) {
	s.mu.Lock()
	s.queue = append(s.queue, evs...)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *subscription) drain() []subEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs := s.queue
	s.queue = nil
	return evs
}

// Subscribe streams the peer's changes as epochs publish. The returned
// sequence yields (Change, nil) for data and (zero, err) exactly once when
// the stream ends: ctx.Err() on cancellation or deadline, ErrClosed after
// System.Close, or a reconciliation error from the background pump.
// Breaking out of the range loop detaches the subscription immediately.
//
// By default a background pump reconciles the peer whenever any other peer
// publishes, so subscribers see remote epochs pushed rather than polled;
// WithoutAutoReconcile turns that off. Changes the peer applies through
// explicit Publish/Reconcile/Resolve calls are always delivered.
//
//	for change, err := range peer.Subscribe(ctx) {
//	    if err != nil { break }
//	    apply(change)
//	}
func (p *Peer) Subscribe(ctx context.Context, opts ...SubscribeOption) iter.Seq2[Change, error] {
	sub := &subscription{wake: make(chan struct{}, 1), set: defaultSubSettings().apply(opts)}
	p.mu.Lock()
	p.subs[sub] = struct{}{}
	if sub.set.autoReconcile && !p.pumpStarted {
		p.pumpStarted = true
		go p.pump()
	}
	p.mu.Unlock()
	if sub.set.autoReconcile {
		p.poke() // catch up on anything already published
	}
	// The subscription registers immediately (so no change between this
	// call and the first range is lost), which means it must also be
	// detachable without ever being ranged: a watcher unregisters it when
	// the context ends, bounding the queue of an abandoned subscription to
	// the context's lifetime.
	detached := make(chan struct{})
	var detachOnce sync.Once
	detach := func() {
		detachOnce.Do(func() {
			p.mu.Lock()
			delete(p.subs, sub)
			p.mu.Unlock()
			close(detached)
		})
	}
	go func() {
		select {
		case <-ctx.Done():
			detach()
		case <-p.sys.ctx.Done():
			detach()
		case <-detached:
		}
	}()
	return func(yield func(Change, error) bool) {
		defer detach()
		// flush yields every queued event; it reports false when the
		// consumer broke out or an error event ended the stream.
		flush := func() bool {
			for _, ev := range sub.drain() {
				if !yield(ev.change, ev.err) || ev.err != nil {
					return false
				}
			}
			return true
		}
		for {
			if !flush() {
				return
			}
			select {
			case <-ctx.Done():
				// Deliver what arrived before cancellation, then end the
				// stream with the context error.
				if flush() {
					yield(Change{}, ctx.Err())
				}
				return
			case <-p.sys.ctx.Done():
				if flush() {
					yield(Change{}, ErrClosed)
				}
				return
			case <-sub.wake:
			}
		}
	}
}

// pump is the peer's auto-reconcile loop: each poke (another peer
// published) triggers one reconciliation; resulting changes reach the
// subscriptions through the apply hook. Reconciliation errors are delivered
// to every subscriber. The wake channel holds one poke, so publications
// that arrive while a round runs are fetched together by the next round.
func (p *Peer) pump() {
	for {
		select {
		case <-p.sys.ctx.Done():
			return
		case <-p.wake:
			p.pumpRuns.Inc()
			_, err := p.core.Reconcile(p.sys.ctx)
			if err != nil && p.sys.ctx.Err() == nil {
				p.mu.Lock()
				for sub := range p.subs {
					sub.push(subEvent{err: wrapErr(err)})
				}
				p.mu.Unlock()
			}
		}
	}
}

// fanout is the core-layer apply hook: it converts one applied transaction
// into Changes and queues them on every matching subscription. It runs
// under the internal peer mutex and therefore never calls back into core.
func (p *Peer) fanout(ev core.ApplyEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.subs) == 0 {
		return
	}
	changes := make([]subEvent, 0, len(ev.Updates))
	for i, u := range ev.Updates {
		c := Change{
			Epoch: ev.Epoch,
			Txn:   ev.Txn,
			Local: ev.Local,
			Rel:   u.Rel,
			Op:    u.Op,
			Old:   u.Old,
			New:   u.New,
		}
		if p.set.provenance {
			c.Prov = u.Prov
			if c.Prov.IsZero() && ev.Local {
				// A local update's provenance is its own freshly minted
				// token — the same variable the union database records.
				c.Prov = provenance.NewVar((&updates.Transaction{ID: ev.Txn}).Token(i))
			}
		}
		changes = append(changes, subEvent{change: c})
	}
	for sub := range p.subs {
		if sub.set.relations == nil {
			sub.push(changes...)
			p.subEvents.Add(int64(len(changes)))
			continue
		}
		for _, ev := range changes {
			if sub.set.relations[ev.change.Rel] {
				sub.push(ev)
				p.subEvents.Inc()
			}
		}
	}
}
