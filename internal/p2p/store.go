// Package p2p implements the CDSS's published-update store: the archive
// (Figure 1 of the paper) that saves published transactions and makes them
// available to every participant — including while the publisher is offline
// (demo scenario 5). The paper stores published transactions in a
// peer-to-peer distributed database "though one can also use other
// methods"; this package provides an in-process store plus a replicated
// TCP store that exercises the same code paths (durable publish, epoch
// catch-up, fetch from any live replica).
package p2p

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"orchestra/internal/updates"
)

// ErrAlreadyPublished reports a transaction id published twice. Identity
// survives the TCP store protocol: the server tags the response with a wire
// error code and Client rebuilds the sentinel, so errors.Is works the same
// against in-process and remote stores.
var ErrAlreadyPublished = errors.New("p2p: transaction already published")

// Store is the published-transaction archive. Each successful Publish
// advances the logical clock (epoch); Since(e) returns every transaction
// published after epoch e in causal order.
type Store interface {
	// Publish archives the transactions atomically, assigning them the
	// next epoch, which is returned.
	Publish(txns []*updates.Transaction) (uint64, error)
	// Since returns transactions with epoch > since in publish order, plus
	// the current epoch.
	Since(since uint64) ([]*updates.Transaction, uint64, error)
	// Epoch returns the current logical clock value.
	Epoch() (uint64, error)
}

// MemoryStore is the in-process Store implementation; safe for concurrent
// use.
type MemoryStore struct {
	mu    sync.RWMutex
	epoch uint64
	log   []*updates.Transaction
	seen  map[updates.TxnID]bool
}

// NewMemoryStore creates an empty store at epoch 0.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{seen: map[updates.TxnID]bool{}}
}

// Publish archives transactions and advances the epoch. The store keeps
// its own copy of each transaction, stamped with the epoch it assigned, and
// stamps the caller's too: replicas that archive one transaction each keep
// the epoch they gave it.
func (s *MemoryStore) Publish(txns []*updates.Transaction) (uint64, error) {
	if len(txns) == 0 {
		return s.Epoch()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dup := map[updates.TxnID]bool{}
	for _, t := range txns {
		if s.seen[t.ID] || dup[t.ID] {
			return 0, fmt.Errorf("%w: %s", ErrAlreadyPublished, t.ID)
		}
		dup[t.ID] = true
	}
	s.epoch++
	copies := make([]updates.Transaction, len(txns))
	for i, t := range txns {
		t.Epoch = s.epoch
		copies[i] = *t
		s.seen[t.ID] = true
		s.log = append(s.log, &copies[i])
	}
	return s.epoch, nil
}

// Since returns transactions published after the given epoch. The log is
// in epoch order (Publish appends at a new highest epoch, merge re-sorts),
// so the answer is its tail from the first later epoch on, copied out so
// that the caller never aliases the log.
func (s *MemoryStore) Since(since uint64) ([]*updates.Transaction, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := sort.Search(len(s.log), func(i int) bool { return s.log[i].Epoch > since })
	return append([]*updates.Transaction(nil), s.log[i:]...), s.epoch, nil
}

// Epoch returns the current epoch.
func (s *MemoryStore) Epoch() (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch, nil
}

// merge folds remote transactions into the store during anti-entropy,
// keeping the maximum epoch. Duplicates are skipped.
func (s *MemoryStore) merge(txns []*updates.Transaction, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range txns {
		if s.seen[t.ID] {
			continue
		}
		s.seen[t.ID] = true
		s.log = append(s.log, t)
	}
	sort.SliceStable(s.log, func(i, j int) bool { return s.log[i].Epoch < s.log[j].Epoch })
	if epoch > s.epoch {
		s.epoch = epoch
	}
}

var _ Store = (*MemoryStore)(nil)
var _ Store = (*Client)(nil)
var _ Store = (*ReplicatedStore)(nil)
