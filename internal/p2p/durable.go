package p2p

import (
	"encoding/binary"
	"fmt"
	"sync"

	"orchestra/internal/codec"
	"orchestra/internal/lsm"
	"orchestra/internal/obs"
	"orchestra/internal/updates"
)

// DurableStore is the published-transaction archive on the LSM tier. The
// archive is disk-resident: Publish commits one lsm.Batch (one WAL record,
// one fsync — the group-commit window a PublishAll hands us), and Since
// streams transactions out of a snapshot range scan. Only the epoch counter
// lives in memory, so the archive is not capped by RAM.
//
// The store may share its lsm.DB with other keyspaces (peer checkpoints use
// the same database under a different prefix); all its keys live under
// "a/". The caller owns the DB's lifecycle.
type DurableStore struct {
	mu    sync.Mutex
	db    *lsm.DB
	epoch uint64
	// Metric handles (nil when no registry is installed; see SetMetrics).
	pubBatches *obs.Counter   // p2p_publish_batches_total
	pubTxns    *obs.Counter   // p2p_published_txns_total
	pubBytes   *obs.Counter   // p2p_published_bytes_total
	batchTxns  *obs.Histogram // p2p_publish_batch_txns
	sinceScans *obs.Counter   // p2p_since_scans_total
	sinceTxns  *obs.Counter   // p2p_since_txns_total
}

// SetMetrics installs (or, with nil, removes) the archive's metric handles.
// Call before concurrent use begins.
func (s *DurableStore) SetMetrics(r *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r == nil {
		s.pubBatches, s.pubTxns, s.pubBytes, s.batchTxns = nil, nil, nil, nil
		s.sinceScans, s.sinceTxns = nil, nil
		return
	}
	s.pubBatches = r.Counter("p2p_publish_batches_total")
	s.pubTxns = r.Counter("p2p_published_txns_total")
	s.pubBytes = r.Counter("p2p_published_bytes_total")
	s.batchTxns = r.Histogram("p2p_publish_batch_txns")
	s.sinceScans = r.Counter("p2p_since_scans_total")
	s.sinceTxns = r.Counter("p2p_since_txns_total")
}

// Key layout under the archive prefix:
//
//	a/t/<epoch be64><index be32> -> updates.AppendTxn bytes (publish order == key order)
//	a/s/<peer esc><seq be64>     -> ""                      (TxnID seen marker)
var (
	durTxnPrefix  = []byte("a/t/")
	durSeenPrefix = []byte("a/s/")
)

func durTxnKey(epoch uint64, idx int) []byte {
	k := make([]byte, 0, len(durTxnPrefix)+12)
	k = append(k, durTxnPrefix...)
	k = binary.BigEndian.AppendUint64(k, epoch)
	k = binary.BigEndian.AppendUint32(k, uint32(idx))
	return k
}

func durSeenKey(id updates.TxnID) []byte {
	k := append([]byte(nil), durSeenPrefix...)
	k = lsm.AppendString(k, id.Peer)
	k = binary.BigEndian.AppendUint64(k, id.Seq)
	return k
}

// NewDurableStore opens the archive keyspace inside db, recovering the
// epoch counter from the highest archived key. The scan touches keys only
// (values stream lazily per block), so open cost is bounded by index size,
// not archive size.
func NewDurableStore(db *lsm.DB) (*DurableStore, error) {
	s := &DurableStore{db: db}
	sn := db.Snapshot()
	defer sn.Close()
	err := sn.Scan(durTxnPrefix, lsm.PrefixEnd(durTxnPrefix), func(k, v []byte) bool {
		if len(k) >= len(durTxnPrefix)+8 {
			if e := binary.BigEndian.Uint64(k[len(durTxnPrefix):]); e > s.epoch {
				s.epoch = e
			}
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("p2p: recover durable store: %w", err)
	}
	return s, nil
}

// Publish implements Store. The whole batch — however many transactions a
// PublishAll window accumulated — becomes one atomic, fsynced lsm.Batch:
// either every transaction and its seen marker is durable, or none are.
func (s *DurableStore) Publish(txns []*updates.Transaction) (uint64, error) {
	if len(txns) == 0 {
		return s.Epoch()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dup := map[updates.TxnID]bool{}
	for _, t := range txns {
		if dup[t.ID] {
			return 0, fmt.Errorf("%w: %s", ErrAlreadyPublished, t.ID)
		}
		dup[t.ID] = true
		if _, ok, err := s.db.Get(durSeenKey(t.ID)); err != nil {
			return 0, err
		} else if ok {
			return 0, fmt.Errorf("%w: %s", ErrAlreadyPublished, t.ID)
		}
	}
	epoch := s.epoch + 1
	b := lsm.NewBatch()
	var bytes int64
	for i, t := range txns {
		t.Epoch = epoch
		data := updates.AppendTxn(nil, t)
		bytes += int64(len(data))
		b.Put(durTxnKey(epoch, i), data)
		b.Put(durSeenKey(t.ID), nil)
	}
	if err := s.db.Apply(b, true); err != nil {
		return 0, err
	}
	s.epoch = epoch
	s.pubBatches.Inc()
	s.pubTxns.Add(int64(len(txns)))
	s.pubBytes.Add(bytes)
	s.batchTxns.Observe(int64(len(txns)))
	return epoch, nil
}

// Since implements Store, streaming matching transactions from a snapshot
// range scan starting just past the requested epoch. Keys sort by
// (epoch, batch index), so scan order is exactly publish order.
func (s *DurableStore) Since(since uint64) ([]*updates.Transaction, uint64, error) {
	s.mu.Lock()
	sn := s.db.Snapshot()
	epoch := s.epoch
	s.mu.Unlock()
	defer sn.Close()
	lo := make([]byte, 0, len(durTxnPrefix)+8)
	lo = append(lo, durTxnPrefix...)
	lo = binary.BigEndian.AppendUint64(lo, since+1)
	var out []*updates.Transaction
	r := codec.NewReader(nil, ErrBadWire)
	err := sn.Walk(lo, lsm.PrefixEnd(durTxnPrefix), func(k, v []byte) error {
		t := &updates.Transaction{}
		r.Reset(v)
		updates.ReadTxn(r, t)
		if err := r.Done(); err != nil {
			return fmt.Errorf("p2p: archived transaction at %x: %w", k[len(durTxnPrefix):], err)
		}
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	s.sinceScans.Inc()
	s.sinceTxns.Add(int64(len(out)))
	return out, epoch, nil
}

// Epoch implements Store.
func (s *DurableStore) Epoch() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch, nil
}

var _ Store = (*DurableStore)(nil)
