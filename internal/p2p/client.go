package p2p

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"orchestra/internal/updates"
)

// Client implements Store over a TCP connection to one Server. A fresh
// connection is dialed per request — reconciliation is infrequent and this
// keeps intermittent-connectivity behavior honest (demo scenario 5: a
// request either reaches a live replica or fails cleanly).
type Client struct {
	addr    string
	timeout time.Duration
}

// DefaultClientTimeout bounds each request's dial and I/O when no explicit
// timeout is configured.
const DefaultClientTimeout = 5 * time.Second

// NewClient creates a client for the server at addr with the default
// per-request timeout.
func NewClient(addr string) *Client { return NewClientWith(addr, 0) }

// NewClientWith is NewClient with an explicit per-request dial/IO timeout;
// timeout <= 0 selects DefaultClientTimeout.
func NewClientWith(addr string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultClientTimeout
	}
	return &Client{addr: addr, timeout: timeout}
}

// roundTrip sends one request frame on a fresh connection and decodes the
// response frame: the transactions and epoch of a success, and whether the
// server cut a since answer short (statusMore).
func (c *Client) roundTrip(frame []byte) ([]*updates.Transaction, uint64, bool, error) {
	if len(frame)-frameHeaderLen > MaxRequestBytes {
		return nil, 0, false, fmt.Errorf("p2p: send to %s: %w: a %d-byte request, cap %d", c.addr, ErrFrameTooLarge, len(frame)-frameHeaderLen, MaxRequestBytes)
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, 0, false, fmt.Errorf("p2p: dial %s: %w", c.addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(c.timeout))
	if _, err := conn.Write(endFrame(frame)); err != nil {
		return nil, 0, false, fmt.Errorf("p2p: send to %s: %w", c.addr, err)
	}
	payload, err := readFrame(conn)
	if err != nil {
		return nil, 0, false, fmt.Errorf("p2p: recv from %s: %w", c.addr, err)
	}
	txns, epoch, more, err := readReply(payload)
	if err != nil {
		return nil, 0, false, fmt.Errorf("p2p: server %s: %w", c.addr, err)
	}
	return txns, epoch, more, nil
}

// Publish implements Store.
func (c *Client) Publish(txns []*updates.Transaction) (uint64, error) {
	_, epoch, _, err := c.roundTrip(appendTxns(append(beginFrame(nil), opPublish), txns))
	if err != nil {
		return 0, err
	}
	// Mirror the server-side epoch assignment locally so the caller's
	// transaction objects agree with the archive.
	for _, t := range txns {
		t.Epoch = epoch
	}
	return epoch, nil
}

// Since implements Store. An answer longer than one frame arrives in
// pieces, each cut after a whole epoch: Since asks again from the last
// epoch it received until the server reports the whole tail sent.
func (c *Client) Since(since uint64) ([]*updates.Transaction, uint64, error) {
	var all []*updates.Transaction
	for {
		txns, epoch, more, err := c.roundTrip(binary.AppendUvarint(append(beginFrame(nil), opSince), since))
		if err != nil {
			return nil, 0, err
		}
		all = append(all, txns...)
		if !more {
			return all, epoch, nil
		}
		// A cut answer holds at least one epoch past since; one that holds
		// none would have the client ask forever.
		if len(txns) == 0 || epoch <= since {
			return nil, 0, fmt.Errorf("p2p: server %s: %w: a cut answer from epoch %d ends at %d with %d transactions", c.addr, ErrBadWire, since, epoch, len(txns))
		}
		since = epoch
	}
}

// Epoch implements Store.
func (c *Client) Epoch() (uint64, error) {
	_, epoch, _, err := c.roundTrip(append(beginFrame(nil), opEpoch))
	return epoch, err
}

// ReplicatedStore fans a Store out over several replicas: publishes go to
// every reachable replica (at least one must succeed), reads come from the
// reachable replica with the highest epoch. With the archive replicated, a
// publisher can go offline and other peers still retrieve its transactions.
type ReplicatedStore struct {
	mu       sync.Mutex
	replicas []Store
}

// NewReplicatedStore wraps the given replicas.
func NewReplicatedStore(replicas ...Store) *ReplicatedStore {
	return &ReplicatedStore{replicas: replicas}
}

// Publish implements Store: best-effort to all replicas, error only if none
// accepted. Epoch is the maximum assigned.
func (r *ReplicatedStore) Publish(txns []*updates.Transaction) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best uint64
	okCount := 0
	var firstErr error
	for _, rep := range r.replicas {
		epoch, err := rep.Publish(txns)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		okCount++
		if epoch > best {
			best = epoch
		}
	}
	if okCount == 0 {
		return 0, fmt.Errorf("p2p: publish failed on all %d replicas: %w", len(r.replicas), firstErr)
	}
	return best, nil
}

// Since implements Store: reads from the reachable replica with the highest
// epoch.
func (r *ReplicatedStore) Since(since uint64) ([]*updates.Transaction, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var bestTxns []*updates.Transaction
	var bestEpoch uint64
	reachable := false
	var firstErr error
	for _, rep := range r.replicas {
		txns, epoch, err := rep.Since(since)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !reachable || epoch > bestEpoch {
			bestTxns, bestEpoch = txns, epoch
		}
		reachable = true
	}
	if !reachable {
		return nil, 0, fmt.Errorf("p2p: all %d replicas unreachable: %w", len(r.replicas), firstErr)
	}
	return bestTxns, bestEpoch, nil
}

// Epoch implements Store.
func (r *ReplicatedStore) Epoch() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best uint64
	reachable := false
	var firstErr error
	for _, rep := range r.replicas {
		epoch, err := rep.Epoch()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if epoch > best {
			best = epoch
		}
		reachable = true
	}
	if !reachable {
		return 0, fmt.Errorf("p2p: all %d replicas unreachable: %w", len(r.replicas), firstErr)
	}
	return best, nil
}

// AntiEntropy copies missing transactions between two memory stores so
// replicas converge (used by the replica maintenance loop and tests). A
// copied transaction keeps the epoch its source assigned, so a peer that
// has already read the receiving replica past that epoch never gets it.
func AntiEntropy(a, b *MemoryStore) {
	at, ae, _ := a.Since(0)
	bt, be, _ := b.Since(0)
	a.merge(bt, be)
	b.merge(at, ae)
}
