package p2p

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"orchestra/internal/codec"
	"orchestra/internal/updates"
)

// Server exposes a Store over TCP with a length-prefixed binary protocol
// (wire.go): one response frame per request frame, in order, on one
// connection. It plays the role of one node of the paper's distributed
// update store.
type Server struct {
	store  Store
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts a store server on addr (e.g. "127.0.0.1:0"). Any Store
// implementation can back a replica — in-memory for tests, DurableStore for
// a durable archive.
func NewServer(store Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{store: store, ln: ln, conns: map[net.Conn]bool{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and drops open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	for {
		req, err := readFrame(r)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The rest of the frame is still in flight and there is no
				// way to find the next one: answer, then drop the connection.
				_, _ = conn.Write(endFrame(appendError(beginFrame(nil), err)))
			}
			return
		}
		if _, err := conn.Write(s.respond(req)); err != nil {
			return
		}
	}
}

// respond builds the response frame to one request payload.
func (s *Server) respond(req []byte) []byte {
	txns, epoch, err := s.handle(req)
	if err == nil {
		var frame []byte
		if frame, err = replyFrame(txns, epoch); err == nil {
			return frame
		}
	}
	return endFrame(appendError(beginFrame(nil), err))
}

// handle decodes and serves one request, returning the transactions (for
// opSince) and the epoch of the success, or why it failed.
func (s *Server) handle(req []byte) ([]*updates.Transaction, uint64, error) {
	r := codec.NewReader(req, ErrBadWire)
	var txns []*updates.Transaction
	var since uint64
	op := r.Byte()
	switch op {
	case opPublish:
		txns = readTxns(r)
	case opSince:
		since = r.Uvarint()
	case opEpoch:
	default:
		r.Fail("unknown op %d", op)
	}
	if err := r.Done(); err != nil {
		return nil, 0, fmt.Errorf("bad request: %w", err)
	}
	switch op {
	case opPublish:
		epoch, err := s.store.Publish(txns)
		return nil, epoch, err
	case opSince:
		return s.store.Since(since)
	}
	epoch, err := s.store.Epoch()
	return nil, epoch, err
}
