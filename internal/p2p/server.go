package p2p

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"orchestra/internal/updates"
)

// Server exposes a Store over TCP with a JSON-lines protocol: one request
// per line, one response per line. It plays the role of one node of the
// paper's distributed update store.
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
	enc := json.NewEncoder(conn)
	for {
		line, err := readFrame(r)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The rest of the frame is still in flight and there is no
				// way to find the next one: answer, then drop the connection.
				_ = enc.Encode(response{Error: err.Error(), Code: errCodeFor(err)})
			}
			return
		}
		_ = enc.Encode(s.respond(line))
	}
}

// readFrame reads one newline-terminated request, giving up with
// ErrFrameTooLarge once it has buffered MaxRequestBytes without seeing the
// terminator.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var frame []byte
	for {
		chunk, err := r.ReadSlice('\n')
		if len(frame)+len(chunk) > MaxRequestBytes {
			return nil, ErrFrameTooLarge
		}
		frame = append(frame, chunk...)
		if err != bufio.ErrBufferFull {
			return frame, err
		}
	}
}

// respond answers one request frame.
func (s *Server) respond(line []byte) response {
	var req request
	if err := json.Unmarshal(line, &req); err != nil {
		return response{Error: fmt.Sprintf("bad request: %v", err)}
	}
	return s.handle(req)
}

func (s *Server) handle(req request) response {
	switch req.Op {
	case "publish":
		txns := make([]*updates.Transaction, 0, len(req.Txns))
		for _, w := range req.Txns {
			t, err := DecodeTxn(w)
			if err != nil {
				return response{Error: err.Error()}
			}
			txns = append(txns, t)
		}
		epoch, err := s.store.Publish(txns)
		if err != nil {
			return response{Error: err.Error(), Code: errCodeFor(err)}
		}
		return response{OK: true, Epoch: epoch}
	case "since":
		txns, epoch, err := s.store.Since(req.Epoch)
		if err != nil {
			return response{Error: err.Error()}
		}
		resp := response{OK: true, Epoch: epoch}
		for _, t := range txns {
			resp.Txns = append(resp.Txns, EncodeTxn(t))
		}
		return resp
	case "epoch":
		epoch, err := s.store.Epoch()
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true, Epoch: epoch}
	default:
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}
