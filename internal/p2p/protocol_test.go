package p2p

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"orchestra/internal/updates"
)

// rawRequest sends a raw line to the server and decodes one response.
func rawRequest(t *testing.T, addr, line string) response {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	srv, err := NewServer(NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if resp := rawRequest(t, srv.Addr(), "{not json"); resp.Error == "" {
		t.Error("malformed JSON accepted")
	}
	if resp := rawRequest(t, srv.Addr(), `{"op":"frobnicate"}`); resp.Error == "" {
		t.Error("unknown op accepted")
	}
	if resp := rawRequest(t, srv.Addr(), `{"op":"publish","txns":[{"peer":"a","seq":1,"updates":[{"rel":"R","op":9}]}]}`); resp.Error == "" {
		t.Error("bad wire txn accepted")
	}
	// The connection survives bad requests: a good request still works.
	if resp := rawRequest(t, srv.Addr(), `{"op":"epoch"}`); !resp.OK {
		t.Errorf("epoch after errors: %+v", resp)
	}
}

// A transaction with no publishing peer, or with sequence number 0, names
// no commit any peer made. Archived, it would be a transaction every
// reconciling peer fails to translate; the server refuses it and archives
// nothing.
func TestServerRefusesTxnWithoutCommitID(t *testing.T) {
	store := NewMemoryStore()
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, frame := range []string{
		`{"op":"publish","txns":[{}]}`,
		`{"op":"publish","txns":[{"peer":"a","seq":0}]}`,
		`{"op":"publish","txns":[{"seq":3,"updates":[{"rel":"R","op":0,"new":"3|s:x"}]}]}`,
		`{"op":"publish","txns":[{"peer":"a","seq":1},{"peer":"","seq":2}]}`,
	} {
		if resp := rawRequest(t, srv.Addr(), frame); resp.OK || resp.Error == "" {
			t.Errorf("%s answered %+v, want an error", frame, resp)
		}
	}
	if txns, epoch, err := store.Since(0); err != nil || len(txns) != 0 || epoch != 0 {
		t.Errorf("archive after refused publishes: %d txns at epoch %d (%v)", len(txns), epoch, err)
	}
}

// A request that never ends must not make the replica buffer without bound:
// once MaxRequestBytes have arrived without a terminator the server answers
// with the typed error and drops the connection, and goes on serving others.
func TestServerCapsRequestFrame(t *testing.T) {
	srv, err := NewServer(NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	go func() {
		// One read buffer past the cap, so the server sees the overflow
		// without waiting for more; it may hang up before the last write.
		_, _ = conn.Write(bytes.Repeat([]byte{'x'}, MaxRequestBytes+4096))
	}()
	r := bufio.NewReader(conn)
	var resp response
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		t.Fatalf("no answer to an oversized frame: %v", err)
	}
	if resp.OK || !errors.Is(sentinelForCode(resp.Code), ErrFrameTooLarge) {
		t.Errorf("oversized frame answered %+v, want ErrFrameTooLarge", resp)
	}
	if _, err := r.ReadByte(); err == nil {
		t.Error("connection survived an oversized frame")
	}
	if resp := rawRequest(t, srv.Addr(), `{"op":"epoch"}`); !resp.OK {
		t.Errorf("epoch after an oversized frame: %+v", resp)
	}
}

func TestServerMultipleRequestsPerConnection(t *testing.T) {
	srv, err := NewServer(NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	r := bufio.NewReader(conn)
	for i := 0; i < 5; i++ {
		if _, err := conn.Write([]byte(`{"op":"epoch"}` + "\n")); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := json.NewDecoder(r).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("request %d: %+v", i, resp)
		}
	}
}

func TestServerCloseDropsConnections(t *testing.T) {
	srv, err := NewServer(NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("connection survived server close")
	}
	// New dials fail.
	if _, err := net.DialTimeout("tcp", srv.Addr(), 200*time.Millisecond); err == nil {
		t.Error("dial succeeded after close")
	}
}

// TestClientPreservesAlreadyPublishedIdentity pins that the wire error code
// carries sentinel identity across the TCP protocol: errors.Is must hold on
// the client exactly as it does against an in-process store.
func TestClientPreservesAlreadyPublishedIdentity(t *testing.T) {
	srv, err := NewServer(NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	if _, err := c.Publish([]*updates.Transaction{txn("a", 1, updates.Insert("R", tup("x")))}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Publish([]*updates.Transaction{txn("a", 1, updates.Insert("R", tup("x")))})
	if err == nil {
		t.Fatal("duplicate publish accepted")
	}
	if !errors.Is(err, ErrAlreadyPublished) {
		t.Fatalf("duplicate publish error lost identity across the wire: %v", err)
	}
	if !strings.Contains(err.Error(), "a:1") {
		t.Errorf("error dropped the server detail: %v", err)
	}
	// A fresh transaction still publishes: the error path is per-request.
	if _, err := c.Publish([]*updates.Transaction{txn("a", 2, updates.Insert("R", tup("y")))}); err != nil {
		t.Fatal(err)
	}
}

// TestClientConfigurableTimeout pins NewClientWith: a short timeout fails a
// dial to a blackholed address quickly instead of waiting out the default.
func TestClientConfigurableTimeout(t *testing.T) {
	if NewClientWith("x", 0).timeout != DefaultClientTimeout {
		t.Fatal("zero timeout did not select the default")
	}
	if got := NewClientWith("x", 250*time.Millisecond).timeout; got != 250*time.Millisecond {
		t.Fatalf("timeout = %v", got)
	}
	// A listener that never answers: accept the connection and go silent, so
	// the request blocks in the read until the I/O deadline fires.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c := NewClientWith(ln.Addr().String(), 200*time.Millisecond)
	start := time.Now()
	if _, err := c.Epoch(); err == nil {
		t.Fatal("request against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("short timeout not honored: request took %v", elapsed)
	}
}
