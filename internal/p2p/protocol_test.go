package p2p

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// frame wraps a request payload in its length prefix.
func frame(payload ...byte) []byte { return endFrame(append(beginFrame(nil), payload...)) }

// publishFrame is the request frame publishing txns.
func publishFrame(txns ...*updates.Transaction) []byte {
	return endFrame(appendTxns(append(beginFrame(nil), opPublish), txns))
}

// reply is a decoded response: a success's transactions and epoch, and
// whether the server cut it short, or the error the server reported.
type reply struct {
	txns  []*updates.Transaction
	epoch uint64
	more  bool
	err   error
}

// decodeReply decodes one response payload, failing t on a payload no
// server writes.
func decodeReply(t *testing.T, payload []byte) reply {
	t.Helper()
	var rep reply
	rep.txns, rep.epoch, rep.more, rep.err = readReply(payload)
	var reported *wireError
	if rep.err != nil && !errors.As(rep.err, &reported) {
		t.Fatalf("undecodable response % x: %v", payload, rep.err)
	}
	return rep
}

// exchange writes one request frame on conn and decodes one response.
func exchange(t *testing.T, conn net.Conn, r *bufio.Reader, req []byte) reply {
	t.Helper()
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	return decodeReply(t, payload)
}

// rawRequest sends one raw request frame on a fresh connection and decodes
// one response.
func rawRequest(t *testing.T, addr string, req []byte) reply {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	return exchange(t, conn, bufio.NewReader(conn), req)
}

// A malformed request gets an error response, and the connection it came
// on goes on serving.
func TestServerRejectsMalformedRequests(t *testing.T) {
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
	for name, req := range map[string][]byte{
		"empty":             frame(),
		"unknown op":        frame(0x7f),
		"cut-short since":   frame(opSince, 0x80),
		"overlong epoch":    frame(opSince, 0x80, 0x00),
		"trailing bytes":    frame(opEpoch, 0),
		"count past bytes":  frame(opPublish, 5, 1, 'a'),
		"bad update op":     publishFrame(txn("a", 1, updates.Update{Rel: "R", Op: 9, New: tup("x")})),
		"cut-short publish": endFrame(publishFrame(txn("a", 1, updates.Insert("R", tup("x"))))[:12]),
	} {
		rep := exchange(t, conn, r, req)
		if rep.err == nil {
			t.Errorf("%s: request accepted (epoch %d)", name, rep.epoch)
		} else if name == "unknown op" && !strings.Contains(rep.err.Error(), "unknown op 127") {
			t.Errorf("unknown op answered %v", rep.err)
		}
	}
	// The connection survives bad requests: a good request still works.
	if rep := exchange(t, conn, r, frame(opEpoch)); rep.err != nil {
		t.Errorf("epoch after errors: %v", rep.err)
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
	for name, req := range map[string][]byte{
		"no id":          publishFrame(&updates.Transaction{}),
		"seq 0":          publishFrame(txn("a", 0)),
		"no peer":        publishFrame(txn("", 3, updates.Insert("R", tup("x")))),
		"second no peer": publishFrame(txn("a", 1), txn("", 2)),
	} {
		if rep := rawRequest(t, srv.Addr(), req); rep.err == nil {
			t.Errorf("%s: answered epoch %d, want an error", name, rep.epoch)
		}
	}
	if txns, epoch, err := store.Since(0); err != nil || len(txns) != 0 || epoch != 0 {
		t.Errorf("archive after refused publishes: %d txns at epoch %d (%v)", len(txns), epoch, err)
	}
}

// A frame announcing more than MaxRequestBytes must not make the replica
// allocate it: the server answers with the typed error before reading any
// of it, drops the connection, and goes on serving others.
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
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxRequestBytes+1)
	if _, err := conn.Write(append(hdr[:], opEpoch)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	payload, err := readFrame(r)
	if err != nil {
		t.Fatalf("no answer to an oversized frame: %v", err)
	}
	if rep := decodeReply(t, payload); !errors.Is(rep.err, ErrFrameTooLarge) {
		t.Errorf("oversized frame answered %+v, want ErrFrameTooLarge", rep)
	}
	if _, err := r.ReadByte(); err == nil {
		t.Error("connection survived an oversized frame")
	}
	if rep := rawRequest(t, srv.Addr(), frame(opEpoch)); rep.err != nil {
		t.Errorf("epoch after an oversized frame: %v", rep.err)
	}
	// The client refuses to send such a frame at all.
	big := bytes.Repeat([]byte{'x'}, MaxRequestBytes)
	huge := txn("a", 1, updates.Insert("R", schema.Tuple{schema.String(string(big))}))
	if _, err := NewClient(srv.Addr()).Publish([]*updates.Transaction{huge}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("client sent an oversized publish: %v", err)
	}
}

// A response frame announcing more than MaxRequestBytes is refused by the
// client before it reads or allocates any of it.
func TestClientCapsResponseFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			return
		}
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[:], MaxRequestBytes+1)
		_, _ = conn.Write(append(hdr[:], statusOK, 0, 0))
		// Hold the connection open: the client must not wait for the rest.
		_, _ = conn.Read(make([]byte, 1))
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = NewClient(ln.Addr().String()).Epoch()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized response: %v, want ErrFrameTooLarge", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxRequestBytes/8 {
		t.Fatalf("refusing an oversized response allocated %d bytes", grew)
	}
}

// A since answer past MaxRequestBytes comes in pieces, each cut after a
// whole epoch, and Client.Since joins them into the whole tail. An epoch
// that alone passes the cap is refused with ErrFrameTooLarge rather than
// cut inside.
func TestClientSinceFetchesPastFrameCap(t *testing.T) {
	// Every transaction inserts the same one-MiB tuple, so the store holds
	// one copy of it; ten epochs of four come to a little over the cap.
	big := tup(strings.Repeat("x", 1<<20))
	store := NewMemoryStore()
	publish := func(seq uint64, n int) {
		var txns []*updates.Transaction
		for i := range n {
			txns = append(txns, txn("a", seq+uint64(i), updates.Insert("R", big)))
		}
		if _, err := store.Publish(txns); err != nil {
			t.Fatal(err)
		}
	}
	for e := range 10 {
		publish(uint64(4*e+1), 4)
	}
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if rep := rawRequest(t, srv.Addr(), frame(opSince, 0)); rep.err != nil || !rep.more || rep.epoch != 7 || len(rep.txns) != 28 {
		t.Fatalf("first answer: more %v, epoch %d, %d txns (%v); want cut after epoch 7, 28 txns", rep.more, rep.epoch, len(rep.txns), rep.err)
	}
	c := NewClient(srv.Addr())
	txns, epoch, err := c.Since(0)
	if err != nil || epoch != 10 || len(txns) != 40 {
		t.Fatalf("Since(0) = %d txns at epoch %d (%v), want 40 at 10", len(txns), epoch, err)
	}
	key := big.Key()
	for i, tx := range txns {
		if tx.ID.Seq != uint64(i+1) || tx.Epoch != uint64(i/4+1) || tx.Updates[0].New.Key() != key {
			t.Fatalf("txn %d: %s at epoch %d", i, tx.ID, tx.Epoch)
		}
	}
	publish(41, 33)
	if _, _, err := c.Since(10); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Since over an epoch past the cap: %v, want ErrFrameTooLarge", err)
	}
}

// A server that cuts a since answer without getting past the epoch asked
// from would have the client ask forever; the client refuses the answer.
func TestClientRefusesCutAnswerWithoutProgress(t *testing.T) {
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
			if _, err := readFrame(conn); err == nil {
				_, _ = conn.Write(frame(statusMore, 3, 0))
			}
			conn.Close()
		}
	}()
	if _, _, err := NewClient(ln.Addr().String()).Since(3); !errors.Is(err, ErrBadWire) {
		t.Fatalf("cut answer with no progress: %v, want ErrBadWire", err)
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
		req := frame(opEpoch)
		if i%2 == 1 {
			req = publishFrame(txn("a", uint64(i), updates.Insert("R", tup("x"))))
		}
		if rep := exchange(t, conn, r, req); rep.err != nil || rep.epoch != uint64(i+1)/2 {
			t.Fatalf("request %d: epoch %d, %v", i, rep.epoch, rep.err)
		}
	}
	rep := exchange(t, conn, r, endFrame(binary.AppendUvarint(append(beginFrame(nil), opSince), 1)))
	if rep.err != nil || rep.epoch != 2 || len(rep.txns) != 1 || rep.txns[0].ID.Seq != 3 {
		t.Fatalf("since 1 = %+v", rep)
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
