package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"orchestra/internal/codec"
	"orchestra/internal/updates"
)

// ErrBadWire reports TCP store frames or archived transactions no writer
// produces: an unknown op or status, bytes cut short or left over, and a
// transaction with no publishing peer, sequence number 0 (sequences start
// at 1), an unknown update op or an undecodable tuple or transaction id.
// Every failure of the protocol's and the archive's readers, and of
// DecodeTxn, wraps it (and the underlying parse error, when there is one).
var ErrBadWire = errors.New("p2p: malformed wire data")

// MaxRequestBytes caps one frame of the TCP store protocol, request or
// response: both sides read a frame's length first and refuse one longer
// than this before allocating anything. A publish of a hundred thousand
// typical transactions fits.
const MaxRequestBytes = 32 << 20

// ErrFrameTooLarge reports a frame longer than MaxRequestBytes. A server
// answers an oversized request with it and closes the connection; a client
// returns it for an oversized response, or for a request it will not send.
var ErrFrameTooLarge = errors.New("p2p: frame too large")

// The JSON form below is for inspection only: `orchestra log` prints it
// (EncodeTxn), and the repository benchmark's layer replay
// (bench/replay.go) prices it both ways. The TCP protocol and the durable
// archive both carry the binary updates.AppendTxn encoding. Tuples are
// their canonical injective keys (schema.Tuple.Key). Provenance does not
// travel — published transactions carry original updates whose provenance
// (their own tokens) is re-minted deterministically by the receiving
// side's exchange engine.

// WireUpdate is the JSON form of updates.Update.
type WireUpdate struct {
	Rel string `json:"rel"`
	Op  uint8  `json:"op"`
	Old string `json:"old,omitempty"`
	New string `json:"new,omitempty"`
}

// WireTxn is the JSON form of updates.Transaction.
type WireTxn struct {
	Peer    string       `json:"peer"`
	Seq     uint64       `json:"seq"`
	Epoch   uint64       `json:"epoch"`
	Updates []WireUpdate `json:"updates"`
	Deps    []string     `json:"deps,omitempty"`
}

// EncodeTxn converts a transaction to its JSON form (WireTxn).
func EncodeTxn(t *updates.Transaction) WireTxn {
	w := WireTxn{Peer: t.ID.Peer, Seq: t.ID.Seq, Epoch: t.Epoch}
	for _, u := range t.Updates {
		wu := WireUpdate{Rel: u.Rel, Op: uint8(u.Op)}
		if u.Old != nil {
			wu.Old = u.Old.Key()
		}
		if u.New != nil {
			wu.New = u.New.Key()
		}
		w.Updates = append(w.Updates, wu)
	}
	for _, d := range t.Deps {
		w.Deps = append(w.Deps, d.String())
	}
	return w
}

// DecodeTxn converts the JSON form back to a transaction. It spells the
// form in the AppendTxn layout and reads that with updates.ReadTxn, so the
// two forms refuse the same transactions; a dependency must also parse as
// "peer:seq". Every failure wraps ErrBadWire.
func DecodeTxn(w WireTxn) (*updates.Transaction, error) {
	buf := codec.AppendString(nil, w.Peer)
	buf = binary.AppendUvarint(buf, w.Seq)
	buf = binary.AppendUvarint(buf, w.Epoch)
	buf = binary.AppendUvarint(buf, uint64(len(w.Updates)))
	for _, u := range w.Updates {
		buf = codec.AppendString(buf, u.Rel)
		buf = append(buf, u.Op)
		buf = codec.AppendString(buf, u.Old)
		buf = codec.AppendString(buf, u.New)
	}
	buf = binary.AppendUvarint(buf, uint64(len(w.Deps)))
	for _, d := range w.Deps {
		id, err := updates.ParseTxnID(d)
		if err != nil {
			return nil, fmt.Errorf("%w: bad dep: %w", ErrBadWire, err)
		}
		buf = codec.AppendString(buf, id.Peer)
		buf = binary.AppendUvarint(buf, id.Seq)
	}
	t := &updates.Transaction{}
	r := codec.NewReader(buf, ErrBadWire)
	if updates.ReadTxn(r, t); r.Done() != nil {
		return nil, r.Err()
	}
	return t, nil
}

// The TCP store protocol (DESIGN.md §1). Every frame, in both directions,
// is a 4-byte little-endian payload length and the payload, read through
// codec.Reader with ErrBadWire as its sentinel:
//
//	request:  opPublish · count · count × updates.AppendTxn
//	          opSince · epoch
//	          opEpoch
//	response: statusOK · epoch · count · count × updates.AppendTxn (opSince only)
//	          statusMore · epoch · count · count × updates.AppendTxn
//	          statusErr · code byte (its index in wireSentinels, 0 for none) · message
//
// A since answer that would pass MaxRequestBytes is cut after the last
// whole epoch that fits and sent as statusMore with that epoch: the client
// asks again from it until an answer comes back statusOK.
const (
	opPublish, opSince, opEpoch     = 1, 2, 3
	statusOK, statusErr, statusMore = 0, 1, 2
	frameHeaderLen                  = 4
	// replyHeaderRoom holds the longest status, epoch and count.
	replyHeaderRoom = 1 + 2*binary.MaxVarintLen64
)

// wireSentinels are the errors whose identity survives the protocol.
var wireSentinels = []error{nil, ErrAlreadyPublished, ErrFrameTooLarge}

// beginFrame starts a frame in buf, reserving its length prefix.
func beginFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// endFrame fills in the length prefix of a frame beginFrame started.
func endFrame(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-frameHeaderLen))
	return frame
}

// appendTxns appends a count and the transactions' AppendTxn encodings.
func appendTxns(buf []byte, txns []*updates.Transaction) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(txns)))
	for _, t := range txns {
		buf = updates.AppendTxn(buf, t)
	}
	return buf
}

// readTxns reads what appendTxns wrote. A transaction ReadTxn accepts
// takes six bytes at least: a one-byte peer, seq, epoch and two counts.
func readTxns(r *codec.Reader) []*updates.Transaction {
	txns := make([]*updates.Transaction, r.Count("transaction", 6))
	for i := range txns {
		txns[i] = &updates.Transaction{}
		if updates.ReadTxn(r, txns[i]) != nil {
			return nil
		}
	}
	return txns
}

// replyFrame builds the success frame carrying txns, in epoch order as
// Store.Since returns them, and epoch. Past MaxRequestBytes the answer is
// cut after the last whole epoch that fits (statusMore); when not even the
// first epoch fits it fails with ErrFrameTooLarge. The transactions are
// encoded once, behind room for the longest header, and the header is
// written right before them.
func replyFrame(txns []*updates.Transaction, epoch uint64) ([]byte, error) {
	out := make([]byte, frameHeaderLen+replyHeaderRoom)
	status, n := byte(statusOK), len(txns)
	cutLen, cutN := 0, 0 // the frame's length and count at the last epoch boundary
	for i, t := range txns {
		if i > 0 && t.Epoch != txns[i-1].Epoch {
			cutLen, cutN = len(out), i
		}
		if out = updates.AppendTxn(out, t); len(out)-frameHeaderLen <= MaxRequestBytes {
			continue
		}
		if cutN == 0 {
			return nil, fmt.Errorf("%w: epoch %d alone passes the %d-byte cap", ErrFrameTooLarge, t.Epoch, MaxRequestBytes)
		}
		out, status, n, epoch = out[:cutLen], statusMore, cutN, txns[cutN-1].Epoch
		break
	}
	hdr := binary.AppendUvarint(binary.AppendUvarint([]byte{status}, epoch), uint64(n))
	start := frameHeaderLen + replyHeaderRoom - len(hdr)
	copy(out[start:], hdr)
	return endFrame(out[start-frameHeaderLen:]), nil
}

// readFrame reads one frame's payload, refusing a length over
// MaxRequestBytes with ErrFrameTooLarge before reading or allocating any of
// it. The buffer grows with the bytes that arrive, not with the length
// announced, so a peer that announces the cap and goes quiet holds no more
// memory than it sent.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxRequestBytes {
		return nil, fmt.Errorf("%w: %d-byte frame, cap %d", ErrFrameTooLarge, n, MaxRequestBytes)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(payload) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	return payload, err
}

// appendError appends an error response's payload.
func appendError(buf []byte, err error) []byte {
	code := 0
	for i, sentinel := range wireSentinels[1:] {
		if errors.Is(err, sentinel) {
			code = i + 1
		}
	}
	return codec.AppendString(append(buf, statusErr, byte(code)), err.Error())
}

// readReply decodes a response payload: a success's transactions and
// epoch, and whether the server cut the answer (statusMore), or the error
// the server reported, rebuilt as a *wireError. A payload no server writes
// fails with ErrBadWire.
func readReply(payload []byte) (txns []*updates.Transaction, epoch uint64, more bool, err error) {
	r := codec.NewReader(payload, ErrBadWire)
	switch status := r.Byte(); status {
	case statusOK, statusMore:
		epoch, txns, more = r.Uvarint(), readTxns(r), status == statusMore
	case statusErr:
		e := &wireError{}
		if code := int(r.Byte()); code < len(wireSentinels) {
			e.sentinel = wireSentinels[code]
		}
		e.msg, err = r.Str(), e
	default:
		r.Fail("unknown response status %d", status)
	}
	if r.Done() != nil {
		return nil, 0, false, r.Err()
	}
	return txns, epoch, more, err
}

// wireError is a server-reported error rebuilt on the client: Error()
// keeps the server's exact message, and Unwrap returns the sentinel its
// code named, so errors.Is(err, sentinel) holds across the protocol.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }
