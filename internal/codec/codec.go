// Package codec is the one reader of every variable-length binary record
// the program reads from a file or a socket (DESIGN.md §13): transactions,
// engine blobs, checkpoint, journal and snapshot records, the TCP store's
// frames, and lsm's WAL batches, SSTable metadata and blocks and MANIFEST.
// Every format writes unsigned and zig-zag varints, single bytes,
// length-prefixed strings (AppendString) and byte runs whose length it
// wrote elsewhere, and reads them back through a Reader, which refuses
// what no writer produces: a varint in a longer spelling than its
// shortest, a length or count the remaining bytes cannot hold, and bytes
// left over after the value. A format keeps its own sentinel error, which
// every failure of its Reader wraps.
package codec

import (
	"encoding/binary"
	"fmt"
)

// AppendString appends s with its uvarint length prefix.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Reader is a cursor over one encoded value with a sticky error: after the
// first failure every read returns a zero value, and Err reports that
// failure.
type Reader struct {
	buf   []byte
	err   error
	bad   error
	names map[string]string // see Name
}

// NewReader returns a Reader over buf whose failures wrap bad, the
// format's sentinel error.
func NewReader(buf []byte, bad error) *Reader {
	return &Reader{buf: buf, bad: bad}
}

// Reset points the reader at the next value of a run, clearing its
// failure and keeping the names it shares, so a scan over many values
// shares them too.
func (r *Reader) Reset(buf []byte) { r.buf, r.err = buf, nil }

// Fail records a failure unless one is recorded already, wrapping the
// format's sentinel. A format calls it for content its writer never
// produces: an unknown enum value, names out of order, and the like.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.bad}, args...)...)
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or a failure if bytes are left over: a
// value ends where its encoding does.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.Fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// Uvarint reads an unsigned varint in its shortest spelling.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail("truncated (bad varint)")
		return 0
	}
	// binary.AppendUvarint never ends a varint in a zero byte after the
	// first: that spelling adds only leading zero bits.
	if n > 1 && r.buf[n-1] == 0 {
		r.Fail("overlong varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag varint in its shortest spelling.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.Fail("truncated (missing byte)")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Len returns the number of bytes left, so a format without a count — a
// run of records that ends where its buffer does — knows when to stop.
func (r *Reader) Len() int { return len(r.buf) }

// Next reads a run of n bytes whose length the format wrote elsewhere. The
// result aliases the reader's buffer; it is nil after a failure.
func (r *Reader) Next(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.Fail("truncated (%d bytes overrun the %d left)", n, len(r.buf))
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Bytes reads a length-prefixed byte string. The result aliases the
// reader's buffer.
func (r *Reader) Bytes() []byte { return r.Next(r.Uvarint()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Name reads a length-prefixed string that repeats throughout the value —
// a peer or a relation name — and returns one shared copy of each.
func (r *Reader) Name() string {
	b := r.Bytes()
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	if r.names == nil {
		r.names = map[string]string{}
	}
	s := string(b)
	r.names[s] = s
	return s
}

// Count reads the number of items of a section whose every item encodes to
// at least minBytes, refusing a count the remaining bytes cannot hold — so
// a corrupt count fails here instead of sizing an allocation.
func (r *Reader) Count(what string, minBytes int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.buf)/minBytes) {
		r.Fail("%s count %d exceeds what the %d remaining bytes can hold", what, n, len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}
