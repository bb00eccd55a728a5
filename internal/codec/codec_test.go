package codec

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"unsafe"
)

var errFormat = errors.New("test format")

// What every writer produces reads back exactly, and the value ends where
// its encoding does.
func TestReaderRoundTrip(t *testing.T) {
	var buf []byte
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendVarint(buf, -7)
	buf = append(buf, 0xfe)
	buf = AppendString(buf, "alaska")
	buf = AppendString(buf, "")
	buf = binary.AppendUvarint(buf, 2)
	buf = append(buf, 1, 2)
	r := NewReader(buf, errFormat)
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d, want 300", got)
	}
	if got := r.Varint(); got != -7 {
		t.Errorf("Varint = %d, want -7", got)
	}
	if got := r.Byte(); got != 0xfe {
		t.Errorf("Byte = %#x, want 0xfe", got)
	}
	if got := r.Name(); got != "alaska" {
		t.Errorf("Name = %q, want alaska", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("Str = %q, want empty", got)
	}
	if n := r.Count("items", 1); n != 2 {
		t.Errorf("Count = %d, want 2", n)
	}
	if a, b := r.Byte(), r.Byte(); a != 1 || b != 2 {
		t.Errorf("items = %d %d, want 1 2", a, b)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
}

// Every refusal wraps the format's sentinel and names what went wrong.
func TestReaderRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string
	}{
		{"overlong uvarint", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "overlong varint"},
		{"overlong varint", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Varint() }, "overlong varint"},
		{"overlong length", []byte{0x81, 0x00, 'x'}, func(r *Reader) { r.Str() }, "overlong varint"},
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "bad varint"},
		{"empty varint", nil, func(r *Reader) { r.Uvarint() }, "bad varint"},
		{"truncated byte", nil, func(r *Reader) { r.Byte() }, "missing byte"},
		{"truncated string", []byte{0x03, 'a', 'b'}, func(r *Reader) { r.Str() }, "3 bytes overrun the 2 left"},
		{"truncated name", []byte{0x02, 'a'}, func(r *Reader) { r.Name() }, "2 bytes overrun the 1 left"},
		{"bytes overrun", []byte{0x05, 1, 2}, func(r *Reader) { r.Bytes() }, "5 bytes overrun the 2 left"},
		{"run overrun", []byte{1, 2}, func(r *Reader) { r.Next(3) }, "3 bytes overrun the 2 left"},
		{"run past any length", []byte{1}, func(r *Reader) { r.Next(1<<64 - 1) }, "18446744073709551615 bytes overrun the 1 left"},
		{"count over remaining", []byte{0x02, 1, 1, 1}, func(r *Reader) { r.Count("rows", 2) }, "rows count 2 exceeds what the 3 remaining bytes can hold"},
		{"trailing bytes", []byte{0x01, 0x02}, func(r *Reader) { r.Uvarint() }, "1 trailing bytes"},
		{"format failure", []byte{0x09}, func(r *Reader) { r.Fail("unknown op %d", r.Byte()) }, "unknown op 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.in, errFormat)
			tc.read(r)
			err := r.Done()
			if !errors.Is(err, errFormat) {
				t.Fatalf("Done = %v, want an error wrapping %v", err, errFormat)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Done = %q, want it to say %q", err, tc.want)
			}
		})
	}
}

// Next reads a run of the given length without a prefix, aliasing the
// buffer with its capacity capped, and Len counts down to the end.
func TestReaderNextAndLen(t *testing.T) {
	buf := []byte{1, 2, 3, 4, 5}
	r := NewReader(buf, errFormat)
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	run := r.Next(2)
	if string(run) != "\x01\x02" || cap(run) != 2 || &run[0] != &buf[0] {
		t.Fatalf("Next(2) = %v (cap %d), want the buffer's first two bytes", run, cap(run))
	}
	if r.Len() != 3 || len(r.Next(0)) != 0 || r.Len() != 3 {
		t.Fatalf("Len after Next = %d, want 3", r.Len())
	}
	r.Next(3)
	if err := r.Done(); err != nil || r.Len() != 0 {
		t.Fatalf("Done = %v, Len = %d; want nil, 0", err, r.Len())
	}
}

// A count each item of which fits is accepted, to the last byte.
func TestReaderCountAtCapacity(t *testing.T) {
	r := NewReader([]byte{0x03, 1, 1, 1}, errFormat)
	if n := r.Count("rows", 1); n != 3 || r.Err() != nil {
		t.Fatalf("Count = %d, %v; want 3, nil", n, r.Err())
	}
}

// After the first failure every read returns a zero value, and later
// failures do not replace the first.
func TestReaderErrorIsSticky(t *testing.T) {
	r := NewReader([]byte{0x80, 0x00, 0x07, 'x', 0x02, 'a', 'b'}, errFormat)
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("overlong Uvarint = %d, want 0", got)
	}
	first := r.Err()
	if first == nil || !strings.Contains(first.Error(), "overlong") {
		t.Fatalf("Err = %v, want the overlong varint", first)
	}
	if b, s, n, c := r.Byte(), r.Str(), r.Varint(), r.Count("rows", 1); b != 0 || s != "" || n != 0 || c != 0 {
		t.Fatalf("reads after a failure = %d %q %d %d, want zero values", b, s, n, c)
	}
	if r.Bytes() != nil || r.Name() != "" {
		t.Fatal("Bytes or Name after a failure returned data")
	}
	r.Fail("later failure")
	if err := r.Done(); err != first {
		t.Fatalf("Done = %v, want the first failure %v", err, first)
	}
}

// Name hands out one copy of each name, across Reset too, and the copy does
// not alias the buffer it was read from; Reset clears the failure.
func TestReaderNameSharedAcrossReset(t *testing.T) {
	a := AppendString(nil, "beijing")
	r := NewReader(a, errFormat)
	first := r.Name()
	r.Reset([]byte{0x80})
	r.Uvarint()
	if r.Err() == nil {
		t.Fatal("truncated varint accepted")
	}
	b := AppendString(nil, "beijing")
	r.Reset(b)
	if r.Err() != nil {
		t.Fatalf("Reset kept the failure %v", r.Err())
	}
	second := r.Name()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if second != "beijing" || unsafe.StringData(first) != unsafe.StringData(second) {
		t.Fatalf("Name across Reset = %q at %p, want the first copy at %p", second, unsafe.StringData(second), unsafe.StringData(first))
	}
	a[1], b[1] = 'X', 'X'
	if first != "beijing" {
		t.Fatalf("Name aliases its buffer: %q", first)
	}
}
