package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeRawSST writes segment num of dir from raw data, index and bloom
// blocks under a footer whose metadata checksum matches, so open gets past
// every check but the decoding, and returns a manifest record spanning every
// key.
func writeRawSST(t testing.TB, dir string, num uint64, data, index, bloom []byte) tableMeta {
	t.Helper()
	file := append(append(append([]byte(nil), data...), index...), bloom...)
	meta := file[len(data):]
	var footer [sstFooterLen]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(len(data)))
	binary.LittleEndian.PutUint64(footer[8:], uint64(len(index)))
	binary.LittleEndian.PutUint64(footer[16:], uint64(len(data)+len(index)))
	binary.LittleEndian.PutUint64(footer[24:], uint64(len(bloom)))
	binary.LittleEndian.PutUint32(footer[32:], crc32.Checksum(meta, crcTable))
	binary.LittleEndian.PutUint64(footer[36:], sstMagic)
	if err := os.WriteFile(filepath.Join(dir, sstName(num)), append(file, footer[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	return tableMeta{Num: num, Min: []byte{}, Max: bytes.Repeat([]byte{0xff}, 8)}
}

// splitSST cuts a segment file into its data, index and bloom blocks.
func splitSST(t testing.TB, path string) (data, index, bloom []byte) {
	t.Helper()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := file[len(file)-sstFooterLen:]
	indexOff := binary.LittleEndian.Uint64(footer[0:])
	indexLen := binary.LittleEndian.Uint64(footer[8:])
	return file[:indexOff], file[indexOff : indexOff+indexLen], file[indexOff+indexLen : len(file)-sstFooterLen]
}

// readSegment opens a segment and reads all of it: a full scan, then a
// point lookup of every key the scan returned. It returns the entries read
// and the first failure.
func readSegment(dir string, tm tableMeta) ([]sstEntry, error) {
	r, err := openSSTable(dir, tm, dbMetrics{})
	if err != nil {
		return nil, err
	}
	defer r.f.Close()
	var out []sstEntry
	it := r.iter(nil, nil)
	for ; it.valid; it.next() {
		out = append(out, sstEntry{key: it.cur.key, val: it.cur.val, del: it.cur.del})
	}
	if it.err != nil {
		return out, it.err
	}
	for _, e := range out {
		if _, _, _, err := r.get(e.key); err != nil {
			return out, err
		}
	}
	// A key inside the segment's range but absent still reads its block.
	_, _, _, err = r.get([]byte{})
	return out, err
}

// Segment bytes whose checksums match but that no writer produces are
// refused with ErrCorrupt, at open or at the read that meets them — never
// a panic, and never an allocation sized by a length open did not check.
func TestSSTableRefusesHostileBytes(t *testing.T) {
	indexEntry := func(key []byte, off, n uint64, crc uint32) []byte {
		b := binary.AppendUvarint(nil, uint64(len(key)))
		b = append(b, key...)
		b = binary.AppendUvarint(b, off)
		b = binary.AppendUvarint(b, n)
		return binary.LittleEndian.AppendUint32(b, crc)
	}
	oneBlock := func(data []byte) []byte {
		return append([]byte{1}, indexEntry(nil, 0, uint64(len(data)), crc32.Checksum(data, crcTable))...)
	}
	noBloom := []byte{0}
	// An entry whose key length plus value length wraps around to 2.
	wrapping := binary.AppendUvarint(nil, 1<<64-2)
	wrapping = binary.AppendUvarint(wrapping, 4<<1)
	wrapping = append(wrapping, "xy"...)
	for _, tc := range []struct {
		name               string
		data, index, bloom []byte
		want               string
	}{
		{
			name:  "index offset varint overflows",
			data:  []byte{0, 0},
			index: append([]byte{1, 0}, append(bytes.Repeat([]byte{0xff}, 11), 1, 0, 0, 0, 0)...),
			bloom: noBloom,
			want:  "bad varint",
		},
		{
			name:  "block length past the data region",
			data:  []byte{0, 0},
			index: append([]byte{1}, indexEntry(nil, 0, 1<<62, 0)...),
			bloom: noBloom,
			want:  "outside the 2-byte data region",
		},
		{
			name:  "block offset past the data region",
			data:  []byte{0, 0},
			index: append([]byte{1}, indexEntry(nil, 3, 0, 0)...),
			bloom: noBloom,
			want:  "outside the 2-byte data region",
		},
		{
			name:  "entry lengths wrap around",
			data:  wrapping,
			index: oneBlock(wrapping),
			bloom: noBloom,
			want:  "bytes overrun",
		},
		{
			name:  "index count past its bytes",
			data:  []byte{0, 0},
			index: []byte{200, 1, 0, 0, 0, 0, 0, 0, 0},
			bloom: noBloom,
			want:  "index entry count 200",
		},
		{
			name:  "bloom bits short of their count",
			data:  []byte{2, 0, 'k', 'v'},
			index: oneBlock([]byte{2, 0, 'k', 'v'}),
			bloom: []byte{64, 0},
			want:  "8 bytes overrun the 1 left",
		},
		{
			name:  "index trailing bytes",
			data:  []byte{2, 0, 'k', 'v'},
			index: append(oneBlock([]byte{2, 0, 'k', 'v'}), 9),
			bloom: noBloom,
			want:  "1 trailing bytes",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tm := writeRawSST(t, dir, 1, tc.data, tc.index, tc.bloom)
			_, err := readSegment(dir, tm)
			if !errors.Is(err, ErrCorrupt) || !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("read = %v, want ErrCorrupt saying %q", err, tc.want)
			}
		})
	}
}

// A footer whose offsets and lengths sum to the file size only by wrapping
// around is refused before anything is read or allocated.
func TestSSTableRefusesWrappingFooter(t *testing.T) {
	dir := t.TempDir()
	tm := writeRawSST(t, dir, 1, []byte{0, 0}, []byte{0}, []byte{0})
	path := filepath.Join(dir, sstName(1))
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := file[len(file)-sstFooterLen:]
	binary.LittleEndian.PutUint64(footer[8:], 1<<64-1) // index length
	binary.LittleEndian.PutUint64(footer[24:], 2)      // bloom length: the sum wraps to 4
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSSTable(dir, tm, dbMetrics{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open = %v, want ErrCorrupt", err)
	}
}

// A WAL batch and a manifest the writers produced read back exactly, and
// cutting either short is refused with ErrCorrupt.
func TestRecordsRoundTripAndRefuseTruncation(t *testing.T) {
	b := NewBatch()
	b.Put([]byte("k1"), []byte("v1"))
	b.Delete([]byte("k2"))
	b.Put([]byte("k3"), nil)
	payload := b.encode()
	var ops []batchOp
	if err := decodeBatch(payload, func(key, val []byte, del bool) {
		ops = append(ops, batchOp{key: key, val: val, del: del})
	}); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 || string(ops[0].val) != "v1" || !ops[1].del || ops[2].del {
		t.Fatalf("decoded %+v", ops)
	}
	// A cut between two operations leaves a shorter batch; any other is
	// refused.
	for n := 1; n < len(payload); n++ {
		err := decodeBatch(payload[:n], func(_, _ []byte, _ bool) {})
		if between := n == 7 || n == 11; between != (err == nil) || err != nil && !errors.Is(err, ErrCorrupt) {
			t.Errorf("batch cut to %d bytes: %v", n, err)
		}
	}

	m := &manifest{NextFile: 7, WALFloor: 3, Tables: []tableMeta{
		{Num: 4, Size: 4096, Min: []byte("a"), Max: []byte("q")},
		{Num: 6, Size: 100, Min: []byte{}, Max: []byte{0}},
	}}
	enc := m.encode()
	got, err := decodeManifest(enc)
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest round trip = %+v, %v; want %+v", got, err, m)
	}
	for n := range len(enc) {
		if _, err := decodeManifest(enc[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("manifest cut to %d bytes: %v, want ErrCorrupt", n, err)
		}
	}
}

// A directory whose MANIFEST is the JSON of version 1 fails Open with
// ErrCorrupt and says why: there is no migration.
func TestOpenRefusesJSONManifest(t *testing.T) {
	dir := t.TempDir()
	old := `{"version":1,"next_file":1,"wal_floor":1,"tables":[]}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, Options{})
	if err == nil {
		db.Close()
		t.Fatal("Open accepted a JSON manifest")
	}
	if !errors.Is(err, ErrCorrupt) || !bytes.Contains([]byte(err.Error()), []byte("version 123, want 2; a version-1 (JSON) manifest")) {
		t.Fatalf("Open = %v, want ErrCorrupt naming the JSON manifest", err)
	}
}

// FuzzDecodeBatch holds the WAL batch decoder to its contract on arbitrary
// payloads: a typed error, or operations that re-encode to exactly the
// payload.
func FuzzDecodeBatch(f *testing.F) {
	b := NewBatch()
	b.Put([]byte("a/t/1"), []byte("txn"))
	b.Delete([]byte("c/x"))
	b.Put(nil, nil)
	f.Add(b.encode())
	f.Add([]byte{3, 0})
	f.Add([]byte{opPut, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, payload []byte) {
		again := NewBatch()
		err := decodeBatch(payload, func(key, val []byte, del bool) {
			if del {
				again.Delete(key)
			} else {
				again.Put(key, val)
			}
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if got := again.encode(); !bytes.Equal(got, payload) {
			t.Fatalf("decoded % x, which re-encodes as % x", payload, got)
		}
	})
}

// FuzzOpenSSTable opens a segment made of arbitrary data, index and bloom
// blocks under a footer whose checksum matches, and reads all of it: every
// failure is typed, and nothing panics.
func FuzzOpenSSTable(f *testing.F) {
	dir := f.TempDir()
	var entries []sstEntry
	for i := range 40 {
		entries = append(entries, sstEntry{key: fmt.Appendf(nil, "k%03d", i), val: bytes.Repeat([]byte{'v'}, i), del: i%7 == 0})
	}
	tm, err := writeSSTable(dir, 1, entries, 128)
	if err != nil {
		f.Fatal(err)
	}
	if got, err := readSegment(dir, tm); err != nil || len(got) != len(entries) {
		f.Fatalf("written segment read back %d entries, %v; want %d", len(got), err, len(entries))
	}
	data, index, bloom := splitSST(f, filepath.Join(dir, sstName(tm.Num)))
	f.Add(data, index, bloom)
	f.Add([]byte{2, 0, 'k', 'v'}, append([]byte{1, 0, 0, 4}, 0, 0, 0, 0), []byte{0})
	f.Fuzz(func(t *testing.T, data, index, bloom []byte) {
		dir := t.TempDir()
		if _, err := readSegment(dir, writeRawSST(t, dir, 1, data, index, bloom)); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped error %v", err)
		}
	})
}

// FuzzDecodeManifest holds the MANIFEST decoder to its contract on
// arbitrary bytes: a typed error, or a manifest that re-encodes to exactly
// the input.
func FuzzDecodeManifest(f *testing.F) {
	f.Add((&manifest{NextFile: 1, WALFloor: 1}).encode())
	f.Add((&manifest{NextFile: 9, WALFloor: 4, Tables: []tableMeta{{Num: 3, Size: 812, Min: []byte("a/t/"), Max: []byte("c/z")}}}).encode())
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if got := m.encode(); !bytes.Equal(got, data) {
			t.Fatalf("decoded % x, which re-encodes as % x", data, got)
		}
	})
}
