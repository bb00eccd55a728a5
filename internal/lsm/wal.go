package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The write-ahead log is segmented: records append to wal-NNNNNN.log until
// the segment exceeds its size limit or a memtable flush rotates it. Each
// record is framed
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload]
//
// so replay detects torn tails (a crash mid-append) byte-exactly: an
// incomplete frame or checksum mismatch at the end of the final segment is
// truncated away with a warning — the longest durable prefix wins — while
// the same damage anywhere else is reported as corruption, because rotation
// only ever happens after a successful sync and so a torn record cannot
// legitimately appear mid-log.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const walHeaderLen = 8

type wal struct {
	dir  string
	f    *os.File
	seq  uint64
	size int64
	// segLimit rotates the active segment when exceeded; rotation between
	// flushes keeps any one replay bounded without waiting for a flush.
	segLimit int64
	// scratch assembles one frame so a record reaches the kernel in a single
	// Write call.
	scratch []byte
}

func walName(seq uint64) string { return fmt.Sprintf("wal-%06d.log", seq) }

// walSeq parses a segment file name, ok=false for non-WAL files.
func walSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listWALs returns the segment sequence numbers present in dir, ascending.
func listWALs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := walSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// openWAL starts a fresh segment with the given sequence number.
func openWAL(dir string, seq uint64, segLimit int64) (*wal, error) {
	f, err := os.OpenFile(filepath.Join(dir, walName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: open wal segment: %w", err)
	}
	return &wal{dir: dir, f: f, seq: seq, segLimit: segLimit}, nil
}

// append frames and writes one record without syncing. Callers group
// records and call sync once per commit window (batched fsync).
func (w *wal) append(payload []byte) error {
	w.scratch = w.scratch[:0]
	w.scratch = binary.LittleEndian.AppendUint32(w.scratch, uint32(len(payload)))
	w.scratch = binary.LittleEndian.AppendUint32(w.scratch, crc32.Checksum(payload, crcTable))
	w.scratch = append(w.scratch, payload...)
	n, err := w.f.Write(w.scratch)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("lsm: wal append: %w", err)
	}
	return nil
}

// sync makes everything appended so far durable.
func (w *wal) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("lsm: wal sync: %w", err)
	}
	return nil
}

// full reports whether the active segment passed its rotation threshold.
func (w *wal) full() bool { return w.segLimit > 0 && w.size >= w.segLimit }

// rotate syncs and closes the active segment and opens the next one.
func (w *wal) rotate() error {
	if err := w.sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("lsm: wal close: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(w.dir, walName(w.seq+1)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("lsm: open wal segment: %w", err)
	}
	w.f, w.seq, w.size = f, w.seq+1, 0
	return nil
}

func (w *wal) close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// replayWAL feeds every intact record of the listed segments, in order, to
// fn. A torn tail on the final segment is truncated in place (with a
// warning); damage anywhere else fails the replay.
func replayWAL(dir string, seqs []uint64, fn func(payload []byte) error) error {
	for i, seq := range seqs {
		last := i == len(seqs)-1
		if err := replaySegment(filepath.Join(dir, walName(seq)), last, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, allowTornTail bool, fn func(payload []byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("lsm: read wal segment: %w", err)
	}
	off := 0
	for off < len(data) {
		rest := data[off:]
		torn := ""
		if len(rest) < walHeaderLen {
			torn = "incomplete frame header"
		} else {
			n := int(binary.LittleEndian.Uint32(rest[:4]))
			want := binary.LittleEndian.Uint32(rest[4:8])
			if len(rest) < walHeaderLen+n {
				torn = "incomplete payload"
			} else if crc32.Checksum(rest[walHeaderLen:walHeaderLen+n], crcTable) != want {
				torn = "checksum mismatch"
			} else {
				if err := fn(rest[walHeaderLen : walHeaderLen+n]); err != nil {
					return fmt.Errorf("lsm: wal record in %s at offset %d: %w", path, off, err)
				}
				off += walHeaderLen + n
				continue
			}
		}
		if !allowTornTail {
			return fmt.Errorf("%w: wal record in %s at offset %d: %s", ErrCorrupt, path, off, torn)
		}
		log.Printf("lsm: truncating torn wal tail in %s at offset %d (%s): keeping the longest durable prefix", path, off, torn)
		if err := os.Truncate(path, int64(off)); err != nil {
			return fmt.Errorf("lsm: truncate torn wal tail: %w", err)
		}
		return nil
	}
	return nil
}
