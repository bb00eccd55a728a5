package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"orchestra/internal/codec"
)

// SSTable segment format (sst-NNNNNN.sst):
//
//	[data block]* [index block] [bloom block] [footer]
//
// Data blocks hold sorted entries, each framed
// `uvarint klen · uvarint (vlen<<1 | tombstone) · key · value`, split at
// ~BlockBytes boundaries; an entry of BlockBytes or more starts a block of
// its own, so a scan of its neighbours never reads it (an engine blob is
// megabytes, next to the checkpoint records recovery walks). The index block
// is sparse — one entry per data block: the block's first key, its offset
// and length, and a CRC-32C over its bytes, verified on every read. The
// bloom block summarizes every key in the segment (10 bits/key, 7 probes)
// so point lookups skip segments that cannot contain the key. The
// fixed-size footer locates the index and bloom blocks, checksums them,
// and carries a magic number that guards against opening foreign or
// truncated files.

const (
	sstMagic     = 0x4f52434845535431 // "ORCHEST1"
	sstFooterLen = 8*4 + 4 + 8

	bloomBitsPerKey = 10
	bloomProbes     = 7
)

func sstName(num uint64) string { return fmt.Sprintf("sst-%06d.sst", num) }

// tableMeta is the manifest's record of one live segment.
type tableMeta struct {
	Num  uint64
	Size int64
	// Min and Max are the segment's first and last keys (inclusive).
	Min []byte
	Max []byte
}

type blockMeta struct {
	firstKey []byte
	off      uint64
	len      uint64
	crc      uint32
}

// bloomFilter is a classic double-hashing Bloom filter.
type bloomFilter struct {
	bits  []byte
	nbits uint64
}

func newBloom(nkeys int) bloomFilter {
	nbits := uint64(nkeys*bloomBitsPerKey + 64)
	return bloomFilter{bits: make([]byte, (nbits+7)/8), nbits: nbits}
}

func bloomHash(key []byte) (uint64, uint64) {
	h := fnv.New64a()
	h.Write(key)
	s := h.Sum64()
	h1 := s & 0xffffffff
	h2 := s >> 32
	if h2 == 0 {
		h2 = 0x9e3779b9
	}
	return h1, h2
}

func (b bloomFilter) add(key []byte) {
	h1, h2 := bloomHash(key)
	for i := uint64(0); i < bloomProbes; i++ {
		bit := (h1 + i*h2) % b.nbits
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (b bloomFilter) mayContain(key []byte) bool {
	if b.nbits == 0 {
		return true
	}
	h1, h2 := bloomHash(key)
	for i := uint64(0); i < bloomProbes; i++ {
		bit := (h1 + i*h2) % b.nbits
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// sstEntry is one key/value (or tombstone) flowing into a writer.
type sstEntry struct {
	key []byte
	val []byte
	del bool
}

// writeSSTable writes entries (already sorted ascending, unique keys) as
// segment number num in dir, fsyncs it, and returns its manifest record.
func writeSSTable(dir string, num uint64, entries []sstEntry, blockBytes int) (tableMeta, error) {
	if len(entries) == 0 {
		return tableMeta{}, fmt.Errorf("lsm: writeSSTable with no entries")
	}
	if blockBytes <= 0 {
		blockBytes = 4096
	}
	path := filepath.Join(dir, sstName(num))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return tableMeta{}, fmt.Errorf("lsm: create sstable: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<16)

	bloom := newBloom(len(entries))
	var (
		index   []blockMeta
		block   []byte
		blockAt uint64
		off     uint64
		first   []byte
	)
	flushBlock := func() {
		if len(block) == 0 {
			return
		}
		index = append(index, blockMeta{
			firstKey: first,
			off:      blockAt,
			len:      uint64(len(block)),
			crc:      crc32.Checksum(block, crcTable),
		})
		w.Write(block)
		off += uint64(len(block))
		block = block[:0]
		first = nil
	}
	for _, e := range entries {
		bloom.add(e.key)
		if len(e.key)+len(e.val) >= blockBytes {
			flushBlock() // a large entry gets a block of its own
		}
		if first == nil {
			first = append([]byte(nil), e.key...)
			blockAt = off
		}
		block = binary.AppendUvarint(block, uint64(len(e.key)))
		flag := uint64(len(e.val)) << 1
		if e.del {
			flag |= 1
		}
		block = binary.AppendUvarint(block, flag)
		block = append(block, e.key...)
		block = append(block, e.val...)
		if len(block) >= blockBytes {
			flushBlock()
		}
	}
	flushBlock()

	// Index block.
	var meta []byte
	meta = binary.AppendUvarint(meta, uint64(len(index)))
	for _, bm := range index {
		meta = binary.AppendUvarint(meta, uint64(len(bm.firstKey)))
		meta = append(meta, bm.firstKey...)
		meta = binary.AppendUvarint(meta, bm.off)
		meta = binary.AppendUvarint(meta, bm.len)
		meta = binary.LittleEndian.AppendUint32(meta, bm.crc)
	}
	indexOff, indexLen := off, uint64(len(meta))
	// Bloom block.
	meta = binary.AppendUvarint(meta, bloom.nbits)
	meta = append(meta, bloom.bits...)
	bloomOff, bloomLen := indexOff+indexLen, uint64(len(meta))-indexLen
	metaCRC := crc32.Checksum(meta, crcTable)
	w.Write(meta)

	var footer [sstFooterLen]byte
	binary.LittleEndian.PutUint64(footer[0:], indexOff)
	binary.LittleEndian.PutUint64(footer[8:], indexLen)
	binary.LittleEndian.PutUint64(footer[16:], bloomOff)
	binary.LittleEndian.PutUint64(footer[24:], bloomLen)
	binary.LittleEndian.PutUint32(footer[32:], metaCRC)
	binary.LittleEndian.PutUint64(footer[36:], sstMagic)
	w.Write(footer[:])
	if err := w.Flush(); err != nil {
		return tableMeta{}, fmt.Errorf("lsm: write sstable: %w", err)
	}
	if err := f.Sync(); err != nil {
		return tableMeta{}, fmt.Errorf("lsm: sync sstable: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return tableMeta{}, err
	}
	return tableMeta{
		Num:  num,
		Size: st.Size(),
		Min:  append([]byte(nil), entries[0].key...),
		Max:  append([]byte(nil), entries[len(entries)-1].key...),
	}, nil
}

// sstReader serves point lookups and range scans over one open segment.
// The sparse index and bloom filter live in memory; data blocks are read
// (and checksum-verified) on demand.
type sstReader struct {
	f     *os.File
	meta  tableMeta
	index []blockMeta
	bloom bloomFilter
	// met carries the owning DB's metric handles (zero value = disabled);
	// copied in at open so reads need no DB back-pointer.
	met dbMetrics
	// refs counts owners (the DB plus live snapshots); the file closes when
	// it reaches zero, letting compaction unlink segments under snapshots.
	refs atomic.Int32
}

// openSSTable opens segment meta.Num of dir with one reference, the DB's,
// reporting reads to met.
func openSSTable(dir string, meta tableMeta, met dbMetrics) (_ *sstReader, err error) {
	path := filepath.Join(dir, sstName(meta.Num))
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: open sstable: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			err = fmt.Errorf("lsm: sstable %s: %w", path, err)
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < sstFooterLen {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrCorrupt, st.Size())
	}
	var footer [sstFooterLen]byte
	if _, err := f.ReadAt(footer[:], st.Size()-sstFooterLen); err != nil {
		return nil, fmt.Errorf("read footer: %w", err)
	}
	if binary.LittleEndian.Uint64(footer[36:]) != sstMagic {
		return nil, fmt.Errorf("%w: no valid footer magic", ErrCorrupt)
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:])
	indexLen := binary.LittleEndian.Uint64(footer[8:])
	bloomLen := binary.LittleEndian.Uint64(footer[24:])
	// The blocks tile the file up to the footer, checked without sums that wrap.
	body := uint64(st.Size()) - sstFooterLen
	if indexOff > body || indexLen > body-indexOff || bloomLen != body-indexOff-indexLen {
		return nil, fmt.Errorf("%w: metadata does not span the file", ErrCorrupt)
	}
	metaBytes := make([]byte, indexLen+bloomLen)
	if _, err := f.ReadAt(metaBytes, int64(indexOff)); err != nil {
		return nil, fmt.Errorf("read metadata: %w", err)
	}
	if crc32.Checksum(metaBytes, crcTable) != binary.LittleEndian.Uint32(footer[32:]) {
		return nil, fmt.Errorf("%w: metadata checksum mismatch", ErrCorrupt)
	}
	r := &sstReader{f: f, meta: meta, met: met}
	r.refs.Store(1)
	r.index, r.bloom, err = decodeSSTMeta(metaBytes[:indexLen], metaBytes[indexLen:], indexOff)
	return r, err
}

// decodeSSTMeta reads a segment's index and bloom blocks. An index entry's
// block must lie inside the data region [0, dataLen), so a block read never
// sizes its buffer from unchecked bytes. Index keys alias index.
func decodeSSTMeta(index, bloom []byte, dataLen uint64) ([]blockMeta, bloomFilter, error) {
	r := codec.NewReader(index, ErrCorrupt)
	// An entry takes at least seven bytes: three varints and its CRC.
	blocks := make([]blockMeta, 0, r.Count("index entry", 7))
	for range cap(blocks) {
		bm := blockMeta{firstKey: r.Bytes(), off: r.Uvarint(), len: r.Uvarint()}
		if crc := r.Next(4); crc != nil {
			bm.crc = binary.LittleEndian.Uint32(crc)
		}
		if r.Err() == nil && (bm.off > dataLen || bm.len > dataLen-bm.off) {
			r.Fail("index entry %d: block [%d, +%d) outside the %d-byte data region", len(blocks), bm.off, bm.len, dataLen)
		}
		blocks = append(blocks, bm)
	}
	if err := r.Done(); err != nil {
		return nil, bloomFilter{}, fmt.Errorf("index: %w", err)
	}
	r.Reset(bloom)
	b := bloomFilter{nbits: r.Uvarint()}
	b.bits = r.Next(b.nbits/8 + min(b.nbits%8, 1))
	if err := r.Done(); err != nil {
		return nil, bloomFilter{}, fmt.Errorf("bloom block: %w", err)
	}
	return blocks, b, nil
}

// loadBlock reads and checksum-verifies one data block.
func (r *sstReader) loadBlock(i int) ([]byte, error) {
	bm := r.index[i]
	buf := make([]byte, bm.len)
	if _, err := r.f.ReadAt(buf, int64(bm.off)); err != nil {
		return nil, fmt.Errorf("lsm: read sstable block: %w", err)
	}
	if crc32.Checksum(buf, crcTable) != bm.crc {
		return nil, fmt.Errorf("%w: sstable %s block %d checksum mismatch", ErrCorrupt, r.f.Name(), i)
	}
	r.met.blockReads.Inc()
	return buf, nil
}

// blockFor returns the index of the last block whose first key is <= key,
// or -1 when key precedes the whole segment.
func (r *sstReader) blockFor(key []byte) int {
	return sort.Search(len(r.index), func(i int) bool {
		return bytes.Compare(r.index[i].firstKey, key) > 0
	}) - 1
}

// get returns the stored value (or tombstone) for key.
func (r *sstReader) get(key []byte) (val []byte, del, ok bool, err error) {
	if bytes.Compare(key, r.meta.Min) < 0 || bytes.Compare(key, r.meta.Max) > 0 {
		return nil, false, false, nil
	}
	r.met.bloomChecks.Inc()
	if !r.bloom.mayContain(key) {
		r.met.bloomSkips.Inc()
		return nil, false, false, nil
	}
	bi := r.blockFor(key)
	if bi < 0 {
		return nil, false, false, nil
	}
	block, err := r.loadBlock(bi)
	if err != nil {
		return nil, false, false, err
	}
	cur := blockCursor{r: *codec.NewReader(block, ErrCorrupt)}
	for cur.next() {
		switch bytes.Compare(cur.key, key) {
		case 0:
			return cur.val, cur.del, true, nil
		case 1:
			return nil, false, false, nil
		}
	}
	return nil, false, false, r.blockErr(bi, cur.r.Err())
}

// blockErr names the segment and block of a data-block entry the cursor
// refused (nil when it refused none).
func (r *sstReader) blockErr(i int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("lsm: sstable %s block %d: %w", r.f.Name(), i, err)
}

// blockCursor walks the entries of one data block; a failure stays in r,
// wrapping ErrCorrupt.
type blockCursor struct {
	r   codec.Reader
	key []byte
	val []byte
	del bool
}

// next moves to the following entry, reporting false at the block's end or
// on a failure.
func (c *blockCursor) next() bool {
	if c.r.Len() == 0 || c.r.Err() != nil {
		return false
	}
	klen, flag := c.r.Uvarint(), c.r.Uvarint()
	c.key, c.val, c.del = c.r.Next(klen), c.r.Next(flag>>1), flag&1 == 1
	return c.r.Err() == nil
}

// sstIter streams a segment's entries in key order, starting at the first
// key >= lo (nil = from the start). It never loads a block that starts at
// or past hi (nil = no bound), so a scan reads only the blocks its range
// overlaps; within the last one the caller stops it by bound checks.
type sstIter struct {
	r     *sstReader
	hi    []byte
	bi    int
	cur   blockCursor
	valid bool
	err   error
}

// iter positions an iterator at the first entry >= lo, or leaves it invalid
// without reading a block when the segment holds no key in [lo, hi).
func (r *sstReader) iter(lo, hi []byte) *sstIter {
	it := &sstIter{r: r, hi: hi, bi: 0}
	if lo != nil && bytes.Compare(lo, r.meta.Max) > 0 || hi != nil && bytes.Compare(r.meta.Min, hi) >= 0 {
		return it
	}
	if lo != nil {
		if bi := r.blockFor(lo); bi > 0 {
			it.bi = bi
		}
	}
	it.advanceBlock()
	for it.valid && lo != nil && bytes.Compare(it.cur.key, lo) < 0 {
		it.next()
	}
	return it
}

// advanceBlock leaves the current block's cursor, which has ended, for the
// first entry of the next block that starts below hi. A cursor that ended
// on a failure ends the iteration with it.
func (it *sstIter) advanceBlock() {
	for {
		it.valid = false
		if it.err = it.r.blockErr(it.bi-1, it.cur.r.Err()); it.err != nil || it.bi == len(it.r.index) ||
			it.hi != nil && bytes.Compare(it.r.index[it.bi].firstKey, it.hi) >= 0 {
			return
		}
		block, err := it.r.loadBlock(it.bi)
		if err != nil {
			it.err = err
			return
		}
		it.cur = blockCursor{r: *codec.NewReader(block, ErrCorrupt)}
		it.bi++
		if it.valid = it.cur.next(); it.valid {
			return
		}
	}
}

func (it *sstIter) next() {
	if it.valid && !it.cur.next() {
		it.advanceBlock()
	}
}
