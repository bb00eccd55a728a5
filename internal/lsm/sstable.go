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
)

// SSTable segment format (sst-NNNNNN.sst):
//
//	[data block]* [index block] [bloom block] [footer]
//
// Data blocks hold sorted entries, each framed
// `uvarint klen · uvarint (vlen<<1 | tombstone) · key · value`, split at
// ~BlockBytes boundaries; an entry of BlockBytes or more starts a block of
// its own, so a scan of its neighbours never reads it (an engine blob is
// megabytes, next to the checkpoint rows recovery walks). The index block
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
	Num   uint64 `json:"num"`
	Size  int64  `json:"size"`
	Count int    `json:"count"`
	// Min and Max are the segment's first and last keys (inclusive),
	// base64-encoded in the manifest JSON.
	Min []byte `json:"min"`
	Max []byte `json:"max"`
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
		Num:   num,
		Size:  st.Size(),
		Count: len(entries),
		Min:   append([]byte(nil), entries[0].key...),
		Max:   append([]byte(nil), entries[len(entries)-1].key...),
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

func openSSTable(dir string, meta tableMeta) (*sstReader, error) {
	path := filepath.Join(dir, sstName(meta.Num))
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: open sstable: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < sstFooterLen {
		f.Close()
		return nil, fmt.Errorf("lsm: sstable %s truncated (%d bytes)", path, st.Size())
	}
	var footer [sstFooterLen]byte
	if _, err := f.ReadAt(footer[:], st.Size()-sstFooterLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: read sstable footer: %w", err)
	}
	if binary.LittleEndian.Uint64(footer[36:]) != sstMagic {
		f.Close()
		return nil, fmt.Errorf("lsm: sstable %s has no valid footer magic", path)
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:])
	indexLen := binary.LittleEndian.Uint64(footer[8:])
	bloomLen := binary.LittleEndian.Uint64(footer[24:])
	wantCRC := binary.LittleEndian.Uint32(footer[32:])
	if indexOff+indexLen+bloomLen+sstFooterLen != uint64(st.Size()) {
		f.Close()
		return nil, fmt.Errorf("lsm: sstable %s metadata does not span the file", path)
	}
	metaBytes := make([]byte, indexLen+bloomLen)
	if _, err := f.ReadAt(metaBytes, int64(indexOff)); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: read sstable metadata: %w", err)
	}
	if crc32.Checksum(metaBytes, crcTable) != wantCRC {
		f.Close()
		return nil, fmt.Errorf("lsm: sstable %s metadata checksum mismatch", path)
	}
	r := &sstReader{f: f, meta: meta}
	buf := metaBytes
	nBlocks, n := binary.Uvarint(buf)
	if n <= 0 {
		f.Close()
		return nil, fmt.Errorf("lsm: sstable %s malformed index", path)
	}
	buf = buf[n:]
	for i := uint64(0); i < nBlocks; i++ {
		klen, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)) < uint64(n)+klen+4 {
			f.Close()
			return nil, fmt.Errorf("lsm: sstable %s malformed index entry", path)
		}
		buf = buf[n:]
		var bm blockMeta
		bm.firstKey = append([]byte(nil), buf[:klen]...)
		buf = buf[klen:]
		bm.off, n = binary.Uvarint(buf)
		buf = buf[n:]
		bm.len, n = binary.Uvarint(buf)
		buf = buf[n:]
		bm.crc = binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		r.index = append(r.index, bm)
	}
	nbits, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf[n:])) != (nbits+7)/8 {
		f.Close()
		return nil, fmt.Errorf("lsm: sstable %s malformed bloom block", path)
	}
	r.bloom = bloomFilter{bits: buf[n:], nbits: nbits}
	return r, nil
}

// loadBlock reads and checksum-verifies one data block.
func (r *sstReader) loadBlock(i int) ([]byte, error) {
	bm := r.index[i]
	buf := make([]byte, bm.len)
	if _, err := r.f.ReadAt(buf, int64(bm.off)); err != nil {
		return nil, fmt.Errorf("lsm: read sstable block: %w", err)
	}
	if crc32.Checksum(buf, crcTable) != bm.crc {
		return nil, fmt.Errorf("lsm: sstable %s block %d checksum mismatch", r.f.Name(), i)
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
	for cur := newBlockCursor(block); cur.next(); {
		switch bytes.Compare(cur.key, key) {
		case 0:
			return cur.val, cur.del, true, nil
		case 1:
			return nil, false, false, nil
		}
	}
	return nil, false, false, nil
}

// blockCursor walks the entries of one data block.
type blockCursor struct {
	buf  []byte
	key  []byte
	val  []byte
	del  bool
	fail error
}

func newBlockCursor(buf []byte) *blockCursor { return &blockCursor{buf: buf} }

func (c *blockCursor) next() bool {
	if len(c.buf) == 0 || c.fail != nil {
		return false
	}
	klen, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail = fmt.Errorf("lsm: malformed block entry")
		return false
	}
	c.buf = c.buf[n:]
	flag, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail = fmt.Errorf("lsm: malformed block entry")
		return false
	}
	c.buf = c.buf[n:]
	vlen := flag >> 1
	if uint64(len(c.buf)) < klen+vlen {
		c.fail = fmt.Errorf("lsm: truncated block entry")
		return false
	}
	c.key = c.buf[:klen]
	c.val = c.buf[klen : klen+vlen]
	c.del = flag&1 == 1
	c.buf = c.buf[klen+vlen:]
	return true
}

// sstIter streams a segment's entries in key order, starting at the first
// key >= lo (nil = from the start). It never loads a block that starts at
// or past hi (nil = no bound), so a scan reads only the blocks its range
// overlaps; within the last one the caller stops it by bound checks.
type sstIter struct {
	r     *sstReader
	hi    []byte
	bi    int
	cur   *blockCursor
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

func (it *sstIter) advanceBlock() {
	for it.bi < len(it.r.index) {
		if it.hi != nil && bytes.Compare(it.r.index[it.bi].firstKey, it.hi) >= 0 {
			break
		}
		block, err := it.r.loadBlock(it.bi)
		if err != nil {
			it.err, it.valid = err, false
			return
		}
		it.cur = newBlockCursor(block)
		it.bi++
		if it.cur.next() {
			it.valid = true
			return
		}
	}
	it.valid = false
}

func (it *sstIter) next() {
	if !it.valid {
		return
	}
	if it.cur.next() {
		return
	}
	if it.cur.fail != nil {
		it.err, it.valid = it.cur.fail, false
		return
	}
	it.advanceBlock()
}
