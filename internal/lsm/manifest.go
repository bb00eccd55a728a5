package lsm

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"orchestra/internal/codec"
)

// The manifest is the recovery root: a binary record naming every live
// SSTable segment (oldest first), the next file number to allocate, and the
// WAL floor — the lowest WAL segment whose records are NOT yet covered by a
// flushed SSTable. Recovery opens the manifest, opens the listed segments,
// and replays WAL segments >= the floor. The manifest is replaced
// atomically (write temp, fsync, rename, fsync directory), so a crash
// during an update leaves either the old or the new manifest, never a torn
// one. Layout (uvarint integers, uvarint-length-prefixed byte strings):
//
//	version (2), next file, WAL floor, nTables · { num, size, min key, max key }

const (
	manifestName    = "MANIFEST"
	manifestVersion = 2
)

type manifest struct {
	// NextFile numbers the next SSTable segment.
	NextFile uint64
	// WALFloor is the lowest WAL segment sequence that must replay on open;
	// segments below it are fully contained in flushed SSTables.
	WALFloor uint64
	// Tables lists live segments oldest-first (later segments shadow
	// earlier ones).
	Tables []tableMeta
}

func loadManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return &manifest{NextFile: 1, WALFloor: 1}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lsm: read manifest: %w", err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("lsm: manifest in %s: %w", dir, err)
	}
	return m, nil
}

// decodeManifest reads one encoded manifest; every failure wraps
// ErrCorrupt.
func decodeManifest(data []byte) (*manifest, error) {
	r := codec.NewReader(data, ErrCorrupt)
	if v := r.Uvarint(); v != manifestVersion {
		// A JSON manifest, version 1, reads as version 123 ('{').
		r.Fail("version %d, want %d; a version-1 (JSON) manifest has no migration", v, manifestVersion)
	}
	m := &manifest{NextFile: r.Uvarint(), WALFloor: r.Uvarint()}
	// A table takes at least four bytes: two varints and two lengths.
	m.Tables = make([]tableMeta, r.Count("table", 4))
	for i := range m.Tables {
		tm := &m.Tables[i]
		tm.Num, tm.Size, tm.Min, tm.Max = r.Uvarint(), int64(r.Uvarint()), r.Bytes(), r.Bytes()
		if tm.Size < 0 {
			r.Fail("table %d size %d", tm.Num, uint64(tm.Size))
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *manifest) encode() []byte {
	buf := binary.AppendUvarint(nil, manifestVersion)
	buf = binary.AppendUvarint(buf, m.NextFile)
	buf = binary.AppendUvarint(buf, m.WALFloor)
	buf = binary.AppendUvarint(buf, uint64(len(m.Tables)))
	for _, tm := range m.Tables {
		buf = binary.AppendUvarint(buf, tm.Num)
		buf = binary.AppendUvarint(buf, uint64(tm.Size))
		buf = codec.AppendString(buf, string(tm.Min))
		buf = codec.AppendString(buf, string(tm.Max))
	}
	return buf
}

// save atomically replaces the manifest on disk.
func (m *manifest) save(dir string) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("lsm: write manifest: %w", err)
	}
	if _, err := f.Write(m.encode()); err != nil {
		f.Close()
		return fmt.Errorf("lsm: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("lsm: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("lsm: replace manifest: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms reject fsync on directories; that only weakens
	// durability of the rename, not consistency, so tolerate it.
	_ = d.Sync()
	return nil
}
