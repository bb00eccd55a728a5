// Package lsm is the durable storage tier beneath the CDSS: a
// log-structured merge engine with an order-preserving string encoding for
// composite keys, a segmented CRC-framed write-ahead log with batched
// fsync, an ordered multi-version memtable flushed to sorted checksummed
// SSTable segments (sparse index + bloom filter), size-tiered compaction,
// and crash recovery from a manifest + WAL replay. The upper layers (the
// p2p published-update archive and the peers' checkpoints) store their
// keyspaces side by side in one DB so a whole deployment shares a single
// WAL and group-commit window. See DESIGN.md §11.
package lsm

// AppendString appends s escaped and terminated: each 0x00 byte becomes
// 0x00 0xFF, and 0x00 0x01 ends the string. The terminator sorts below
// every escaped or literal byte, so the encoding keeps order —
// bytes.Compare of two encodings is strings.Compare of the strings — and no
// encoding is a prefix of another's. Composite-key layers build their
// prefixes from it (a peer name, a relation name), so a range scan over
// one name's prefix never reaches the keys of a longer name that extends
// it, and keys sort by their names first.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			b = append(b, 0x00, 0xFF)
		} else {
			b = append(b, s[i])
		}
	}
	return append(b, 0x00, 0x01)
}

// PrefixEnd returns the tightest key upper-bounding every key with the
// given prefix — the hi of a [prefix, PrefixEnd(prefix)) range scan. nil
// means "to the end of the keyspace".
func PrefixEnd(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
