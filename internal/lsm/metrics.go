package lsm

import "orchestra/internal/obs"

// dbMetrics is the DB's set of resolved metric handles, bound once at Open.
// With no registry every handle is nil and recording is a nil check —
// Options.Metrics == nil therefore costs nothing measurable on the write
// path. The struct is copied by value into each sstReader so segment-level
// counters need no back-pointer to the DB.
type dbMetrics struct {
	fsyncNs      *obs.Histogram // lsm_wal_fsync_ns: commit fsync latency
	walAppends   *obs.Counter   // lsm_wal_appends_total: batches logged
	walBytes     *obs.Counter   // lsm_wal_bytes_total: payload bytes logged
	flushes      *obs.Counter   // lsm_flush_total: memtable→SSTable flushes
	compactions  *obs.Counter   // lsm_compaction_total: merge runs completed
	compactBytes *obs.Counter   // lsm_compaction_bytes_total: input bytes merged
	gets         *obs.Counter   // lsm_get_total: point lookups served
	bloomChecks  *obs.Counter   // lsm_bloom_checks_total: segment bloom probes
	bloomSkips   *obs.Counter   // lsm_bloom_skips_total: segments bloom ruled out
	blockReads   *obs.Counter   // lsm_block_reads_total: data blocks read+verified
	memBytes     *obs.Gauge     // lsm_memtable_bytes: resident size of the mutable memtable
	frozen       *obs.Gauge     // lsm_frozen_memtables: memtables frozen and not yet flushed
	walSegs      *obs.Gauge     // lsm_wal_segments: WAL segment files on disk
	tables       *obs.Gauge     // lsm_tables: live SSTable segments
}

func newDBMetrics(r *obs.Registry) dbMetrics {
	if r == nil {
		return dbMetrics{}
	}
	return dbMetrics{
		fsyncNs:      r.Histogram("lsm_wal_fsync_ns"),
		walAppends:   r.Counter("lsm_wal_appends_total"),
		walBytes:     r.Counter("lsm_wal_bytes_total"),
		flushes:      r.Counter("lsm_flush_total"),
		compactions:  r.Counter("lsm_compaction_total"),
		compactBytes: r.Counter("lsm_compaction_bytes_total"),
		gets:         r.Counter("lsm_get_total"),
		bloomChecks:  r.Counter("lsm_bloom_checks_total"),
		bloomSkips:   r.Counter("lsm_bloom_skips_total"),
		blockReads:   r.Counter("lsm_block_reads_total"),
		memBytes:     r.Gauge("lsm_memtable_bytes"),
		frozen:       r.Gauge("lsm_frozen_memtables"),
		walSegs:      r.Gauge("lsm_wal_segments"),
		tables:       r.Gauge("lsm_tables"),
	}
}
