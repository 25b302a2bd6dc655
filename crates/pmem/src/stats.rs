//! Persistence-event accounting.
//!
//! The paper's evaluation attributes performance differences between logging
//! strategies to three quantities: the number of ordering fences, the number
//! of cache-line flushes, and the number of bytes written/logged (§5.3).
//! [`PmemStats`] counts all of them; [`StatsSnapshot`] captures a point-in-time
//! copy so callers can compute per-operation deltas.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One shard's bank of hot-path counters.
///
/// The six per-operation counters (stores, loads, flushes, fences and their
/// byte counts) live here and nowhere else: one bank per shard of the pool,
/// so the store path never touches a contended cache line. The bank's
/// writer is whoever holds the owning shard's lock, which is why the
/// increments can be plain load+store pairs instead of atomic
/// read-modify-writes: there is exactly one writer at a time, and
/// concurrent [`snapshot`](PmemStats::snapshot) readers only ever see a
/// slightly stale value, never a torn one. `fences` is the exception — a
/// performance-mode fence takes no lock, so every update of it is an atomic
/// add. Padded to two cache lines so neighbouring shards' banks never
/// false-share — by size, not by alignment: an over-aligned allocation per
/// pool instance bypasses the allocator's size-class caches and fragments
/// the heap a crash sweep churns pool-sized buffers through.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Cache-line flushes issued against this shard's lines.
    pub flushes: AtomicU64,
    /// Ordering fences (pool fences count in shard 0's bank, an allocator's
    /// in the first shard of its arena's span).
    pub fences: AtomicU64,
    /// Store operations whose first byte fell in this shard.
    pub writes: AtomicU64,
    /// Bytes of those stores (the full store, even if it spilled into the
    /// next shard — operation counts attribute to the first shard).
    pub write_bytes: AtomicU64,
    /// Load operations whose first byte fell in this shard.
    pub reads: AtomicU64,
    /// Bytes of those loads.
    pub read_bytes: AtomicU64,
    _pad: [u64; 10],
}

impl ShardCounters {
    /// Adds `by` with a plain load+store (no RMW). Callers must hold the
    /// owning shard's lock — see the type docs for why that makes this
    /// exact — and `counter` must not be `fences`.
    #[inline]
    pub(crate) fn add(&self, counter: &AtomicU64, by: u64) {
        counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
    }

    /// Counts `by` fences: an atomic add, since no lock orders the writers.
    #[inline]
    pub(crate) fn add_fences(&self, by: u64) {
        self.fences.fetch_add(by, Ordering::Relaxed);
    }

    /// This bank's counters as a snapshot with only the hot fields set.
    pub fn snapshot_hot(&self) -> StatsSnapshot {
        StatsSnapshot {
            flushes: self.flushes.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            ..StatsSnapshot::default()
        }
    }
}

/// Shared, thread-safe persistence counters for one pool.
///
/// All counters are monotone. Logging-layer counters (`log_entries`,
/// `log_bytes`, `vlog_entries`, `vlog_bytes`) are bumped by the runtime crate
/// rather than the pool itself.
///
/// The hot per-access counts (`flushes`, `fences`, `writes`, `write_bytes`,
/// `reads`, `read_bytes`) have no field here: they live in the pool's
/// per-shard [`ShardCounters`] banks, and [`snapshot`](Self::snapshot)
/// reports their sum.
#[derive(Debug, Default)]
pub struct PmemStats {
    /// Allocations served by the persistent heap.
    pub allocs: AtomicU64,
    /// Frees returned to the persistent heap.
    pub frees: AtomicU64,
    /// Zero-fence transactional reservations (`reserve` calls served).
    pub reserves: AtomicU64,
    /// `publish` calls (one per committing transaction with allocations).
    pub publishes: AtomicU64,
    /// `cancel` calls (aborting transactions returning reservations).
    pub cancels: AtomicU64,
    /// Blocks handed out from a free list (immediate or transactional).
    pub alloc_freelist: AtomicU64,
    /// Blocks handed out by bumping an arena frontier.
    pub alloc_frontier: AtomicU64,
    /// Nothing writes this count: every reservation is one locked pop.
    /// Kept for `StatsSnapshot::magazine_hits`, whose readers still report
    /// it.
    pub magazine_hits: AtomicU64,
    /// Log entries appended (undo/clobber/redo), bumped by the runtime.
    pub log_entries: AtomicU64,
    /// Log payload bytes appended, bumped by the runtime.
    pub log_bytes: AtomicU64,
    /// v_log entries recorded, bumped by the runtime.
    pub vlog_entries: AtomicU64,
    /// v_log payload bytes recorded, bumped by the runtime.
    pub vlog_bytes: AtomicU64,
    /// Reads redirected through a redo-log write set (Mnemosyne-style read
    /// interposition), bumped by the runtime.
    pub interposed_reads: AtomicU64,
    /// Fault plans armed on the pool (see `FaultPlan`).
    pub faults_armed: AtomicU64,
    /// Injected faults that actually fired: trip-point crashes, torn stores,
    /// and transient read faults.
    pub faults_tripped: AtomicU64,
    /// Operations retried after a transient media fault, bumped by the
    /// runtime's recovery retry loop.
    pub fault_retries: AtomicU64,
    /// Trace events recorded while a tracer is attached. Zero whenever
    /// tracing is disabled — the zero-overhead pin tests rely on that.
    pub trace_events: AtomicU64,
    /// Trace events lost to full per-thread rings.
    pub trace_dropped: AtomicU64,
    /// Lines written back for the clobber/undo log (`LogKind::Clobber`).
    pub clog_flushes: AtomicU64,
    /// Fence *requests* attributed to the clobber/undo log. Requests, not
    /// issued fences: a request satisfied by a shared group-commit epoch
    /// still counts here, with the saving recorded in `gc_fences_saved`.
    pub clog_fences: AtomicU64,
    /// Lines written back for the redo log (`LogKind::Redo`).
    pub rlog_flushes: AtomicU64,
    /// Fence requests attributed to the redo log.
    pub rlog_fences: AtomicU64,
    /// Lines written back for the v_log (`LogKind::Vlog`) and the slot's
    /// status word and markers.
    pub vlog_flushes: AtomicU64,
    /// Fence requests attributed to v_log slot records, bumped by the
    /// runtime.
    pub vlog_fences: AtomicU64,
    /// Group-commit epochs closed (= ordering fences the coalescer actually
    /// issued), bumped by the runtime.
    pub gc_epochs: AtomicU64,
    /// Fence requests absorbed by sharing an epoch's fence (for an epoch of
    /// `n` coalesced committers this grows by `n - 1`), bumped by the
    /// runtime.
    pub gc_fences_saved: AtomicU64,
    /// v_log slots examined by recovery scans, bumped by the runtime.
    pub rec_slots_scanned: AtomicU64,
    /// Interrupted transactions completed by recovery re-execution, bumped
    /// by the runtime.
    pub rec_reexecuted: AtomicU64,
    /// Lock-set grants by the runtime's lock manager (one per granted
    /// acquire/try_acquire, however many locks the set contains), bumped by
    /// the runtime.
    pub lock_acquisitions: AtomicU64,
    /// Individual shared (read) locks granted, bumped by the runtime.
    pub lock_read_holds: AtomicU64,
    /// Individual exclusive (write) locks granted, bumped by the runtime.
    pub lock_write_holds: AtomicU64,
    /// Lock conflicts (refused `try_acquire`s), bumped by the runtime.
    pub lock_conflicts: AtomicU64,
    /// Blocking acquires that could not be granted immediately and had to
    /// queue, bumped by the runtime.
    pub lock_waits: AtomicU64,
    /// Client requests admitted by the KV service front-end, bumped by the
    /// service layer.
    pub net_accepted: AtomicU64,
    /// Client requests shed with a typed `Overloaded` response (per-client
    /// window or global queue cap exceeded), bumped by the service layer.
    pub net_shed: AtomicU64,
    /// Write requests coalesced into batched locked transactions, bumped by
    /// the service layer (grows by the batch size per batch).
    pub net_batched: AtomicU64,
    /// `GET`s served off the volatile cache without entering a transaction,
    /// bumped by the service layer.
    pub net_snapshot_reads: AtomicU64,
    /// The pool's per-shard hot-counter banks, shared with its engine
    /// (which writes them). `None` for counters no pool owns.
    banks: Option<Arc<[ShardCounters]>>,
}

impl PmemStats {
    /// Creates zeroed counters with no hot-counter banks: a bank of cold
    /// counters for a layer above the pool (the schedule explorer's).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed counters over a pool's hot-counter `banks`.
    pub(crate) fn with_banks(banks: Arc<[ShardCounters]>) -> Self {
        Self {
            banks: Some(banks),
            ..Self::default()
        }
    }

    fn banks(&self) -> &[ShardCounters] {
        self.banks.as_deref().unwrap_or_default()
    }

    /// Point-in-time copies of each shard's hot counters, in shard order.
    /// Summing these equals the hot fields of [`snapshot`](Self::snapshot).
    pub fn shard_snapshots(&self) -> Vec<StatsSnapshot> {
        self.banks()
            .iter()
            .map(ShardCounters::snapshot_hot)
            .collect()
    }

    /// Captures a point-in-time copy of all counters; the hot fields are
    /// the sum over the per-shard banks.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut hot = StatsSnapshot::default();
        for bank in self.banks() {
            let b = bank.snapshot_hot();
            hot.flushes += b.flushes;
            hot.fences += b.fences;
            hot.writes += b.writes;
            hot.write_bytes += b.write_bytes;
            hot.reads += b.reads;
            hot.read_bytes += b.read_bytes;
        }
        StatsSnapshot {
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            reserves: self.reserves.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            cancels: self.cancels.load(Ordering::Relaxed),
            alloc_freelist: self.alloc_freelist.load(Ordering::Relaxed),
            alloc_frontier: self.alloc_frontier.load(Ordering::Relaxed),
            magazine_hits: self.magazine_hits.load(Ordering::Relaxed),
            log_entries: self.log_entries.load(Ordering::Relaxed),
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
            vlog_entries: self.vlog_entries.load(Ordering::Relaxed),
            vlog_bytes: self.vlog_bytes.load(Ordering::Relaxed),
            interposed_reads: self.interposed_reads.load(Ordering::Relaxed),
            faults_armed: self.faults_armed.load(Ordering::Relaxed),
            faults_tripped: self.faults_tripped.load(Ordering::Relaxed),
            fault_retries: self.fault_retries.load(Ordering::Relaxed),
            trace_events: self.trace_events.load(Ordering::Relaxed),
            trace_dropped: self.trace_dropped.load(Ordering::Relaxed),
            clog_flushes: self.clog_flushes.load(Ordering::Relaxed),
            clog_fences: self.clog_fences.load(Ordering::Relaxed),
            rlog_flushes: self.rlog_flushes.load(Ordering::Relaxed),
            rlog_fences: self.rlog_fences.load(Ordering::Relaxed),
            vlog_flushes: self.vlog_flushes.load(Ordering::Relaxed),
            vlog_fences: self.vlog_fences.load(Ordering::Relaxed),
            gc_epochs: self.gc_epochs.load(Ordering::Relaxed),
            gc_fences_saved: self.gc_fences_saved.load(Ordering::Relaxed),
            rec_slots_scanned: self.rec_slots_scanned.load(Ordering::Relaxed),
            rec_reexecuted: self.rec_reexecuted.load(Ordering::Relaxed),
            lock_acquisitions: self.lock_acquisitions.load(Ordering::Relaxed),
            lock_read_holds: self.lock_read_holds.load(Ordering::Relaxed),
            lock_write_holds: self.lock_write_holds.load(Ordering::Relaxed),
            lock_conflicts: self.lock_conflicts.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
            net_accepted: self.net_accepted.load(Ordering::Relaxed),
            net_shed: self.net_shed.load(Ordering::Relaxed),
            net_batched: self.net_batched.load(Ordering::Relaxed),
            net_snapshot_reads: self.net_snapshot_reads.load(Ordering::Relaxed),
            ..hot
        }
    }

    #[inline]
    pub(crate) fn bump(&self, counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`PmemStats`], with field meanings identical to
/// the live counters.
///
/// # Example
///
/// ```
/// use clobber_pmem::{PmemPool, PoolOptions};
///
/// # fn main() -> Result<(), clobber_pmem::PmemError> {
/// let pool = PmemPool::create(PoolOptions::performance(1 << 20))?;
/// let a = pool.alloc(64)?;
/// let before = pool.stats().snapshot();
/// pool.write_u64(a, 7)?;
/// pool.persist(a, 8)?;
/// let delta = pool.stats().snapshot().delta(&before);
/// assert_eq!(delta.fences, 1);
/// assert!(delta.flushes >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Cache-line flushes issued.
    pub flushes: u64,
    /// Ordering fences issued.
    pub fences: u64,
    /// Store operations issued.
    pub writes: u64,
    /// Bytes stored.
    pub write_bytes: u64,
    /// Load operations issued.
    pub reads: u64,
    /// Bytes loaded.
    pub read_bytes: u64,
    /// Allocations served.
    pub allocs: u64,
    /// Frees returned.
    pub frees: u64,
    /// Zero-fence transactional reservations served.
    pub reserves: u64,
    /// `publish` calls.
    pub publishes: u64,
    /// `cancel` calls.
    pub cancels: u64,
    /// Blocks served from a free list.
    pub alloc_freelist: u64,
    /// Blocks served by bumping an arena frontier.
    pub alloc_frontier: u64,
    /// Always 0: every reservation is one locked pop, and nothing writes
    /// this count. Kept for readers that still report it.
    pub magazine_hits: u64,
    /// Log entries appended (undo/clobber/redo).
    pub log_entries: u64,
    /// Log payload bytes appended.
    pub log_bytes: u64,
    /// v_log records written.
    pub vlog_entries: u64,
    /// v_log payload bytes written.
    pub vlog_bytes: u64,
    /// Reads redirected through a redo write set.
    pub interposed_reads: u64,
    /// Fault plans armed on the pool.
    pub faults_armed: u64,
    /// Injected faults that fired (crashes, torn stores, transient reads).
    pub faults_tripped: u64,
    /// Operations retried after a transient media fault.
    pub fault_retries: u64,
    /// Trace events recorded (0 unless a tracer was attached).
    pub trace_events: u64,
    /// Trace events lost to full rings.
    pub trace_dropped: u64,
    /// Flushes attributed to the clobber/undo log.
    pub clog_flushes: u64,
    /// Fence requests attributed to the clobber/undo log.
    pub clog_fences: u64,
    /// Flushes attributed to the redo log.
    pub rlog_flushes: u64,
    /// Fence requests attributed to the redo log.
    pub rlog_fences: u64,
    /// Flushes attributed to v_log slot records.
    pub vlog_flushes: u64,
    /// Fence requests attributed to v_log slot records.
    pub vlog_fences: u64,
    /// Group-commit epochs closed (fences the coalescer issued).
    pub gc_epochs: u64,
    /// Fence requests absorbed by epoch sharing.
    pub gc_fences_saved: u64,
    /// v_log slots examined by recovery scans.
    pub rec_slots_scanned: u64,
    /// Interrupted transactions completed by recovery re-execution.
    pub rec_reexecuted: u64,
    /// Lock-set grants by the runtime's lock manager.
    pub lock_acquisitions: u64,
    /// Individual shared (read) locks granted.
    pub lock_read_holds: u64,
    /// Individual exclusive (write) locks granted.
    pub lock_write_holds: u64,
    /// Lock conflicts (refused `try_acquire`s).
    pub lock_conflicts: u64,
    /// Blocking acquires that had to queue.
    pub lock_waits: u64,
    /// Client requests admitted by the KV service front-end.
    pub net_accepted: u64,
    /// Client requests shed with a typed `Overloaded` response.
    pub net_shed: u64,
    /// Write requests coalesced into batched locked transactions.
    pub net_batched: u64,
    /// `GET`s served off the volatile cache without a transaction.
    pub net_snapshot_reads: u64,
}

impl StatsSnapshot {
    /// Computes `self - earlier`, field-wise.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier (counter
    /// values larger than `self`'s).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            flushes: self.flushes - earlier.flushes,
            fences: self.fences - earlier.fences,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
            reserves: self.reserves - earlier.reserves,
            publishes: self.publishes - earlier.publishes,
            cancels: self.cancels - earlier.cancels,
            alloc_freelist: self.alloc_freelist - earlier.alloc_freelist,
            alloc_frontier: self.alloc_frontier - earlier.alloc_frontier,
            magazine_hits: self.magazine_hits - earlier.magazine_hits,
            log_entries: self.log_entries - earlier.log_entries,
            log_bytes: self.log_bytes - earlier.log_bytes,
            vlog_entries: self.vlog_entries - earlier.vlog_entries,
            vlog_bytes: self.vlog_bytes - earlier.vlog_bytes,
            interposed_reads: self.interposed_reads - earlier.interposed_reads,
            faults_armed: self.faults_armed - earlier.faults_armed,
            faults_tripped: self.faults_tripped - earlier.faults_tripped,
            fault_retries: self.fault_retries - earlier.fault_retries,
            trace_events: self.trace_events - earlier.trace_events,
            trace_dropped: self.trace_dropped - earlier.trace_dropped,
            clog_flushes: self.clog_flushes - earlier.clog_flushes,
            clog_fences: self.clog_fences - earlier.clog_fences,
            rlog_flushes: self.rlog_flushes - earlier.rlog_flushes,
            rlog_fences: self.rlog_fences - earlier.rlog_fences,
            vlog_flushes: self.vlog_flushes - earlier.vlog_flushes,
            vlog_fences: self.vlog_fences - earlier.vlog_fences,
            gc_epochs: self.gc_epochs - earlier.gc_epochs,
            gc_fences_saved: self.gc_fences_saved - earlier.gc_fences_saved,
            rec_slots_scanned: self.rec_slots_scanned - earlier.rec_slots_scanned,
            rec_reexecuted: self.rec_reexecuted - earlier.rec_reexecuted,
            lock_acquisitions: self.lock_acquisitions - earlier.lock_acquisitions,
            lock_read_holds: self.lock_read_holds - earlier.lock_read_holds,
            lock_write_holds: self.lock_write_holds - earlier.lock_write_holds,
            lock_conflicts: self.lock_conflicts - earlier.lock_conflicts,
            lock_waits: self.lock_waits - earlier.lock_waits,
            net_accepted: self.net_accepted - earlier.net_accepted,
            net_shed: self.net_shed - earlier.net_shed,
            net_batched: self.net_batched - earlier.net_batched,
            net_snapshot_reads: self.net_snapshot_reads - earlier.net_snapshot_reads,
        }
    }

    /// Total logged bytes across the clobber/undo/redo log and the v_log.
    pub fn total_log_bytes(&self) -> u64 {
        self.log_bytes + self.vlog_bytes
    }

    /// Total log entries across the clobber/undo/redo log and the v_log.
    pub fn total_log_entries(&self) -> u64 {
        self.log_entries + self.vlog_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = PmemStats::new();
        s.bump(&s.allocs, 3);
        s.bump(&s.frees, 2);
        s.bump(&s.log_bytes, 100);
        let snap = s.snapshot();
        assert_eq!(snap.allocs, 3);
        assert_eq!(snap.frees, 2);
        assert_eq!(snap.log_bytes, 100);
        assert_eq!(snap.reads, 0);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let s = PmemStats::new();
        s.bump(&s.allocs, 5);
        let a = s.snapshot();
        s.bump(&s.allocs, 7);
        s.bump(&s.log_bytes, 64);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.allocs, 7);
        assert_eq!(d.log_bytes, 64);
        assert_eq!(d.fences, 0);
    }

    #[test]
    fn snapshot_sums_shard_banks_into_hot_fields() {
        let banks: Arc<[ShardCounters]> = (0..3).map(|_| ShardCounters::default()).collect();
        let s = PmemStats::with_banks(banks.clone());
        banks[0].add(&banks[0].writes, 2);
        banks[0].add(&banks[0].write_bytes, 128);
        banks[2].add(&banks[2].writes, 1);
        banks[2].add(&banks[2].flushes, 4);
        banks[0].add_fences(1);
        banks[1].add_fences(2);
        s.bump(&s.allocs, 1);
        let snap = s.snapshot();
        assert_eq!(snap.writes, 3);
        assert_eq!(snap.write_bytes, 128);
        assert_eq!(snap.flushes, 4);
        assert_eq!(snap.fences, 3);
        assert_eq!(snap.allocs, 1);
        let shards = s.shard_snapshots();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].writes, 2);
        assert_eq!(shards[1].fences, 2);
        assert_eq!(shards[2].flushes, 4);
    }

    #[test]
    fn per_kind_counters_snapshot_and_delta() {
        let s = PmemStats::new();
        s.bump(&s.clog_flushes, 9);
        s.bump(&s.clog_fences, 1);
        let a = s.snapshot();
        assert_eq!((a.clog_flushes, a.clog_fences), (9, 1));
        s.bump(&s.rlog_flushes, 2);
        s.bump(&s.vlog_fences, 3);
        s.bump(&s.gc_epochs, 1);
        s.bump(&s.gc_fences_saved, 3);
        let d = s.snapshot().delta(&a);
        assert_eq!(d.clog_flushes, 0);
        assert_eq!(d.rlog_flushes, 2);
        assert_eq!(d.vlog_fences, 3);
        assert_eq!(d.gc_epochs, 1);
        assert_eq!(d.gc_fences_saved, 3);
    }

    #[test]
    fn totals_combine_log_and_vlog() {
        let snap = StatsSnapshot {
            log_entries: 3,
            log_bytes: 24,
            vlog_entries: 1,
            vlog_bytes: 280,
            ..Default::default()
        };
        assert_eq!(snap.total_log_entries(), 4);
        assert_eq!(snap.total_log_bytes(), 304);
    }
}
