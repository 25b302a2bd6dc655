//! Persistence-event accounting.
//!
//! The paper's evaluation attributes performance differences between logging
//! strategies to three quantities: the number of ordering fences, the number
//! of cache-line flushes, and the number of bytes written/logged (§5.3).
//! [`PmemStats`] counts all of them; [`StatsSnapshot`] captures a point-in-time
//! copy so callers can compute per-operation deltas.
//!
//! Every counter is declared once, in the `counters!` list below; the live
//! bank, the snapshot and the field-wise load, delta and sum are generated
//! from it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes a bank is padded to a multiple of, so neighbouring banks never
/// share a cache line (nor its adjacent-line prefetch pair).
const BANK_ALIGN: usize = 128;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Persistence counters: one bank per shard of a pool, plus the
        /// pool's shared bank.
        ///
        /// All counters are monotone. A pool has one bank per shard, written
        /// by the engine, and one shared bank — the handle
        /// [`PmemPool::stats`](crate::PmemPool::stats) returns — that every
        /// layer bumps. The engine writes only the six per-access counters
        /// (the first six fields), in the bank of the shard whose lock it
        /// holds: one writer at a time, so its increments are plain
        /// load+store pairs rather than atomic read-modify-writes, and a
        /// concurrent [`snapshot`](Self::snapshot) reader only ever sees a
        /// slightly stale value, never a torn one. The ordering-fence count
        /// is the exception — a performance-mode fence takes no lock, so it
        /// is an atomic add into shard 0's bank. Every other counter lives
        /// in the shared bank and is bumped atomically, by the pool or by
        /// the layers above it. [`snapshot`](Self::snapshot) is the sum over
        /// all banks.
        ///
        /// A bank is padded to a multiple of 128 B by size, not by
        /// alignment: an over-aligned allocation per pool instance bypasses
        /// the allocator's size-class caches and fragments the heap a crash
        /// sweep churns pool-sized buffers through.
        #[derive(Debug, Default)]
        pub struct PmemStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// The pool's per-shard banks, shared with its engine (which
            /// writes them). `None` in a shard's own bank.
            banks: Option<Arc<[PmemStats]>>,
            _pad: [u64; PAD_WORDS],
        }

        /// A point-in-time copy of [`PmemStats`], with field meanings
        /// identical to the live counters.
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
            $($(#[$doc])* pub $name: u64,)*
        }

        /// Words of padding that round a bank up to [`BANK_ALIGN`] bytes:
        /// one word per counter plus the `banks` handle.
        const PAD_WORDS: usize = {
            let used = [$(stringify!($name)),*].len() * 8
                + std::mem::size_of::<Option<Arc<[PmemStats]>>>();
            (BANK_ALIGN - used % BANK_ALIGN) % BANK_ALIGN / 8
        };

        impl PmemStats {
            /// This bank's counters, field by field.
            fn load(&self) -> StatsSnapshot {
                StatsSnapshot { $($name: self.$name.load(Ordering::Relaxed),)* }
            }
        }

        impl StatsSnapshot {
            /// Computes `self - earlier`, field-wise.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if `earlier` is not actually earlier
            /// (counter values larger than `self`'s).
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot { $($name: self.$name - earlier.$name,)* }
            }

            /// Computes `self + other`, field-wise.
            fn plus(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot { $($name: self.$name + other.$name,)* }
            }
        }
    };
}

counters! {
    /// Cache-line flushes issued, counted per shard holding the lines.
    flushes,
    /// Ordering fences issued (pool and allocator fences count in shard
    /// 0's bank).
    fences,
    /// Store operations, counted in the shard holding the first byte.
    writes,
    /// Bytes stored (the full store, even if it spilled into the next
    /// shard — operation counts attribute to the first shard).
    write_bytes,
    /// Load operations, counted in the shard holding the first byte.
    reads,
    /// Bytes loaded.
    read_bytes,
    /// Allocations served by the persistent heap.
    allocs,
    /// Frees returned to the persistent heap.
    frees,
    /// Zero-fence transactional reservations (`reserve` calls served).
    reserves,
    /// `publish` calls (one per committing transaction with allocations).
    publishes,
    /// `cancel` calls (aborting transactions returning reservations).
    cancels,
    /// Blocks handed out from a free list (immediate or transactional).
    alloc_freelist,
    /// Blocks handed out by bumping the heap frontier.
    alloc_frontier,
    /// Always 0: every reservation is one locked pop, and nothing writes
    /// this count. Kept for readers that still report it.
    magazine_hits,
    /// Log entries appended (undo/clobber/redo), bumped by the runtime.
    log_entries,
    /// Log payload bytes appended, bumped by the runtime.
    log_bytes,
    /// v_log entries recorded, bumped by the runtime.
    vlog_entries,
    /// v_log payload bytes recorded, bumped by the runtime.
    vlog_bytes,
    /// Reads redirected through a redo-log write set (Mnemosyne-style read
    /// interposition), bumped by the runtime.
    interposed_reads,
    /// Fault plans armed on the pool (see `FaultPlan`).
    faults_armed,
    /// Injected faults that actually fired: trip-point crashes, torn stores,
    /// and transient read faults.
    faults_tripped,
    /// Operations retried after a transient media fault, bumped by the
    /// runtime's recovery retry loop.
    fault_retries,
    /// Trace events recorded while a tracer is attached. Zero whenever
    /// tracing is disabled — the zero-overhead pin tests rely on that.
    trace_events,
    /// Trace events lost to full per-thread rings.
    trace_dropped,
    /// Lines written back for the clobber/undo log (`LogKind::Clobber`).
    clog_flushes,
    /// Fence *requests* attributed to the clobber/undo log. Requests, not
    /// issued fences: a request satisfied by a shared group-commit epoch
    /// still counts here, with the saving recorded as a saved fence.
    clog_fences,
    /// Lines written back for the redo log (`LogKind::Redo`).
    rlog_flushes,
    /// Fence requests attributed to the redo log.
    rlog_fences,
    /// Lines written back for the v_log (`LogKind::Vlog`) and the slot's
    /// status word and markers.
    vlog_flushes,
    /// Fence requests attributed to v_log slot records, bumped by the
    /// runtime.
    vlog_fences,
    /// Group-commit epochs closed (= ordering fences the coalescer actually
    /// issued), bumped by the runtime.
    gc_epochs,
    /// Fence requests absorbed by sharing an epoch's fence (for an epoch of
    /// `n` coalesced committers this grows by `n - 1`), bumped by the
    /// runtime.
    gc_fences_saved,
    /// v_log slots examined by recovery scans, bumped by the runtime.
    rec_slots_scanned,
    /// Interrupted transactions completed by recovery re-execution, bumped
    /// by the runtime.
    rec_reexecuted,
    /// Lock-set grants by the runtime's lock manager (one per granted
    /// acquire/try_acquire, however many locks the set contains), bumped by
    /// the runtime.
    lock_acquisitions,
    /// Individual shared (read) locks granted, bumped by the runtime.
    lock_read_holds,
    /// Individual exclusive (write) locks granted, bumped by the runtime.
    lock_write_holds,
    /// Lock conflicts (refused `try_acquire`s), bumped by the runtime.
    lock_conflicts,
    /// Blocking acquires that could not be granted immediately and had to
    /// queue, bumped by the runtime.
    lock_waits,
    /// Client requests admitted by the KV service front-end, bumped by the
    /// service layer.
    net_accepted,
    /// Client requests shed with a typed `Overloaded` response (per-client
    /// window or global queue cap exceeded), bumped by the service layer.
    net_shed,
    /// Write requests coalesced into batched locked transactions, bumped by
    /// the service layer (grows by the batch size per batch).
    net_batched,
    /// `GET`s served off the volatile cache without entering a transaction,
    /// bumped by the service layer.
    net_snapshot_reads,
}

impl PmemStats {
    /// Creates the pool's shared bank over its per-shard `banks`.
    pub(crate) fn with_banks(banks: Arc<[PmemStats]>) -> Self {
        Self {
            banks: Some(banks),
            ..Self::default()
        }
    }

    fn banks(&self) -> &[PmemStats] {
        self.banks.as_deref().unwrap_or_default()
    }

    /// Point-in-time copies of each shard's bank, in shard order. Summing
    /// these equals the per-access fields of [`snapshot`](Self::snapshot).
    pub fn shard_snapshots(&self) -> Vec<StatsSnapshot> {
        self.banks().iter().map(PmemStats::load).collect()
    }

    /// Captures a point-in-time copy of all counters: the sum of this bank
    /// and every per-shard bank.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.banks()
            .iter()
            .fold(self.load(), |sum, bank| sum.plus(&bank.load()))
    }

    /// Adds `by` atomically: for counters whose writers no lock orders.
    #[inline]
    pub(crate) fn bump(&self, counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// Adds `by` with a plain load+store (no RMW). Callers must hold the
    /// lock of the shard owning this bank — see the type docs for why that
    /// makes this exact.
    #[inline]
    pub(crate) fn add(&self, counter: &AtomicU64, by: u64) {
        counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = PmemStats::default();
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
        let s = PmemStats::default();
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
    fn bank_size_is_a_multiple_of_128_bytes() {
        assert_eq!(std::mem::size_of::<PmemStats>() % BANK_ALIGN, 0);
    }

    #[test]
    fn snapshot_sums_shard_banks_into_hot_fields() {
        let banks: Arc<[PmemStats]> = (0..3).map(|_| PmemStats::default()).collect();
        let s = PmemStats::with_banks(banks.clone());
        banks[0].add(&banks[0].writes, 2);
        banks[0].add(&banks[0].write_bytes, 128);
        banks[2].add(&banks[2].writes, 1);
        banks[2].add(&banks[2].flushes, 4);
        banks[2].add(&banks[2].reads, 5);
        banks[1].add(&banks[1].read_bytes, 40);
        banks[0].bump(&banks[0].fences, 1);
        banks[1].bump(&banks[1].fences, 2);
        s.bump(&s.allocs, 1);
        s.bump(&s.net_snapshot_reads, 6);
        let snap = s.snapshot();
        assert_eq!(snap.writes, 3);
        assert_eq!(snap.write_bytes, 128);
        assert_eq!(snap.flushes, 4);
        assert_eq!(snap.fences, 3);
        assert_eq!(snap.reads, 5);
        assert_eq!(snap.read_bytes, 40);
        assert_eq!(snap.allocs, 1);
        assert_eq!(snap.net_snapshot_reads, 6);
        let shards = s.shard_snapshots();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].writes, 2);
        assert_eq!(shards[1].fences, 2);
        assert_eq!(shards[2].flushes, 4);
        let total = shards
            .iter()
            .fold(StatsSnapshot::default(), |a, b| a.plus(b));
        assert_eq!(
            total,
            StatsSnapshot {
                allocs: 0,
                net_snapshot_reads: 0,
                ..snap
            }
        );
    }

    #[test]
    fn per_kind_counters_snapshot_and_delta() {
        let s = PmemStats::default();
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
}
