//! The per-thread persistent v_log slot.
//!
//! Each thread owns one slot (paper §4.2: "we manage the per-thread v_log
//! using a global linked list resident in persistent memory, and allocate it
//! on thread creation. The thread will use this log to manage its (at most
//! one) active transaction"). A slot records:
//!
//! * the transaction **status bit** — set at begin, cleared at commit;
//!   recovery re-executes every slot whose bit is still set,
//! * the txfunc **name and serialized arguments**,
//! * **preserved volatile blobs** ([`vlog_preserve`](crate::Tx::vlog_preserve)),
//! * descriptors of the slot's clobber/undo log and redo log buffers, and
//!   the redo commit marker.
//!
//! [`VlogSlot::begin`] costs exactly two fences — first the record
//! (name + args) is persisted, then the status bit — matching the paper's
//! observation that "the v_log entry count is always one for the whole
//! transaction, resulting in only two necessary fences" (§5.3). The status
//! bit must not become durable before the record, otherwise recovery could
//! re-execute garbage arguments.

use std::sync::atomic::Ordering::Relaxed;

use clobber_pmem::{LogKind, PAddr, PmemError, PmemPool, Ulog, CACHE_LINE};

use crate::args::ArgList;
use crate::error::TxError;

/// Attributes v_log persist costs in [`clobber_pmem::StatsSnapshot`]:
/// `flushes` flush calls and `fences` fence *requests* (a request satisfied
/// by a shared group-commit epoch still counts).
fn bump_vlog(pool: &PmemPool, flushes: u64, fences: u64) {
    let s = pool.stats();
    s.vlog_flushes.fetch_add(flushes, Relaxed);
    s.vlog_fences.fetch_add(fences, Relaxed);
}

/// Maximum txfunc name length in bytes.
pub const NAME_CAP: u64 = 88;
/// Maximum serialized argument bytes.
pub const ARGS_CAP: u64 = 2048;
/// Maximum total preserved volatile bytes (including 8-byte length headers).
pub const PRESERVE_CAP: u64 = 4096;

const STATUS: u64 = 0;
const NEXT: u64 = 8;
const ID: u64 = 16;
const COMMITTED: u64 = 24;
const CLOBBER_BASE: u64 = 32;
const CLOBBER_CAP: u64 = 40;
const REDO_BASE: u64 = 48;
const REDO_CAP: u64 = 56;
const NAME_LEN: u64 = 64;
const NAME: u64 = 72;
const ARGS_LEN: u64 = NAME + NAME_CAP;
const ARGS: u64 = ARGS_LEN + 8;
const PRESERVE_COUNT: u64 = ARGS + ARGS_CAP;
const PRESERVE_TAIL: u64 = PRESERVE_COUNT + 8;
// Re-execution progress checkpoint (recovery forward progress). The magic
// word sits at the end of the cache line holding PRESERVE_COUNT/TAIL so
// begin's existing flush also invalidates it; the payload words start at
// the next 64-byte boundary (2240) and fit one line, so a single-line
// store persists them failure-atomically.
const CKPT_MAGIC_OFF: u64 = PRESERVE_TAIL + 8;
const CKPT_STORES: u64 = CKPT_MAGIC_OFF + 8;
const CKPT_ENTRIES: u64 = CKPT_STORES + 8;
const CKPT_PRESERVES: u64 = CKPT_ENTRIES + 8;
const CKPT_CHECK: u64 = CKPT_PRESERVES + 8;
const PRESERVE_DATA: u64 = CKPT_CHECK + 8;

/// Versioned magic marking a valid re-execution checkpoint (v1). Zero means
/// "no checkpoint"; an unrecognized value is treated the same, so the
/// format can evolve.
const CKPT_MAGIC: u64 = 0xC10B_BC29_0000_0001;

/// FNV-1a over the checkpoint payload words. A torn or corrupted payload
/// (e.g. the magic line survived a crash but the payload line did not)
/// fails this check and the checkpoint is ignored — restarting re-execution
/// from zero is always sound; skipping stores that never ran is not.
fn ckpt_checksum(stores: u64, entries: u64, preserves: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [stores, entries, preserves] {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Atlas's FASE record: the first whole line from here (a slot's 8 KiB
/// allocation has the room).
const FASE_AREA: u64 = PRESERVE_DATA + PRESERVE_CAP;

/// Total persistent size of one slot.
pub const SLOT_SIZE: u64 = FASE_AREA + 2 * CACHE_LINE;

/// A persisted re-execution progress checkpoint: recovery re-running an
/// interrupted txfunc records how far the replay's durable effects reach,
/// so a crash *during* recovery resumes past this watermark instead of
/// restarting from zero (see `DESIGN.md` item 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlogCheckpoint {
    /// Number of leading transactional stores whose pool writes are durable
    /// (the store watermark): replay skips re-issuing these.
    pub stores: u64,
    /// Number of leading clobber-log entries whose *original* values were
    /// captured before the checkpointed stores clobbered them. Resume must
    /// only roll back entries past this count and must source pre-store
    /// values for reads from these entries, not the pool.
    pub entries: u64,
    /// Number of preserve blobs consumed by the checkpointed prefix.
    pub preserves: u64,
}

/// Handle to one thread's persistent v_log slot.
///
/// The handle is a plain descriptor; all state lives in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlogSlot {
    base: PAddr,
}

/// The durable begin-record of an in-flight transaction, read back during
/// recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct VlogRecord {
    /// Registered txfunc name.
    pub name: String,
    /// The arguments the txfunc was invoked with.
    pub args: ArgList,
    /// Preserved volatile blobs, in `vlog_preserve` call order.
    pub preserves: Vec<Vec<u8>>,
}

impl VlogSlot {
    /// Adopts an existing slot at `base`.
    pub fn new(base: PAddr) -> VlogSlot {
        VlogSlot { base }
    }

    /// Allocates and formats a fresh slot with its log buffers, links it
    /// after `prev_head`, and returns it. Uses the immediate (fence-paying)
    /// allocation path — slots are created once per thread.
    pub fn create(
        pool: &PmemPool,
        id: u64,
        prev_head: PAddr,
        clobber_cap: u64,
        redo_cap: u64,
    ) -> Result<VlogSlot, TxError> {
        let base = pool.alloc(SLOT_SIZE)?;
        let clobber = pool.alloc(clobber_cap)?;
        let redo = pool.alloc(redo_cap)?;
        Ulog::format_v2(pool, clobber, clobber_cap)?;
        Ulog::format_v2(pool, redo, redo_cap)?;
        let s = VlogSlot { base };
        pool.write_u64(base.add(STATUS), 0)?;
        pool.write_u64(base.add(NEXT), prev_head.offset())?;
        pool.write_u64(base.add(ID), id)?;
        pool.write_u64(base.add(COMMITTED), 0)?;
        pool.write_u64(base.add(CLOBBER_BASE), clobber.offset())?;
        pool.write_u64(base.add(CLOBBER_CAP), clobber_cap)?;
        pool.write_u64(base.add(REDO_BASE), redo.offset())?;
        pool.write_u64(base.add(REDO_CAP), redo_cap)?;
        pool.write_u64(base.add(CKPT_MAGIC_OFF), 0)?;
        pool.persist(base, PRESERVE_DATA)?;
        Ok(s)
    }

    /// The slot's base address.
    pub fn base(&self) -> PAddr {
        self.base
    }

    /// The region holding the begin record (name length through preserves),
    /// as `(start, len)`.
    ///
    /// Fault-injection tests corrupt this region in place (e.g. with
    /// `PmemPool::inject_bit_corruption`) to exercise the
    /// [`CorruptVlog`](TxError::CorruptVlog) quarantine path; the first 8
    /// bytes are the name-length word that [`record`](Self::record)
    /// validates.
    pub fn record_region(&self) -> (PAddr, u64) {
        (self.base.add(NAME_LEN), FASE_AREA - NAME_LEN)
    }

    /// The slot's creation id (list position).
    pub fn id(&self, pool: &PmemPool) -> Result<u64, PmemError> {
        pool.read_u64(self.base.add(ID))
    }

    /// The next slot in the global list ([`PAddr::NULL`] at the end).
    pub fn next(&self, pool: &PmemPool) -> Result<PAddr, PmemError> {
        Ok(PAddr::new(pool.read_u64(self.base.add(NEXT))?))
    }

    /// The slot's clobber/undo log buffer (tagged for `clog_*` counter
    /// attribution).
    pub fn clobber_log(&self, pool: &PmemPool) -> Result<Ulog, PmemError> {
        let base = pool.read_u64(self.base.add(CLOBBER_BASE))?;
        let cap = pool.read_u64(self.base.add(CLOBBER_CAP))?;
        Ok(Ulog::new(PAddr::new(base), cap).with_kind(LogKind::Clobber))
    }

    /// The slot's redo log buffer (tagged for `rlog_*` counter
    /// attribution).
    pub fn redo_log(&self, pool: &PmemPool) -> Result<Ulog, PmemError> {
        let base = pool.read_u64(self.base.add(REDO_BASE))?;
        let cap = pool.read_u64(self.base.add(REDO_CAP))?;
        Ok(Ulog::new(PAddr::new(base), cap).with_kind(LogKind::Redo))
    }

    /// Whether the slot has an in-flight (uncommitted) transaction.
    pub fn is_ongoing(&self, pool: &PmemPool) -> Result<bool, PmemError> {
        Ok(pool.read_u64(self.base.add(STATUS))? == 1)
    }

    /// The redo commit marker (set between redo-log persistence and
    /// write-back completion).
    pub fn is_redo_committed(&self, pool: &PmemPool) -> Result<bool, PmemError> {
        Ok(pool.read_u64(self.base.add(COMMITTED))? == 1)
    }

    /// Sets the redo commit marker durably (one fence).
    pub fn set_redo_committed(&self, pool: &PmemPool, on: bool) -> Result<(), PmemError> {
        self.set_redo_committed_with_fence(pool, on, &|p| p.fence())
    }

    /// [`set_redo_committed`](Self::set_redo_committed) with the ordering
    /// fence delegated to `fence` (group-commit routing).
    pub fn set_redo_committed_with_fence(
        &self,
        pool: &PmemPool,
        on: bool,
        fence: &dyn Fn(&PmemPool),
    ) -> Result<(), PmemError> {
        pool.store_flush(self.base.add(COMMITTED), &(on as u64).to_le_bytes())?;
        fence(pool);
        bump_vlog(pool, 1, 1);
        Ok(())
    }

    /// Clears the redo commit marker; the caller fences.
    pub fn clear_redo_committed_unfenced(&self, pool: &PmemPool) -> Result<(), PmemError> {
        pool.store_flush(self.base.add(COMMITTED), &0u64.to_le_bytes())?;
        bump_vlog(pool, 1, 0);
        Ok(())
    }

    /// Records the begin record (name + args) and sets the status bit, with
    /// exactly two fences. Returns the number of v_log bytes recorded.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::VlogCapacity`] if the name or arguments exceed the
    /// slot's fixed buffers.
    pub fn begin(&self, pool: &PmemPool, name: &str, args: &ArgList) -> Result<u64, TxError> {
        self.begin_with_fence(pool, name, args, &|p| p.fence())
    }

    /// [`begin`](Self::begin) with both ordering fences delegated to `fence`
    /// (group-commit routing). `fence` must guarantee a pool fence has been
    /// issued after it was called — the record→status and status→store
    /// orderings are preserved because a shared epoch fence orders *all*
    /// pending flushes, not just the leader's.
    pub fn begin_with_fence(
        &self,
        pool: &PmemPool,
        name: &str,
        args: &ArgList,
        fence: &dyn Fn(&PmemPool),
    ) -> Result<u64, TxError> {
        let name_bytes = name.as_bytes();
        if name_bytes.len() as u64 > NAME_CAP {
            return Err(TxError::VlogCapacity {
                what: "txfunc name",
                needed: name_bytes.len() as u64,
                capacity: NAME_CAP,
            });
        }
        let arg_bytes = args.to_bytes();
        if arg_bytes.len() as u64 > ARGS_CAP {
            return Err(TxError::VlogCapacity {
                what: "arguments",
                needed: arg_bytes.len() as u64,
                capacity: ARGS_CAP,
            });
        }
        pool.write_u64(self.base.add(NAME_LEN), name_bytes.len() as u64)?;
        pool.write_bytes(self.base.add(NAME), name_bytes)?;
        pool.write_u64(self.base.add(ARGS_LEN), arg_bytes.len() as u64)?;
        pool.write_bytes(self.base.add(ARGS), &arg_bytes)?;
        pool.write_u64(self.base.add(PRESERVE_COUNT), 0)?;
        pool.write_u64(self.base.add(PRESERVE_TAIL), 0)?;
        // A stale re-execution checkpoint from a previous recovery must not
        // survive into this transaction: invalidate it under fence 1, so
        // whenever the status bit is durable the invalidation is too.
        pool.write_u64(self.base.add(CKPT_MAGIC_OFF), 0)?;
        // Fence 1: the record must be durable before the status bit.
        pool.flush(
            self.base.add(NAME_LEN),
            ARGS - NAME_LEN + arg_bytes.len() as u64,
        )?;
        pool.flush(self.base.add(PRESERVE_COUNT), 24)?;
        fence(pool);
        // Fence 2: the status bit marks the transaction ongoing.
        pool.store_flush(self.base.add(STATUS), &1u64.to_le_bytes())?;
        fence(pool);
        bump_vlog(pool, 3, 2);
        let bytes = 16 + name_bytes.len() as u64 + arg_bytes.len() as u64;
        pool.trace_app_event(
            clobber_pmem::EventKind::VlogAppend,
            0,
            self.base.offset(),
            bytes,
        );
        Ok(bytes)
    }

    /// Sets the status bit without recording a new record (used when the
    /// status must be marked ongoing for backends without a v_log record).
    pub fn mark_ongoing(&self, pool: &PmemPool) -> Result<(), PmemError> {
        self.mark_ongoing_with_fence(pool, &|p| p.fence())
    }

    /// [`mark_ongoing`](Self::mark_ongoing) with the ordering fence
    /// delegated to `fence` (group-commit routing).
    pub fn mark_ongoing_with_fence(
        &self,
        pool: &PmemPool,
        fence: &dyn Fn(&PmemPool),
    ) -> Result<(), PmemError> {
        pool.store_flush(self.base.add(STATUS), &1u64.to_le_bytes())?;
        fence(pool);
        bump_vlog(pool, 1, 1);
        Ok(())
    }

    /// Persists Atlas's 32-byte FASE dependency record in a line of its
    /// own, ordered by `fence`, and counts it as one 32-byte log entry. It
    /// is no undo-log entry, so no rollback ever writes over the slot.
    pub fn fase_record_with_fence(
        &self,
        pool: &PmemPool,
        fence: &dyn Fn(&PmemPool),
    ) -> Result<(), PmemError> {
        let line = (self.base.offset() + FASE_AREA).next_multiple_of(CACHE_LINE);
        pool.store_flush(PAddr::new(line), &[0; 32])?;
        fence(pool);
        bump_vlog(pool, 1, 1);
        let stats = pool.stats();
        stats.log_entries.fetch_add(1, Relaxed);
        stats.log_bytes.fetch_add(32, Relaxed);
        Ok(())
    }

    /// Clears the status bit; the caller decides when to fence (commit
    /// bundles this flush with its final fence).
    pub fn clear_ongoing(&self, pool: &PmemPool) -> Result<(), PmemError> {
        pool.store_flush(self.base.add(STATUS), &0u64.to_le_bytes())?;
        bump_vlog(pool, 1, 0);
        Ok(())
    }

    /// Appends one preserved volatile blob (one fence). Returns the bytes
    /// recorded (payload + header).
    ///
    /// # Errors
    ///
    /// Returns [`TxError::VlogCapacity`] if the preserve buffer is full.
    pub fn preserve(&self, pool: &PmemPool, data: &[u8]) -> Result<u64, TxError> {
        self.preserve_with_fence(pool, data, &|p| p.fence())
    }

    /// [`preserve`](Self::preserve) with the ordering fence delegated to
    /// `fence` (group-commit routing).
    pub fn preserve_with_fence(
        &self,
        pool: &PmemPool,
        data: &[u8],
        fence: &dyn Fn(&PmemPool),
    ) -> Result<u64, TxError> {
        let tail = pool.read_u64(self.base.add(PRESERVE_TAIL))?;
        let need = 8 + data.len() as u64;
        if tail + need > PRESERVE_CAP {
            return Err(TxError::VlogCapacity {
                what: "preserved volatile data",
                needed: need,
                capacity: PRESERVE_CAP,
            });
        }
        let at = self.base.add(PRESERVE_DATA + tail);
        pool.write_u64(at, data.len() as u64)?;
        pool.write_bytes(at.add(8), data)?;
        pool.flush(at, need)?;
        let count = pool.read_u64(self.base.add(PRESERVE_COUNT))?;
        pool.write_u64(self.base.add(PRESERVE_COUNT), count + 1)?;
        pool.write_u64(self.base.add(PRESERVE_TAIL), tail + need)?;
        pool.flush(self.base.add(PRESERVE_COUNT), 16)?;
        fence(pool);
        bump_vlog(pool, 2, 1);
        pool.trace_app_event(
            clobber_pmem::EventKind::VlogAppend,
            0,
            self.base.offset(),
            need,
        );
        Ok(need)
    }

    /// Reads back the begin record of an in-flight transaction.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::CorruptVlog`] if the record fails validation
    /// (which cannot happen for a record persisted by [`begin`](Self::begin)
    /// thanks to its fence ordering).
    pub fn record(&self, pool: &PmemPool) -> Result<VlogRecord, TxError> {
        let name_len = pool.read_u64(self.base.add(NAME_LEN))?;
        if name_len > NAME_CAP {
            return Err(TxError::CorruptVlog("name length out of range".into()));
        }
        let name_bytes = pool.read_bytes(self.base.add(NAME), name_len)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| TxError::CorruptVlog("name is not UTF-8".into()))?;
        let args_len = pool.read_u64(self.base.add(ARGS_LEN))?;
        if args_len > ARGS_CAP {
            return Err(TxError::CorruptVlog("args length out of range".into()));
        }
        let arg_bytes = pool.read_bytes(self.base.add(ARGS), args_len)?;
        let args = ArgList::from_bytes(&arg_bytes)
            .map_err(|_| TxError::CorruptVlog("argument encoding invalid".into()))?;
        let count = pool.read_u64(self.base.add(PRESERVE_COUNT))?;
        let tail = pool.read_u64(self.base.add(PRESERVE_TAIL))?;
        if tail > PRESERVE_CAP {
            return Err(TxError::CorruptVlog("preserve tail out of range".into()));
        }
        let mut preserves = Vec::new();
        let mut off = 0u64;
        for _ in 0..count {
            if off + 8 > tail {
                return Err(TxError::CorruptVlog("preserve record truncated".into()));
            }
            let len = pool.read_u64(self.base.add(PRESERVE_DATA + off))?;
            if off + 8 + len > tail {
                return Err(TxError::CorruptVlog("preserve payload truncated".into()));
            }
            preserves.push(pool.read_bytes(self.base.add(PRESERVE_DATA + off + 8), len)?);
            off += 8 + len;
        }
        Ok(VlogRecord {
            name,
            args,
            preserves,
        })
    }

    /// Reads back the slot's re-execution progress checkpoint, if a valid
    /// one is present. Returns `None` for a slot that never checkpointed,
    /// whose checkpoint was invalidated at the last `begin`, or whose
    /// payload fails its checksum (torn or corrupted — ignored, because
    /// restarting re-execution from zero is always sound).
    pub fn checkpoint(&self, pool: &PmemPool) -> Result<Option<VlogCheckpoint>, PmemError> {
        if pool.read_u64(self.base.add(CKPT_MAGIC_OFF))? != CKPT_MAGIC {
            return Ok(None);
        }
        let stores = pool.read_u64(self.base.add(CKPT_STORES))?;
        let entries = pool.read_u64(self.base.add(CKPT_ENTRIES))?;
        let preserves = pool.read_u64(self.base.add(CKPT_PRESERVES))?;
        if pool.read_u64(self.base.add(CKPT_CHECK))? != ckpt_checksum(stores, entries, preserves) {
            return Ok(None);
        }
        Ok(Some(VlogCheckpoint {
            stores,
            entries,
            preserves,
        }))
    }

    /// Durably persists a re-execution progress checkpoint (one fence —
    /// a real pool fence, not a group-commit epoch: the whole point is that
    /// the watermark survives an immediately following crash). Only the
    /// recovery re-execution path writes these; forward-path transactions
    /// never pay this cost.
    pub fn write_checkpoint(&self, pool: &PmemPool, ck: VlogCheckpoint) -> Result<(), PmemError> {
        pool.write_u64(self.base.add(CKPT_STORES), ck.stores)?;
        pool.write_u64(self.base.add(CKPT_ENTRIES), ck.entries)?;
        pool.write_u64(self.base.add(CKPT_PRESERVES), ck.preserves)?;
        pool.write_u64(
            self.base.add(CKPT_CHECK),
            ckpt_checksum(ck.stores, ck.entries, ck.preserves),
        )?;
        pool.write_u64(self.base.add(CKPT_MAGIC_OFF), CKPT_MAGIC)?;
        pool.flush(self.base.add(CKPT_MAGIC_OFF), 40)?;
        pool.fence();
        bump_vlog(pool, 1, 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clobber_pmem::{CrashConfig, PoolOptions};

    fn setup() -> (PmemPool, VlogSlot) {
        let pool = PmemPool::create(PoolOptions::crash_sim(1 << 22)).unwrap();
        let slot = VlogSlot::create(&pool, 0, PAddr::NULL, 4096, 4096).unwrap();
        (pool, slot)
    }

    #[test]
    fn fresh_slot_is_idle() {
        let (pool, slot) = setup();
        assert!(!slot.is_ongoing(&pool).unwrap());
        assert!(!slot.is_redo_committed(&pool).unwrap());
        assert_eq!(slot.id(&pool).unwrap(), 0);
        assert!(slot.next(&pool).unwrap().is_null());
    }

    #[test]
    fn begin_records_name_and_args_durably() {
        let (pool, slot) = setup();
        let args = ArgList::new().with_u64(5).with_bytes(b"vvv");
        slot.begin(&pool, "list_insert", &args).unwrap();
        let p2 = pool.crash(&CrashConfig::drop_all(1)).unwrap();
        assert!(slot.is_ongoing(&p2).unwrap());
        let rec = slot.record(&p2).unwrap();
        assert_eq!(rec.name, "list_insert");
        assert_eq!(rec.args, args);
        assert!(rec.preserves.is_empty());
    }

    #[test]
    fn begin_uses_exactly_two_fences() {
        let (pool, slot) = setup();
        let before = pool.stats().snapshot();
        slot.begin(&pool, "f", &ArgList::new().with_u64(1)).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(d.fences, 2, "paper §5.3: only two necessary fences");
    }

    #[test]
    fn preserve_blobs_replay_in_order() {
        let (pool, slot) = setup();
        slot.begin(&pool, "f", &ArgList::new()).unwrap();
        slot.preserve(&pool, b"first").unwrap();
        slot.preserve(&pool, b"second-blob").unwrap();
        let rec = slot.record(&pool).unwrap();
        assert_eq!(
            rec.preserves,
            vec![b"first".to_vec(), b"second-blob".to_vec()]
        );
    }

    #[test]
    fn preserve_survives_crash() {
        let (pool, slot) = setup();
        slot.begin(&pool, "f", &ArgList::new()).unwrap();
        slot.preserve(&pool, b"volatile-input").unwrap();
        let p2 = pool.crash(&CrashConfig::drop_all(2)).unwrap();
        let rec = slot.record(&p2).unwrap();
        assert_eq!(rec.preserves, vec![b"volatile-input".to_vec()]);
    }

    #[test]
    fn oversized_name_and_args_are_rejected() {
        let (pool, slot) = setup();
        let long_name = "x".repeat(200);
        assert!(matches!(
            slot.begin(&pool, &long_name, &ArgList::new()),
            Err(TxError::VlogCapacity { .. })
        ));
        let big = ArgList::new().with_bytes(&vec![0u8; 3000]);
        assert!(matches!(
            slot.begin(&pool, "f", &big),
            Err(TxError::VlogCapacity { .. })
        ));
    }

    #[test]
    fn preserve_capacity_is_enforced() {
        let (pool, slot) = setup();
        slot.begin(&pool, "f", &ArgList::new()).unwrap();
        let blob = vec![0u8; 2040];
        slot.preserve(&pool, &blob).unwrap();
        slot.preserve(&pool, &blob).unwrap();
        assert!(matches!(
            slot.preserve(&pool, &blob),
            Err(TxError::VlogCapacity { .. })
        ));
    }

    #[test]
    fn clear_ongoing_plus_fence_is_durable() {
        let (pool, slot) = setup();
        slot.begin(&pool, "f", &ArgList::new()).unwrap();
        slot.clear_ongoing(&pool).unwrap();
        pool.fence();
        let p2 = pool.crash(&CrashConfig::drop_all(3)).unwrap();
        assert!(!slot.is_ongoing(&p2).unwrap());
    }

    #[test]
    fn begin_overwrites_previous_record() {
        let (pool, slot) = setup();
        slot.begin(&pool, "first", &ArgList::new().with_u64(1))
            .unwrap();
        slot.preserve(&pool, b"blob").unwrap();
        slot.clear_ongoing(&pool).unwrap();
        pool.fence();
        slot.begin(&pool, "second", &ArgList::new().with_u64(2))
            .unwrap();
        let rec = slot.record(&pool).unwrap();
        assert_eq!(rec.name, "second");
        assert_eq!(rec.args.u64(0).unwrap(), 2);
        assert!(rec.preserves.is_empty(), "preserve state resets at begin");
    }

    #[test]
    fn slot_log_buffers_are_usable() {
        let (pool, slot) = setup();
        let clog = slot.clobber_log(&pool).unwrap();
        clog.append(&pool, PAddr::new(512), b"old").unwrap();
        assert_eq!(clog.len(&pool).unwrap(), 1);
        let rlog = slot.redo_log(&pool).unwrap();
        assert!(rlog.is_empty(&pool).unwrap());
    }

    #[test]
    fn checkpoint_roundtrips_and_survives_crash() {
        let (pool, slot) = setup();
        slot.begin(&pool, "f", &ArgList::new()).unwrap();
        assert_eq!(slot.checkpoint(&pool).unwrap(), None);
        let ck = VlogCheckpoint {
            stores: 3,
            entries: 7,
            preserves: 1,
        };
        slot.write_checkpoint(&pool, ck).unwrap();
        assert_eq!(slot.checkpoint(&pool).unwrap(), Some(ck));
        // write_checkpoint fences, so an immediate crash keeps it.
        let p2 = pool.crash(&CrashConfig::drop_all(9)).unwrap();
        assert_eq!(slot.checkpoint(&p2).unwrap(), Some(ck));
    }

    #[test]
    fn begin_invalidates_a_stale_checkpoint() {
        let (pool, slot) = setup();
        slot.begin(&pool, "f", &ArgList::new()).unwrap();
        slot.write_checkpoint(
            &pool,
            VlogCheckpoint {
                stores: 2,
                entries: 2,
                preserves: 0,
            },
        )
        .unwrap();
        slot.clear_ongoing(&pool).unwrap();
        pool.fence();
        slot.begin(&pool, "g", &ArgList::new()).unwrap();
        let p2 = pool.crash(&CrashConfig::drop_all(10)).unwrap();
        assert_eq!(
            slot.checkpoint(&p2).unwrap(),
            None,
            "a durable status bit implies a durable invalidation"
        );
    }

    #[test]
    fn corrupted_checkpoint_payload_reads_as_absent() {
        let (pool, slot) = setup();
        slot.begin(&pool, "f", &ArgList::new()).unwrap();
        slot.write_checkpoint(
            &pool,
            VlogCheckpoint {
                stores: 5,
                entries: 9,
                preserves: 2,
            },
        )
        .unwrap();
        // Flip bits in the payload words; the checksum must reject them.
        pool.inject_bit_corruption(slot.base().add(CKPT_STORES), 24, 0xBEEF, 4)
            .unwrap();
        assert_eq!(slot.checkpoint(&pool).unwrap(), None);
    }

    #[test]
    fn slots_link_into_a_list() {
        let pool = PmemPool::create(PoolOptions::crash_sim(1 << 22)).unwrap();
        let s0 = VlogSlot::create(&pool, 0, PAddr::NULL, 1024, 1024).unwrap();
        let s1 = VlogSlot::create(&pool, 1, s0.base(), 1024, 1024).unwrap();
        assert_eq!(s1.next(&pool).unwrap(), s0.base());
        assert_eq!(s1.id(&pool).unwrap(), 1);
    }
}
