//! The per-thread persistent v_log slot.
//!
//! Each thread owns one slot (paper §4.2: "we manage the per-thread v_log
//! using a global linked list resident in persistent memory, and allocate it
//! on thread creation. The thread will use this log to manage its (at most
//! one) active transaction"). A slot holds:
//!
//! * the transaction **status word** — the in-flight transaction's *begin
//!   number*, zero once it commits; recovery re-executes every slot whose
//!   word is set (the undo and Atlas baselines set it to 1),
//! * the **v_log**: a [`Ulog`] whose first entry is the begin record — the
//!   txfunc name (its length in the address word), then the serialized
//!   arguments — and each later entry a preserved volatile blob,
//! * descriptors of the slot's clobber/undo and redo logs, and the redo
//!   commit marker.
//!
//! The v_log is not the head of the clobber log because recovery truncates
//! that log before every replay, and the replay, and any recovery after a
//! crash inside it, still need the record.
//!
//! # A begin with no fence of its own
//!
//! The paper counts two v_log fences per transaction — the record, then the
//! status bit (§5.3). [`VlogSlot::begin`] issues none: it writes the v_log
//! and the status word with flushes only, and the transaction's next
//! ordering point (usually its commit's log sync) makes them durable
//! together. No store to data older than the transaction reaches media
//! before that point (`Tx` defers each such store to it), so a crash inside
//! the window leaves any subset of these lines. Recovery accepts begin `s`
//! only if the status word is `s` and the v_log's generation is `s`, and
//! reads the entries by the line-marker rule alone:
//!
//! * `s` is the clobber log's generation once the begin has truncated it,
//!   so a slot never reuses one (a runtime adopting a slot truncates its
//!   log with a fence, using up a lost begin's number);
//! * a v_log at another generation, or whose first entry is torn, was never
//!   ordered: recovery abandons the slot, since none of the transaction's
//!   stores reached media either. A line of an earlier begin never
//!   validates under `s`;
//! * the clobber log's entries count only once its generation has reached
//!   `s` (an older one is a truncation that did not persist).

use std::sync::atomic::Ordering::Relaxed;

use clobber_pmem::{EventKind, LogKind, LogWriter, PAddr, PmemError, PmemPool, Ulog, CACHE_LINE};

use crate::args::ArgList;
use crate::error::TxError;

/// Attributes one written-back slot line, and `fences` fences, to the v_log
/// in [`clobber_pmem::StatsSnapshot`].
fn bump_vlog(pool: &PmemPool, fences: u64) {
    let s = pool.stats();
    s.vlog_flushes.fetch_add(1, Relaxed);
    s.vlog_fences.fetch_add(fences, Relaxed);
}

const STATUS: u64 = 0;
const NEXT: u64 = 8;
const ID: u64 = 16;
const COMMITTED: u64 = 24;
const CLOBBER_BASE: u64 = 32;
const CLOBBER_CAP: u64 = 40;
const REDO_BASE: u64 = 48;
const REDO_CAP: u64 = 56;
/// Atlas's FASE record: the slot's second line (a heap payload starts on a
/// line).
const FASE_AREA: u64 = 64;

/// Persistent size of a slot's words and its FASE line; the slot's v_log
/// follows them in the same allocation.
const SLOT_SIZE: u64 = FASE_AREA + CACHE_LINE;
/// A slot's allocation: its words, then its v_log.
const SLOT_ALLOC: u64 = 8 << 10;
/// Bytes of a slot's v_log, which the txfunc name, the arguments and the
/// preserved volatile data share: the rest of the slot's 8 KiB.
pub const VLOG_CAP: u64 = SLOT_ALLOC - SLOT_SIZE;

/// Handle to one thread's persistent v_log slot.
///
/// The handle is a plain descriptor; all state lives in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlogSlot {
    base: PAddr,
}

/// A slot's log handles: the clobber/undo-log and v_log append cursors and
/// the redo-log descriptor.
#[derive(Debug)]
pub struct SlotLogs {
    /// Cursor over the clobber/undo log.
    pub clog: LogWriter,
    /// The redo log.
    pub rlog: Ulog,
    /// Cursor over the v_log.
    pub vlog: LogWriter,
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
        let base = pool.alloc(SLOT_ALLOC)?;
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
        // Generation 0 names no begin.
        LogWriter::new(s.vlog()).reset_to(pool, 0)?;
        pool.persist(base, FASE_AREA)?;
        Ok(s)
    }

    /// The slot's base address.
    pub fn base(&self) -> PAddr {
        self.base
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

    /// The slot's v_log, which follows its words (tagged for `vlog_*`
    /// counter attribution).
    pub fn vlog(&self) -> Ulog {
        Ulog::new(self.base.add(SLOT_SIZE), VLOG_CAP).with_kind(LogKind::Vlog)
    }

    /// Fresh cursors over the slot's logs, positioned by nothing yet: the
    /// caller adopts each before use.
    pub fn logs(&self, pool: &PmemPool) -> Result<SlotLogs, PmemError> {
        Ok(SlotLogs {
            clog: LogWriter::new(self.clobber_log(pool)?),
            rlog: self.redo_log(pool)?,
            vlog: LogWriter::new(self.vlog()),
        })
    }

    /// The status word: the in-flight transaction's begin number, or 0 when
    /// the slot is idle.
    pub fn status(&self, pool: &PmemPool) -> Result<u64, PmemError> {
        pool.read_u64(self.base.add(STATUS))
    }

    /// The redo commit marker (set between redo-log persistence and
    /// write-back completion).
    pub fn is_redo_committed(&self, pool: &PmemPool) -> Result<bool, PmemError> {
        Ok(pool.read_u64(self.base.add(COMMITTED))? == 1)
    }

    /// Stores `value` in the slot word at `at` and writes it back, then
    /// fences if `fence` is set.
    fn put_word(&self, pool: &PmemPool, at: u64, value: u64, fence: bool) -> Result<(), PmemError> {
        pool.store_flush(self.base.add(at), &value.to_le_bytes())?;
        if fence {
            pool.fence();
        }
        bump_vlog(pool, fence as u64);
        Ok(())
    }

    /// Sets the redo commit marker durably.
    pub fn set_redo_committed(&self, pool: &PmemPool) -> Result<(), PmemError> {
        self.put_word(pool, COMMITTED, 1, true)
    }

    /// Clears the redo commit marker; the caller fences.
    pub fn clear_redo_committed_unfenced(&self, pool: &PmemPool) -> Result<(), PmemError> {
        self.put_word(pool, COMMITTED, 0, false)
    }

    /// Sets the status word to 1 durably: the undo and Atlas baselines'
    /// begin, which records no v_log.
    pub fn mark_ongoing(&self, pool: &PmemPool) -> Result<(), PmemError> {
        self.put_word(pool, STATUS, 1, true)
    }

    /// Clears the status word; the caller decides when to fence (commit
    /// bundles this flush with its final fence).
    pub fn clear_ongoing(&self, pool: &PmemPool) -> Result<(), PmemError> {
        self.put_word(pool, STATUS, 0, false)
    }

    /// Begins a transaction on this slot with flushes only — the caller's
    /// next fence makes the begin durable (see the module docs): truncates
    /// the clobber log, whose new generation `s` numbers the begin, starts
    /// the v_log over at `s`, appends the begin record {`name`, `args`}
    /// serialized in `buf`, and sets the status word to `s`.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::VlogCapacity`], before any store, if the record
    /// does not fit the v_log.
    pub fn begin(
        &self,
        pool: &PmemPool,
        logs: &mut SlotLogs,
        name: &str,
        args: &ArgList,
        buf: &mut Vec<u8>,
    ) -> Result<(), TxError> {
        buf.clear();
        buf.reserve(name.len() + args.encoded_len());
        buf.extend_from_slice(name.as_bytes());
        args.encode_into(buf);
        let capacity = logs.vlog.log().entry_capacity();
        if buf.len() as u64 > capacity {
            return Err(TxError::VlogCapacity {
                what: "begin record",
                needed: buf.len() as u64,
                capacity,
            });
        }
        let begin = logs.clog.reset_unfenced(pool)?;
        logs.vlog.reset_to(pool, begin)?;
        logs.vlog.append(pool, PAddr::new(name.len() as u64), buf)?;
        logs.vlog.write_back(pool)?;
        self.put_word(pool, STATUS, begin, false)?;
        pool.stats().vlog_entries.fetch_add(1, Relaxed);
        self.count_vlog_bytes(pool, 16 + buf.len() as u64);
        Ok(())
    }

    /// Counts `bytes` recorded in the v_log, and traces them.
    fn count_vlog_bytes(&self, pool: &PmemPool, bytes: u64) {
        pool.stats().vlog_bytes.fetch_add(bytes, Relaxed);
        pool.trace_app_event(EventKind::VlogAppend, 0, self.base.offset(), bytes);
    }

    /// Persists Atlas's 32-byte FASE dependency record in a line of its
    /// own, fenced, and counts it as one 32-byte log entry. It is no
    /// undo-log entry, so no rollback ever writes over the slot.
    pub fn fase_record_with_fence(&self, pool: &PmemPool) -> Result<(), PmemError> {
        pool.store_flush(self.base.add(FASE_AREA), &[0; 32])?;
        pool.fence();
        bump_vlog(pool, 1);
        let stats = pool.stats();
        stats.log_entries.fetch_add(1, Relaxed);
        stats.log_bytes.fetch_add(32, Relaxed);
        Ok(())
    }

    /// Appends one preserved volatile blob to the v_log and syncs it; the
    /// sync's fence also orders the begin. Counts the payload and an 8-byte
    /// length as v_log bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::VlogCapacity`], before any store, if the v_log is
    /// full.
    pub fn preserve(
        &self,
        pool: &PmemPool,
        vlog: &mut LogWriter,
        data: &[u8],
    ) -> Result<(), TxError> {
        vlog.append(pool, PAddr::NULL, data).map_err(|e| match e {
            PmemError::LogFull { needed, capacity } => TxError::VlogCapacity {
                what: "preserved volatile data",
                needed,
                capacity,
            },
            e => e.into(),
        })?;
        vlog.sync(pool)?;
        self.count_vlog_bytes(pool, 8 + data.len() as u64);
        Ok(())
    }

    /// Reads back the begin record of the transaction whose status word is
    /// `begin`. Returns `None` unless the v_log is at generation `begin` and
    /// its first entry is whole: otherwise this begin never reached an
    /// ordering point. Every later whole entry is a preserve.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::CorruptVlog`] if the v_log header is not a log
    /// header or a whole begin entry fails to decode.
    pub fn record(&self, pool: &PmemPool, begin: u64) -> Result<Option<VlogRecord>, TxError> {
        let corrupt = |why: &str| TxError::CorruptVlog(why.into());
        let scan = self.vlog().scan(pool).map_err(|e| match e {
            PmemError::CorruptPool(why) => TxError::CorruptVlog(why),
            e => e.into(),
        })?;
        let mut entries = scan.iter();
        let Some((name_len, record)) = entries.next().filter(|_| scan.generation() == begin) else {
            return Ok(None);
        };
        let (name, args) = record
            .split_at_checked(name_len.offset() as usize)
            .ok_or_else(|| corrupt("name length out of range"))?;
        let name = std::str::from_utf8(name).map_err(|_| corrupt("name is not UTF-8"))?;
        let args = ArgList::from_bytes(args).map_err(|_| corrupt("argument encoding invalid"))?;
        Ok(Some(VlogRecord {
            name: name.to_owned(),
            args,
            preserves: entries.map(|(_, blob)| blob.to_vec()).collect(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clobber_pmem::{CrashConfig, PoolOptions};

    fn setup() -> (PmemPool, VlogSlot, SlotLogs) {
        let pool = PmemPool::create(PoolOptions::crash_sim(1 << 22)).unwrap();
        let slot = VlogSlot::create(&pool, 0, PAddr::NULL, 4096, 4096).unwrap();
        let logs = slot.logs(&pool).unwrap();
        (pool, slot, logs)
    }

    /// Begins `name(args)` on `slot`, returning its begin number.
    fn begin(
        pool: &PmemPool,
        slot: &VlogSlot,
        logs: &mut SlotLogs,
        name: &str,
        args: &ArgList,
    ) -> u64 {
        slot.begin(pool, logs, name, args, &mut Vec::new()).unwrap();
        slot.status(pool).unwrap()
    }

    #[test]
    fn a_fresh_slot_is_idle_and_its_logs_usable() {
        let (pool, slot, _) = setup();
        assert_eq!(slot.status(&pool).unwrap(), 0);
        assert!(!slot.is_redo_committed(&pool).unwrap());
        assert_eq!(
            (slot.id(&pool).unwrap(), slot.next(&pool).unwrap()),
            (0, PAddr::NULL)
        );
        assert_eq!(slot.record(&pool, 1).unwrap(), None);
        let clog = slot.clobber_log(&pool).unwrap();
        clog.append(&pool, PAddr::new(512), b"old").unwrap();
        assert_eq!(clog.len(&pool).unwrap(), 1);
        assert!(slot.redo_log(&pool).unwrap().is_empty(&pool).unwrap());
    }

    #[test]
    fn begin_records_name_and_args_durably_at_the_next_fence() {
        let (pool, slot, mut logs) = setup();
        let args = ArgList::new().with_u64(5).with_bytes(&[7; 500]);
        let name = "n".repeat(200);
        let before = pool.stats().snapshot();
        let s = begin(&pool, &slot, &mut logs, &name, &args);
        let d = pool.stats().snapshot().delta(&before);
        // Log truncation, v_log header, the record's lines, status word.
        assert_eq!((d.writes, d.fences), (4, 0), "one store per part, no fence");
        pool.fence();
        let p2 = pool.crash(&CrashConfig::drop_all(1)).unwrap();
        assert_eq!(slot.status(&p2).unwrap(), s);
        let rec = slot.record(&p2, s).unwrap().unwrap();
        assert_eq!((rec.name, rec.args), (name, args));
        assert!(rec.preserves.is_empty());
        assert_eq!(
            slot.record(&p2, s + 1).unwrap(),
            None,
            "the v_log's generation names the begin"
        );
    }

    #[test]
    fn preserves_order_the_begin_and_replay_in_order() {
        let (pool, slot, mut logs) = setup();
        let s = begin(&pool, &slot, &mut logs, "f", &ArgList::new());
        slot.preserve(&pool, &mut logs.vlog, b"first").unwrap();
        slot.preserve(&pool, &mut logs.vlog, b"second-blob")
            .unwrap();
        let p2 = pool.crash(&CrashConfig::drop_all(2)).unwrap();
        let rec = slot.record(&p2, s).unwrap().unwrap();
        assert_eq!(rec.preserves, [&b"first"[..], b"second-blob"]);
        slot.clear_ongoing(&p2).unwrap();
        p2.fence();
        let p3 = p2.crash(&CrashConfig::drop_all(3)).unwrap();
        assert_eq!(slot.status(&p3).unwrap(), 0);
    }

    #[test]
    fn a_record_past_the_vlog_is_refused_before_any_store() {
        let (pool, slot, mut logs) = setup();
        let cap = logs.vlog.log().entry_capacity() as usize;
        let args = ArgList::new().with_bytes(&vec![0u8; cap - 5]);
        let before = pool.stats().snapshot();
        assert!(matches!(
            slot.begin(&pool, &mut logs, "f", &args, &mut Vec::new()),
            Err(TxError::VlogCapacity { needed, capacity, .. })
                if needed == cap as u64 + 1 && capacity == cap as u64
        ));
        assert_eq!(pool.stats().snapshot().delta(&before).writes, 0);
        let fits = ArgList::new().with_bytes(&vec![0u8; cap - 6]);
        let s = begin(&pool, &slot, &mut logs, "f", &fits);
        assert_eq!(slot.record(&pool, s).unwrap().unwrap().args, fits);
    }

    #[test]
    fn preserves_share_the_vlog_with_the_record() {
        let (pool, slot, mut logs) = setup();
        begin(&pool, &slot, &mut logs, "f", &ArgList::new());
        let blob = vec![0u8; 3000];
        slot.preserve(&pool, &mut logs.vlog, &blob).unwrap();
        slot.preserve(&pool, &mut logs.vlog, &blob).unwrap();
        let before = pool.stats().snapshot();
        assert!(matches!(
            slot.preserve(&pool, &mut logs.vlog, &blob),
            Err(TxError::VlogCapacity { .. })
        ));
        assert_eq!(pool.stats().snapshot().delta(&before).writes, 0);
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
