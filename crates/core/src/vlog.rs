//! The per-thread persistent v_log slot.
//!
//! Each thread owns one slot (paper §4.2: "we manage the per-thread v_log
//! using a global linked list resident in persistent memory, and allocate it
//! on thread creation. The thread will use this log to manage its (at most
//! one) active transaction"). A slot records:
//!
//! * the transaction **status word** — the in-flight transaction's *begin
//!   number*, zero once it commits; recovery re-executes every slot whose
//!   word is set (the undo and Atlas baselines set it to 1),
//! * the txfunc **name and serialized arguments**, sealed with the begin
//!   number,
//! * **preserved volatile blobs** ([`vlog_preserve`](crate::Tx::vlog_preserve)),
//!   counted in a cache line that names its begin,
//! * descriptors of the slot's clobber/undo log and redo log buffers, and
//!   the redo commit marker.
//!
//! # A begin with no fence of its own
//!
//! The paper counts two v_log fences per transaction — the record, then the
//! status bit (§5.3). [`VlogSlot::begin`] issues none: it writes the record,
//! its seal, a fresh preserve line and the status word with flushes only,
//! and the transaction's next ordering point — in most transactions its
//! commit's log sync — makes them durable together. No store to data
//! older than the transaction may reach media before that point (`Tx`
//! defers every such store to it), so a crash inside the window leaves an
//! arbitrary subset of these lines, and recovery accepts a slot as begun
//! only if they agree:
//!
//! * the begin number `s` is the clobber log's generation once the begin has
//!   truncated it, so a slot never reuses one (a runtime adopting a slot
//!   truncates its log with a fence, using up a lost begin's number);
//! * the seal binds `s`, the name and the arguments: a torn record, or the
//!   previous transaction's under a new `s`, never validates, and recovery
//!   abandons the slot — the begin never reached an ordering point, so none
//!   of the transaction's stores did either;
//! * the clobber log's entries count only once its generation has reached
//!   `s` (an older one is a truncation that did not persist);
//! * the preserve count counts only if its line names `s`.

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
const SEAL: u64 = 72;
const NAME: u64 = 80;
const ARGS_LEN: u64 = NAME + NAME_CAP;
const ARGS: u64 = ARGS_LEN + 8;
/// The preserve line is the first whole cache line from here, so a crash
/// keeps or drops its words together (a slot is only 16-byte aligned).
const META_AREA: u64 = ARGS + ARGS_CAP;
const PRESERVE_DATA: u64 = META_AREA + 2 * CACHE_LINE;

/// The preserve line's words, written as one store: the begin it belongs
/// to, the preserve count and tail, and a word kept zero.
const META_STORE: usize = 32;

/// Folds one word into a running hash.
fn mix(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 31)
}

/// Folds `bytes` — its length, then its contents a little-endian word at a
/// time, the last word zero-padded — into a running hash.
fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    h = mix(h, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(w));
    }
    h
}

/// The seal of a begin record: binds the begin number, the name and the
/// serialized arguments. A record whose seal does not match under the slot's
/// status word is torn or belongs to another begin.
fn seal(begin: u64, name: &[u8], args: &[u8]) -> u64 {
    mix_bytes(mix_bytes(begin, name), args)
}

/// Serializes `words` little-endian into the front of `buf`.
fn put_words(buf: &mut [u8], words: &[u64]) {
    for (b, w) in buf.chunks_exact_mut(8).zip(words) {
        b.copy_from_slice(&w.to_le_bytes());
    }
}

/// Atlas's FASE record: the first whole line from here (a slot's 8 KiB
/// allocation has the room).
const FASE_AREA: u64 = PRESERVE_DATA + PRESERVE_CAP;

/// Total persistent size of one slot.
pub const SLOT_SIZE: u64 = FASE_AREA + 2 * CACHE_LINE;

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
        pool.write_bytes(s.preserve_line(), &[0; CACHE_LINE as usize])?;
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

    /// The line holding the begin number and the preserve count and tail;
    /// exposed, like [`record_region`](Self::record_region), for
    /// fault-injection harnesses.
    pub fn preserve_line(&self) -> PAddr {
        PAddr::new((self.base.offset() + META_AREA).next_multiple_of(CACHE_LINE))
    }

    /// Reads the preserve line as its eight words (one read).
    fn read_meta(&self, pool: &PmemPool) -> Result<[u64; 8], PmemError> {
        let mut raw = [0u8; CACHE_LINE as usize];
        pool.read_into(self.preserve_line(), &mut raw)?;
        Ok(std::array::from_fn(|i| {
            u64::from_le_bytes(raw[8 * i..][..8].try_into().unwrap())
        }))
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

    /// The status word: the in-flight transaction's begin number, or 0 when
    /// the slot is idle.
    pub fn status(&self, pool: &PmemPool) -> Result<u64, PmemError> {
        pool.read_u64(self.base.add(STATUS))
    }

    /// Whether the slot has an in-flight (uncommitted) transaction.
    pub fn is_ongoing(&self, pool: &PmemPool) -> Result<bool, PmemError> {
        Ok(self.status(pool)? != 0)
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

    /// Writes the begin record of begin number `begin` — name, arguments,
    /// their seal, and a preserve line naming `begin` with no preserves —
    /// and sets the status word to `begin`, with flushes only: the caller's
    /// next fence makes the begin durable (see the module docs). `begin` must be nonzero and never reused on
    /// this slot. Returns the number of v_log bytes recorded.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::VlogCapacity`] if the name or arguments exceed the
    /// slot's fixed buffers.
    pub fn begin(
        &self,
        pool: &PmemPool,
        begin: u64,
        name: &str,
        args: &ArgList,
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
        // Name length, seal and name are one store.
        let mut head = [0u8; (NAME - NAME_LEN + NAME_CAP) as usize];
        let sealed = seal(begin, name_bytes, &arg_bytes);
        put_words(&mut head, &[name_bytes.len() as u64, sealed]);
        let head = &mut head[..(NAME - NAME_LEN) as usize + name_bytes.len()];
        head[(NAME - NAME_LEN) as usize..].copy_from_slice(name_bytes);
        pool.write_bytes(self.base.add(NAME_LEN), head)?;
        pool.write_u64(self.base.add(ARGS_LEN), arg_bytes.len() as u64)?;
        pool.write_bytes(self.base.add(ARGS), &arg_bytes)?;
        pool.flush(
            self.base.add(NAME_LEN),
            ARGS - NAME_LEN + arg_bytes.len() as u64,
        )?;
        self.bind_preserves(pool, begin, 0, 0)?;
        pool.store_flush(self.base.add(STATUS), &begin.to_le_bytes())?;
        bump_vlog(pool, 2, 0);
        let bytes = 16 + name_bytes.len() as u64 + arg_bytes.len() as u64;
        pool.trace_app_event(
            clobber_pmem::EventKind::VlogAppend,
            0,
            self.base.offset(),
            bytes,
        );
        Ok(bytes)
    }

    /// Sets the status word to 1 without recording a new record (used when
    /// the status must be marked ongoing for backends without a v_log
    /// record).
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

    /// Clears the status word; the caller decides when to fence (commit
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
    /// `fence` (group-commit routing). The fence also orders the begin.
    pub fn preserve_with_fence(
        &self,
        pool: &PmemPool,
        data: &[u8],
        fence: &dyn Fn(&PmemPool),
    ) -> Result<u64, TxError> {
        let [begin, count, tail, ..] = self.read_meta(pool)?;
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
        self.bind_preserves(pool, begin, count + 1, tail + need)?;
        fence(pool);
        bump_vlog(pool, 1, 1);
        pool.trace_app_event(
            clobber_pmem::EventKind::VlogAppend,
            0,
            self.base.offset(),
            need,
        );
        Ok(need)
    }

    /// Reads back the begin record of the transaction whose status word is
    /// `begin`. Returns `None` if the record's seal does not match: the
    /// record is torn or another begin's, so this begin never reached an
    /// ordering point. Preserves count only if their line names `begin`.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::CorruptVlog`] if a length is out of range or a
    /// sealed record fails to decode.
    pub fn record(&self, pool: &PmemPool, begin: u64) -> Result<Option<VlogRecord>, TxError> {
        let mut head = [0u8; (NAME - NAME_LEN) as usize];
        pool.read_into(self.base.add(NAME_LEN), &mut head)?;
        let name_len = u64::from_le_bytes(head[..8].try_into().unwrap());
        if name_len > NAME_CAP {
            return Err(TxError::CorruptVlog("name length out of range".into()));
        }
        let name_bytes = pool.read_bytes(self.base.add(NAME), name_len)?;
        let args_len = pool.read_u64(self.base.add(ARGS_LEN))?;
        if args_len > ARGS_CAP {
            return Err(TxError::CorruptVlog("args length out of range".into()));
        }
        let arg_bytes = pool.read_bytes(self.base.add(ARGS), args_len)?;
        let sealed = u64::from_le_bytes(head[(SEAL - NAME_LEN) as usize..].try_into().unwrap());
        if sealed != seal(begin, &name_bytes, &arg_bytes) {
            return Ok(None);
        }
        let name = String::from_utf8(name_bytes)
            .map_err(|_| TxError::CorruptVlog("name is not UTF-8".into()))?;
        let args = ArgList::from_bytes(&arg_bytes)
            .map_err(|_| TxError::CorruptVlog("argument encoding invalid".into()))?;
        let [tag, count, tail, ..] = self.read_meta(pool)?;
        // A line naming another begin holds none of this one's preserves.
        let (count, tail) = if tag == begin { (count, tail) } else { (0, 0) };
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
            if len > tail - off - 8 {
                return Err(TxError::CorruptVlog("preserve payload truncated".into()));
            }
            preserves.push(pool.read_bytes(self.base.add(PRESERVE_DATA + off + 8), len)?);
            off += 8 + len;
        }
        Ok(Some(VlogRecord {
            name,
            args,
            preserves,
        }))
    }

    /// Binds the preserve line to begin `begin`, holding `count` preserves
    /// up to `tail`; the caller fences.
    fn bind_preserves(
        &self,
        pool: &PmemPool,
        begin: u64,
        count: u64,
        tail: u64,
    ) -> Result<(), PmemError> {
        let mut words = [0u8; META_STORE];
        put_words(&mut words, &[begin, count, tail]);
        pool.store_flush(self.preserve_line(), &words)?;
        bump_vlog(pool, 1, 0);
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
    fn begin_records_name_and_args_durably_at_the_next_fence() {
        let (pool, slot) = setup();
        let args = ArgList::new().with_u64(5).with_bytes(b"vvv");
        let name = "n".repeat(NAME_CAP as usize);
        slot.begin(&pool, 2, &name, &args).unwrap();
        pool.fence();
        let p2 = pool.crash(&CrashConfig::drop_all(1)).unwrap();
        assert_eq!(slot.status(&p2).unwrap(), 2);
        let rec = slot.record(&p2, 2).unwrap().unwrap();
        assert_eq!(rec.name, name);
        assert_eq!(rec.args, args);
        assert!(rec.preserves.is_empty());
        assert_eq!(
            slot.record(&p2, 3).unwrap(),
            None,
            "the seal binds the begin"
        );
    }

    #[test]
    fn preserve_blobs_replay_in_order() {
        let (pool, slot) = setup();
        slot.begin(&pool, 2, "f", &ArgList::new()).unwrap();
        slot.preserve(&pool, b"first").unwrap();
        slot.preserve(&pool, b"second-blob").unwrap();
        let rec = slot.record(&pool, 2).unwrap().unwrap();
        assert_eq!(
            rec.preserves,
            vec![b"first".to_vec(), b"second-blob".to_vec()]
        );
    }

    #[test]
    fn preserve_orders_the_begin_and_survives_crash() {
        let (pool, slot) = setup();
        slot.begin(&pool, 2, "f", &ArgList::new()).unwrap();
        slot.preserve(&pool, b"volatile-input").unwrap();
        let p2 = pool.crash(&CrashConfig::drop_all(2)).unwrap();
        let rec = slot.record(&p2, 2).unwrap().unwrap();
        assert_eq!(rec.preserves, vec![b"volatile-input".to_vec()]);
    }

    #[test]
    fn oversized_name_and_args_are_rejected() {
        let (pool, slot) = setup();
        let long_name = "x".repeat(200);
        assert!(matches!(
            slot.begin(&pool, 2, &long_name, &ArgList::new()),
            Err(TxError::VlogCapacity { .. })
        ));
        let big = ArgList::new().with_bytes(&vec![0u8; 3000]);
        assert!(matches!(
            slot.begin(&pool, 2, "f", &big),
            Err(TxError::VlogCapacity { .. })
        ));
    }

    #[test]
    fn preserve_capacity_is_enforced() {
        let (pool, slot) = setup();
        slot.begin(&pool, 2, "f", &ArgList::new()).unwrap();
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
        slot.begin(&pool, 2, "f", &ArgList::new()).unwrap();
        slot.clear_ongoing(&pool).unwrap();
        pool.fence();
        let p2 = pool.crash(&CrashConfig::drop_all(3)).unwrap();
        assert!(!slot.is_ongoing(&p2).unwrap());
    }

    #[test]
    fn begin_overwrites_previous_record() {
        let (pool, slot) = setup();
        slot.begin(&pool, 2, "first", &ArgList::new().with_u64(1))
            .unwrap();
        slot.preserve(&pool, b"blob").unwrap();
        slot.clear_ongoing(&pool).unwrap();
        pool.fence();
        slot.begin(&pool, 3, "second", &ArgList::new().with_u64(2))
            .unwrap();
        let rec = slot.record(&pool, 3).unwrap().unwrap();
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
    fn slots_link_into_a_list() {
        let pool = PmemPool::create(PoolOptions::crash_sim(1 << 22)).unwrap();
        let s0 = VlogSlot::create(&pool, 0, PAddr::NULL, 1024, 1024).unwrap();
        let s1 = VlogSlot::create(&pool, 1, s0.base(), 1024, 1024).unwrap();
        assert_eq!(s1.next(&pool).unwrap(), s0.base());
        assert_eq!(s1.id(&pool).unwrap(), 1);
    }
}
