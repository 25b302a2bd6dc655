//! The transaction context.
//!
//! A [`Tx`] is handed to a registered txfunc and interposes on every
//! persistent memory access — the role the paper's compiler-inserted
//! callbacks play (§4.2, §4.4). It records the transaction's read, written
//! and logged bytes in one line-keyed [`AccessTable`], and applies the active
//! [`Backend`]'s logging discipline on each store:
//!
//! * **Clobber** (refined): a store's old value is logged only for the byte
//!   ranges that are *true inputs* — read before first written — and not
//!   already clobber-logged. This is the exact dynamic counterpart of the
//!   paper's refined static analysis.
//! * **Clobber** (conservative): every store overlapping *any*
//!   previously-read range is logged, every time — reintroducing the
//!   *unexposed* (read-after-own-write treated as input) and *shadowed*
//!   (repeated clobber of the same input, e.g. in loops) false candidates
//!   that the paper's refinement pass removes (§4.4, Fig. 5).
//! * **Undo**: the old value is logged for every byte not yet written this
//!   transaction (PMDK's `TX_ADD` discipline — fresh allocations included).
//! * **Redo**: every store waits in the store buffer, reads interpose on
//!   it, and the commit streams it into the redo log; nothing is persisted
//!   until commit.
//!
//! # One log sync per transaction
//!
//! The paper pays a fence per clobber-log entry (§5.3). Here a clobber
//! store that logs a pre-image, overlaps a buffered byte, or reaches data
//! older than the transaction before the begin is ordered is *deferred*:
//! its entry is appended unfenced and the store waits in the same store
//! buffer Redo uses, bounded here. The next ordering point (the commit, or
//! a full buffer) syncs the log once, ordering the begin and every entry,
//! then applies the stores in order. Undo snapshots sync before each such
//! store and write it straight to the pool (PMDK's `TX_ADD` persists its
//! snapshot before returning). A recovery replay is an ordinary transaction
//! on the slot's existing begin and defers like any other.

use clobber_pmem::{LogWriter, PAddr, PmemError, PmemPool, CACHE_LINE};

use crate::access::{AccessTable, Kind, ToLog};
use crate::backend::Backend;
use crate::error::TxError;
use crate::ido::{IdoObserver, IdoTxStats};
use crate::vlog::{SlotLogs, VlogSlot};

/// Result type of a registered txfunc: an optional opaque return payload.
pub type TxResult = Result<Option<Vec<u8>>, TxError>;

/// Per-store logging decision for statically compiled transactions.
///
/// See [`Tx::write_bytes_with_policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePolicy {
    /// Let the runtime's dynamic read-set tracking decide (the default for
    /// hand-written txfuncs).
    #[default]
    Auto,
    /// This store site was identified as a clobber write by the compiler:
    /// log the old value unconditionally.
    ForceLog,
    /// The compiler proved this store never clobbers an input: skip
    /// logging.
    NoLog,
}

impl WritePolicy {
    /// The store's to-log rule: the discipline's own under `Auto`.
    fn to_log(self, auto: ToLog) -> ToLog {
        match self {
            WritePolicy::Auto => auto,
            WritePolicy::ForceLog => ToLog::All,
            WritePolicy::NoLog => ToLog::Nothing,
        }
    }
}

pub(crate) struct Replay {
    blobs: Vec<Vec<u8>>,
    next: usize,
}

/// Hulls the inline dirty set holds before it drains early.
const DIRTY_CAP: usize = 32;
/// Stores, and their bytes, Clobber's store buffer holds before an early
/// sync. Redo's is unbounded.
const DEFER_CAP: usize = 64;
const DEFER_BYTES: usize = 1024;

/// Cache lines folded onto 1024 bits, never missing one added since reset:
/// the dirty set and the store buffer (every read probes) scan on a hit.
#[derive(Default, Clone, Copy)]
struct Lines([u64; 16]);

impl Lines {
    fn bits(s: u64, e: u64) -> impl Iterator<Item = (usize, u64)> {
        let lines = (s / CACHE_LINE..=(e - 1) / CACHE_LINE).take(1024);
        lines.map(|l| ((l as usize >> 6) & 15, 1 << (l & 63)))
    }

    fn add(&mut self, s: u64, e: u64) {
        Self::bits(s, e).for_each(|(w, b)| self.0[w] |= b);
    }

    fn may_hold(&self, s: u64, e: u64) -> bool {
        Self::bits(s, e).any(|(w, b)| self.0[w] & b != 0)
    }
}

/// Stores waiting for a log sync — Clobber's deferred stores, Redo's whole
/// write set — in store order, as byte ranges `[start, end)` whose data lies
/// back to back in `data`.
#[derive(Default)]
struct StoreBuffer {
    ranges: Vec<(u64, u64)>,
    data: Vec<u8>,
    lines: Lines,
}

impl StoreBuffer {
    fn clear(&mut self) {
        self.ranges.clear();
        self.data.clear();
        self.lines = Lines::default();
    }

    fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Whether Clobber's bound leaves room for `len` more bytes.
    fn has_room(&self, len: usize) -> bool {
        self.ranges.len() < DEFER_CAP && self.data.len() + len <= DEFER_BYTES
    }

    fn push(&mut self, s: u64, data: &[u8]) {
        if self.ranges.capacity() == 0 {
            // Clobber's whole bound at once: a fresh scratch's first
            // transaction reallocates nothing below it.
            self.ranges.reserve_exact(DEFER_CAP);
            self.data.reserve_exact(DEFER_BYTES);
        }
        self.ranges.push((s, s + data.len() as u64));
        self.lines.add(s, s + data.len() as u64);
        self.data.extend_from_slice(data);
    }

    fn overlaps(&self, s: u64, e: u64) -> bool {
        self.lines.may_hold(s, e) && self.ranges.iter().any(|&(a, b)| a < e && b > s)
    }

    /// The buffered stores in store order, each with its bytes.
    fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let mut off = 0;
        self.ranges.iter().map(move |&(s, e)| {
            let n = (e - s) as usize;
            off += n;
            (s, &self.data[off - n..off])
        })
    }

    /// Overlays the buffered bytes on `buf`, loaded from offset `s`, later
    /// stores over earlier ones. Returns whether any byte came from here.
    fn overlay(&self, s: u64, buf: &mut [u8]) -> bool {
        let e = s + buf.len() as u64;
        if self.is_empty() || !self.lines.may_hold(s, e) {
            return false;
        }
        let mut served = false;
        for (ws, src) in self.iter() {
            let we = ws + src.len() as u64;
            if ws < e && we > s {
                let (lo, hi) = (s.max(ws), e.min(we));
                buf[(lo - s) as usize..(hi - s) as usize]
                    .copy_from_slice(&src[(lo - ws) as usize..(hi - ws) as usize]);
                served = true;
            }
        }
        served
    }
}

/// Reusable per-transaction state: the access table driving clobber
/// detection, the to-log ranges and old-value staging buffer of the current
/// store, the store buffer, the allocation ledgers and the dirty set.
///
/// The runtime keeps a free-list of these and threads one through each
/// transaction, so a warmed-up scratch makes the steady-state
/// read + clobber-detect + log path allocation-free: every container
/// below is `clear()`ed between transactions, which retains capacity.
///
/// The access table holds only the kinds the backend's discipline consults
/// (see [`Tracking`]).
#[derive(Default)]
pub(crate) struct TxScratch {
    /// Bytes read, written and logged by this transaction.
    access: AccessTable,
    /// Final to-log ranges for the current store.
    to_log: Vec<(u64, u64)>,
    /// Old-value bytes staged for the current log entry.
    log_buf: Vec<u8>,
    pub(crate) allocs: Vec<PAddr>,
    /// Blocks this transaction allocated and then freed: still reserved,
    /// ended as free at the commit or abort ordering point.
    dead: Vec<PAddr>,
    pub(crate) frees: Vec<PAddr>,
    /// Stored (or zero-filled) bytes no write-back covers yet, as
    /// `dirty[..dirty_len]` byte hulls `[start, end)`, no two sharing a
    /// cache line. Inline: a fresh scratch allocates nothing for it.
    dirty: [(u64, u64); DIRTY_CAP],
    dirty_len: usize,
    dirty_lines: Lines,
    /// Stores waiting for the transaction's next log sync.
    stores: StoreBuffer,
}

impl TxScratch {
    /// Empties every container while keeping its allocation.
    pub(crate) fn reset(&mut self) {
        self.stores.clear();
        self.access.clear();
        self.to_log.clear();
        self.log_buf.clear();
        self.allocs.clear();
        self.dead.clear();
        self.frees.clear();
        self.dirty_len = 0;
        self.dirty_lines = Lines::default();
    }
}

/// Which kinds of the access table a transaction's loads and stores update
/// — decided once from the backend, because each discipline reads only
/// some of them.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tracking {
    /// No store consults the table: NoLog, Redo (its write set is the store
    /// buffer itself) and clobber variants without a clobber log.
    Off,
    /// Refined clobber logging: read (before written), written, logged.
    Inputs,
    /// Conservative clobber logging: every read byte; written holds only
    /// `pmalloc` payloads, for the defer decision.
    RawReads,
    /// Undo and Atlas: written alone.
    Written,
}

impl Tracking {
    fn of(backend: Backend) -> Tracking {
        match backend {
            Backend::Clobber(cfg) if cfg.clobber_log && cfg.refined => Tracking::Inputs,
            Backend::Clobber(cfg) if cfg.clobber_log => Tracking::RawReads,
            Backend::Undo | Backend::Atlas => Tracking::Written,
            Backend::Clobber(_) | Backend::NoLog | Backend::Redo => Tracking::Off,
        }
    }
}

/// Deferred begin record: the v_log/status write is postponed until the
/// transaction's first persistent store, so read-only transactions pay no
/// ordering fences at all — matching the paper's observation that search
/// operations "do not involve logging mechanisms" (§5.6). Borrows the
/// dispatcher's name and arguments: it is consumed at most once, before
/// the txfunc returns.
pub(crate) struct PendingBegin<'rt> {
    pub name: &'rt str,
    pub args: &'rt crate::args::ArgList,
}

/// A live failure-atomic transaction.
///
/// Created by [`Runtime::run`](crate::Runtime::run); txfuncs receive
/// `&mut Tx` and must perform **all** persistent accesses through it.
/// Transactions must be deterministic functions of their arguments and the
/// persistent state they read (paper §2.3) — in particular they must not
/// read the clock, RNGs, or captured volatile state (use
/// [`vlog_preserve`](Self::vlog_preserve) or arguments for volatile inputs).
pub struct Tx<'rt> {
    pool: &'rt PmemPool,
    backend: Backend,
    tracking: Tracking,
    pub(crate) slot: VlogSlot,
    /// The slot's log handles: append cursors over its clobber/undo log and
    /// v_log cache their positions, so no append re-reads the log.
    logs: SlotLogs,
    scratch: TxScratch,
    replay: Option<Replay>,
    pub(crate) ido: Option<IdoObserver>,
    wrote: bool,
    vlog_enabled: bool,
    pending_begin: Option<PendingBegin<'rt>>,
    begun: bool,
    /// A clobber begin no fence has ordered yet.
    begin_unordered: bool,
}

impl<'rt> Tx<'rt> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        pool: &'rt PmemPool,
        backend: Backend,
        slot: VlogSlot,
        logs: SlotLogs,
        vlog_enabled: bool,
        replay: Option<Vec<Vec<u8>>>,
        ido: Option<IdoObserver>,
        pending_begin: Option<PendingBegin<'rt>>,
        scratch: TxScratch,
    ) -> Tx<'rt> {
        let begun = pending_begin.is_none();
        Tx {
            pool,
            backend,
            tracking: Tracking::of(backend),
            slot,
            logs,
            scratch,
            replay: replay.map(|blobs| Replay { blobs, next: 0 }),
            ido,
            wrote: false,
            vlog_enabled,
            pending_begin,
            begun,
            begin_unordered: false,
        }
    }

    /// Writes the begin record (v_log entry and/or status word) if it is
    /// still pending. Must run before the first store's logging: the fence
    /// that makes a log entry or a store durable orders the begin first.
    fn ensure_begun(&mut self) -> Result<(), TxError> {
        let pending = match self.pending_begin.take() {
            Some(p) => p,
            None => return Ok(()),
        };
        match self.backend {
            Backend::Clobber(cfg) if cfg.vlog => {
                // The transaction's next ordering point makes it durable.
                let buf = &mut self.scratch.log_buf;
                self.slot
                    .begin(self.pool, &mut self.logs, pending.name, pending.args, buf)?;
                self.begin_unordered = true;
            }
            Backend::Undo => {
                self.slot.mark_ongoing(self.pool)?;
            }
            Backend::Atlas => {
                // Lock-acquisition record (see Backend::Atlas docs).
                self.slot.mark_ongoing(self.pool)?;
                self.pool.flush(self.slot.base(), 8)?;
                self.pool.fence();
            }
            // Redo persists nothing until commit; NoLog and the partial
            // clobber variants have no begin record.
            _ => {}
        }
        self.begun = true;
        Ok(())
    }

    /// The pool this transaction operates on.
    pub fn pool(&self) -> &PmemPool {
        self.pool
    }

    /// Read-set tracking for a load of `[s, e)` the pool just served.
    fn track_read(&mut self, s: u64, e: u64) {
        if let Some(obs) = &mut self.ido {
            obs.on_read(s, e);
        }
        match self.tracking {
            Tracking::Inputs => self.scratch.access.load(s, e, true),
            Tracking::RawReads => self.scratch.access.load(s, e, false),
            Tracking::Written | Tracking::Off => {}
        }
    }

    /// Overlays the transaction's buffered stores on `buf`, just loaded from
    /// the pool at offset `s`, and prices the read: Redo interposes on every
    /// read — the "longer read path" the paper attributes Mnemosyne's
    /// read-side cost to — Clobber only on one the buffer serves.
    fn overlay_own_view(&self, s: u64, buf: &mut [u8]) {
        let served = self.scratch.stores.overlay(s, buf);
        if served || self.backend == Backend::Redo {
            self.pool
                .stats()
                .interposed_reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Reads `buf.len()` bytes at `addr` within the transaction into a
    /// caller-owned buffer — the allocation-free read primitive.
    ///
    /// Read-set tracking reuses the transaction's pooled scratch state, so
    /// a steady-state call allocates nothing.
    ///
    /// # Errors
    ///
    /// Propagates pool bounds errors as [`TxError::Pmem`].
    pub fn read_into(&mut self, addr: PAddr, buf: &mut [u8]) -> Result<(), TxError> {
        if buf.is_empty() {
            return Ok(());
        }
        let s = addr.offset();
        self.pool.read_into(addr, buf)?;
        self.track_read(s, s + buf.len() as u64);
        self.overlay_own_view(s, buf);
        Ok(())
    }

    /// Reads `len` bytes at `addr` within the transaction.
    ///
    /// Allocates the returned vector; hot paths should prefer
    /// [`read_into`](Self::read_into) with a reused buffer.
    ///
    /// # Errors
    ///
    /// Propagates pool bounds errors as [`TxError::Pmem`].
    pub fn read_bytes(&mut self, addr: PAddr, len: u64) -> Result<Vec<u8>, TxError> {
        self.pool.check_range(addr, len)?; // before a corrupt length sizes the buffer
        let mut buf = vec![0u8; len as usize];
        self.read_into(addr, &mut buf)?;
        Ok(buf)
    }

    /// Reads a little-endian `u64` at `addr` within the transaction, through
    /// the pool's fixed-width word load. No heap allocation.
    ///
    /// # Errors
    ///
    /// Propagates pool bounds errors as [`TxError::Pmem`].
    pub fn read_u64(&mut self, addr: PAddr) -> Result<u64, TxError> {
        let s = addr.offset();
        let mut buf = self.pool.read_u64(addr)?.to_le_bytes();
        self.track_read(s, s + 8);
        self.overlay_own_view(s, &mut buf);
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads a persistent pointer (stored as a `u64` offset) at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates pool bounds errors as [`TxError::Pmem`].
    pub fn read_paddr(&mut self, addr: PAddr) -> Result<PAddr, TxError> {
        Ok(PAddr::new(self.read_u64(addr)?))
    }

    /// Stores `data` at `addr` within the transaction, applying the active
    /// backend's logging discipline first.
    ///
    /// # Errors
    ///
    /// Propagates pool errors (bounds, log capacity) as [`TxError::Pmem`].
    pub fn write_bytes(&mut self, addr: PAddr, data: &[u8]) -> Result<(), TxError> {
        self.write_bytes_with_policy(addr, data, WritePolicy::Auto)
    }

    /// Stores `data` at `addr` with an explicit logging decision, the hook
    /// used by statically compiled transactions: the `clobber-txir` compiler
    /// decides at compile time which stores are clobber writes and
    /// instruments exactly those with [`WritePolicy::ForceLog`]; all other
    /// stores use [`WritePolicy::NoLog`]. Under non-clobber backends the
    /// policy is ignored and the backend's own discipline applies — undo and
    /// redo logging do not depend on clobber analysis.
    ///
    /// # Errors
    ///
    /// Propagates pool errors (bounds, log capacity) as [`TxError::Pmem`].
    pub fn write_bytes_with_policy(
        &mut self,
        addr: PAddr,
        data: &[u8],
        policy: WritePolicy,
    ) -> Result<(), TxError> {
        if data.is_empty() {
            return Ok(());
        }
        // Before anything is buffered or begun: a store outside the pool
        // fails here, not at the commit that would apply it.
        self.pool.check_range(addr, data.len() as u64)?;
        let (s, e) = (addr.offset(), addr.offset() + data.len() as u64);
        if let Some(obs) = &mut self.ido {
            obs.on_write(s, e);
        }
        self.ensure_begun()?;
        if self.backend == Backend::Redo {
            self.scratch.stores.push(s, data);
            self.wrote = true;
            return Ok(());
        }
        // Clobber detection is one access-table probe per line, into the
        // scratch's reusable buffer: nothing here allocates once warm.
        let (to_log, mark) = match self.tracking {
            Tracking::Inputs => (policy.to_log(ToLog::ReadUnlogged), true),
            Tracking::RawReads => (policy.to_log(ToLog::Read), false),
            // Undo logging does not depend on clobber analysis.
            Tracking::Written => (ToLog::Unwritten, true),
            Tracking::Off => (ToLog::Nothing, false),
        };
        let sc = &mut self.scratch;
        sc.to_log.clear();
        let was_written = sc.access.store(s, e, to_log, mark, &mut sc.to_log);
        let stats = self.pool.stats();
        let appended = !self.scratch.to_log.is_empty();
        for i in 0..self.scratch.to_log.len() {
            let (a, b) = self.scratch.to_log[i];
            let mut old = std::mem::take(&mut self.scratch.log_buf);
            old.resize((b - a) as usize, 0);
            self.pool.read_into(PAddr::new(a), &mut old)?;
            // A re-clobbered byte's pre-image is its buffered value.
            self.overlay_own_view(a, &mut old);
            self.logs.clog.append(self.pool, PAddr::new(a), &old)?;
            self.scratch.log_buf = old;
            stats
                .log_entries
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            stats
                .log_bytes
                .fetch_add(b - a, std::sync::atomic::Ordering::Relaxed);
        }
        // The undo invariant: a clobbering store may reach media (even
        // unflushed) only once its pre-image is durable, and one to data
        // older than the transaction — not written, which until then holds
        // only reservations — only once the begin is. Such a store waits in
        // the store buffer, as does one to a byte waiting there.
        let defer = appended
            || self.scratch.stores.overlaps(s, e)
            || (self.begin_unordered && !was_written);
        self.wrote = true;
        if defer {
            if self.tracking != Tracking::Written && self.scratch.stores.has_room(data.len()) {
                self.scratch.stores.push(s, data);
                return Ok(());
            }
            // An undo snapshot and a full buffer are ordering points: the
            // sync makes this pre-image durable too.
            self.order_deferred()?;
        }
        self.pool.write_bytes(addr, data)?;
        self.mark_dirty(s, e)?;
        Ok(())
    }

    /// The buffered stores' ordering point: one write-back of every store so
    /// far and one log sync make the begin and every appended pre-image
    /// durable; then the buffered stores reach the pool in store order.
    fn order_deferred(&mut self) -> Result<(), TxError> {
        self.drain_dirty()?;
        let pool = self.pool;
        // The begin truncated the log, so its sync fences even when
        // nothing was logged: that orders a begin before a blind store.
        self.logs.clog.sync(pool)?;
        self.begin_unordered = false;
        let mut stores = std::mem::take(&mut self.scratch.stores);
        for (s, data) in stores.iter() {
            pool.write_bytes(PAddr::new(s), data)?;
            self.mark_dirty(s, s + data.len() as u64)?;
        }
        stores.clear();
        self.scratch.stores = stores;
        Ok(())
    }

    /// Records that `[s, e)` awaits write-back. A hull sharing a cache line
    /// with the range is absorbed into it, so each line is flushed once per
    /// ordering point however many stores hit it.
    fn mark_dirty(&mut self, mut s: u64, mut e: u64) -> Result<(), PmemError> {
        let line = |byte: u64| byte / CACHE_LINE;
        let sc = &mut self.scratch;
        // Newest first: consecutive stores mostly land in the same object.
        let mut i = if sc.dirty_lines.may_hold(s, e) {
            sc.dirty_len
        } else {
            0
        };
        while i > 0 {
            i -= 1;
            let (a, b) = sc.dirty[i];
            if line(a) <= line(e - 1) && line(s) <= line(b - 1) {
                (s, e) = (s.min(a), e.max(b));
                sc.dirty_len -= 1;
                sc.dirty[i] = sc.dirty[sc.dirty_len];
                // The grown range may now reach a hull already passed.
                i = sc.dirty_len;
            }
        }
        if sc.dirty_len == DIRTY_CAP {
            // Flushing early is always allowed; it only forgoes merging.
            self.drain_dirty()?;
        }
        let sc = &mut self.scratch;
        sc.dirty[sc.dirty_len] = (s, e);
        sc.dirty_len += 1;
        sc.dirty_lines.add(s, e);
        Ok(())
    }

    /// Writes back everything stored since the last drain; runs right
    /// before each ordering point, so every flush still precedes the fence
    /// that needs it. A hull is `[min start, max end)` of stores that share
    /// a line, so it may span bytes none of them wrote: the conflict
    /// analysis in `trace/conflict.rs` reads footprints off stores, not
    /// flushes.
    fn drain_dirty(&mut self) -> Result<(), PmemError> {
        let sc = &mut self.scratch;
        for &(s, e) in &sc.dirty[..sc.dirty_len] {
            self.pool.flush(PAddr::new(s), e - s)?;
        }
        sc.dirty_len = 0;
        sc.dirty_lines = Lines::default();
        Ok(())
    }

    /// Stores a little-endian `u64` at `addr` within the transaction.
    ///
    /// # Errors
    ///
    /// Propagates pool errors as [`TxError::Pmem`].
    pub fn write_u64(&mut self, addr: PAddr, value: u64) -> Result<(), TxError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Stores a persistent pointer at `addr` within the transaction.
    ///
    /// # Errors
    ///
    /// Propagates pool errors as [`TxError::Pmem`].
    pub fn write_paddr(&mut self, addr: PAddr, value: PAddr) -> Result<(), TxError> {
        self.write_u64(addr, value.offset())
    }

    /// Allocates `size` bytes from persistent memory, transactionally: the
    /// allocation is reserved now (zero fences) and published at commit; an
    /// uncommitted transaction's allocations roll back automatically on
    /// crash (the paper's `pmalloc`, §4.1, backed by PMDK-style
    /// reserve/publish).
    ///
    /// The payload is zeroed and counts as written by this transaction.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the heap is exhausted.
    pub fn pmalloc(&mut self, size: u64) -> Result<PAddr, TxError> {
        let addr = self.pool.reserve(size)?;
        // Zero-fill must be durable with the commit: it is written back
        // with the stores that follow, and the commit fence orders it.
        if size > 0 {
            self.mark_dirty(addr.offset(), addr.offset() + size)?;
        }
        self.scratch.allocs.push(addr);
        // Under clobber logging the allocation initializes its payload: it
        // joins the write set so reads of it are not inputs and stores into
        // it need no begin fence. PMDK-style undo deliberately does *not* get
        // this: its transactions `TX_ADD` the fields of freshly allocated
        // objects too (paper Fig. 2b), so their first stores are
        // snapshot-logged like any other.
        if self.vlog_enabled || self.tracking == Tracking::Inputs {
            let (s, e) = (addr.offset(), addr.offset() + size);
            self.scratch.access.insert(Kind::Written, s, e);
        }
        Ok(addr)
    }

    /// Frees a persistent block, transactionally. Nothing reaches the
    /// allocator here — mid-transaction is not an ordering point: a block
    /// this transaction allocated stays reserved and ends as free at commit
    /// (or abort); a pre-existing block is freed after commit (so a crash
    /// before commit leaves it intact).
    ///
    /// # Errors
    ///
    /// None here: an `addr` that is not an allocated block surfaces as
    /// [`TxError::Pmem`] when the deferred free runs after commit.
    pub fn pfree(&mut self, addr: PAddr) -> Result<(), TxError> {
        if let Some(pos) = self.scratch.allocs.iter().position(|&a| a == addr) {
            self.scratch.allocs.swap_remove(pos);
            self.scratch.dead.push(addr);
        } else {
            self.scratch.frees.push(addr);
        }
        Ok(())
    }

    /// Records volatile data the transaction depends on (the paper's
    /// `vlog_preserve`, §4.1/4.2) and returns the authoritative copy: during
    /// normal execution the input itself (now durable in the v_log), during
    /// recovery re-execution the blob recorded by the crashed run.
    ///
    /// Calls must happen at transaction begin, before any persistent write,
    /// and in a deterministic order.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::PreserveAfterWrite`] if a persistent store already
    /// happened, [`TxError::VlogCapacity`] if the v_log is full,
    /// and [`TxError::MissingPreserve`] during recovery if the crashed run
    /// never recorded this blob (the runtime abandons the transaction: no
    /// write can have preceded an unrecorded preserve).
    pub fn vlog_preserve(&mut self, data: &[u8]) -> Result<Vec<u8>, TxError> {
        if let Some(replay) = &mut self.replay {
            let i = replay.next;
            replay.next += 1;
            return replay
                .blobs
                .get(i)
                .cloned()
                .ok_or(TxError::MissingPreserve { index: i });
        }
        if self.wrote {
            return Err(TxError::PreserveAfterWrite);
        }
        if self.vlog_enabled {
            self.ensure_begun()?;
            self.slot.preserve(self.pool, &mut self.logs.vlog, data)?;
            self.begin_unordered = false;
        }
        Ok(data.to_vec())
    }

    /// Everything the commit fence must order: the write-back of this
    /// transaction's stores, then its reservations ended — freed-again
    /// blocks as free, the rest as allocated. The dead go first so each
    /// list head they share is written once.
    fn settle_reservations(&mut self) -> Result<(), PmemError> {
        self.drain_dirty()?;
        if !self.scratch.dead.is_empty() {
            self.pool.cancel(&self.scratch.dead)?;
        }
        self.pool.publish(&self.scratch.allocs)
    }

    /// Commits the transaction: publishes allocations, persists the backend's
    /// commit record, clears the ongoing status, and returns the deferred
    /// frees plus any iDO shadow stats.
    pub(crate) fn commit(mut self) -> Result<CommitOutcome, TxError> {
        let pool = self.pool;
        let reserved = !self.scratch.allocs.is_empty() || !self.scratch.dead.is_empty();
        let effects = self.wrote || reserved;
        match self.backend {
            Backend::NoLog => {
                if effects {
                    self.settle_reservations()?;
                    pool.fence();
                }
            }
            Backend::Clobber(cfg) => {
                if effects {
                    if !self.scratch.stores.is_empty() {
                        self.order_deferred()?;
                    }
                    self.settle_reservations()?;
                    pool.fence();
                }
                if cfg.vlog && self.begun {
                    // The status word is the commit marker; stale logs are
                    // cleared lazily at the next begin.
                    self.slot.clear_ongoing(pool)?;
                    pool.fence();
                }
            }
            Backend::Undo | Backend::Atlas => {
                if self.backend == Backend::Atlas && self.begun {
                    // FASE dependency record: Atlas persists the completed
                    // FASE's position in the dependence graph for its log
                    // pruner (one extra entry + fence per FASE).
                    self.drain_dirty()?;
                    self.slot.fase_record_with_fence(pool)?;
                }
                if effects {
                    self.settle_reservations()?;
                    pool.fence();
                }
                if self.begun {
                    // Invalidating the undo log commits the transaction.
                    self.slot.clear_ongoing(pool)?;
                    self.logs.clog.reset_unfenced(pool)?;
                    pool.fence();
                }
            }
            Backend::Redo if self.scratch.stores.is_empty() && !reserved => {}
            Backend::Redo => {
                // Mnemosyne's raw-word log is word-granular: every 64-bit
                // store becomes one log record (torn-bit encoded), so a
                // buffered range is split into 8-byte entries. This is what
                // makes redo logging byte-hungry on large values while
                // staying fence-cheap (one ordering point for the batch).
                let stores = &self.scratch.stores;
                let entries = stores.ranges.iter().map(|&(s, e)| (e - s).div_ceil(8));
                let stats = pool.stats();
                stats
                    .log_entries
                    .fetch_add(entries.sum(), std::sync::atomic::Ordering::Relaxed);
                stats.log_bytes.fetch_add(
                    stores.data.len() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
                // Stream the buffer through a line-buffered writer; its
                // single ordering point also orders the settled headers
                // before the commit marker.
                let mut rw = LogWriter::attach(pool, self.logs.rlog)?;
                for (a, data) in stores.iter() {
                    for (i, word) in data.chunks(8).enumerate() {
                        rw.append(pool, PAddr::new(a + i as u64 * 8), word)?;
                    }
                }
                self.settle_reservations()?;
                rw.sync(pool)?;
                // Commit point.
                self.slot.set_redo_committed(pool)?;
                self.logs.rlog.apply_forwards(pool)?;
                pool.fence();
                // Clear marker, status and log tail together.
                self.slot.clear_redo_committed_unfenced(pool)?;
                self.slot.clear_ongoing(pool)?;
                self.logs.rlog.reset_unfenced(pool)?;
                pool.fence();
            }
        }
        let ido = self.ido.take().map(IdoObserver::finish);
        if pool.tracing_enabled() {
            // The slot base (not the persistent id) identifies the slot:
            // it's in memory, so recording stays free of pmem reads and
            // cannot perturb the read counters the golden pins check.
            pool.trace_app_event(
                clobber_trace::EventKind::TxCommit,
                0,
                self.slot.base().offset(),
                0,
            );
        }
        Ok(CommitOutcome {
            scratch: self.scratch,
            ido,
            logs: self.logs,
        })
    }

    /// Aborts the transaction if the backend supports it.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::AbortedAfterWrite`] for re-execution backends
    /// (Clobber, NoLog) once a persistent store happened — they cannot roll
    /// back. In that case the slot is left *ongoing* so that recovery
    /// completes the transaction by re-execution; its deferred stores drop.
    ///
    /// Also returns the transaction's scratch state so the runtime can
    /// recycle it.
    pub(crate) fn abort(mut self, why: String) -> (TxError, TxScratch) {
        let pool = self.pool;
        let err = match self.backend {
            Backend::Undo | Backend::Atlas => {
                if self.begun {
                    if self.logs.clog.log().apply_backwards(pool).is_ok() {
                        pool.fence();
                    }
                    let _ = self.slot.clear_ongoing(pool);
                    let _ = self.logs.clog.reset_unfenced(pool);
                    pool.fence();
                }
                if self.cancel_reservations() {
                    pool.fence();
                }
                TxError::Aborted(why)
            }
            Backend::Redo => {
                if self.cancel_reservations() {
                    pool.fence();
                }
                TxError::Aborted(why)
            }
            Backend::NoLog | Backend::Clobber(_) => {
                if !self.wrote {
                    if self.cancel_reservations() {
                        pool.fence();
                    }
                    if self.begun && matches!(self.backend, Backend::Clobber(cfg) if cfg.vlog) {
                        let _ = self.slot.clear_ongoing(pool);
                        pool.fence();
                    }
                    TxError::Aborted(why)
                } else {
                    TxError::AbortedAfterWrite(why)
                }
            }
        };
        if pool.tracing_enabled() {
            pool.trace_app_event(
                clobber_trace::EventKind::TxAbort,
                0,
                self.slot.base().offset(),
                0,
            );
        }
        (err, std::mem::take(&mut self.scratch))
    }

    /// Drops a recovery replay that did not commit: its reservations end
    /// as free, flushed but unfenced, and its deferred stores never reach
    /// the pool. Unlike [`abort`](Self::abort) it leaves the status word
    /// set, so a retry re-runs the slot. Returns the scratch for recycling.
    pub(crate) fn discard(mut self) -> TxScratch {
        self.cancel_reservations();
        std::mem::take(&mut self.scratch)
    }

    /// Ends every reservation of this transaction as free, with flushes
    /// only. Returns whether it held any. Cancelling its own reservations
    /// fails only on a dead pool, whose reservations die with it.
    fn cancel_reservations(&mut self) -> bool {
        self.scratch.dead.append(&mut self.scratch.allocs);
        let any = !self.scratch.dead.is_empty();
        if any {
            let _ = self.pool.cancel(&self.scratch.dead);
        }
        any
    }
}

/// What a committed transaction leaves for the runtime to finish: deferred
/// frees (still inside the scratch) and iDO shadow stats; the scratch
/// itself goes back on the runtime's free-list.
pub(crate) struct CommitOutcome {
    pub scratch: TxScratch,
    pub ido: Option<IdoTxStats>,
    /// The slot's log handles as the commit left them: the runtime keeps
    /// them so the slot's next transaction re-reads nothing from the pool.
    pub logs: SlotLogs,
}
