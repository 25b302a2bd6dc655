//! The Clobber-NVM runtime: txfunc registry, per-thread slots, transaction
//! execution, and the commit protocol.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use clobber_pmem::{PAddr, PmemPool};
use parking_lot::{Mutex, RwLock};

use crate::args::ArgList;
use crate::backend::Backend;
use crate::error::TxError;
use crate::group_commit::GroupCommit;
use crate::ido::{IdoObserver, IdoTxStats};
use crate::lock::{LockManager, LockRequest};
use crate::tx::{CommitOutcome, Tx, TxResult, TxScratch};
use crate::vlog::{SlotLogs, VlogSlot};

/// Names the runtime header and slot layout (v5: the begin record and the
/// preserves are entries of a v_log `Ulog`).
const RUNTIME_MAGIC: u64 = 0xC10B_BE12_0000_0005;

/// Persistent runtime header layout (allocated block, pointed to by the pool
/// root).
mod hdr {
    pub const MAGIC: u64 = 0;
    pub const VLOG_HEAD: u64 = 8;
    pub const APP_ROOT: u64 = 16;
    pub const SIZE: u64 = 64;
}

/// Runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOptions {
    /// The logging strategy applied to all transactions.
    pub backend: Backend,
    /// Attach the iDO shadow observer to every transaction (Fig. 8).
    pub ido_shadow: bool,
    /// Per-slot clobber/undo log buffer capacity in bytes.
    pub clobber_log_cap: u64,
    /// Per-slot redo log buffer capacity in bytes.
    pub redo_log_cap: u64,
}

impl RuntimeOptions {
    /// Options for the given backend with default log capacities.
    pub fn new(backend: Backend) -> Self {
        RuntimeOptions {
            backend,
            ido_shadow: false,
            clobber_log_cap: 256 << 10,
            redo_log_cap: 512 << 10,
        }
    }

    /// Builder form: enables the iDO shadow observer.
    pub fn with_ido_shadow(mut self) -> Self {
        self.ido_shadow = true;
        self
    }
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions::new(Backend::clobber())
    }
}

type TxFn = Arc<dyn Fn(&mut Tx<'_>, &ArgList) -> TxResult + Send + Sync>;

/// Process-wide source of runtime identities for the thread-local slot
/// cache (two runtimes on one thread must not share a lease).
static RUNTIME_IDS: AtomicU64 = AtomicU64::new(0);

/// Shared slot-index bookkeeping: indices returned by exited threads are
/// reused (smallest first) before a fresh index is minted, so a workload
/// that churns short-lived threads stays bounded by its peak concurrency
/// instead of growing one v_log slot per thread ever seen.
#[derive(Debug, Default)]
struct SlotLedger {
    free: BinaryHeap<Reverse<usize>>,
    next: usize,
}

impl SlotLedger {
    fn lease(&mut self) -> usize {
        if let Some(Reverse(idx)) = self.free.pop() {
            idx
        } else {
            let idx = self.next;
            self.next += 1;
            idx
        }
    }
}

/// A thread's claim on one slot index of one runtime; returning it to the
/// ledger on thread exit is what makes indices reusable. Holds the ledger
/// weakly so a dropped runtime doesn't outlive itself through thread-local
/// storage.
#[derive(Debug)]
struct SlotLease {
    idx: usize,
    ledger: Weak<Mutex<SlotLedger>>,
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        if let Some(ledger) = self.ledger.upgrade() {
            ledger.lock().free.push(Reverse(self.idx));
        }
    }
}

thread_local! {
    /// This thread's slot lease per live runtime, keyed by runtime id.
    static THREAD_SLOTS: RefCell<HashMap<u64, SlotLease>> = RefCell::new(HashMap::new());
}

/// One entry of the slot table.
struct SlotEntry {
    slot: VlogSlot,
    /// Volatile mirror of the slot's log state — its clobber-log and v_log
    /// writers (descriptor, generation, cursor) and redo-log descriptor —
    /// exactly as this runtime's last commit on the slot left them. `None`
    /// whenever the pool may say otherwise: until the first commit, while a
    /// transaction is in flight, and after a recovery scan, an abort or an
    /// error; the next transaction then adopts the logs by probing them.
    mirror: Option<SlotLogs>,
}

/// Aggregated iDO shadow statistics across all committed transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdoAggregate {
    /// Sum over transactions.
    pub total: IdoTxStats,
    /// Number of transactions observed.
    pub transactions: u64,
}

/// The Clobber-NVM failure-atomicity runtime.
///
/// Owns the txfunc registry and the per-thread v_log slots; executes
/// transactions under the configured [`Backend`]'s logging discipline; and
/// recovers interrupted transactions on [`recover`](Runtime::recover).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use clobber_pmem::{PmemPool, PoolOptions};
/// use clobber_nvm::{ArgList, Runtime, RuntimeOptions};
///
/// # fn main() -> Result<(), clobber_nvm::TxError> {
/// let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 22))?);
/// let rt = Runtime::create(pool, RuntimeOptions::default())?;
///
/// // A txfunc: allocate a cell and store a value in it.
/// rt.register("store_cell", |tx, args| {
///     let cell = tx.pmalloc(8)?;
///     tx.write_u64(cell, args.u64(0)?)?;
///     Ok(Some(cell.offset().to_le_bytes().to_vec()))
/// });
///
/// let out = rt.run("store_cell", &ArgList::new().with_u64(7))?.unwrap();
/// # let _ = out;
/// # Ok(())
/// # }
/// ```
pub struct Runtime {
    pool: Arc<PmemPool>,
    opts: RuntimeOptions,
    header: PAddr,
    registry: RwLock<HashMap<String, TxFn>>,
    slots: Mutex<Vec<SlotEntry>>,
    /// Identity for the thread-local slot cache.
    runtime_id: u64,
    /// Slot-index free list shared with every thread's [`SlotLease`].
    ledger: Arc<Mutex<SlotLedger>>,
    /// Per-node FIFO rw-locks for parallel transactions (conservative
    /// 2PL, §2.2); see [`run_locked`](Runtime::run_locked).
    lock_mgr: LockManager,
    ido: Mutex<IdoAggregate>,
    /// Free-list of per-transaction scratch state. Recycling warmed-up
    /// scratches is what makes steady-state transactions allocation-free.
    scratch_pool: Mutex<Vec<TxScratch>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("backend", &self.opts.backend)
            .field("header", &self.header)
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Creates and formats a fresh runtime in `pool`, installing its header
    /// as the pool root.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the pool cannot hold the header.
    pub fn create(pool: Arc<PmemPool>, opts: RuntimeOptions) -> Result<Runtime, TxError> {
        let header = pool.alloc(hdr::SIZE)?;
        pool.write_u64(header.add(hdr::MAGIC), RUNTIME_MAGIC)?;
        pool.write_u64(header.add(hdr::VLOG_HEAD), 0)?;
        pool.write_u64(header.add(hdr::APP_ROOT), 0)?;
        pool.persist(header, hdr::SIZE)?;
        pool.set_root(header)?;
        Ok(Runtime {
            pool,
            opts,
            header,
            registry: RwLock::new(HashMap::new()),
            slots: Mutex::new(Vec::new()),
            runtime_id: RUNTIME_IDS.fetch_add(1, Ordering::Relaxed),
            ledger: Arc::new(Mutex::new(SlotLedger::default())),
            lock_mgr: LockManager::new(),
            ido: Mutex::new(IdoAggregate::default()),
            scratch_pool: Mutex::new(Vec::new()),
        })
    }

    /// Reopens the runtime of an existing pool (e.g. after a crash). Call
    /// [`recover`](Runtime::recover) after re-registering all txfuncs.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::CorruptVlog`] if the pool holds no valid runtime
    /// header.
    pub fn open(pool: Arc<PmemPool>, opts: RuntimeOptions) -> Result<Runtime, TxError> {
        let header = pool.root()?;
        if header.is_null() || pool.read_u64(header.add(hdr::MAGIC))? != RUNTIME_MAGIC {
            return Err(TxError::CorruptVlog("no runtime header in pool".into()));
        }
        // Walk the persistent slot list (newest first) and order by id.
        let mut slots = Vec::new();
        let mut cur = PAddr::new(pool.read_u64(header.add(hdr::VLOG_HEAD))?);
        while !cur.is_null() {
            let slot = VlogSlot::new(cur);
            slots.push(SlotEntry { slot, mirror: None });
            cur = slot.next(&pool)?;
        }
        slots.sort_by_key(|e| e.slot.id(&pool).unwrap_or(u64::MAX));
        Ok(Runtime {
            pool,
            opts,
            header,
            registry: RwLock::new(HashMap::new()),
            slots: Mutex::new(slots),
            runtime_id: RUNTIME_IDS.fetch_add(1, Ordering::Relaxed),
            ledger: Arc::new(Mutex::new(SlotLedger::default())),
            lock_mgr: LockManager::new(),
            ido: Mutex::new(IdoAggregate::default()),
            scratch_pool: Mutex::new(Vec::new()),
        })
    }

    /// The runtime's commit fence: a plain pool fence (see [`GroupCommit`]).
    pub fn group_commit(&self) -> &GroupCommit {
        &GroupCommit
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// The configured backend.
    pub fn backend(&self) -> Backend {
        self.opts.backend
    }

    /// Stores the application's root object address durably.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on pool errors.
    pub fn set_app_root(&self, root: PAddr) -> Result<(), TxError> {
        self.pool
            .write_u64(self.header.add(hdr::APP_ROOT), root.offset())?;
        self.pool.persist(self.header.add(hdr::APP_ROOT), 8)?;
        Ok(())
    }

    /// Reads the application's root object address.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on pool errors.
    pub fn app_root(&self) -> Result<PAddr, TxError> {
        Ok(PAddr::new(
            self.pool.read_u64(self.header.add(hdr::APP_ROOT))?,
        ))
    }

    /// Registers a txfunc under `name`. Re-registering replaces the
    /// previous function. Every txfunc must be re-registered before
    /// [`recover`](Runtime::recover) so interrupted transactions can be
    /// re-executed.
    pub fn register<F>(&self, name: &str, f: F)
    where
        F: Fn(&mut Tx<'_>, &ArgList) -> TxResult + Send + Sync + 'static,
    {
        self.registry.write().insert(name.to_string(), Arc::new(f));
    }

    pub(crate) fn lookup(&self, name: &str) -> Result<TxFn, TxError> {
        self.registry
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| TxError::Unregistered(name.to_string()))
    }

    /// Returns slot `idx`, creating slots up to it on demand.
    pub(crate) fn slot(&self, idx: usize) -> Result<VlogSlot, TxError> {
        self.with_slot(idx, |e| e.slot)
    }

    /// Forgets every slot's mirror: recovery rewrites logs behind it.
    pub(crate) fn drop_mirrors(&self) {
        for e in self.slots.lock().iter_mut() {
            e.mirror = None;
        }
    }

    /// Runs `f` on slot `idx`'s table entry, creating slots up to it on
    /// demand.
    fn with_slot<R>(&self, idx: usize, f: impl FnOnce(&mut SlotEntry) -> R) -> Result<R, TxError> {
        let mut slots = self.slots.lock();
        while slots.len() <= idx {
            let id = slots.len() as u64;
            let head = PAddr::new(self.pool.read_u64(self.header.add(hdr::VLOG_HEAD))?);
            let slot = VlogSlot::create(
                &self.pool,
                id,
                head,
                self.opts.clobber_log_cap,
                self.opts.redo_log_cap,
            )?;
            self.pool
                .write_u64(self.header.add(hdr::VLOG_HEAD), slot.base().offset())?;
            self.pool.persist(self.header.add(hdr::VLOG_HEAD), 8)?;
            slots.push(SlotEntry { slot, mirror: None });
        }
        Ok(f(&mut slots[idx]))
    }

    /// Number of v_log slots created so far.
    pub fn slot_count(&self) -> usize {
        self.slots.lock().len()
    }

    /// Returns a handle to slot `idx`, creating slots up to it on demand.
    ///
    /// Intended for fault-injection harnesses that need a slot's on-media
    /// layout (e.g. [`VlogSlot::vlog`]) to corrupt it deliberately; normal
    /// transaction code never needs slot handles.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if slot creation fails.
    pub fn slot_handle(&self, idx: usize) -> Result<VlogSlot, TxError> {
        self.slot(idx)
    }

    /// Runs the registered txfunc `name` failure-atomically on the calling
    /// thread's slot.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Unregistered`] for unknown names, the txfunc's own
    /// error on abort, and [`TxError::Pmem`] on substrate errors.
    pub fn run(&self, name: &str, args: &ArgList) -> TxResult {
        self.run_on(self.thread_slot(), name, args)
    }

    /// The calling thread's slot index: the cached lease if it already has
    /// one, else the smallest free index (returned by an exited thread) or
    /// a fresh one. The lease is dropped — and its index recycled — when
    /// the thread exits, so slot usage is bounded by peak thread
    /// concurrency, not by the total number of threads ever seen.
    fn thread_slot(&self) -> usize {
        THREAD_SLOTS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(lease) = cache.get(&self.runtime_id) {
                return lease.idx;
            }
            // Drop leases whose runtime is gone before adding a new one,
            // so the cache tracks live runtimes only.
            cache.retain(|_, l| l.ledger.strong_count() > 0);
            let idx = self.ledger.lock().lease();
            cache.insert(
                self.runtime_id,
                SlotLease {
                    idx,
                    ledger: Arc::downgrade(&self.ledger),
                },
            );
            idx
        })
    }

    /// The runtime's lock manager. Most callers want the `*_locked` run
    /// methods; callers use this directly when they need a guard scope of
    /// their own (e.g. a rival holding a lock across a transaction).
    pub fn locks(&self) -> &LockManager {
        &self.lock_mgr
    }

    /// Acquires the whole lock set `locks` (FIFO-fair, all-or-nothing),
    /// runs txfunc `name`, and releases the locks after commit or abort —
    /// the paper's conservative strong-strict 2PL (§2.2): locks at begin,
    /// held to commit, so deterministic re-execution during recovery
    /// replays a serializable history.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Runtime::run).
    pub fn run_locked(&self, locks: &[LockRequest], name: &str, args: &ArgList) -> TxResult {
        let _guard = self.lock_mgr.acquire(&self.pool, locks);
        self.run(name, args)
    }

    /// [`run_locked`](Runtime::run_locked) on an explicit logical-thread
    /// slot (the discrete-event executor's form).
    ///
    /// # Errors
    ///
    /// Same as [`run_on`](Runtime::run_on).
    pub fn run_on_locked(
        &self,
        slot_idx: usize,
        locks: &[LockRequest],
        name: &str,
        args: &ArgList,
    ) -> TxResult {
        let _guard = self.lock_mgr.acquire(&self.pool, locks);
        self.run_on(slot_idx, name, args)
    }

    /// Runs the registered txfunc `name` on an explicit logical-thread slot
    /// (used by the discrete-event executor, where many logical threads
    /// share one OS thread).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Runtime::run).
    pub fn run_on(&self, slot_idx: usize, name: &str, args: &ArgList) -> TxResult {
        let f = self.lookup(name)?;
        let (slot, mirror) = self.with_slot(slot_idx, |e| (e.slot, e.mirror.take()))?;
        // TxBegin is recorded at dispatch, not at the durable begin record:
        // read-only transactions never persist a begin, but they must still
        // appear in recorded schedules — replay re-drives exactly the ops
        // named by TxBegin events.
        if self.pool.tracing_enabled() {
            if let Some(tracer) = self.pool.tracer() {
                let name_id = tracer.intern(name);
                let blob = tracer.record_blob(&args.to_bytes());
                self.pool.trace_app_event(
                    clobber_trace::EventKind::TxBegin,
                    name_id,
                    slot_idx as u64,
                    blob as u64,
                );
            }
        }
        let vlog_enabled = matches!(self.opts.backend, Backend::Clobber(cfg) if cfg.vlog);
        // Stale log tails from the previous transaction must be durable as
        // empty before this transaction is marked ongoing; the begin fence
        // orders these unfenced writes (a clobber begin truncates its own
        // log: the new generation numbers it).
        let logs = match mirror {
            // The slot's last commit was this runtime's: its cursor says
            // whether the clobber log holds entries (the redo log never
            // does after a commit), and only truncating reads the pool —
            // the header, so one corrupted meanwhile is still refused.
            Some(mut logs) => {
                if !vlog_enabled && !logs.clog.is_empty(&self.pool)? {
                    logs.clog.reset_unfenced(&self.pool)?;
                }
                logs
            }
            // Adoption: descriptors from the slot, then a header probe of
            // each log instead of a stream scan, leaving the writer's
            // cursor at the start — appends never re-read log state. A
            // v_log's clobber log is truncated with a fence: a begin lost to
            // a crash took the next generation, and sealed lines with it
            // that must never validate again.
            None => {
                let mut logs = slot.logs(&self.pool)?;
                if vlog_enabled {
                    logs.clog.reset_unfenced(&self.pool)?;
                    self.pool.fence();
                } else {
                    logs.clog.ensure_empty_unfenced(&self.pool)?;
                }
                if !logs.rlog.is_empty(&self.pool)? {
                    logs.rlog.reset_unfenced(&self.pool)?;
                }
                logs
            }
        };

        // The begin record is deferred until the first persistent store
        // (see Tx::ensure_begun): read-only transactions never fence.
        let pending = crate::tx::PendingBegin { name, args };

        let ido = self
            .opts
            .ido_shadow
            .then(|| IdoObserver::new(args.encoded_len() as u64));
        let mut tx = Tx::new(
            &self.pool,
            self.opts.backend,
            slot,
            logs,
            vlog_enabled,
            None,
            ido,
            Some(pending),
            self.take_scratch(),
        );
        match f(&mut tx, args) {
            Ok(out) => {
                let mirror = self.finish_commit(tx)?;
                self.slots.lock()[slot_idx].mirror = Some(mirror);
                Ok(out)
            }
            Err(e) => {
                let (abort_err, scratch) = tx.abort(e.to_string());
                self.recycle_scratch(scratch);
                // A clean abort reports the txfunc's own error.
                let clean = matches!(abort_err, TxError::Aborted(_));
                Err(if clean { e } else { abort_err })
            }
        }
    }

    /// Pops a pooled transaction scratch, or starts a fresh one.
    pub(crate) fn take_scratch(&self) -> TxScratch {
        self.scratch_pool.lock().pop().unwrap_or_default()
    }

    /// Clears `scratch` and returns it to the free-list.
    pub(crate) fn recycle_scratch(&self, mut scratch: TxScratch) {
        scratch.reset();
        self.scratch_pool.lock().push(scratch);
    }

    /// Commits `tx`, runs its deferred frees and returns the slot's log
    /// handles as the commit left them.
    pub(crate) fn finish_commit(&self, tx: Tx<'_>) -> Result<SlotLogs, TxError> {
        let CommitOutcome { scratch, ido, logs } = tx.commit()?;
        let freed = self.pool.free_many(&scratch.frees);
        self.recycle_scratch(scratch);
        freed?;
        if let Some(stats) = ido {
            let mut agg = self.ido.lock();
            agg.total.accumulate(&stats);
            agg.transactions += 1;
        }
        Ok(logs)
    }

    /// Aggregated iDO shadow statistics (empty unless
    /// [`RuntimeOptions::ido_shadow`] is set).
    pub fn ido_stats(&self) -> IdoAggregate {
        *self.ido.lock()
    }

    /// Attaches (or with `None` detaches) an event tracer on the underlying
    /// pool — convenience for `rt.pool().set_tracer(...)`. While attached,
    /// transactions additionally record `TxBegin`/`TxCommit`/`TxAbort` and
    /// v_log events between the pool's persist events.
    pub fn set_tracer(&self, tracer: Option<Arc<clobber_trace::Tracer>>) {
        self.pool.set_tracer(tracer);
    }
}
