//! The persistent memory pool: media, simulated cache, flush/fence, crash.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use clobber_trace::{EventKind, Tracer};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::{PAddr, CACHE_LINE};
use crate::cache::line_count;
use crate::crash::CrashConfig;
use crate::engine::Engine;
use crate::fault::{FaultPlan, FaultState};
use crate::geometry::layout;
use crate::stats::PmemStats;

/// Magic value of the pool format (the only one ever written or opened).
const POOL_MAGIC: u64 = 0xC10B_BE12_0000_0004;

/// Whether the pool models the volatile cache or runs at full speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMode {
    /// Writes go straight to media; flushes/fences only bump counters.
    /// Crash simulation is a no-op (everything is always durable), so this
    /// mode is for throughput experiments, not crash testing.
    Performance,
    /// Writes land in a simulated volatile cache; only flushed-and-fenced
    /// lines are guaranteed durable; [`PmemPool::crash`] produces torn
    /// states. Use for failure-atomicity testing.
    CrashSim,
}

/// Configuration for [`PmemPool::create`].
///
/// # Example
///
/// ```
/// use clobber_pmem::{PoolMode, PoolOptions};
///
/// let opts = PoolOptions::crash_sim(1 << 20);
/// assert_eq!(opts.mode, PoolMode::CrashSim);
/// assert_eq!(opts.capacity, 1 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolOptions {
    /// Pool size in bytes. Must be at least 4 KiB.
    pub capacity: u64,
    /// Cache-modeling mode.
    pub mode: PoolMode,
}

impl PoolOptions {
    /// Options for a performance-mode pool of `capacity` bytes.
    pub fn performance(capacity: u64) -> Self {
        PoolOptions {
            capacity,
            mode: PoolMode::Performance,
        }
    }

    /// Options for a crash-simulation pool of `capacity` bytes.
    pub fn crash_sim(capacity: u64) -> Self {
        PoolOptions {
            capacity,
            mode: PoolMode::CrashSim,
        }
    }
}

/// Errors returned by pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmemError {
    /// An access fell outside the pool.
    OutOfBounds {
        /// Start offset of the faulting access.
        addr: u64,
        /// Length of the faulting access.
        len: u64,
        /// Pool capacity.
        capacity: u64,
    },
    /// The persistent heap cannot satisfy an allocation.
    OutOfMemory {
        /// Requested payload size in bytes.
        requested: u64,
    },
    /// `free` was called on an address that is not an allocated block.
    InvalidFree {
        /// The faulting address.
        addr: u64,
    },
    /// A log buffer ran out of space.
    LogFull {
        /// Bytes that did not fit.
        needed: u64,
        /// Log capacity in bytes.
        capacity: u64,
    },
    /// The pool header or allocator metadata failed validation.
    CorruptPool(String),
    /// The requested capacity is too small to hold the pool metadata.
    CapacityTooSmall {
        /// Requested capacity.
        requested: u64,
        /// Minimum supported capacity.
        minimum: u64,
    },
    /// An armed [`FaultPlan`] tripped: the pool models total power loss at
    /// the given persist event and refuses all further operations.
    InjectedCrash {
        /// The 0-based persist event at which the injector fired.
        event: u64,
    },
    /// A read hit a transient media fault; retrying the operation may
    /// succeed. Injected by [`FaultPlan::transient_read_faults`].
    TransientMediaFault {
        /// Start offset of the faulting read.
        addr: u64,
    },
}

impl fmt::Display for PmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmemError::OutOfBounds {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "access [{addr:#x}, {:#x}) out of bounds for pool of {capacity} bytes",
                addr.saturating_add(*len)
            ),
            PmemError::OutOfMemory { requested } => {
                write!(f, "persistent heap exhausted allocating {requested} bytes")
            }
            PmemError::InvalidFree { addr } => {
                write!(f, "free of {addr:#x} which is not an allocated block")
            }
            PmemError::LogFull { needed, capacity } => {
                write!(
                    f,
                    "log buffer of {capacity} bytes cannot fit {needed} more bytes"
                )
            }
            PmemError::CorruptPool(why) => write!(f, "corrupt pool: {why}"),
            PmemError::CapacityTooSmall { requested, minimum } => write!(
                f,
                "pool capacity {requested} below the minimum of {minimum} bytes"
            ),
            PmemError::InjectedCrash { event } => {
                write!(f, "injected crash at persist event {event}")
            }
            PmemError::TransientMediaFault { addr } => {
                write!(f, "transient media fault reading {addr:#x} (retryable)")
            }
        }
    }
}

impl Error for PmemError {}

/// A simulated persistent memory pool.
///
/// All methods take `&self`; internal state is protected by one engine
/// lock, so a pool can be shared across threads via [`Arc`]. See the
/// [crate documentation](crate) for the durability contract.
///
/// **Persist-event ordering:** fault injection needs one coherent total
/// order of persist events. That order is defined by acquisition order on
/// the pool's single fault mutex, which every armed store/flush/fence
/// acquires *before* taking the engine lock. Disarmed pools skip the mutex
/// entirely (one relaxed atomic load), so the ordering authority costs
/// nothing unless a [`FaultPlan`] is armed.
pub struct PmemPool {
    mode: PoolMode,
    capacity: u64,
    stats: Arc<PmemStats>,
    /// Fast-path flag: true while a [`FaultPlan`] is armed. Lets the
    /// disarmed hot path skip the fault mutex entirely.
    faults_armed: AtomicBool,
    /// Fast-path flag: true while a [`Tracer`] is attached. Checked with
    /// one relaxed load on the hot path, so disabled tracing costs nothing.
    trace_on: AtomicBool,
    /// The single fault injector and event tracer. While armed (or traced),
    /// acquisition order on this mutex defines the pool-wide total order of
    /// persist events — the ordering model documented on the type.
    faults: Mutex<FaultState>,
    engine: Engine,
}

impl fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmemPool")
            .field("mode", &self.mode)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl PmemPool {
    /// Creates and formats a fresh pool.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CapacityTooSmall`] if `opts.capacity` cannot hold
    /// the pool metadata.
    pub fn create(opts: PoolOptions) -> Result<PmemPool, PmemError> {
        if opts.capacity < layout::HEAP_BASE + 4096 {
            return Err(PmemError::CapacityTooSmall {
                requested: opts.capacity,
                minimum: layout::HEAP_BASE + 4096,
            });
        }
        let mut media = vec![0u8; opts.capacity as usize];
        put_u64(&mut media, layout::MAGIC, POOL_MAGIC);
        put_u64(&mut media, layout::CAPACITY, opts.capacity);
        put_u64(&mut media, layout::ROOT, 0);
        put_u64(&mut media, layout::FRONTIER, layout::HEAP_BASE);
        // The free-list heads are already zero.
        Ok(Self::assemble(media, opts.mode))
    }

    /// Reopens a pool from raw media contents, e.g. after a crash.
    ///
    /// Rebuilds the volatile allocator mirror, repairing the allocator hints
    /// a crash left lagging, as a PMDK pool open rebuilds its free lists.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the header fails validation.
    pub fn open_from_media(media: Vec<u8>, mode: PoolMode) -> Result<PmemPool, PmemError> {
        if media.len() < (layout::HEAP_BASE + 4096) as usize {
            return Err(PmemError::CorruptPool("media shorter than metadata".into()));
        }
        if get_u64(&media, layout::MAGIC) != POOL_MAGIC {
            return Err(PmemError::CorruptPool("bad magic".into()));
        }
        let capacity = get_u64(&media, layout::CAPACITY);
        if capacity as usize != media.len() {
            return Err(PmemError::CorruptPool(format!(
                "header capacity {capacity} does not match media length {}",
                media.len()
            )));
        }
        Ok(Self::assemble(media, mode))
    }

    /// Builds the engine and stats for validated media.
    fn assemble(media: Vec<u8>, mode: PoolMode) -> PmemPool {
        let capacity = media.len() as u64;
        let engine = Engine::new(media);
        PmemPool {
            mode,
            capacity,
            stats: Arc::new(PmemStats::with_engine(engine.bank().clone())),
            faults_armed: AtomicBool::new(false),
            trace_on: AtomicBool::new(false),
            faults: Mutex::new(FaultState::default()),
            engine,
        }
    }

    /// The pool's cache-modeling mode.
    pub fn mode(&self) -> PoolMode {
        self.mode
    }

    /// The pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The engine: where the allocator takes its mirror and engine locks.
    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The pool's persistence-event counters.
    pub fn stats(&self) -> &Arc<PmemStats> {
        &self.stats
    }

    /// Arms a [`FaultPlan`] on this pool, resetting the persist-event
    /// counter to zero. Replaces any previously armed plan.
    pub fn arm_faults(&self, plan: FaultPlan) {
        let mut st = self.faults.lock();
        st.transient_remaining = plan.transient_read_faults;
        st.plan = Some(plan);
        st.events = 0;
        st.tripped_at = None;
        self.stats.bump(&self.stats.faults_armed, 1);
        self.faults_armed.store(true, Ordering::Relaxed);
    }

    /// Disarms the injector and returns the number of persist events
    /// observed while the plan was armed.
    ///
    /// Arming with [`FaultPlan::count_only`], running a workload, and
    /// disarming yields the event count `N` to sweep with
    /// [`FaultPlan::crash_at`] for every `k < N`.
    pub fn disarm_faults(&self) -> u64 {
        let mut st = self.faults.lock();
        self.faults_armed.store(false, Ordering::Relaxed);
        st.plan = None;
        st.tripped_at = None;
        st.transient_remaining = 0;
        st.events
    }

    /// Persist events observed since the current plan was armed.
    pub fn fault_events(&self) -> u64 {
        self.faults.lock().events
    }

    /// The persist event at which the armed plan tripped, if it has.
    pub fn fault_tripped(&self) -> Option<u64> {
        self.faults.lock().tripped_at
    }

    /// Whether the persist path must take the fault mutex: a plan is armed
    /// or a tracer is attached. Two relaxed loads; false on the untraced,
    /// unarmed hot path.
    #[inline]
    fn hooks_engaged(&self) -> bool {
        self.faults_armed.load(Ordering::Relaxed) || self.trace_on.load(Ordering::Relaxed)
    }

    /// Returns `InjectedCrash` if an armed plan has already tripped.
    ///
    /// Allocator entry points call this: they mutate media through internal
    /// paths that bypass the store/flush/fence hooks, so the dead-pool
    /// contract is enforced at their boundary instead.
    pub(crate) fn fail_if_dead(&self) -> Result<(), PmemError> {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return Ok(());
        }
        match self.faults.lock().tripped_at {
            Some(event) => Err(PmemError::InjectedCrash { event }),
            None => Ok(()),
        }
    }

    /// Consults the injector for one persist event (store/flush/fence) and
    /// records it if a tracer is attached — under the same lock acquisition
    /// that assigns its sequence number, so the recorded order is the
    /// pool-wide total order.
    ///
    /// On a tripping *store*, `store` carries `(offset, data)` so a torn
    /// plan can push a seeded prefix of the store's cache lines straight to
    /// media — modeling lines evicted at the instant of failure — before the
    /// pool dies.
    fn fault_persist_event(
        &self,
        kind: EventKind,
        a: u64,
        b: u64,
        store: Option<(u64, &[u8])>,
    ) -> Result<(), PmemError> {
        let mut st = self.faults.lock();
        if let Some(event) = st.tripped_at {
            return Err(PmemError::InjectedCrash { event });
        }
        let event = st.events;
        st.events += 1;
        if let Some(tracer) = st.tracer.as_ref() {
            let recorded = tracer.record(event, kind, 0, a, b);
            self.bump_trace_stat(recorded);
        }
        let Some(plan) = st.plan else { return Ok(()) };
        if plan.trip_at_event != Some(event) {
            return Ok(());
        }
        st.tripped_at = Some(event);
        if let Some(tracer) = st.tracer.as_ref() {
            // The trip shares the tripping event's sequence number; the
            // stable merge keeps it right after the event that tripped.
            let recorded = tracer.record(event, EventKind::FaultTrip, 0, event, 0);
            self.bump_trace_stat(recorded);
        }
        drop(st);
        self.stats.bump(&self.stats.faults_tripped, 1);
        if plan.torn_store {
            if let Some((offset, data)) = store {
                self.tear_store_to_media(offset, data, plan.seed ^ event);
            }
        }
        Err(PmemError::InjectedCrash { event })
    }

    fn bump_trace_stat(&self, recorded: bool) {
        if recorded {
            self.stats.bump(&self.stats.trace_events, 1);
        } else {
            self.stats.bump(&self.stats.trace_dropped, 1);
        }
    }

    /// Attaches (or with `None` detaches) an event [`Tracer`].
    ///
    /// While attached, every store/flush/fence records a typed event stamped
    /// with its persist-event sequence number, and the runtime layers record
    /// transaction/log/allocator events between them via
    /// [`trace_app_event`](Self::trace_app_event). Tracing alone (no armed
    /// [`FaultPlan`]) also advances the sequence counter; arming a plan
    /// resets it to zero, so attach the tracer *after* arming when combining
    /// both — trip indices then match untraced runs.
    ///
    /// The tracer does not survive [`crash`](Self::crash) (a crash returns a
    /// fresh pool instance); re-attach to trace recovery.
    pub fn set_tracer(&self, tracer: Option<Arc<Tracer>>) {
        let mut st = self.faults.lock();
        self.trace_on.store(tracer.is_some(), Ordering::Relaxed);
        st.tracer = tracer;
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.faults.lock().tracer.clone()
    }

    /// Whether a tracer is currently attached (one relaxed load).
    pub fn tracing_enabled(&self) -> bool {
        self.trace_on.load(Ordering::Relaxed)
    }

    /// Records a non-persist event (transaction, log, allocator, recovery)
    /// at the current sequence point: the event is stamped with the number
    /// of persist events observed so far, ordering it between the
    /// surrounding store/flush/fence events without consuming an index.
    ///
    /// No-op when tracing is off; also a no-op once an armed plan has
    /// tripped, so a recorded trace ends at its [`EventKind::FaultTrip`]
    /// event exactly like the replayed one will.
    pub fn trace_app_event(&self, kind: EventKind, name: u32, a: u64, b: u64) {
        if !self.trace_on.load(Ordering::Relaxed) {
            return;
        }
        let st = self.faults.lock();
        if st.tripped_at.is_some() {
            return;
        }
        if let Some(tracer) = st.tracer.as_ref() {
            let recorded = tracer.record(st.events, kind, name, a, b);
            self.bump_trace_stat(recorded);
        }
    }

    /// Writes a seeded prefix of the store's cache lines directly to media.
    ///
    /// Only multi-line stores tear: a single-line store is atomic at the
    /// media level, matching the 8-byte/line failure-atomicity model.
    fn tear_store_to_media(&self, offset: u64, data: &[u8], seed: u64) {
        let lines = line_count(offset, data.len() as u64);
        if lines < 2 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let surviving: u64 = rng.gen_range(1..lines);
        // Bytes of `data` that fall within the first `surviving` lines.
        let first_line = offset / CACHE_LINE;
        let cut = ((first_line + surviving) * CACHE_LINE - offset) as usize;
        let cut = cut.min(data.len());
        self.engine.media_write(offset, &data[..cut]);
    }

    /// Consults the injector before a read: dead pools refuse, and a plan
    /// may serve a bounded burst of transient faults.
    fn fault_read_event(&self, offset: u64) -> Result<(), PmemError> {
        let mut st = self.faults.lock();
        if let Some(event) = st.tripped_at {
            return Err(PmemError::InjectedCrash { event });
        }
        if st.transient_remaining > 0 {
            st.transient_remaining -= 1;
            drop(st);
            self.stats.bump(&self.stats.faults_tripped, 1);
            return Err(PmemError::TransientMediaFault { addr: offset });
        }
        Ok(())
    }

    /// Flips `flips` distinct seeded bits within `[addr, addr+len)` directly
    /// on the durable media, modeling at-rest corruption of that region
    /// (e.g. a v_log slot whose lines decayed).
    ///
    /// The simulated volatile cache is not touched, so a pool that still
    /// holds those lines dirty may mask the damage until a crash/reopen —
    /// exactly like real hardware. Corrupt after [`crash`](Self::crash) (or
    /// on a freshly opened pool) to make the damage visible to recovery.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds the pool, and
    /// [`PmemError::CorruptPool`] if `flips` exceeds the `len * 8` available
    /// bits.
    pub fn inject_bit_corruption(
        &self,
        addr: PAddr,
        len: u64,
        seed: u64,
        flips: u32,
    ) -> Result<(), PmemError> {
        self.check_range(addr, len)?;
        let bits = len * 8;
        if u64::from(flips) > bits {
            return Err(PmemError::CorruptPool(format!(
                "cannot flip {flips} distinct bits in a {len}-byte region"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chosen = std::collections::HashSet::new();
        // Draw the distinct bit positions first, then apply the flips — XOR
        // commutes, so order is moot.
        while chosen.len() < flips as usize {
            let bit: u64 = rng.gen_range(0..bits);
            chosen.insert(bit);
        }
        for &bit in &chosen {
            self.engine
                .media_xor(addr.offset() + bit / 8, 1 << (bit % 8));
        }
        self.stats.bump(&self.stats.faults_tripped, 1);
        Ok(())
    }

    /// Checks that `len` bytes at `addr` lie inside the pool, without
    /// touching them or counting an access.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds the pool.
    pub fn check_range(&self, addr: PAddr, len: u64) -> Result<(), PmemError> {
        let off = addr.offset();
        if off.checked_add(len).is_none_or(|end| end > self.capacity) {
            return Err(PmemError::OutOfBounds {
                addr: off,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Bounds check plus the armed-plan read hook every load passes.
    #[inline]
    fn admit_read(&self, addr: PAddr, len: u64) -> Result<(), PmemError> {
        self.check_range(addr, len)?;
        if self.faults_armed.load(Ordering::Relaxed) {
            self.fault_read_event(addr.offset())?;
        }
        Ok(())
    }

    /// Bounds check plus the `Store` persist event every store passes.
    #[inline]
    fn admit_store(&self, addr: PAddr, data: &[u8]) -> Result<(), PmemError> {
        self.check_range(addr, data.len() as u64)?;
        if self.hooks_engaged() {
            self.fault_persist_event(
                EventKind::Store,
                addr.offset(),
                data.len() as u64,
                Some((addr.offset(), data)),
            )?;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds the pool.
    pub fn read_into(&self, addr: PAddr, buf: &mut [u8]) -> Result<(), PmemError> {
        self.admit_read(addr, buf.len() as u64)?;
        self.engine.read(addr.offset(), buf);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds the pool.
    pub fn read_bytes(&self, addr: PAddr, len: u64) -> Result<Vec<u8>, PmemError> {
        self.check_range(addr, len)?; // before a corrupt length sizes the buffer
        let mut buf = vec![0u8; len as usize];
        self.read_into(addr, &mut buf)?;
        Ok(buf)
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds the pool.
    pub fn read_u64(&self, addr: PAddr) -> Result<u64, PmemError> {
        self.admit_read(addr, 8)?;
        Ok(self.engine.read_word(addr.offset()))
    }

    /// Stores `data` at `addr`. The store is *not* durable until the covering
    /// lines are flushed and fenced (crash-sim mode).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds the pool.
    pub fn write_bytes(&self, addr: PAddr, data: &[u8]) -> Result<(), PmemError> {
        self.admit_store(addr, data)?;
        self.engine.write(addr.offset(), data, self.mode);
        Ok(())
    }

    /// Stores a little-endian `u64` at `addr` (not durable until persisted).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds the pool.
    pub fn write_u64(&self, addr: PAddr, value: u64) -> Result<(), PmemError> {
        self.admit_store(addr, &value.to_le_bytes())?;
        self.engine.write_word(addr.offset(), value, self.mode);
        Ok(())
    }

    /// Issues a `clwb`-style write-back for every line covering
    /// `[addr, addr+len)`. Durability still requires a subsequent
    /// [`fence`](Self::fence).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds the pool.
    pub fn flush(&self, addr: PAddr, len: u64) -> Result<(), PmemError> {
        self.check_range(addr, len)?;
        if self.hooks_engaged() {
            self.fault_persist_event(EventKind::Flush, addr.offset(), len, None)?;
        }
        self.engine.flush(addr.offset(), len, self.mode);
        Ok(())
    }

    /// Stores `data` at `addr` and issues the write-back for the lines it
    /// covers: exactly [`write_bytes`](Self::write_bytes) followed by
    /// [`flush`](Self::flush) of the same range — the shape of every
    /// log-line and status-word write — as one operation.
    ///
    /// With no [`FaultPlan`] armed and no tracer attached, both halves run
    /// under one round of the engine lock.
    /// With a hook engaged it *is* the two calls, so the `Store` and `Flush`
    /// persist events, their indices and the trip semantics (a plan may trip
    /// between them, leaving the store unflushed) are those of the sequence.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds the pool.
    pub fn store_flush(&self, addr: PAddr, data: &[u8]) -> Result<(), PmemError> {
        let len = data.len() as u64;
        if self.hooks_engaged() {
            self.write_bytes(addr, data)?;
            return self.flush(addr, len);
        }
        self.check_range(addr, len)?;
        self.engine.store_flush(addr.offset(), data, self.mode);
        Ok(())
    }

    /// Issues an `sfence`: all previously flushed lines become durable.
    ///
    /// When an armed [`FaultPlan`] trips on (or before) this fence, the
    /// fence is silently lost — the power failed before the ordering point,
    /// so pending flushes never become durable. Subsequent fallible
    /// operations report the injected crash.
    pub fn fence(&self) {
        if self.hooks_engaged()
            && self
                .fault_persist_event(EventKind::Fence, 0, 0, None)
                .is_err()
        {
            return;
        }
        self.engine.fence(self.mode);
    }

    /// Flush-and-fence convenience: makes `[addr, addr+len)` durable.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds the pool.
    pub fn persist(&self, addr: PAddr, len: u64) -> Result<(), PmemError> {
        self.flush(addr, len)?;
        self.fence();
        Ok(())
    }

    /// Sets and persists the pool's root object address.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the pool is corrupt.
    pub fn set_root(&self, root: PAddr) -> Result<(), PmemError> {
        self.write_u64(PAddr::new(layout::ROOT), root.offset())?;
        self.persist(PAddr::new(layout::ROOT), 8)
    }

    /// Returns the pool's root object address ([`PAddr::NULL`] if unset).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the pool is corrupt.
    pub fn root(&self) -> Result<PAddr, PmemError> {
        Ok(PAddr::new(self.read_u64(PAddr::new(layout::ROOT))?))
    }

    /// Simulates a power failure and reopen.
    ///
    /// Each flushed-but-unfenced line survives with probability
    /// `cfg.p_flushed_unfenced`; each dirty unflushed line with probability
    /// `cfg.p_dirty`; fenced data always survives. Returns the pool as a
    /// freshly opened instance (volatile state discarded, allocator hints
    /// repaired, mirror rebuilt). In performance mode all writes are already
    /// on media, so the result is simply a clean reopen.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the surviving media fails header
    /// validation (which would indicate a bug in this crate, not the caller).
    pub fn crash(&self, cfg: &CrashConfig) -> Result<PmemPool, PmemError> {
        let media = self.crash_media(cfg);
        PmemPool::open_from_media(media, self.mode)
    }

    /// The media image the power failure of [`crash`](Self::crash) leaves
    /// behind — durable bytes plus every modified line whose survival draw
    /// succeeds — as one copy, not reopened: `crash` is this image opened,
    /// and since an open repairs the allocator hints, this is the image
    /// before that repair. For a harness that reopens it itself.
    pub fn crash_media(&self, cfg: &CrashConfig) -> Vec<u8> {
        self.crash_media_into(cfg, Vec::new())
    }

    /// [`crash_media`](Self::crash_media) written into `buf`'s allocation
    /// (its contents are discarded): no allocation when `buf` already has
    /// the pool's capacity.
    pub fn crash_media_into(&self, cfg: &CrashConfig, buf: Vec<u8>) -> Vec<u8> {
        let cfg = &cfg.clamped();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // One survival draw per modified line, in ascending line order.
        let mut draw = |flush_pending: bool| {
            if flush_pending {
                rng.gen_bool(cfg.p_flushed_unfenced)
            } else {
                rng.gen_bool(cfg.p_dirty)
            }
        };
        self.engine.crash_media(buf, &mut draw)
    }

    /// Returns a copy of the durable media contents (what a crash with
    /// [`CrashConfig::drop_all`] would preserve, before an open's repairs).
    pub fn media_snapshot(&self) -> Vec<u8> {
        self.engine.with_media(<[u8]>::to_vec)
    }

    /// Calls `f` on the durable media (what
    /// [`media_snapshot`](Self::media_snapshot) copies) without copying it:
    /// for hashing or comparing an image in place. The engine lock is held
    /// while `f` runs, so `f` must not call back into this pool.
    pub fn visit_media(&self, f: impl FnOnce(&[u8])) {
        self.engine.with_media(f);
    }

    /// Consumes the pool and returns its durable media (the volatile cache
    /// is discarded, as by a [`CrashConfig::drop_all`] crash) — no copy, so
    /// a harness can recycle a pool-sized buffer.
    pub fn into_media(self) -> Vec<u8> {
        self.engine.into_media()
    }
}

pub(crate) fn get_u64(media: &[u8], offset: u64) -> u64 {
    let s = offset as usize;
    u64::from_le_bytes(media[s..s + 8].try_into().expect("8-byte slice"))
}

pub(crate) fn put_u64(media: &mut [u8], offset: u64, value: u64) {
    let s = offset as usize;
    media[s..s + 8].copy_from_slice(&value.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash_pool() -> PmemPool {
        PmemPool::create(PoolOptions::crash_sim(1 << 20)).expect("create")
    }

    #[test]
    fn create_rejects_tiny_capacity() {
        let err = PmemPool::create(PoolOptions::performance(64)).unwrap_err();
        assert!(matches!(err, PmemError::CapacityTooSmall { .. }));
    }

    #[test]
    fn read_back_what_was_written() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.write_bytes(a, b"hello pmem").unwrap();
        assert_eq!(p.read_bytes(a, 10).unwrap(), b"hello pmem");
    }

    #[test]
    fn out_of_bounds_access_is_rejected() {
        let p = crash_pool();
        let near_end = PAddr::new(p.capacity() - 4);
        assert!(matches!(
            p.write_u64(near_end, 1),
            Err(PmemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            p.read_u64(near_end),
            Err(PmemError::OutOfBounds { .. })
        ));
        // Overflowing offsets must not panic.
        assert!(p.read_u64(PAddr::new(u64::MAX - 2)).is_err());
        // Nor may a length from a corrupt image size an allocation.
        assert!(matches!(
            p.read_bytes(PAddr::new(64), 1 << 40),
            Err(PmemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn unfenced_write_is_dropped_by_adversarial_crash() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.write_u64(a, 0xdead).unwrap();
        // Not flushed, not fenced: an adversarial crash drops it.
        let p2 = p.crash(&CrashConfig::drop_all(1)).unwrap();
        assert_eq!(p2.read_u64(a).unwrap(), 0);
    }

    #[test]
    fn flushed_but_unfenced_write_may_be_dropped() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.write_u64(a, 0xdead).unwrap();
        p.flush(a, 8).unwrap();
        let p2 = p.crash(&CrashConfig::drop_all(2)).unwrap();
        assert_eq!(
            p2.read_u64(a).unwrap(),
            0,
            "flush without fence is not durable"
        );
    }

    #[test]
    fn persisted_write_survives_any_crash() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.write_u64(a, 0xbeef).unwrap();
        p.persist(a, 8).unwrap();
        let p2 = p.crash(&CrashConfig::drop_all(3)).unwrap();
        assert_eq!(p2.read_u64(a).unwrap(), 0xbeef);
    }

    #[test]
    fn write_after_flush_redirties_the_line() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.write_u64(a, 1).unwrap();
        p.flush(a, 8).unwrap();
        p.write_u64(a, 2).unwrap(); // re-dirties; earlier flush is void
        p.fence();
        let p2 = p.crash(&CrashConfig::drop_all(4)).unwrap();
        // Neither value is guaranteed, but the *old flush* must not have
        // persisted value 2; with drop_all the line reverts to 0.
        assert_eq!(p2.read_u64(a).unwrap(), 0);
    }

    #[test]
    fn keep_all_crash_preserves_even_unflushed_writes() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.write_u64(a, 77).unwrap();
        let p2 = p.crash(&CrashConfig::keep_all(5)).unwrap();
        assert_eq!(p2.read_u64(a).unwrap(), 77);
    }

    #[test]
    fn torn_multi_line_write_can_partially_survive() {
        let p = crash_pool();
        // Two writes on different lines, only the first is persisted.
        let a = PAddr::new(4096);
        let b = PAddr::new(4096 + 64);
        p.write_u64(a, 11).unwrap();
        p.write_u64(b, 22).unwrap();
        p.persist(a, 8).unwrap();
        let p2 = p.crash(&CrashConfig::drop_all(6)).unwrap();
        assert_eq!(p2.read_u64(a).unwrap(), 11);
        assert_eq!(p2.read_u64(b).unwrap(), 0, "unpersisted line torn away");
    }

    #[test]
    fn reads_see_cached_writes_before_persistence() {
        let p = crash_pool();
        let a = PAddr::new(8192);
        p.write_u64(a, 5).unwrap();
        assert_eq!(p.read_u64(a).unwrap(), 5, "program order visibility");
    }

    #[test]
    fn performance_mode_crash_keeps_everything() {
        let p = PmemPool::create(PoolOptions::performance(1 << 20)).unwrap();
        let a = PAddr::new(4096);
        p.write_u64(a, 9).unwrap();
        let p2 = p.crash(&CrashConfig::drop_all(7)).unwrap();
        assert_eq!(p2.read_u64(a).unwrap(), 9);
    }

    #[test]
    fn stats_count_flushes_and_fences() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.write_bytes(a, &[0u8; 130]).unwrap();
        let before = p.stats().snapshot();
        p.flush(a, 130).unwrap(); // 3 lines
        p.fence();
        let d = p.stats().snapshot().delta(&before);
        assert_eq!(d.flushes, 3);
        assert_eq!(d.fences, 1);
    }

    #[test]
    fn root_round_trips_and_survives_crash() {
        let p = crash_pool();
        p.set_root(PAddr::new(12345)).unwrap();
        let p2 = p.crash(&CrashConfig::drop_all(8)).unwrap();
        assert_eq!(p2.root().unwrap(), PAddr::new(12345));
    }

    #[test]
    fn open_rejects_bad_magic() {
        // Blank media; an otherwise valid image restamped with the retired
        // single-arena magic that no `create` ever wrote; and one restamped
        // as a 4-arena image, whose side-arena metadata would sit inside
        // this format's heap (arena count at header word 32); and one
        // restamped with the one-heap magic of the layout whose payloads
        // started at 8 mod 16, which this layout's walks cannot follow.
        let restamp = |magic| {
            let mut media = crash_pool().media_snapshot();
            put_u64(&mut media, layout::MAGIC, magic);
            media
        };
        let mut four_arenas = restamp(0xC10B_BE12_0000_0002);
        put_u64(&mut four_arenas, 32, 4);
        let [single_arena, unaligned] = [0xC10B_BE12_0000_0001, 0xC10B_BE12_0000_0003].map(restamp);
        for media in [vec![0u8; 1 << 20], single_arena, four_arenas, unaligned] {
            match PmemPool::open_from_media(media, PoolMode::CrashSim) {
                Err(PmemError::CorruptPool(why)) => assert_eq!(why, "bad magic"),
                other => panic!("expected a bad-magic error, got {other:?}"),
            }
        }
    }

    #[test]
    fn open_rejects_capacity_mismatch() {
        let p = crash_pool();
        let mut media = p.media_snapshot();
        media.truncate((1 << 20) - 64);
        assert!(matches!(
            PmemPool::open_from_media(media, PoolMode::CrashSim),
            Err(PmemError::CorruptPool(_))
        ));
    }

    #[test]
    fn crash_is_deterministic_per_seed() {
        let make = || {
            let p = crash_pool();
            for i in 0..64u64 {
                p.write_u64(PAddr::new(4096 + i * 64), i + 1).unwrap();
            }
            p
        };
        let cfg = CrashConfig::with_seed(42);
        let m1 = make().crash(&cfg).unwrap().media_snapshot();
        let m2 = make().crash(&cfg).unwrap().media_snapshot();
        assert_eq!(m1, m2);
    }

    #[test]
    fn media_is_visited_crashed_and_taken_in_place() {
        let p = crash_pool();
        // Durable bytes across a page boundary, and an unfenced store.
        let a = PAddr::new((1 << 18) - 100);
        p.write_bytes(a, &[7; 200]).unwrap();
        p.persist(a, 200).unwrap();
        p.write_u64(PAddr::new(8192), 9).unwrap();
        let snap = p.media_snapshot();
        assert_eq!(&snap[a.offset() as usize..][..200], &[7; 200]);

        let mut visited = Vec::new();
        p.visit_media(|media| visited.extend_from_slice(media));
        assert_eq!(visited, snap, "the visit sees the durable media");

        assert_eq!(p.crash_media(&CrashConfig::drop_all(1)), snap);
        let kept = p.crash_media(&CrashConfig::keep_all(1));
        assert_eq!(get_u64(&kept, 8192), 9, "the unfenced store survived");
        let buf = Vec::with_capacity(1 << 20);
        let at = buf.as_ptr();
        let image = p.crash_media_into(&CrashConfig::drop_all(1), buf);
        assert_eq!(image.as_ptr(), at, "written into the buffer handed in");
        assert_eq!(image, snap);

        assert_eq!(p.into_media(), snap);
    }

    #[test]
    fn error_display_is_lowercase_and_informative() {
        let e = PmemError::OutOfMemory { requested: 100 };
        let msg = format!("{e}");
        assert!(msg.contains("100"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn count_only_plan_counts_stores_flushes_and_fences() {
        let p = crash_pool();
        p.arm_faults(FaultPlan::count_only());
        let a = PAddr::new(4096);
        p.write_u64(a, 1).unwrap(); // event 0
        p.flush(a, 8).unwrap(); // event 1
        p.fence(); // event 2
        assert_eq!(p.fault_events(), 3);
        assert_eq!(p.fault_tripped(), None);
        assert_eq!(p.disarm_faults(), 3);
        // Disarmed: operations proceed without advancing any counter.
        p.write_u64(a, 2).unwrap();
        assert_eq!(p.fault_events(), 3);
    }

    #[test]
    fn tripped_pool_refuses_all_operations() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.arm_faults(FaultPlan::crash_at(0));
        assert_eq!(
            p.write_u64(a, 1).unwrap_err(),
            PmemError::InjectedCrash { event: 0 }
        );
        assert!(matches!(
            p.read_u64(a),
            Err(PmemError::InjectedCrash { .. })
        ));
        assert!(matches!(
            p.flush(a, 8),
            Err(PmemError::InjectedCrash { .. })
        ));
        assert!(matches!(p.alloc(64), Err(PmemError::InjectedCrash { .. })));
        assert!(matches!(
            p.free(PAddr::new(8192)),
            Err(PmemError::InjectedCrash { .. })
        ));
        assert_eq!(p.fault_tripped(), Some(0));
        // The dead pool can still be crashed and reopened — that is the
        // harness path — and the reopened pool is healthy.
        let p2 = p.crash(&CrashConfig::drop_all(1)).unwrap();
        assert!(p2.read_u64(a).is_ok());
    }

    #[test]
    fn trip_on_fence_is_silent_but_kills_the_pool() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.arm_faults(FaultPlan::crash_at(2));
        p.write_u64(a, 7).unwrap(); // event 0
        p.flush(a, 8).unwrap(); // event 1
        let fences_before = p.stats().snapshot().fences;
        p.fence(); // event 2: the fence is lost with the power
        assert_eq!(p.stats().snapshot().fences, fences_before);
        assert!(matches!(
            p.read_u64(a),
            Err(PmemError::InjectedCrash { .. })
        ));
        // The lost fence means the flush never ordered: drop_all reverts.
        let p2 = p.crash(&CrashConfig::drop_all(9)).unwrap();
        assert_eq!(p2.read_u64(a).unwrap(), 0);
    }

    #[test]
    fn tripping_store_does_not_reach_media_or_stats() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.arm_faults(FaultPlan::crash_at(0));
        let before = p.stats().snapshot();
        let _ = p.write_u64(a, 0xAB);
        let d = p.stats().snapshot().delta(&before);
        assert_eq!(d.writes, 0, "failed store must not count");
        assert_eq!(d.faults_tripped, 1);
        let p2 = p.crash(&CrashConfig::keep_all(3)).unwrap();
        assert_eq!(p2.read_u64(a).unwrap(), 0, "store never happened");
    }

    #[test]
    fn torn_store_persists_a_strict_prefix_of_lines() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        let data = vec![0xCD_u8; 256]; // 4 lines
        p.arm_faults(FaultPlan::torn_crash_at(0, 42));
        assert!(p.write_bytes(a, &data).is_err());
        // The torn prefix went straight to media, so it survives drop_all.
        let p2 = p.crash(&CrashConfig::drop_all(0)).unwrap();
        let got = p2.read_bytes(a, 256).unwrap();
        let survived = got.iter().take_while(|&&b| b == 0xCD).count();
        assert!(survived > 0, "a torn store persists at least one line");
        assert!(survived < 256, "a torn store must not persist fully");
        assert_eq!(survived % CACHE_LINE as usize, 0, "tear at line boundary");
        assert!(
            got[survived..].iter().all(|&b| b == 0),
            "bytes past the tear never reached media"
        );
    }

    #[test]
    fn torn_single_line_store_is_atomic() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.arm_faults(FaultPlan::torn_crash_at(0, 7));
        assert!(p.write_u64(a, 0xFFFF).is_err());
        let p2 = p.crash(&CrashConfig::drop_all(0)).unwrap();
        assert_eq!(p2.read_u64(a).unwrap(), 0, "single-line store never tears");
    }

    #[test]
    fn transient_read_faults_succeed_on_retry() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.write_u64(a, 123).unwrap();
        p.persist(a, 8).unwrap();
        p.arm_faults(FaultPlan::transient_reads(2));
        assert_eq!(
            p.read_u64(a).unwrap_err(),
            PmemError::TransientMediaFault { addr: 4096 }
        );
        assert!(p.read_u64(a).is_err());
        assert_eq!(p.read_u64(a).unwrap(), 123, "third attempt succeeds");
        assert_eq!(p.stats().snapshot().faults_tripped, 2);
    }

    #[test]
    fn bit_corruption_flips_exactly_the_requested_bits() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.write_bytes(a, &[0u8; 64]).unwrap();
        p.persist(a, 64).unwrap();
        let clean = p.media_snapshot();
        p.inject_bit_corruption(a, 64, 11, 5).unwrap();
        let dirty = p.media_snapshot();
        let flipped: u32 = clean
            .iter()
            .zip(dirty.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(flipped, 5);
        // All damage confined to the target region.
        assert_eq!(clean[..4096], dirty[..4096]);
        assert_eq!(clean[4096 + 64..], dirty[4096 + 64..]);
        // Deterministic per seed.
        let p2 = PmemPool::open_from_media(clean, PoolMode::CrashSim).unwrap();
        p2.inject_bit_corruption(a, 64, 11, 5).unwrap();
        assert_eq!(p2.media_snapshot(), dirty);
    }

    #[test]
    fn bit_corruption_rejects_more_flips_than_bits() {
        let p = crash_pool();
        assert!(matches!(
            p.inject_bit_corruption(PAddr::new(4096), 1, 0, 9),
            Err(PmemError::CorruptPool(_))
        ));
    }

    #[test]
    fn rearming_resets_the_event_counter() {
        let p = crash_pool();
        let a = PAddr::new(4096);
        p.arm_faults(FaultPlan::count_only());
        p.write_u64(a, 1).unwrap();
        p.write_u64(a, 2).unwrap();
        assert_eq!(p.fault_events(), 2);
        p.arm_faults(FaultPlan::crash_at(1));
        p.write_u64(a, 3).unwrap(); // event 0 of the new plan
        assert!(p.write_u64(a, 4).is_err());
        assert_eq!(p.stats().snapshot().faults_armed, 2);
    }
}
