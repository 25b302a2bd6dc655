//! Post-crash recovery.
//!
//! On restart the runtime scans every per-thread v_log slot (paper §4.3).
//! For the clobber backend, an ongoing transaction is recovered by:
//!
//! 1. restoring its clobbered inputs from the `clobber_log`
//!    (most-recent-first, so the original pre-transaction value wins),
//! 2. clearing the `clobber_log` (the re-execution will refill it), and
//! 3. re-executing the registered txfunc with the arguments and preserved
//!    volatile blobs read back from the v_log, committing normally.
//!
//! Because the locking discipline guarantees ongoing transactions have
//! disjoint lock sets, slots recover independently in any order.
//!
//! The baseline backends recover per their own disciplines: undo/Atlas roll
//! uncommitted transactions back; redo replays transactions whose commit
//! marker is set and discards the rest.
//!
//! # Parallel scan
//!
//! Slot independence makes the scan parallelizable: with
//! [`RecoveryOptions::workers`] above one, a planning pass reads each
//! slot's logged write set from its clobber/redo log, unions slots whose
//! ranges overlap into conflict groups (belt-and-braces — the locking
//! discipline already implies disjointness), orders the groups
//! deterministically by allocator arena and lowest slot id, and deals them
//! round-robin to scoped worker threads. Slots inside one group run on one
//! worker in ascending id, so conflicting slots serialize in a fixed
//! order. The scan falls back to the serial path whenever a tracer or a
//! fault plan is attached (the fault-mutex contract numbers persist events
//! in acquisition order — only a single worker keeps sweeps and traces
//! bit-identical), and the parity tests prove the two paths produce
//! bit-identical durable state, counters, and reports.
//!
//! # Bounded time
//!
//! [`RecoveryOptions::slot_deadline`] and
//! [`RecoveryOptions::total_budget`] bound how long the scan may spend,
//! measured on the injectable [`RecoveryClock`]. The checks are
//! cooperative (slot start and retry boundaries), so they bound retry
//! storms and let the remaining slots degrade gracefully: an over-budget
//! slot is quarantined with [`SlotQuarantineKind::BudgetExceeded`] under
//! [`RecoveryPolicy::BestEffort`], or reported as
//! [`TxError::RecoveryBudgetExceeded`] under strict policy — recovery
//! never hangs the pool open.
//!
//! # Persistent re-execution progress
//!
//! Re-execution persists a [`VlogCheckpoint`](crate::VlogCheckpoint)
//! (store watermark + log-entry and preserve cursors) into the slot at
//! each clobber-log sync. A crash *during* recovery then resumes past the
//! watermark instead of restarting: the next scan rolls back only log
//! entries past the checkpointed cursor, keeps the earlier entries as a
//! read overlay of pre-transaction values, and replays the txfunc with the
//! checkpointed prefix of stores skipped. Every re-executed store thereby
//! lands on media at most once per completed recovery, and a transaction
//! interrupted K times completes within O(K) recovery cycles — each cycle
//! advances the watermark (see `DESIGN.md` item 12).
//!
//! # Fault tolerance
//!
//! Recovery itself runs on possibly-faulty media, so it is hardened two
//! ways:
//!
//! * **Policy.** [`RecoveryPolicy::Strict`] (the default) fails the whole
//!   scan on the first slot whose v_log or clobber_log fails validation.
//!   [`RecoveryPolicy::BestEffort`] instead *quarantines* that slot —
//!   records it in [`RecoveryReport::quarantined`] with a typed
//!   [`SlotQuarantineKind`] and moves on, so one decayed slot cannot hold
//!   the rest of the pool hostage.
//! * **Retry.** Transient substrate faults
//!   ([`TxError::is_transient`]) retry the slot with bounded exponential
//!   backoff, slept on the options' [`RecoveryClock`] (tests inject
//!   [`NoopClock`] so retry paths pay no wall-clock time). Re-running a
//!   slot's recovery is safe at any point: restoring clobbered inputs is
//!   most-recent-first (the oldest value wins no matter how often it is
//!   replayed) and a partial re-execution merely re-logs the same restored
//!   inputs.
//!
//! The same idempotence argument covers a *crash during recovery*: if
//! `recover` dies mid-re-execution (e.g. an injected trip point), reopening
//! the pool and calling `recover` again completes the transaction — the
//! crash-sweep tests exercise every persist event inside recovery too, now
//! including the checkpointed-resume events.
//!
//! Commit-window edge cases (all verified by the crash sweeps in
//! `tests/`): a crash after the clobber commit's publish fence but before
//! the status bit clears re-executes an already-complete transaction —
//! harmless, since its clobbered inputs are restored first and re-execution
//! regenerates identical outputs (fresh allocations replace the published
//! ones, which leak but never dangle). An undo commit interrupted between
//! its publish fence and log invalidation rolls back an *empty* log — a
//! no-op, so the committed state stands. Deferred frees that a crash
//! separates from their committed transaction — or catches between the two
//! fences of their `free_many` (headers free, lists not yet naming them) —
//! are lost (a bounded leak), never double-applied.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clobber_pmem::{PmemError, PmemPool};

use crate::backend::Backend;
use crate::error::TxError;
use crate::runtime::Runtime;
use crate::tx::Tx;

/// Time source and sleeper for recovery's bounded-retry and budget logic.
///
/// Injectable so tests and exhaustive sweeps substitute [`NoopClock`] —
/// retry backoff then costs no wall-clock time and reports stay
/// bit-identical across runs. [`SystemClock`] is the production default.
pub trait RecoveryClock: fmt::Debug + Send + Sync {
    /// Monotonic elapsed time since an arbitrary per-clock anchor.
    fn now(&self) -> Duration;
    /// Blocks the calling worker for `d` (backoff between retries).
    fn sleep(&self, d: Duration);
}

/// Wall-clock [`RecoveryClock`] backed by [`Instant`] and
/// [`std::thread::sleep`].
#[derive(Debug)]
pub struct SystemClock {
    anchor: Instant,
}

impl SystemClock {
    /// A clock anchored at creation time.
    pub fn new() -> Self {
        SystemClock {
            anchor: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RecoveryClock for SystemClock {
    fn now(&self) -> Duration {
        self.anchor.elapsed()
    }
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A [`RecoveryClock`] that never advances and never sleeps. Deadlines and
/// budgets only trip when set to zero, and retry backoff is free — the
/// deterministic choice for tests and sweeps.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopClock;

impl RecoveryClock for NoopClock {
    fn now(&self) -> Duration {
        Duration::ZERO
    }
    fn sleep(&self, _d: Duration) {}
}

/// How [`Runtime::recover_with`] responds to a slot that fails validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Fail the whole scan on the first bad slot (the historical behavior,
    /// and the right choice when corruption should stop the application).
    #[default]
    Strict,
    /// Quarantine bad slots (recorded in [`RecoveryReport::quarantined`])
    /// and keep scanning, recovering every healthy slot.
    BestEffort,
}

/// Options for [`Runtime::recover_with`].
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Validation-failure policy.
    pub policy: RecoveryPolicy,
    /// Retries per slot for transient faults before giving up (Strict:
    /// propagate; BestEffort: quarantine).
    pub max_retries: u32,
    /// Base backoff between retries, doubled each attempt and slept on
    /// [`Self::clock`].
    pub retry_backoff: Duration,
    /// Worker threads for the slot scan. `1` (the default) is the serial
    /// scan; higher values partition conflict-free slots across scoped
    /// threads. The scan silently falls back to serial while a tracer or
    /// fault plan is attached, preserving the fault-mutex determinism
    /// contract.
    pub workers: usize,
    /// Per-slot time limit, checked cooperatively before the slot's first
    /// attempt and at its retry boundaries. `None` (default) never
    /// expires.
    pub slot_deadline: Option<Duration>,
    /// Whole-scan time limit, measured from `recover_with` entry and
    /// checked before each slot starts and at retry boundaries. Slots
    /// reached after expiry are quarantined (BestEffort) or fail with
    /// [`TxError::RecoveryBudgetExceeded`] (Strict) without being
    /// attempted. `None` (default) never expires.
    pub total_budget: Option<Duration>,
    /// Time source for deadlines, budgets, durations, and retry backoff.
    pub clock: Arc<dyn RecoveryClock>,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            policy: RecoveryPolicy::Strict,
            max_retries: 3,
            retry_backoff: Duration::from_micros(100),
            workers: 1,
            slot_deadline: None,
            total_budget: None,
            clock: Arc::new(SystemClock::new()),
        }
    }
}

impl RecoveryOptions {
    /// Best-effort options with default retry bounds.
    pub fn best_effort() -> Self {
        RecoveryOptions {
            policy: RecoveryPolicy::BestEffort,
            ..Self::default()
        }
    }

    /// Sets the worker-thread count for the slot scan.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Substitutes the time source (e.g. [`NoopClock`] in tests).
    pub fn with_clock(mut self, clock: Arc<dyn RecoveryClock>) -> Self {
        self.clock = clock;
        self
    }

    /// Replaces the clock with [`NoopClock`]: retry backoff costs nothing
    /// and time-based limits only trip at zero. The deterministic choice
    /// for tests and exhaustive sweeps.
    pub fn no_wait(self) -> Self {
        self.with_clock(Arc::new(NoopClock))
    }

    /// Sets the per-slot deadline.
    pub fn with_slot_deadline(mut self, deadline: Duration) -> Self {
        self.slot_deadline = Some(deadline);
        self
    }

    /// Sets the whole-scan budget.
    pub fn with_total_budget(mut self, budget: Duration) -> Self {
        self.total_budget = Some(budget);
        self
    }
}

/// Why best-effort recovery set a slot aside — the typed counterpart of
/// [`SlotQuarantine::reason`], so tests and operators branch on kinds
/// instead of matching error prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotQuarantineKind {
    /// The slot's v_log begin record failed validation.
    CorruptVlog,
    /// The slot's clobber/redo log image failed validation.
    CorruptClobberLog,
    /// A permanent substrate fault (e.g. out-of-bounds descriptor) while
    /// recovering the slot.
    MediaFault,
    /// The slot exhausted its deadline or the scan's global budget.
    BudgetExceeded,
    /// A transient fault persisted through every allowed retry.
    RetriesExhausted,
}

/// A slot that best-effort recovery set aside instead of recovering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotQuarantine {
    /// Index of the quarantined slot.
    pub slot: usize,
    /// Failure category.
    pub kind: SlotQuarantineKind,
    /// Why its recovery failed (display form of the underlying error).
    pub reason: String,
}

/// What [`Runtime::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Slots examined.
    pub slots_scanned: usize,
    /// Names of transactions completed by re-execution (clobber backend).
    pub reexecuted: Vec<String>,
    /// Transactions rolled back (undo/Atlas; also discarded redo logs).
    pub rolled_back: usize,
    /// Committed redo logs replayed to completion.
    pub redo_applied: usize,
    /// Ongoing transactions abandoned because they crashed before
    /// recording a needed preserve (no persistent write can have happened).
    pub abandoned: usize,
    /// clobber_log entries applied while restoring inputs.
    pub clobber_entries_applied: u64,
    /// clobber_log bytes applied while restoring inputs.
    pub clobber_bytes_applied: u64,
    /// Slots best-effort recovery set aside, with kinds and reasons.
    pub quarantined: Vec<SlotQuarantine>,
    /// Slot-recovery attempts repeated after a transient fault.
    pub transient_retries: u64,
    /// Re-executions that resumed from a persisted progress checkpoint
    /// instead of restarting from zero.
    pub resumed: usize,
    /// Progress checkpoints persisted during re-execution (watermark
    /// advances a subsequent crash would resume past).
    pub watermark_advances: u64,
    /// Slots that ran out of deadline or budget.
    pub budget_expired: usize,
    /// Worker threads the scan actually used (1 = serial).
    pub workers_used: usize,
    /// Wall time of the whole scan on the options' clock ([`NoopClock`]
    /// reports zero, keeping sweep reports bit-identical).
    pub wall_time: Duration,
    /// Per-slot recovery time on the options' clock, indexed by slot.
    pub slot_durations: Vec<Duration>,
}

impl RecoveryReport {
    /// `true` if no interrupted transaction was found and nothing was
    /// quarantined.
    pub fn is_clean(&self) -> bool {
        self.reexecuted.is_empty()
            && self.rolled_back == 0
            && self.redo_applied == 0
            && self.abandoned == 0
            && self.quarantined.is_empty()
    }
}

/// Per-slot recovery outcome, merged into the report only once the slot
/// completes — a retried attempt must not double-count its partial work.
#[derive(Debug, Default)]
struct SlotDelta {
    reexecuted: Vec<String>,
    rolled_back: usize,
    redo_applied: usize,
    abandoned: usize,
    clobber_entries_applied: u64,
    clobber_bytes_applied: u64,
    resumed: usize,
    watermark_advances: u64,
}

impl SlotDelta {
    fn merge_into(self, report: &mut RecoveryReport) {
        report.reexecuted.extend(self.reexecuted);
        report.rolled_back += self.rolled_back;
        report.redo_applied += self.redo_applied;
        report.abandoned += self.abandoned;
        report.clobber_entries_applied += self.clobber_entries_applied;
        report.clobber_bytes_applied += self.clobber_bytes_applied;
        report.resumed += self.resumed;
        report.watermark_advances += self.watermark_advances;
    }
}

/// How one slot's scan ended; produced by a worker, merged in slot order.
#[derive(Debug)]
enum SlotResult {
    Done(SlotDelta),
    Quarantined(SlotQuarantine),
    Failed(TxError),
}

#[derive(Debug)]
struct SlotOutcome {
    result: SlotResult,
    retries: u64,
    duration: Duration,
}

/// `true` for failures that condemn one slot rather than the whole pool:
/// best-effort recovery may quarantine these. Injected whole-pool crashes,
/// heap exhaustion, and misconfiguration always propagate.
fn quarantinable(e: &TxError) -> bool {
    matches!(
        e,
        TxError::CorruptVlog(_)
            | TxError::Pmem(PmemError::OutOfBounds { .. })
            | TxError::Pmem(PmemError::CorruptPool(_))
            | TxError::Pmem(PmemError::TransientMediaFault { .. })
    )
}

/// Categorizes a quarantinable error.
fn quarantine_kind(e: &TxError) -> SlotQuarantineKind {
    match e {
        TxError::CorruptVlog(_) => SlotQuarantineKind::CorruptVlog,
        TxError::Pmem(PmemError::CorruptPool(_)) => SlotQuarantineKind::CorruptClobberLog,
        TxError::Pmem(PmemError::TransientMediaFault { .. }) => {
            SlotQuarantineKind::RetriesExhausted
        }
        _ => SlotQuarantineKind::MediaFault,
    }
}

impl Runtime {
    /// Recovers all interrupted transactions with [`RecoveryOptions`]'
    /// defaults (strict policy, serial scan, bounded transient retry).
    /// Must be called after [`Runtime::open`] and after re-registering
    /// every txfunc; the application may resume use of the pool afterwards.
    ///
    /// Safe to call again (on a reopened pool) if a crash interrupts it —
    /// see the module docs on idempotence and checkpointed resume.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Unregistered`] if an interrupted transaction's
    /// txfunc was not re-registered, [`TxError::CorruptVlog`] if a v_log
    /// record fails validation, and [`TxError::Pmem`] on substrate errors.
    pub fn recover(&self) -> Result<RecoveryReport, TxError> {
        self.recover_with(&RecoveryOptions::default())
    }

    /// Recovers all interrupted transactions under an explicit policy.
    ///
    /// # Errors
    ///
    /// As [`Runtime::recover`], except that under
    /// [`RecoveryPolicy::BestEffort`] validation failures confined to one
    /// slot are quarantined (see [`RecoveryReport::quarantined`]) instead of
    /// returned, and time-limit expiries surface as
    /// [`TxError::RecoveryBudgetExceeded`] under strict policy.
    /// [`TxError::Unregistered`] always propagates — a missing txfunc is a
    /// configuration error, not media damage. Under a strict parallel
    /// scan, workers finish their assigned slots before the error (from
    /// the lowest-indexed failing slot) is returned; the extra recovered
    /// slots are always safe — slot recovery is idempotent and
    /// order-independent.
    pub fn recover_with(&self, opts: &RecoveryOptions) -> Result<RecoveryReport, TxError> {
        let pool = self.pool().clone();
        let clock = &opts.clock;
        let t0 = clock.now();
        self.drop_mirrors();
        let slot_count = self.slot_count();
        // The deterministic serial fallback: tracing and fault plans rely
        // on the fault mutex's acquisition order being schedule-free, so
        // sweeps and golden traces always take the one-worker path.
        let serial =
            opts.workers <= 1 || slot_count <= 1 || pool.tracing_enabled() || pool.faults_armed();
        let workers = if serial {
            1
        } else {
            opts.workers.min(slot_count)
        };

        let mut outcomes: Vec<Option<SlotOutcome>> = Vec::new();
        outcomes.resize_with(slot_count, || None);
        if workers == 1 {
            // Serial contract: stop at the first failing slot, leaving
            // later slots untouched so a follow-up (best-effort) scan can
            // still recover them.
            for (idx, out) in outcomes.iter_mut().enumerate() {
                let outcome = self.run_slot(idx, &pool, opts, t0);
                let failed = matches!(outcome.result, SlotResult::Failed(_));
                *out = Some(outcome);
                if failed {
                    break;
                }
            }
        } else {
            let assignments = self.plan_assignments(&pool, slot_count, workers);
            let shared = Mutex::new(&mut outcomes);
            std::thread::scope(|s| {
                for work in &assignments {
                    let pool = &pool;
                    let shared = &shared;
                    s.spawn(move || {
                        for &idx in work {
                            let out = self.run_slot(idx, pool, opts, t0);
                            shared.lock().unwrap()[idx] = Some(out);
                        }
                    });
                }
            });
        }

        // Merge in ascending slot order, so reports (and the strict-mode
        // error: lowest failing slot) are identical however the scan was
        // scheduled.
        let mut report = RecoveryReport {
            workers_used: workers,
            slot_durations: vec![Duration::ZERO; slot_count],
            ..RecoveryReport::default()
        };
        let mut first_err: Option<TxError> = None;
        for (idx, out) in outcomes.iter_mut().enumerate() {
            // A serial strict scan stops at the first failure; slots after
            // it were never visited (and stay recoverable).
            let Some(out) = out.take() else { continue };
            report.slots_scanned += 1;
            report.transient_retries += out.retries;
            report.slot_durations[idx] = out.duration;
            match out.result {
                SlotResult::Done(delta) => delta.merge_into(&mut report),
                SlotResult::Quarantined(q) => {
                    if q.kind == SlotQuarantineKind::BudgetExceeded {
                        report.budget_expired += 1;
                    }
                    report.quarantined.push(q);
                }
                SlotResult::Failed(e) => {
                    if matches!(e, TxError::RecoveryBudgetExceeded { .. }) {
                        report.budget_expired += 1;
                    }
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        report.wall_time = clock.now().saturating_sub(t0);

        let stats = pool.stats();
        stats
            .rec_slots_scanned
            .fetch_add(report.slots_scanned as u64, Ordering::Relaxed);
        stats
            .rec_reexecuted
            .fetch_add(report.reexecuted.len() as u64, Ordering::Relaxed);
        stats
            .rec_resumed
            .fetch_add(report.resumed as u64, Ordering::Relaxed);
        stats
            .rec_budget_expired
            .fetch_add(report.budget_expired as u64, Ordering::Relaxed);
        stats
            .rec_workers
            .fetch_max(workers as u64, Ordering::Relaxed);

        match first_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Runs one slot's bounded-retry recovery loop, producing its outcome
    /// without touching the shared report (workers call this concurrently).
    fn run_slot(
        &self,
        idx: usize,
        pool: &PmemPool,
        opts: &RecoveryOptions,
        t0: Duration,
    ) -> SlotOutcome {
        let clock = &opts.clock;
        let slot_start = clock.now();
        let mut retries = 0u64;
        let over_budget = |now: Duration| {
            opts.total_budget
                .is_some_and(|b| now.saturating_sub(t0) >= b)
        };
        let over_deadline = |now: Duration| {
            opts.slot_deadline
                .is_some_and(|d| now.saturating_sub(slot_start) >= d)
        };
        let budget_result = |kind_src: &str| {
            let e = TxError::RecoveryBudgetExceeded { slot: idx };
            if opts.policy == RecoveryPolicy::BestEffort {
                SlotResult::Quarantined(SlotQuarantine {
                    slot: idx,
                    kind: SlotQuarantineKind::BudgetExceeded,
                    reason: format!("{e} ({kind_src})"),
                })
            } else {
                SlotResult::Failed(e)
            }
        };
        let mut attempt = 0u32;
        let result = if over_budget(slot_start) {
            budget_result("global budget exhausted before the slot started")
        } else if over_deadline(slot_start) {
            budget_result("slot deadline expired before the slot started")
        } else {
            loop {
                match self.recover_slot(idx, pool) {
                    Ok(delta) => break SlotResult::Done(delta),
                    Err(e) if e.is_transient() && attempt < opts.max_retries => {
                        let now = clock.now();
                        if over_deadline(now) {
                            break budget_result("slot deadline expired");
                        }
                        if over_budget(now) {
                            break budget_result("global budget expired");
                        }
                        attempt += 1;
                        retries += 1;
                        pool.stats().fault_retries.fetch_add(1, Ordering::Relaxed);
                        let backoff = opts
                            .retry_backoff
                            .saturating_mul(1u32 << (attempt - 1).min(10));
                        if !backoff.is_zero() {
                            clock.sleep(backoff);
                        }
                    }
                    Err(e) => {
                        if opts.policy == RecoveryPolicy::BestEffort && quarantinable(&e) {
                            break SlotResult::Quarantined(SlotQuarantine {
                                slot: idx,
                                kind: quarantine_kind(&e),
                                reason: e.to_string(),
                            });
                        }
                        break SlotResult::Failed(e);
                    }
                }
            }
        };
        if matches!(result, SlotResult::Quarantined(_)) && pool.tracing_enabled() {
            pool.trace_app_event(
                clobber_trace::EventKind::RecoveryStep,
                0,
                clobber_trace::recovery_steps::QUARANTINE,
                idx as u64,
            );
        }
        SlotOutcome {
            result,
            retries,
            duration: clock.now().saturating_sub(slot_start),
        }
    }

    /// Plans the parallel scan: per-slot logged write sets, conflict
    /// groups, and a deterministic round-robin deal to `workers` threads.
    ///
    /// Planning is advisory and infallible — a slot whose metadata cannot
    /// be read contributes an empty write set and fails (or quarantines)
    /// later inside its own `recover_slot`, exactly as the serial scan
    /// would.
    fn plan_assignments(
        &self,
        pool: &PmemPool,
        slot_count: usize,
        workers: usize,
    ) -> Vec<Vec<usize>> {
        let mut ranges: Vec<Vec<(u64, u64)>> = Vec::new();
        let mut bases: Vec<u64> = Vec::new();
        // Clobber slots whose re-execution write set cannot be bounded
        // from metadata: they conflict with every slot that has work.
        let mut unknown = vec![false; slot_count];
        let mut has_work = vec![false; slot_count];
        for idx in 0..slot_count {
            let mut rs = Vec::new();
            let mut base = u64::MAX;
            if let Ok(slot) = self.slot(idx) {
                base = slot.base().offset();
                let log_ranges = |log: Result<clobber_pmem::Ulog, PmemError>| {
                    log.and_then(|l| l.entries(pool)).map(|entries| {
                        entries
                            .iter()
                            .map(|(a, d)| (a.offset(), a.offset() + d.len() as u64))
                            .collect::<Vec<_>>()
                    })
                };
                match self.backend() {
                    Backend::Clobber(cfg)
                        if cfg.vlog
                            && cfg.clobber_log
                            && slot.is_ongoing(pool).unwrap_or(false) =>
                    {
                        has_work[idx] = true;
                        // A slot an interrupted recovery already
                        // touched (log cleared, or a resume
                        // checkpoint persisted) no longer carries its
                        // full write set in the clobber log; its
                        // re-execution writes are unknowable from
                        // metadata, so it serializes with everything.
                        let resumed = matches!(slot.checkpoint(pool), Ok(Some(_)));
                        match log_ranges(slot.clobber_log(pool)) {
                            Ok(logged) if !logged.is_empty() && !resumed => rs = logged,
                            _ => unknown[idx] = true,
                        }
                    }
                    Backend::Undo | Backend::Atlas if slot.is_ongoing(pool).unwrap_or(false) => {
                        // Write-ahead pre-images: the log covers every
                        // write performed, and rollback touches only
                        // logged addresses — always a complete set.
                        has_work[idx] = true;
                        rs = log_ranges(slot.clobber_log(pool)).unwrap_or_default();
                    }
                    Backend::Redo if slot.is_redo_committed(pool).unwrap_or(false) => {
                        // A committed redo log is complete by the commit
                        // contract; uncommitted ones are discarded with
                        // only slot-local writes.
                        has_work[idx] = true;
                        rs = log_ranges(slot.redo_log(pool)).unwrap_or_default();
                    }
                    _ => {}
                }
            }
            ranges.push(rs);
            bases.push(base);
        }

        // Union-find over slots whose logged ranges overlap. The locking
        // discipline already guarantees disjointness for concurrently
        // ongoing transactions (module docs), so groups are almost always
        // singletons — this is the belt-and-braces disjointness proof.
        let mut parent: Vec<usize> = (0..slot_count).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let overlap = |a: &[(u64, u64)], b: &[(u64, u64)]| {
            a.iter()
                .any(|&(s1, e1)| b.iter().any(|&(s2, e2)| s1 < e2 && s2 < e1))
        };
        for i in 0..slot_count {
            for j in (i + 1)..slot_count {
                let conflict = overlap(&ranges[i], &ranges[j])
                    || ((unknown[i] || unknown[j]) && has_work[i] && has_work[j]);
                if conflict {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[rj] = ri;
                    }
                }
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut root_group: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for idx in 0..slot_count {
            let root = find(&mut parent, idx);
            let gi = *root_group.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(idx); // ascending: idx iterates in order
        }
        // Deterministic deal: groups ordered by (arena of the lowest
        // slot's base, lowest slot id) — the partition follows the
        // allocator arenas the sharded engine already locks independently.
        groups.sort_by_key(|g| {
            let lead = g[0];
            let arena = if bases[lead] == u64::MAX {
                usize::MAX
            } else {
                pool.arena_of_offset(bases[lead])
            };
            (arena, lead)
        });
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (gi, group) in groups.into_iter().enumerate() {
            assignments[gi % workers].extend(group);
        }
        assignments
    }

    /// Recovers one slot, returning what it did.
    ///
    /// Idempotent with respect to pool state: a partial run (ended by a
    /// crash or transient fault) leaves the slot recoverable by simply
    /// calling this again — and, for the clobber backend, a persisted
    /// progress checkpoint lets the next call *resume* the re-execution
    /// past the watermark. Counters for the attempt live in the returned
    /// [`SlotDelta`], so a discarded attempt never skews the report.
    fn recover_slot(&self, idx: usize, pool: &PmemPool) -> Result<SlotDelta, TxError> {
        let mut delta = SlotDelta::default();
        let slot = self.slot(idx)?;
        let step = |code: u64, name: &str, b: u64| {
            if pool.tracing_enabled() {
                let name_id = match pool.tracer() {
                    Some(t) if !name.is_empty() => t.intern(name),
                    _ => 0,
                };
                pool.trace_app_event(clobber_trace::EventKind::RecoveryStep, name_id, code, b);
            }
        };
        step(clobber_trace::recovery_steps::SCAN_SLOT, "", idx as u64);
        match self.backend() {
            Backend::NoLog => {}
            Backend::Clobber(cfg) => {
                if !(cfg.vlog && cfg.clobber_log) {
                    return Ok(delta); // breakdown variants are not failure-atomic
                }
                if !slot.is_ongoing(pool)? {
                    return Ok(delta);
                }
                let rec = slot.record(pool)?;
                let clog = slot.clobber_log(pool)?;
                let entries = clog.entries(pool)?;
                // A valid progress checkpoint from an interrupted recovery
                // lets this scan resume the re-execution past its durable
                // prefix. The checkpoint is fenced after the entries it
                // cites, so its cursor can never exceed the durable count;
                // if it somehow does, fall back to a fresh restart (always
                // sound).
                let ck = slot
                    .checkpoint(pool)?
                    .filter(|c| c.entries as usize <= entries.len());
                let (writer, skip_stores, skip_appends, cursor) = match ck {
                    Some(c) => {
                        let cursor = c.entries as usize;
                        let undone = &entries[cursor..];
                        delta.clobber_entries_applied += undone.len() as u64;
                        delta.clobber_bytes_applied +=
                            undone.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
                        // Undo only the stores past the watermark; the
                        // checkpointed prefix stays applied and its log
                        // entries stay put — they feed the resume read
                        // overlay and a later crash's rollback.
                        clog.apply_backwards_from(pool, cursor)?;
                        pool.fence();
                        step(
                            clobber_trace::recovery_steps::RESTORE,
                            "",
                            undone.len() as u64,
                        );
                        step(clobber_trace::recovery_steps::RESUME, "", c.stores);
                        delta.resumed += 1;
                        // Resume appending exactly at the durable stream
                        // end; skipped appends regenerate the prefix.
                        let writer = clobber_pmem::LogWriter::attach(pool, clog)?;
                        (writer, c.stores, entries.len() as u64, cursor)
                    }
                    None => {
                        // Restore clobbered inputs (most recent entry first
                        // so the oldest value — the true input — wins).
                        delta.clobber_entries_applied += entries.len() as u64;
                        delta.clobber_bytes_applied +=
                            entries.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
                        clog.apply_backwards(pool)?;
                        pool.fence();
                        clog.clear(pool)?;
                        // Persist a zero-watermark checkpoint before any
                        // re-appended entry can land. From here on the log
                        // no longer carries the crashed execution's write
                        // set, and the checkpoint is how a later scan (or a
                        // parallel planner) can tell: without it, a crash
                        // after the first re-append but before the first
                        // progress checkpoint would leave a non-empty,
                        // checkpoint-free log that under-states the write
                        // set.
                        slot.write_checkpoint(
                            pool,
                            crate::vlog::VlogCheckpoint {
                                stores: 0,
                                entries: 0,
                                preserves: 0,
                            },
                        )?;
                        step(
                            clobber_trace::recovery_steps::RESTORE,
                            "",
                            entries.len() as u64,
                        );
                        (clobber_pmem::LogWriter::new(clog), 0, 0, 0)
                    }
                };
                let resumed = delta.resumed > 0;
                // Re-execute with restored inputs.
                let f = self.lookup(&rec.name)?;
                step(clobber_trace::recovery_steps::REEXECUTE, &rec.name, 0);
                let rlog = slot.redo_log(pool)?;
                let mut tx = Tx::new(
                    pool,
                    self.backend(),
                    slot,
                    writer,
                    rlog,
                    self.group_commit(),
                    true,
                    Some(rec.preserves),
                    None,
                    None,
                    self.take_scratch(),
                );
                tx.set_resume(skip_stores, skip_appends, &entries[..cursor]);
                match f(&mut tx, &rec.args) {
                    Ok(_) => {
                        delta.watermark_advances += tx.checkpoints_written();
                        self.finish_commit(tx)?;
                        delta.reexecuted.push(rec.name);
                    }
                    Err(TxError::MissingPreserve { .. }) => {
                        delta.watermark_advances += tx.checkpoints_written();
                        if resumed {
                            // A checkpoint proves the crashed run executed
                            // at least one store, and every preserve must
                            // precede the first store — a missing preserve
                            // past a checkpoint can only mean the record
                            // lies. Abandoning (which assumes no writes
                            // happened) would corrupt state.
                            return Err(TxError::CorruptVlog(
                                "missing preserve after checkpointed re-execution progress".into(),
                            ));
                        }
                        // The crashed run never recorded this volatile
                        // input, so it cannot have written anything yet
                        // (preserves precede all writes): abandon.
                        drop(tx);
                        slot.clear_ongoing(pool)?;
                        pool.fence();
                        delta.abandoned += 1;
                        step(clobber_trace::recovery_steps::ABANDON, "", 0);
                    }
                    Err(e) => return Err(e),
                }
            }
            Backend::Undo | Backend::Atlas => {
                if !slot.is_ongoing(pool)? {
                    return Ok(delta);
                }
                let clog = slot.clobber_log(pool)?;
                clog.apply_backwards(pool)?;
                pool.fence();
                clog.clear(pool)?;
                slot.clear_ongoing(pool)?;
                pool.fence();
                delta.rolled_back += 1;
                step(clobber_trace::recovery_steps::ROLLBACK, "", 0);
            }
            Backend::Redo => {
                let rlog = slot.redo_log(pool)?;
                if slot.is_redo_committed(pool)? {
                    rlog.apply_forwards(pool)?;
                    pool.fence();
                    slot.clear_redo_committed_unfenced(pool)?;
                    slot.clear_ongoing(pool)?;
                    rlog.clear(pool)?;
                    delta.redo_applied += 1;
                    step(clobber_trace::recovery_steps::REDO_APPLY, "", 0);
                } else if slot.is_ongoing(pool)? {
                    slot.clear_ongoing(pool)?;
                    rlog.clear(pool)?;
                    delta.rolled_back += 1;
                    step(clobber_trace::recovery_steps::ROLLBACK, "", 0);
                }
            }
        }
        Ok(delta)
    }
}
