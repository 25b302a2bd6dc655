//! Post-crash recovery.
//!
//! On restart the runtime scans every per-thread v_log slot (paper §4.3).
//! For the clobber backend, an ongoing transaction is recovered by:
//!
//! 1. restoring its clobbered inputs from the `clobber_log`
//!    (most-recent-first, so the original pre-transaction value wins) and
//!    fencing,
//! 2. clearing the `clobber_log` (the re-execution will refill it) past
//!    the begin number, and
//! 3. re-executing the registered txfunc from the top with the arguments
//!    and preserved volatile blobs read back from the v_log, as an ordinary
//!    transaction on the slot's existing begin, committing normally.
//!
//! Because the locking discipline guarantees ongoing transactions have
//! disjoint lock sets, slots recover independently; the scan visits them
//! one after another in ascending slot order.
//!
//! The baseline backends recover per their own disciplines: undo/Atlas roll
//! uncommitted transactions back; redo replays transactions whose commit
//! marker is set and discards the rest.
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
//! # Restart from the top
//!
//! A crash *during* recovery needs nothing new: the next scan rolls back
//! and re-runs the txfunc again. That is sound because, for the in-flight
//! begin, rolling back the clobber log only ever restores the originals:
//!
//! * the replay is a plain [`Tx`], so a clobbering store waits in its
//!   deferred buffer and reaches media only after a sync of the replay's
//!   log — at its commit, or mid-replay when the buffer fills;
//! * so the first entry the replay appends for an input byte holds that
//!   byte's value in restored state: its original. Under refined clobber
//!   logging it is the only one; the conservative variant may log a byte
//!   again, and a rollback, most recent first, still ends on the original.
//!
//! So a rollback after any nested crash — before the replay's first sync,
//! between two syncs of an overflowing replay, or inside its commit —
//! restores the same inputs, and the re-run reads what the first one did.
//! The price is the bound: a slot crashed more often than its replay can
//! finish never completes. [`RecoveryOptions::slot_deadline`] and
//! [`RecoveryOptions::total_budget`] remain the time bound (see `DESIGN.md`
//! item 12).
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
//! crash-sweep tests exercise every persist event inside recovery too.
//!
//! Commit-window edge cases (all verified by the crash sweeps in
//! `tests/`): a crash after the clobber commit's publish fence but before
//! the status word clears re-executes an already-complete transaction —
//! harmless, since its clobbered inputs are restored first and re-execution
//! regenerates identical outputs (fresh allocations replace the published
//! ones, which leak but never dangle). An undo commit interrupted between
//! its publish fence and log invalidation rolls back an *empty* log — a
//! no-op, so the committed state stands. Deferred frees that a crash
//! separates from their committed transaction — or catches before a fence
//! orders the list heads their `free_many` wrote — are lost (a bounded
//! leak), never double-applied.
//!
//! Begin-window edge cases (`tests/recovery.rs`, `tests/writeback.rs`): a
//! clobber begin is flushed but not fenced until the transaction's first
//! ordering point, so a crash before it keeps any subset of its lines. A
//! record whose seal does not match the status word — torn, or the previous
//! transaction's — is abandoned: no store reached media. A clobber log whose
//! generation is below the begin number missed the begin's truncation and
//! counts as empty; a preserve line naming another begin counts as holding
//! nothing. A begin whose status word was lost leaves nothing to
//! recover, and no later begin reuses its number (see `Runtime::run_on`).

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
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
    /// Blocks the caller for `d` (backoff between retries).
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
    /// Ongoing transactions abandoned because no store of theirs can have
    /// reached media: the begin record's seal does not match the status
    /// word (the begin never reached an ordering point), or the replay asked
    /// for a preserve the crashed run never recorded.
    pub abandoned: usize,
    /// clobber_log entries applied while restoring inputs.
    pub clobber_entries_applied: u64,
    /// clobber_log bytes applied while restoring inputs.
    pub clobber_bytes_applied: u64,
    /// Slots best-effort recovery set aside, with kinds and reasons.
    pub quarantined: Vec<SlotQuarantine>,
    /// Slot-recovery attempts repeated after a transient fault.
    pub transient_retries: u64,
    /// Slots that ran out of deadline or budget.
    pub budget_expired: usize,
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
}

impl SlotDelta {
    fn merge_into(self, report: &mut RecoveryReport) {
        report.reexecuted.extend(self.reexecuted);
        report.rolled_back += self.rolled_back;
        report.redo_applied += self.redo_applied;
        report.abandoned += self.abandoned;
        report.clobber_entries_applied += self.clobber_entries_applied;
        report.clobber_bytes_applied += self.clobber_bytes_applied;
    }
}

/// How one slot's scan ended.
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
    /// defaults (strict policy, bounded transient retry).
    /// Must be called after [`Runtime::open`] and after re-registering
    /// every txfunc; the application may resume use of the pool afterwards.
    ///
    /// Safe to call again (on a reopened pool) if a crash interrupts it —
    /// see the module docs on idempotence and restarting from the top.
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
    /// configuration error, not media damage.
    pub fn recover_with(&self, opts: &RecoveryOptions) -> Result<RecoveryReport, TxError> {
        let pool = self.pool().clone();
        let clock = &opts.clock;
        let t0 = clock.now();
        self.drop_mirrors();
        let slot_count = self.slot_count();
        let mut report = RecoveryReport {
            slot_durations: vec![Duration::ZERO; slot_count],
            ..RecoveryReport::default()
        };
        // Slots in ascending order; the first failing slot stops the scan,
        // leaving later slots untouched so a follow-up (best-effort) scan
        // can still recover them.
        let mut first_err: Option<TxError> = None;
        for idx in 0..slot_count {
            let out = self.run_slot(idx, &pool, opts, t0);
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
                    first_err = Some(e);
                    break;
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
            .rec_budget_expired
            .fetch_add(report.budget_expired as u64, Ordering::Relaxed);

        match first_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Runs one slot's bounded-retry recovery loop, producing its outcome
    /// for the caller to merge into the report.
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

    /// Recovers one slot, returning what it did.
    ///
    /// Idempotent with respect to pool state: a partial run (ended by a
    /// crash or transient fault) leaves the slot recoverable by simply
    /// calling this again, which rolls back and re-runs the txfunc from the
    /// top. Counters for the attempt live in the returned [`SlotDelta`], so
    /// a discarded attempt never skews the report.
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
                let begin = slot.status(pool)?;
                if begin == 0 {
                    return Ok(delta);
                }
                // No store of the transaction reached media: the slot goes
                // idle.
                let abandon = |mut delta: SlotDelta| -> Result<SlotDelta, TxError> {
                    slot.clear_ongoing(pool)?;
                    pool.fence();
                    delta.abandoned += 1;
                    step(clobber_trace::recovery_steps::ABANDON, "", 0);
                    Ok(delta)
                };
                let Some(rec) = slot.record(pool, begin)? else {
                    // The seal does not match: the begin never reached an
                    // ordering point, so none of the transaction's stores
                    // did either.
                    return abandon(delta);
                };
                let clog = slot.clobber_log(pool)?;
                // A log still at an earlier generation missed this begin's
                // truncation: its entries are a committed transaction's.
                let mut entries = clog.entries(pool)?;
                if clog.generation(pool)? < begin {
                    entries.clear();
                }
                // Restore clobbered inputs, most recent first so the true
                // input wins, durably before the log that holds them goes.
                delta.clobber_entries_applied += entries.len() as u64;
                delta.clobber_bytes_applied +=
                    entries.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
                for (addr, data) in entries.iter().rev() {
                    pool.store_flush(*addr, data)?;
                }
                pool.fence();
                clog.clear_above(pool, begin)?;
                step(
                    clobber_trace::recovery_steps::RESTORE,
                    "",
                    entries.len() as u64,
                );
                // Re-execute from the top with restored inputs.
                let f = self.lookup(&rec.name)?;
                step(clobber_trace::recovery_steps::REEXECUTE, &rec.name, 0);
                let rlog = slot.redo_log(pool)?;
                let mut tx = Tx::new(
                    pool,
                    self.backend(),
                    slot,
                    clobber_pmem::LogWriter::new(clog),
                    rlog,
                    self.group_commit(),
                    true,
                    Some(rec.preserves),
                    None,
                    None,
                    self.take_scratch(),
                );
                match f(&mut tx, &rec.args) {
                    Ok(_) => {
                        self.finish_commit(tx)?;
                        delta.reexecuted.push(rec.name);
                    }
                    Err(e) => {
                        // The slot stays in flight for a retry, or for the
                        // abandon below: its status is not the replay's to
                        // clear.
                        self.recycle_scratch(tx.discard());
                        if !matches!(e, TxError::MissingPreserve { .. }) {
                            return Err(e);
                        }
                        // The crashed run never recorded this volatile
                        // input, so it cannot have written anything yet
                        // (preserves precede all writes).
                        return abandon(delta);
                    }
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
