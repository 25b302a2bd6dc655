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
//! The price is progress: a slot crashed more often than its replay can
//! finish never completes (see `DESIGN.md` item 12).
//!
//! # Fault tolerance
//!
//! Recovery runs on possibly-faulty media, so it is hardened two ways:
//!
//! * **Policy.** [`RecoveryPolicy::Strict`] (the default) fails the whole
//!   scan on the first slot whose v_log or clobber_log fails validation.
//!   [`RecoveryPolicy::BestEffort`] instead *quarantines* that slot —
//!   records it in [`RecoveryReport::quarantined`] with a typed
//!   [`SlotQuarantineKind`] and moves on, so one decayed slot cannot hold
//!   the rest of the pool hostage.
//! * **Retry.** Transient substrate faults ([`TxError::is_transient`])
//!   retry the slot — bounded by count, not by a clock: at most
//!   [`RecoveryOptions::max_retries`]` + 1` attempts, the backoff between
//!   them doubling from [`RecoveryOptions::retry_backoff`]
//!   ([`RecoveryOptions::no_wait`] makes it zero). A slot that still fails
//!   is quarantined or fails the scan, per policy. A retry is safe for the
//!   reason a restart from the top is.
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
//! v_log whose generation is not the status word, or whose first entry is
//! torn, is abandoned: no store reached media. A clobber log whose
//! generation is below the begin number missed the begin's truncation and
//! counts as empty. A begin whose status word was lost leaves nothing to
//! recover, and no later begin reuses its number (see `Runtime::run_on`).

use std::sync::atomic::Ordering;
use std::time::Duration;

use clobber_pmem::{LogScan, PmemError, PmemPool};

use crate::backend::Backend;
use crate::error::TxError;
use crate::runtime::Runtime;
use crate::tx::Tx;

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
    /// Base backoff between retries, doubled each attempt.
    pub retry_backoff: Duration,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            policy: RecoveryPolicy::Strict,
            max_retries: 3,
            retry_backoff: Duration::from_micros(100),
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

    /// Zero backoff: a retry follows its transient fault at once. The
    /// choice for tests and exhaustive sweeps.
    pub fn no_wait(self) -> Self {
        RecoveryOptions {
            retry_backoff: Duration::ZERO,
            ..self
        }
    }
}

/// Why best-effort recovery set a slot aside — the typed counterpart of
/// [`SlotQuarantine::reason`], so tests and operators branch on kinds
/// instead of matching error prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotQuarantineKind {
    /// The slot's v_log begin record failed validation.
    CorruptVlog,
    /// The slot's clobber/redo log image failed validation while it was
    /// restored, rolled back or applied.
    CorruptClobberLog,
    /// A permanent substrate fault (e.g. out-of-bounds descriptor) while
    /// recovering the slot, or any permanent error of its replayed txfunc
    /// or that replay's commit (such as a corrupt structure it walked).
    MediaFault,
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
    /// reached media: the v_log holds no whole begin record under the status
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

/// A failed slot attempt, and whether the replayed txfunc or its commit
/// raised it rather than the log validation and rollback before it.
#[derive(Debug)]
struct SlotError {
    error: TxError,
    replay: bool,
}

impl SlotError {
    fn replay(error: TxError) -> SlotError {
        SlotError {
            error,
            replay: true,
        }
    }
}

impl From<TxError> for SlotError {
    fn from(error: TxError) -> SlotError {
        SlotError {
            error,
            replay: false,
        }
    }
}

impl From<PmemError> for SlotError {
    fn from(e: PmemError) -> SlotError {
        TxError::from(e).into()
    }
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

/// Categorizes a quarantinable error by the phase that raised it: a
/// corrupt structure the replay walks into is damaged media, not a corrupt
/// log — the log validated before the replay began.
fn quarantine_kind(e: &SlotError) -> SlotQuarantineKind {
    match e.error {
        TxError::Pmem(PmemError::TransientMediaFault { .. }) => {
            SlotQuarantineKind::RetriesExhausted
        }
        _ if e.replay => SlotQuarantineKind::MediaFault,
        TxError::CorruptVlog(_) => SlotQuarantineKind::CorruptVlog,
        TxError::Pmem(PmemError::CorruptPool(_)) => SlotQuarantineKind::CorruptClobberLog,
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
    /// returned. [`TxError::Unregistered`] always propagates — a missing
    /// txfunc is a configuration error, not media damage.
    pub fn recover_with(&self, opts: &RecoveryOptions) -> Result<RecoveryReport, TxError> {
        let pool = self.pool().clone();
        self.drop_mirrors();
        let mut report = RecoveryReport::default();
        // Slots in ascending order; the first failing slot stops the scan,
        // leaving later slots untouched so a follow-up (best-effort) scan
        // can still recover them.
        let mut first_err: Option<TxError> = None;
        for idx in 0..self.slot_count() {
            let (result, retries) = self.run_slot(idx, &pool, opts);
            report.slots_scanned += 1;
            report.transient_retries += retries;
            match result {
                SlotResult::Done(delta) => delta.merge_into(&mut report),
                SlotResult::Quarantined(q) => report.quarantined.push(q),
                SlotResult::Failed(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }

        let stats = pool.stats();
        stats
            .rec_slots_scanned
            .fetch_add(report.slots_scanned as u64, Ordering::Relaxed);
        stats
            .rec_reexecuted
            .fetch_add(report.reexecuted.len() as u64, Ordering::Relaxed);

        match first_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Runs one slot's bounded-retry recovery loop — at most
    /// `max_retries + 1` attempts — returning how it ended and how many
    /// times it retried.
    fn run_slot(&self, idx: usize, pool: &PmemPool, opts: &RecoveryOptions) -> (SlotResult, u64) {
        let mut retries = 0u64;
        let result = loop {
            match self.recover_slot(idx, pool) {
                Ok(delta) => break SlotResult::Done(delta),
                Err(e) if e.error.is_transient() && retries < u64::from(opts.max_retries) => {
                    retries += 1;
                    pool.stats().fault_retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = opts
                        .retry_backoff
                        .saturating_mul(1u32 << (retries - 1).min(10));
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
                Err(e) => {
                    if opts.policy == RecoveryPolicy::BestEffort && quarantinable(&e.error) {
                        break SlotResult::Quarantined(SlotQuarantine {
                            slot: idx,
                            kind: quarantine_kind(&e),
                            reason: e.error.to_string(),
                        });
                    }
                    break SlotResult::Failed(e.error);
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
        (result, retries)
    }

    /// Recovers one slot, returning what it did.
    ///
    /// Idempotent with respect to pool state: a partial run (ended by a
    /// crash or transient fault) leaves the slot recoverable by simply
    /// calling this again, which rolls back and re-runs the txfunc from the
    /// top. Counters for the attempt live in the returned [`SlotDelta`], so
    /// a discarded attempt never skews the report.
    fn recover_slot(&self, idx: usize, pool: &PmemPool) -> Result<SlotDelta, SlotError> {
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
                let abandon = |mut delta: SlotDelta| -> Result<SlotDelta, SlotError> {
                    slot.clear_ongoing(pool)?;
                    pool.fence();
                    delta.abandoned += 1;
                    step(clobber_trace::recovery_steps::ABANDON, "", 0);
                    Ok(delta)
                };
                let Some(rec) = slot.record(pool, begin)? else {
                    // The begin never reached an ordering point, so none of
                    // the transaction's stores did either.
                    return abandon(delta);
                };
                let logs = slot.logs(pool)?;
                let clog = logs.clog.log();
                // A log still at an earlier generation missed this begin's
                // truncation: its entries are a committed transaction's.
                let mut entries = clog.scan(pool)?;
                if entries.generation() < begin {
                    entries = LogScan::default();
                }
                // Restore clobbered inputs, most recent first so the true
                // input wins, durably before the log that holds them goes.
                delta.clobber_entries_applied += entries.len() as u64;
                for (addr, data) in entries.iter().rev() {
                    delta.clobber_bytes_applied += data.len() as u64;
                    pool.store_flush(addr, data)?;
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
                let mut tx = Tx::new(
                    pool,
                    self.backend(),
                    slot,
                    logs,
                    true,
                    Some(rec.preserves),
                    None,
                    None,
                    self.take_scratch(),
                );
                match f(&mut tx, &rec.args) {
                    Ok(_) => {
                        self.finish_commit(tx).map_err(SlotError::replay)?;
                        delta.reexecuted.push(rec.name);
                    }
                    Err(e) => {
                        // The slot stays in flight for a retry, or for the
                        // abandon below: its status is not the replay's to
                        // clear.
                        self.recycle_scratch(tx.discard());
                        if !matches!(e, TxError::MissingPreserve { .. }) {
                            return Err(SlotError::replay(e));
                        }
                        // The crashed run never recorded this volatile
                        // input, so it cannot have written anything yet
                        // (preserves precede all writes).
                        return abandon(delta);
                    }
                }
            }
            Backend::Undo | Backend::Atlas => {
                if slot.status(pool)? == 0 {
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
                } else if slot.status(pool)? != 0 {
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
