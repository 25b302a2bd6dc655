//! The crash battery: the one implementation of *crash → recover →
//! verify* that the [`Explorer`](crate::Explorer) and every crash sweep in
//! the tree run.
//!
//! A [`CrashBattery`] is a workload ([`ExploreSession`]: build, reopen,
//! invariant check), a **driver** closure that runs the workload on a
//! freshly built runtime until it finishes or the pool dies, and a
//! [`Nested`] mode. For a crash point `k` it:
//!
//! 1. builds a fresh pool, arms [`FaultPlan::crash_at`]`(k)` and runs the
//!    driver; a driver that finishes first is a *not-tripped* point (the
//!    intact state is checked and the point counted — the caller judges
//!    whether that is acceptable: never for a deterministic replay,
//!    routinely for racing threads);
//! 2. takes an adversarial [`CrashConfig::drop_all`] power failure (no
//!    un-fenced line survives, so the crash seed cannot matter);
//! 3. reopens the image, recovers it on the deterministic no-wait clock,
//!    and requires, in order: **heap walk** ([`PmemPool::check_heap`] —
//!    the allocator's durable structures are sound), the session's
//!    **workload check**, **idempotence** (a second recovery finds nothing
//!    to do), and **byte parity** (an independent recovery of the same
//!    image ends on byte-identical media — taken after the second
//!    recovery, so that one moved no byte either);
//! 4. with [`Nested`] on, crashes *recovery itself* at one rotating or at
//!    every one of its persist events and puts the re-crashed image
//!    through step 3 again — the fault may land inside recovery, so
//!    recovery must be recoverable.
//!
//! Every recovered pool is handed to the caller's `served` closure — which
//! owns the workload-specific "keeps serving" step — once its media is
//! snapshotted for the parity comparison.

use std::fmt;
use std::sync::Arc;

use clobber_pmem::{CrashConfig, FaultPlan, PmemPool};

use crate::explore::ExploreSession;
use crate::recovery::{RecoveryOptions, RecoveryReport};
use crate::runtime::Runtime;

/// Whether (and where) the battery also crashes recovery itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nested {
    /// Recover without a nested crash.
    Off,
    /// One nested crash per outer crash point, at recovery event
    /// `k % m` of that point's `m` recovery events (cheap full-`k`
    /// coverage).
    Rotating,
    /// Every recovery event of every outer crash point (quadratic).
    Exhaustive,
}

/// The first check a crash point failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The persist event the driver was crashed at; `None` when the
    /// crash-free run already violated an invariant.
    pub crash_at: Option<u64>,
    /// The recovery persist event of the nested crash, when the failing
    /// image came from a crash inside recovery.
    pub nested_at: Option<u64>,
    /// Which check failed, and how.
    pub reason: String,
    /// What was visited up to and including the failing point.
    pub visited: SweepSummary,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.crash_at, self.nested_at) {
            (None, _) => write!(f, "clean run: {}", self.reason),
            (Some(k), None) => write!(f, "crash_at({k}): {}", self.reason),
            (Some(k), Some(j)) => write!(f, "crash_at({k}) nested({j}): {}", self.reason),
        }
    }
}

impl std::error::Error for Violation {}

/// What a sweep (or one crash point) visited and what recovery did there.
/// Persist-event numbering is engine-invariant, so for a deterministic
/// driver the whole summary is identical on every pool engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepSummary {
    /// Persist events the crash-free run issues ([`CrashBattery::sweep`]
    /// fills this and the next in; a lone crash point runs none).
    pub events: u64,
    /// FNV-1a hash of the crash-free run's durable media.
    pub clean_outcome: u64,
    /// Outer crash points visited.
    pub crash_points: u64,
    /// Visited points whose driver finished before the planted event.
    pub not_tripped: u64,
    /// Persist events of the recoveries counted for [`Nested`] placement.
    pub recovery_events: u64,
    /// Nested (crash-during-recovery) points visited.
    pub nested_points: u64,
    /// Interrupted transactions completed by re-execution (clobber).
    pub reexecuted: u64,
    /// Interrupted transactions rolled back (undo/redo/atlas).
    pub rolled_back: u64,
    /// Committed redo logs replayed.
    pub redo_applied: u64,
    /// Transactions abandoned before any persistent write.
    pub abandoned: u64,
    /// Re-executions resumed from a persisted checkpoint.
    pub resumed: u64,
    /// Checkpoint watermark advances persisted during recovery.
    pub watermark_advances: u64,
}

impl SweepSummary {
    fn absorb_report(&mut self, report: &RecoveryReport) {
        self.reexecuted += report.reexecuted.len() as u64;
        self.rolled_back += report.rolled_back as u64;
        self.redo_applied += report.redo_applied as u64;
        self.abandoned += report.abandoned as u64;
        self.resumed += report.resumed as u64;
        self.watermark_advances += report.watermark_advances;
    }
}

/// A crashed image that came back through every check, handed to the
/// caller for its own "keeps serving" step.
pub struct Recovered {
    /// The persist event the driver was crashed at.
    pub crash_at: u64,
    /// The recovery event of the nested crash this image also survived.
    pub nested_at: Option<u64>,
    /// The recovered pool.
    pub pool: Arc<PmemPool>,
    /// Its runtime (txfuncs registered by the session's `reopen`).
    pub rt: Arc<Runtime>,
    /// What the first recovery of the image did.
    pub report: RecoveryReport,
}

/// See the [module docs](self).
pub struct CrashBattery<'a> {
    /// Builds, reopens and checks the workload's pools.
    pub session: &'a ExploreSession<'a>,
    /// Runs the workload on a freshly built (and possibly armed) runtime
    /// until it finishes or the pool dies, swallowing a dead pool's errors.
    pub drive: &'a (dyn Fn(&Arc<Runtime>) + 'a),
    /// Whether recovery itself is crashed too.
    pub nested: Nested,
}

impl CrashBattery<'_> {
    /// Heap walk + workload check of a quiescent pool.
    fn check_state(&self, pool: &PmemPool, rt: &Runtime) -> Result<(), String> {
        pool.check_heap()
            .map_err(|e| format!("heap check failed: {e}"))?;
        (self.session.check)(pool, rt)
    }

    /// The persist events of the crash-free run, which must itself pass
    /// the heap walk and the workload check (a sweep of zero points).
    pub fn count_events(&self) -> Result<u64, Box<Violation>> {
        self.sweep(1, 0, |_| {}).map(|s| s.events)
    }

    /// One crash point: the module docs' steps 1–4 for event `k`, counted
    /// into `summary` (also on failure, where it becomes the violation's
    /// `visited`).
    pub fn crash_point(
        &self,
        k: u64,
        summary: &mut SweepSummary,
        served: &mut dyn FnMut(Recovered),
    ) -> Result<(), Box<Violation>> {
        summary.crash_points += 1;
        self.visit(k, summary, served).map_err(|mut v| {
            v.visited = *summary;
            v
        })
    }

    fn visit(
        &self,
        k: u64,
        point: &mut SweepSummary,
        served: &mut dyn FnMut(Recovered),
    ) -> Result<(), Box<Violation>> {
        let (pool, rt) = (self.session.build)();
        let rt = Arc::new(rt);
        pool.arm_faults(FaultPlan::crash_at(k));
        (self.drive)(&rt);
        if pool.fault_tripped() != Some(k) {
            pool.disarm_faults();
            point.not_tripped += 1;
            return self
                .check_state(&pool, &rt)
                .map_err(|e| violation(Some(k), None, format!("did not trip; {e}")));
        }
        let media = power_failure(&pool, k, None)?;
        drop(rt);
        drop(pool);

        // Nested crashes all restart from the same crashed image.
        let image = (self.nested != Nested::Off).then(|| media.clone());
        let m = self.recover_checked(media, k, None, image.is_some(), point, served)?;
        let Some(image) = image else {
            return Ok(());
        };
        point.recovery_events += m;
        let nested_at = match self.nested {
            Nested::Rotating if m > 0 => k % m..k % m + 1,
            Nested::Exhaustive => 0..m,
            _ => 0..0,
        };
        for j in nested_at {
            let (pool, rt) = (self.session.reopen)(image.clone());
            pool.arm_faults(FaultPlan::crash_at(j));
            // Recovery dies at event j (a trip on its final fence may still
            // let it return Ok — also a valid point).
            let _ = rt.recover_with(&recover_opts());
            if pool.fault_tripped() != Some(j) {
                return Err(violation(
                    Some(k),
                    Some(j),
                    "the nested crash did not trip".into(),
                ));
            }
            let media2 = power_failure(&pool, k, Some(j))?;
            drop(rt);
            drop(pool);
            self.recover_checked(media2, k, Some(j), false, point, served)?;
            point.nested_points += 1;
        }
        Ok(())
    }

    /// Step 3 for one crashed image; returns the persist events of its
    /// recovery when `count` is set (the parity recovery doubles as the
    /// counting run), 0 otherwise.
    fn recover_checked(
        &self,
        media: Vec<u8>,
        k: u64,
        nested_at: Option<u64>,
        count: bool,
        point: &mut SweepSummary,
        served: &mut dyn FnMut(Recovered),
    ) -> Result<u64, Box<Violation>> {
        let fail = |reason: String| violation(Some(k), nested_at, reason);
        let opts = recover_opts();
        let (pool, rt) = (self.session.reopen)(media.clone());
        let report = rt
            .recover_with(&opts)
            .map_err(|e| fail(format!("recovery failed: {e}")))?;
        self.check_state(&pool, &rt).map_err(fail)?;
        match rt.recover_with(&opts) {
            Ok(second) if second.is_clean() => {}
            Ok(second) => return Err(fail(format!("second recovery was not clean: {second:?}"))),
            Err(e) => return Err(fail(format!("second recovery failed: {e}"))),
        }
        let recovered = pool.media_snapshot();
        point.absorb_report(&report);
        // Handed over (and dropped by the caller) before the parity pool
        // is built: one live recovered pool at a time keeps a sweep's
        // multi-MiB images cycling through the same allocations.
        served(Recovered {
            crash_at: k,
            nested_at,
            pool,
            rt: Arc::new(rt),
            report,
        });

        let (pool2, rt2) = (self.session.reopen)(media);
        if count {
            pool2.arm_faults(FaultPlan::count_only());
        }
        rt2.recover_with(&opts)
            .map_err(|e| fail(format!("parity recovery failed: {e}")))?;
        let events = if count { pool2.disarm_faults() } else { 0 };
        if pool2.media_snapshot() != recovered {
            return Err(fail(
                "two recoveries of the same media diverged".to_string(),
            ));
        }
        Ok(events)
    }

    /// The sweep: the checked crash-free run, then
    /// [`crash_point`](Self::crash_point) at every `stride`-th persist
    /// event (at most `max_points` of them), stopping at the first
    /// violation.
    pub fn sweep(
        &self,
        stride: u64,
        max_points: u64,
        mut served: impl FnMut(Recovered),
    ) -> Result<SweepSummary, Box<Violation>> {
        assert!(stride > 0, "a sweep needs a positive stride");
        let (pool, rt) = (self.session.build)();
        let rt = Arc::new(rt);
        pool.arm_faults(FaultPlan::count_only());
        (self.drive)(&rt);
        let mut summary = SweepSummary {
            events: pool.disarm_faults(),
            clean_outcome: fnv64(&pool.media_snapshot()),
            ..SweepSummary::default()
        };
        if let Err(reason) = self.check_state(&pool, &rt) {
            let mut v = violation(None, None, reason);
            v.visited = summary;
            return Err(v);
        }
        drop((pool, rt));
        let mut k = 0;
        while k < summary.events && summary.crash_points < max_points {
            self.crash_point(k, &mut summary, &mut served)?;
            k += stride;
        }
        Ok(summary)
    }
}

/// Boxed: a violation carries a whole summary, and the `Ok` side of every
/// battery result should not pay for it.
fn violation(crash_at: Option<u64>, nested_at: Option<u64>, reason: String) -> Box<Violation> {
    Box::new(Violation {
        crash_at,
        nested_at,
        reason,
        visited: SweepSummary::default(),
    })
}

/// Deterministic no-op clock: backoff and time limits never sleep or trip,
/// so sweeps stay fast and schedule-free.
fn recover_opts() -> RecoveryOptions {
    RecoveryOptions::default().no_wait()
}

/// The adversarial power failure: the durable media of `pool` with every
/// un-fenced line dropped.
fn power_failure(
    pool: &PmemPool,
    k: u64,
    nested_at: Option<u64>,
) -> Result<Vec<u8>, Box<Violation>> {
    pool.crash(&CrashConfig::drop_all(k))
        .map(|dead| dead.media_snapshot())
        .map_err(|e| violation(Some(k), nested_at, format!("crash draw failed: {e}")))
}

/// FNV-1a, the same pocket hash the recovery checkpoints use.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_bytes() {
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
