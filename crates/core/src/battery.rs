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
//! 2. takes a power failure keeping each flushed, un-fenced line with p =
//!    1/2, seeded by `k`: any subset of a window can persist, as on x86
//!    ([`CrashConfig::drop_all`], the weakest draw, never splits one);
//! 3. reopens the image, recovers it on the deterministic no-wait clock,
//!    and requires, in order: **heap walk** ([`PmemPool::check_heap`] —
//!    the allocator's durable structures are sound), the session's
//!    **workload check**, **idempotence** (a second recovery finds nothing
//!    to do), and **byte parity** (an independent recovery of the same
//!    image ends on byte-identical media — compared after the second
//!    recovery, so that one moved no byte either);
//! 4. with [`Nested`] on, crashes *recovery itself* at one rotating or at
//!    every one of its persist events and puts the re-crashed image
//!    through step 3 again — the fault may land inside recovery, so
//!    recovery must be recoverable.
//!
//! Every recovered pool is handed to the caller's `served` closure — which
//! owns the workload-specific "keeps serving" step — once it has passed
//! the parity comparison.
//!
//! Images are pool-sized, so the battery handles them sparingly: the heap
//! walk, the clean-outcome hash and the parity comparison read a pool's
//! media in place ([`PmemPool::visit_media`]); a power failure is one copy
//! ([`PmemPool::crash_media_into`]); and that copy, like the copy of a
//! crashed image a second recovery runs on, is made into the buffer the
//! last pool the battery was done with gave back
//! ([`PmemPool::into_media`]). In a sweep's steady state an outer crash
//! point allocates one pool-sized buffer (the pool the session builds) and
//! a nested point two more (the crashed image kept for nesting, the
//! re-crashed one) — `tests/battery_alloc.rs` holds it to that.

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
}

impl SweepSummary {
    fn absorb_report(&mut self, report: &RecoveryReport) {
        self.reexecuted += report.reexecuted.len() as u64;
        self.rolled_back += report.rolled_back as u64;
        self.redo_applied += report.redo_applied as u64;
        self.abandoned += report.abandoned as u64;
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
        self.counted_point(
            k,
            &mut Point {
                summary,
                served,
                spare: &mut Vec::new(),
            },
        )
    }

    fn counted_point(&self, k: u64, point: &mut Point<'_>) -> Result<(), Box<Violation>> {
        point.summary.crash_points += 1;
        self.visit(k, point).map_err(|mut v| {
            v.visited = *point.summary;
            v
        })
    }

    fn visit(&self, k: u64, point: &mut Point<'_>) -> Result<(), Box<Violation>> {
        let (pool, rt) = (self.session.build)();
        let rt = Arc::new(rt);
        pool.arm_faults(FaultPlan::crash_at(k));
        (self.drive)(&rt);
        if pool.fault_tripped() != Some(k) {
            pool.disarm_faults();
            point.summary.not_tripped += 1;
            return self
                .check_state(&pool, &rt)
                .map_err(|e| violation(Some(k), None, format!("did not trip; {e}")));
        }
        let media = point.power_failure(&pool, k);
        drop(rt);
        point.reclaim(pool);

        // Nested crashes all restart from the same crashed image.
        let image = (self.nested != Nested::Off).then(|| media.clone());
        let m = self.recover_checked(media, k, None, image.is_some(), point)?;
        let Some(image) = image else {
            return Ok(());
        };
        point.summary.recovery_events += m;
        let nested_at = match self.nested {
            Nested::Rotating if m > 0 => k % m..k % m + 1,
            Nested::Exhaustive => 0..m,
            _ => 0..0,
        };
        for j in nested_at {
            let (pool, rt) = (self.session.reopen)(point.copy_of(&image));
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
            let media2 = point.power_failure(&pool, k);
            drop(rt);
            point.reclaim(pool);
            self.recover_checked(media2, k, Some(j), false, point)?;
            point.summary.nested_points += 1;
        }
        Ok(())
    }

    /// Step 3 for one crashed image; returns the persist events of its
    /// recovery when `count` is set (the parity recovery doubles as the
    /// counting run), 0 otherwise.
    ///
    /// The parity recovery runs first, on a copy of the image, and its pool
    /// is taken apart for the bytes the checked pool is then compared with
    /// in place: one live recovered pool at a time, and no snapshot of
    /// either.
    fn recover_checked(
        &self,
        media: Vec<u8>,
        k: u64,
        nested_at: Option<u64>,
        count: bool,
        point: &mut Point<'_>,
    ) -> Result<u64, Box<Violation>> {
        let fail = |reason: String| violation(Some(k), nested_at, reason);
        let opts = recover_opts();
        let (parity_pool, parity_rt) = (self.session.reopen)(point.copy_of(&media));
        if count {
            parity_pool.arm_faults(FaultPlan::count_only());
        }
        parity_rt
            .recover_with(&opts)
            .map_err(|e| fail(format!("recovery failed: {e}")))?;
        let events = if count {
            parity_pool.disarm_faults()
        } else {
            0
        };
        drop(parity_rt);
        let parity = match Arc::try_unwrap(parity_pool) {
            Ok(sole) => sole.into_media(),
            Err(shared) => shared.media_snapshot(),
        };

        let (pool, rt) = (self.session.reopen)(media);
        let report = rt
            .recover_with(&opts)
            .map_err(|e| fail(format!("parity recovery failed: {e}")))?;
        self.check_state(&pool, &rt).map_err(fail)?;
        match rt.recover_with(&opts) {
            Ok(second) if second.is_clean() => {}
            Ok(second) => return Err(fail(format!("second recovery was not clean: {second:?}"))),
            Err(e) => return Err(fail(format!("second recovery failed: {e}"))),
        }
        if !media_equals(&pool, &parity) {
            return Err(fail(
                "two recoveries of the same media diverged".to_string(),
            ));
        }
        *point.spare = parity;
        point.summary.absorb_report(&report);
        (point.served)(Recovered {
            crash_at: k,
            nested_at,
            pool,
            rt: Arc::new(rt),
            report,
        });
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
            clean_outcome: media_hash(&pool),
            ..SweepSummary::default()
        };
        if let Err(reason) = self.check_state(&pool, &rt) {
            let mut v = violation(None, None, reason);
            v.visited = summary;
            return Err(v);
        }
        drop((pool, rt));
        let mut point = Point {
            summary: &mut summary,
            served: &mut served,
            spare: &mut Vec::new(),
        };
        let mut k = 0;
        while k < point.summary.events && point.summary.crash_points < max_points {
            self.counted_point(k, &mut point)?;
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

/// What a sweep threads through its crash points: the running summary, the
/// caller's `served`, and one recycled pool-sized buffer — pool-sized
/// allocations that come and go every point are what the battery would
/// otherwise spend its time on (page faults on fresh memory, the allocator
/// trimming and regrowing its heap).
struct Point<'a> {
    summary: &'a mut SweepSummary,
    served: &'a mut dyn FnMut(Recovered),
    /// Empty, or the buffer the next image copy is made into.
    spare: &'a mut Vec<u8>,
}

impl Point<'_> {
    /// The power failure of step 2, written into the spare buffer (no
    /// dirty line survives it).
    fn power_failure(&mut self, pool: &PmemPool, k: u64) -> Vec<u8> {
        pool.crash_media_into(&CrashConfig::new(0.5, 0.0, k), std::mem::take(self.spare))
    }

    /// A copy of `image` in the spare buffer.
    fn copy_of(&mut self, image: &[u8]) -> Vec<u8> {
        let mut copy = std::mem::take(self.spare);
        image.clone_into(&mut copy);
        copy
    }

    /// Keeps the media buffer of a crashed pool as the spare, when nothing
    /// else still holds the pool.
    fn reclaim(&mut self, pool: Arc<PmemPool>) {
        if let Ok(dead) = Arc::try_unwrap(pool) {
            *self.spare = dead.into_media();
        }
    }
}

/// Whether the durable media of `pool` equals `image`, compared in place.
fn media_equals(pool: &PmemPool, image: &[u8]) -> bool {
    let mut at = 0;
    let mut same = true;
    pool.visit_media(|piece| {
        same = same && image.get(at..at + piece.len()) == Some(piece);
        at += piece.len();
    });
    same && at == image.len()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of the durable media of `pool`, hashed in place.
fn media_hash(pool: &PmemPool) -> u64 {
    let mut h = FNV_OFFSET;
    pool.visit_media(|piece| h = fnv64(h, piece));
    h
}

/// FNV-1a of `bytes`, continuing from state `h`.
fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
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
        assert_ne!(fnv64(FNV_OFFSET, b"a"), fnv64(FNV_OFFSET, b"b"));
        assert_eq!(fnv64(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(
            fnv64(fnv64(FNV_OFFSET, b"ab"), b"c"),
            fnv64(FNV_OFFSET, b"abc"),
            "hashing piecewise equals hashing the concatenation"
        );
    }
}
