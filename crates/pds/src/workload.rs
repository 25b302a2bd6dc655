//! Small multi-op exploration workloads over the pds structures.
//!
//! The schedule explorer ([`clobber_nvm::Explorer`]) is workload-agnostic:
//! it needs a factory for fresh pools, a reopener for crashed media, an
//! invariant check, and a seed [`Schedule`]. This module packages a
//! 2-thread hash-map workload in exactly that shape — the exploration
//! target ISSUE 8's acceptance criteria name — plus a variant with an
//! *injected ordering bug* behind a test-only flag, used to prove the
//! explorer actually finds and minimizes order-dependent corruption.
//!
//! The invariant check is deliberately **subset- and order-robust**: it
//! must hold for every prefix, crash/recovery point, and ddmin-chosen
//! subsequence of the seed ops (the minimizer replays arbitrary
//! subsequences, so a check that assumes "all ops ran" would derail it).
//! It asserts structural soundness via [`HashMap::dump`] plus exact value
//! bytes per key: every key `k` present must map to [`value_of`]`(k)`.
//!
//! The injected bug ([`ExploreWorkload::with_bug`]) registers two extra
//! txfuncs sharing one marker cell:
//!
//! * [`TX_MARK`] increments the marker (a read-then-write clobber);
//! * [`TX_RACY_INSERT`] reads the marker, clobbers it too, and inserts a
//!   key — with the *correct* value if no mark has landed yet, and a
//!   corrupted value otherwise.
//!
//! The seed order runs the racy insert before the mark, so the seed
//! passes; any explored interleaving that moves the mark first makes the
//! racy insert publish the corrupted value, which the check flags on the
//! candidate's *clean* run. Because both txfuncs clobber the marker cell,
//! their footprints overlap and sleep-set pruning never hides the
//! reordering — the caveat about pure-read dependences (see
//! `clobber_trace::ConflictPolicy`) is exactly why the bug's dependence
//! is written as a clobber.

use std::sync::Arc;

use clobber_nvm::{
    reopen_media, ArgList, Backend, ExploreSession, Runtime, RuntimeOptions, Schedule, ScheduleOp,
};
use clobber_pmem::{PAddr, PmemPool, PoolOptions};

use crate::hashmap::{prepend, HashMap, TX_INSERT};

/// Test-only txfunc: increments the shared marker cell (args: `[marker]`).
pub const TX_MARK: &str = "wl_mark";
/// Test-only txfunc with the injected ordering bug (args:
/// `[marker, root, key, good_value]`): inserts `key` with `good_value`
/// only if no [`TX_MARK`] landed first, a corrupted value otherwise.
pub const TX_RACY_INSERT: &str = "wl_racy_insert";

/// The canonical value for key `k` — what the invariant check expects.
pub fn value_of(k: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&k.to_le_bytes());
    v[15] = (k as u8) ^ 0xA5;
    v
}

/// A 2-thread hash-map exploration target: fresh-pool factory, crashed
/// media reopener, invariant check, and seed schedules, shaped for
/// [`clobber_nvm::ExploreSession`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreWorkload {
    buggy: bool,
}

impl ExploreWorkload {
    /// Pool size for every build — small so crash sweeps stay cheap, but
    /// big enough for two v_log slots (256 KiB each) plus the heap.
    pub const POOL_BYTES: u64 = 4 << 20;

    /// The correct workload (no injected bug).
    pub fn new() -> ExploreWorkload {
        ExploreWorkload { buggy: false }
    }

    /// The workload with the injected ordering bug registered
    /// (test-only: nothing outside tests should construct this).
    pub fn with_bug() -> ExploreWorkload {
        ExploreWorkload { buggy: true }
    }

    fn register_all(&self, rt: &Runtime) {
        HashMap::register(rt);
        if self.buggy {
            register_buggy(rt);
        }
    }

    /// Deterministic build: pool, runtime, map root, marker cell. The
    /// allocation sequence is fixed, so the addresses are identical on
    /// every call — [`layout`](Self::layout) relies on that.
    fn build_inner(&self) -> (Arc<PmemPool>, Runtime, PAddr, PAddr) {
        let opts = PoolOptions::crash_sim(Self::POOL_BYTES);
        let pool = Arc::new(PmemPool::create(opts).expect("create pool"));
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(Backend::clobber()))
            .expect("create runtime");
        self.register_all(&rt);
        let map = HashMap::create(&rt).expect("create map");
        rt.set_app_root(map.root()).expect("set app root");
        let marker = pool.alloc(8).expect("alloc marker");
        pool.write_u64(marker, 0).expect("zero marker");
        pool.persist(marker, 8).expect("persist marker");
        (pool, rt, map.root(), marker)
    }

    /// A fresh pool + runtime with the map created and everything
    /// registered — the state every explored candidate starts from.
    pub fn build(&self) -> (Arc<PmemPool>, Runtime) {
        let (pool, rt, _, _) = self.build_inner();
        (pool, rt)
    }

    /// The deterministic (map root, marker cell) addresses every
    /// [`build`](Self::build) produces, learned from a probe build.
    pub fn layout(&self) -> (PAddr, PAddr) {
        let (_pool, _rt, root, marker) = self.build_inner();
        (root, marker)
    }

    /// Reopens crashed media with txfuncs registered, ready for
    /// `recover_with`.
    pub fn reopen(&self, media: Vec<u8>) -> (Arc<PmemPool>, Runtime) {
        let opts = RuntimeOptions::new(Backend::clobber());
        let (pool, rt) = reopen_media(media, opts);
        self.register_all(&rt);
        (pool, rt)
    }

    /// The subset-robust invariant: structurally sound map, no duplicate
    /// keys, every present key `k` holding exactly [`value_of`]`(k)`.
    pub fn check(&self, pool: &PmemPool, rt: &Runtime) -> Result<(), String> {
        let root = rt.app_root().map_err(|e| format!("app root: {e}"))?;
        let map = HashMap::open(pool, root).map_err(|e| format!("open: {e}"))?;
        let pairs = map.dump(pool).map_err(|e| format!("dump: {e}"))?;
        let mut seen = std::collections::BTreeSet::new();
        for (k, v) in pairs {
            if !seen.insert(k) {
                return Err(format!("key {k} present twice"));
            }
            if v != value_of(k) {
                return Err(format!("key {k} holds {v:?}, expected {:?}", value_of(k)));
            }
        }
        Ok(())
    }

    /// Packages the workload as an [`ExploreSession`] borrowing `self`.
    pub fn session(&self) -> ExploreSession<'_> {
        ExploreSession {
            build: Box::new(move || self.build()),
            reopen: Box::new(move |media| self.reopen(media)),
            check: Box::new(move |pool, rt| self.check(pool, rt)),
        }
    }

    /// The 2-thread, 3-op seed the acceptance criteria name: slot 0
    /// inserts keys 1 and 2, slot 1 inserts key 3. Every insert uses the
    /// allocator, so under the sound conflict policy all pairs conflict
    /// and the explorer enumerates every interleaving (no pruning).
    pub fn seed_schedule(&self) -> Schedule {
        let (root, _) = self.layout();
        Schedule {
            ops: vec![
                insert_op(0, root, 1),
                insert_op(0, root, 2),
                insert_op(1, root, 3),
            ],
        }
    }

    /// The buggy seed: slot 0 runs a benign insert then the racy insert,
    /// slot 1 runs the mark. In seed order the racy insert precedes the
    /// mark, so the seed passes; interleavings that move the mark first
    /// corrupt key 7's value.
    pub fn buggy_schedule(&self) -> Schedule {
        assert!(self.buggy, "buggy_schedule needs with_bug()");
        let (root, marker) = self.layout();
        Schedule {
            ops: vec![
                insert_op(0, root, 1),
                ScheduleOp {
                    slot: 0,
                    name: TX_RACY_INSERT.to_string(),
                    args: ArgList::new()
                        .with_u64(marker.offset())
                        .with_u64(root.offset())
                        .with_u64(7)
                        .with_bytes(&value_of(7)),
                },
                ScheduleOp {
                    slot: 1,
                    name: TX_MARK.to_string(),
                    args: ArgList::new().with_u64(marker.offset()),
                },
            ],
        }
    }
}

/// One `hashmap_insert` dispatch for the schedule.
fn insert_op(slot: usize, root: PAddr, key: u64) -> ScheduleOp {
    ScheduleOp {
        slot,
        name: TX_INSERT.to_string(),
        args: ArgList::new()
            .with_u64(root.offset())
            .with_u64(key)
            .with_bytes(&value_of(key)),
    }
}

/// Registers the two test-only txfuncs carrying the injected ordering
/// bug. Both clobber the shared marker cell, so their trace footprints
/// overlap and the reordering is never pruned away.
fn register_buggy(rt: &Runtime) {
    rt.register(TX_MARK, |tx, args| {
        let cell = PAddr::new(args.u64(0)?);
        let v = tx.read_u64(cell)?;
        tx.write_u64(cell, v + 1)?;
        Ok(None)
    });
    rt.register(TX_RACY_INSERT, |tx, args| {
        let cell = PAddr::new(args.u64(0)?);
        let map = HashMap::from_arg(args.u64(1)?)?;
        let key = args.u64(2)?;
        // The racy dependence: branch on the marker, and clobber it so
        // the dependence is visible to the trace-footprint analysis.
        let seen = tx.read_u64(cell)?;
        tx.write_u64(cell, seen.wrapping_add(100))?;
        let value: &[u8] = if seen == 0 {
            args.bytes(3)?
        } else {
            // The bug: a mark landed first, publish corrupted bytes.
            &[0xBA; 16]
        };
        prepend(tx, map, key, value)?;
        Ok(None)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_deterministic() {
        let wl = ExploreWorkload::new();
        assert_eq!(wl.layout(), wl.layout());
    }

    #[test]
    fn seed_schedule_replays_clean() {
        let wl = ExploreWorkload::new();
        let (pool, rt) = wl.build();
        let report = wl.seed_schedule().replay(&rt);
        assert_eq!(report.ops_run, 3);
        assert_eq!(report.aborted, 0);
        assert_eq!(report.tripped_at, None);
        wl.check(&pool, &rt).expect("invariant holds");
    }

    #[test]
    fn buggy_seed_order_passes_but_marked_first_fails() {
        let wl = ExploreWorkload::with_bug();
        let seed = wl.buggy_schedule();
        let (pool, rt) = wl.build();
        seed.replay(&rt);
        wl.check(&pool, &rt).expect("seed order is clean");

        // Move the mark before the racy insert: the bug fires.
        let mut bad = seed.clone();
        bad.ops.swap(1, 2);
        let (pool, rt) = wl.build();
        bad.replay(&rt);
        let err = wl.check(&pool, &rt).expect_err("mark-first corrupts key 7");
        assert!(err.contains("key 7"), "unexpected reason: {err}");
    }
}
