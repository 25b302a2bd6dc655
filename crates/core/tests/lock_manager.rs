//! Tentpole: true parallel transactions through the per-node FIFO
//! rw-lock manager.
//!
//! These tests pin the runtime-level contracts: thread slots are leased
//! and reused so slot usage is bounded by peak concurrency, racing locked transfers over *shared* accounts conserve
//! through adversarial crashes and recovery, racing locked committers on
//! disjoint sets never queue, and locked schedules record a bit-identical persist-event stream on every
//! run (the determinism contract covers lock traffic too).

mod common;

use std::sync::{Arc, Barrier};

use clobber_nvm::{
    ArgList, Backend, CrashBattery, LockRequest, Nested, Runtime, RuntimeOptions, SweepSummary,
};
use clobber_pmem::{PAddr, PmemPool, PoolOptions};
use common::{bank_session, register_transfer, total, ACCOUNTS, INITIAL};
use proptest::prelude::*;

fn transfer_args(base: PAddr, (f, t, a): (u64, u64, u64)) -> ArgList {
    ArgList::new()
        .with_u64(base.offset())
        .with_u64(f)
        .with_u64(t)
        .with_u64(a)
}

/// Satellite 1: the thread-slot map no longer grows one v_log slot per
/// thread ever seen — an exited thread's lease returns to the free list
/// and the next thread reuses it, so 16 sequential short-lived threads
/// need exactly one slot.
#[test]
fn thread_slots_are_reused_after_thread_exit() {
    let (_pool, rt, base) = common::setup(Backend::clobber());
    let rt = Arc::new(rt);
    for round in 0..16u64 {
        let rt2 = rt.clone();
        // Plain spawn + join: join waits for full thread termination,
        // including the TLS destructor that returns the slot lease
        // (scoped threads unblock before TLS destructors run).
        std::thread::spawn(move || {
            rt2.run("transfer", &transfer_args(base, (0, 1, 1)))
                .unwrap();
        })
        .join()
        .unwrap();
        assert_eq!(
            rt.slot_count(),
            1,
            "round {round}: sequential threads must share one recycled slot"
        );
    }
    // Two *concurrent* threads still get distinct slots (leases overlap).
    let gate = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (rt, gate) = (&rt, &gate);
            s.spawn(move || {
                gate.wait();
                rt.run("transfer", &transfer_args(base, (2, 3, 1))).unwrap();
                gate.wait(); // hold the lease until both have run
            });
        }
    });
    assert_eq!(rt.slot_count(), 2, "overlapping threads need two slots");
}

/// Racing locked transfers over **shared** accounts: every transaction
/// takes both account locks as one atomic set, so the check-then-move in
/// the txfunc is race-free, crashes at arbitrary persist events leave a
/// recoverable image, and conservation holds before and after recovery.
#[test]
fn racing_locked_transfers_conserve_through_crash_and_recovery() {
    let session = bank_session(Backend::clobber());
    for threads in [2usize, 4] {
        let drive = |rt: &Arc<Runtime>| racing_transfers(rt, threads);
        let battery = CrashBattery {
            session: &session,
            drive: &drive,
            nested: Nested::Off,
        };
        for k in [5u64, 23, 67, 131] {
            // A race that finishes before event k is a not-tripped point:
            // the battery still checks that the race itself conserved.
            battery
                .crash_point(k, &mut SweepSummary::default(), &mut |r| {
                    // The recovered pool keeps serving locked transactions.
                    let base = r.rt.app_root().unwrap();
                    r.rt.run_locked(
                        &[LockRequest::exclusive(0), LockRequest::exclusive(1)],
                        "transfer",
                        &transfer_args(base, (0, 1, 5)),
                    )
                    .unwrap();
                    assert_eq!(total(&r.pool, base), ACCOUNTS * INITIAL, "k={k}: post-tx");
                })
                .unwrap_or_else(|v| panic!("threads={threads}: {v}"));
        }
    }
}

/// `threads` workers each walk the shared bank under both account locks
/// until they finish or the pool dies.
fn racing_transfers(rt: &Runtime, threads: usize) {
    let base = rt.app_root().unwrap();
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for i in 0..24u64 {
                    // Deterministic per-thread walk over the shared bank;
                    // contended pairs are the point.
                    let from = (t + i) % ACCOUNTS;
                    let to = (t + i * 3 + 1) % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let locks = [LockRequest::exclusive(from), LockRequest::exclusive(to)];
                    // After the fault trips every pool op fails; the
                    // guard still releases via Drop, so nobody deadlocks.
                    if rt
                        .run_locked(&locks, "transfer", &transfer_args(base, (from, to, 7)))
                        .is_err()
                    {
                        break;
                    }
                }
            });
        }
    });
}

const LOCKED_THREADS: u64 = 4;
const LOCKED_ROUNDS: u64 = 32;

/// Four OS threads committing through `run_locked` on disjoint exclusive
/// locks: every transfer lands once, each takes its lock set once, and
/// nobody queues. (The name is kept from the group-commit A/B this test
/// ran before the fence coalescer was deleted.)
#[test]
fn locked_committers_beat_the_group_commit_baseline() {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
    let mut ropts = RuntimeOptions::new(Backend::clobber());
    ropts.clobber_log_cap = 32 << 10;
    ropts.redo_log_cap = 32 << 10;
    let rt = Runtime::create(pool.clone(), ropts).unwrap();
    register_transfer(&rt);
    let base = pool.alloc(ACCOUNTS * 8).unwrap();
    for i in 0..ACCOUNTS {
        pool.write_u64(base.add(i * 8), INITIAL).unwrap();
    }
    pool.persist(base, ACCOUNTS * 8).unwrap();

    let before = pool.stats().snapshot();
    let start = Barrier::new(LOCKED_THREADS as usize);
    std::thread::scope(|s| {
        for i in 0..LOCKED_THREADS {
            let (rt, start) = (&rt, &start);
            s.spawn(move || {
                start.wait();
                let locks = [
                    LockRequest::exclusive(2 * i),
                    LockRequest::exclusive(2 * i + 1),
                ];
                for _ in 0..LOCKED_ROUNDS {
                    rt.run_locked(
                        &locks,
                        "transfer",
                        &transfer_args(base, (2 * i, 2 * i + 1, 1)),
                    )
                    .unwrap();
                }
            });
        }
    });
    let d = pool.stats().snapshot().delta(&before);
    for i in 0..LOCKED_THREADS {
        assert_eq!(
            pool.read_u64(base.add(2 * i * 8)).unwrap(),
            INITIAL - LOCKED_ROUNDS
        );
        assert_eq!(
            pool.read_u64(base.add((2 * i + 1) * 8)).unwrap(),
            INITIAL + LOCKED_ROUNDS
        );
    }
    assert!(rt.locks().is_idle());
    // Locking showed up in the stats, and nobody ever waited (disjoint).
    let txs = LOCKED_THREADS * LOCKED_ROUNDS;
    assert_eq!(d.lock_acquisitions, txs);
    assert_eq!(d.lock_write_holds, 2 * txs);
    assert_eq!(d.lock_waits, 0, "disjoint sets must never queue");
}

/// Runs `script` single-threaded through `run_on_locked` (slot 0, both
/// account locks per transfer) under a tracer and returns the trace.
fn traced_locked_run(script: &[(u64, u64, u64)]) -> clobber_pmem::Trace {
    let (pool, rt, base) = common::setup(Backend::clobber());
    let tracer = Arc::new(clobber_pmem::Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    for &(f, t, a) in script {
        let locks = [
            LockRequest::exclusive(f % ACCOUNTS),
            LockRequest::exclusive(t % ACCOUNTS),
        ];
        rt.run_on_locked(0, &locks, "transfer", &transfer_args(base, (f, t, a)))
            .unwrap();
    }
    pool.set_tracer(None);
    tracer.take()
}

/// Lock-step determinism: a locked schedule records a bit-identical trace
/// — persist events *and* lock events — on every run.
#[test]
fn locked_script_trace_is_deterministic() {
    let script = common::SCRIPT;
    let golden = traced_locked_run(script);
    assert!(!golden.events.is_empty());
    assert!(
        golden
            .events
            .iter()
            .any(|e| e.kind == clobber_pmem::EventKind::LockAcquire),
        "lock traffic must appear in the trace"
    );
    let other = traced_locked_run(script);
    assert!(
        golden.diff(&other).is_none(),
        "locked trace diverged between runs: {}",
        golden.diff(&other).unwrap()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Determinism proptest extension: random locked transfer scripts
    /// stay bit-identical between runs, persist events and lock events
    /// alike.
    #[test]
    fn locked_random_scripts_are_deterministic(
        script in proptest::collection::vec((0u64..8, 0u64..8, 0u64..50), 1..12),
    ) {
        let golden = traced_locked_run(&script);
        let other = traced_locked_run(&script);
        prop_assert!(
            golden.diff(&other).is_none(),
            "locked trace diverged between runs: {}",
            golden.diff(&other).unwrap()
        );
    }
}
