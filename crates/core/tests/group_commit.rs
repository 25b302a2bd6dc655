//! Tentpole layer 2: cross-transaction group commit.
//!
//! Every ordering fence on the transaction path routes through the
//! runtime's [`GroupCommit`] coalescer, so concurrent committers share one
//! pool fence per epoch. These tests pin the fence-count reduction the
//! perf work claims (the acceptance bar: ≥2× fewer fences with 4
//! concurrent committers), the exact epoch bookkeeping, the line-buffer
//! flush savings at the runtime level, and the trace visibility of epoch
//! boundaries.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use clobber_nvm::{ArgList, Backend, GroupCommit, Runtime, RuntimeOptions};
use clobber_pmem::{EventKind, PAddr, PmemPool, PoolOptions, StatsSnapshot, Tracer};
use common::{run_script, setup};

const THREADS: u64 = 4;
const ROUNDS: u64 = 8;
const INITIAL: u64 = 1000;

/// Unconditional transfer: every transaction has the identical fence-request
/// shape (2 begin + 2 log syncs + publish + clear), which keeps `min_batch`
/// committers in lock step — an epoch closes exactly when all of them have
/// issued their next ordering request.
fn register_plain_transfer(rt: &Runtime) {
    rt.register("plain_transfer", |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        let from = args.u64(1)?;
        let to = args.u64(2)?;
        let amount = args.u64(3)?;
        let from_bal = tx.read_u64(base.add(from * 8))?;
        tx.write_u64(base.add(from * 8), from_bal - amount)?;
        let to_bal = tx.read_u64(base.add(to * 8))?;
        tx.write_u64(base.add(to * 8), to_bal + amount)?;
        Ok(None)
    });
}

/// `THREADS` committers, each committing `ROUNDS` transfers on its own
/// v_log slot and its own disjoint account pair. At
/// `batch > 1` they are racing OS threads; at `batch == 1` — the solo
/// baseline — they take turns on the calling thread, because racing
/// threads coalesce even at `min_batch` 1 (a follower may join an epoch
/// whose leader is mid-fence) and the baseline must contain no coalescing
/// at all. Both arms issue the same ordering requests on the same slots.
/// Returns the stats delta over the commit phase only (setup excluded).
fn run_committers(batch: usize) -> StatsSnapshot {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
    let mut ropts = RuntimeOptions::new(Backend::clobber()).with_group_commit_batch(batch);
    ropts.clobber_log_cap = 32 << 10;
    ropts.redo_log_cap = 32 << 10;
    let rt = Runtime::create(pool.clone(), ropts).unwrap();
    register_plain_transfer(&rt);
    let base = pool.alloc(THREADS * 2 * 8).unwrap();
    for i in 0..THREADS * 2 {
        pool.write_u64(base.add(i * 8), INITIAL).unwrap();
    }
    pool.persist(base, THREADS * 2 * 8).unwrap();

    let before = pool.stats().snapshot();
    let commit = |i: u64| {
        for _ in 0..ROUNDS {
            let args = ArgList::new()
                .with_u64(base.offset())
                .with_u64(2 * i)
                .with_u64(2 * i + 1)
                .with_u64(1);
            rt.run_on(i as usize, "plain_transfer", &args).unwrap();
        }
    };
    if batch == 1 {
        (0..THREADS).for_each(commit);
    } else {
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for i in 0..THREADS {
                let (commit, start) = (&commit, &start);
                s.spawn(move || {
                    start.wait();
                    commit(i);
                });
            }
        });
    }
    let delta = pool.stats().snapshot().delta(&before);

    // Conservation plus the exact per-account balances: every transfer
    // committed exactly once.
    for i in 0..THREADS {
        assert_eq!(
            pool.read_u64(base.add(2 * i * 8)).unwrap(),
            INITIAL - ROUNDS
        );
        assert_eq!(
            pool.read_u64(base.add((2 * i + 1) * 8)).unwrap(),
            INITIAL + ROUNDS
        );
    }
    delta
}

/// The acceptance bar: with 4 concurrent committers sharing epochs of 4,
/// the pool issues at least 2× fewer fences than with per-transaction
/// fencing — and the epoch bookkeeping accounts for every saved fence.
#[test]
fn group_commit_halves_fences_with_four_committers() {
    let solo = run_committers(1);
    let batched = run_committers(4);

    // min_batch == 1: every ordering request is its own epoch, none saved.
    assert!(solo.gc_epochs > 0);
    assert_eq!(solo.gc_fences_saved, 0, "{solo:?}");

    // min_batch == 4: each epoch coalesces exactly the four committers.
    assert_eq!(
        batched.gc_fences_saved,
        3 * batched.gc_epochs,
        "{batched:?}"
    );
    // Both runs issue the same ordering requests; only the epoch grouping
    // differs (requests = epochs at batch 1, = 4·epochs at batch 4).
    assert_eq!(solo.gc_epochs, 4 * batched.gc_epochs);

    assert!(
        2 * batched.fences <= solo.fences,
        "group commit must at least halve fences: batched {} vs solo {}",
        batched.fences,
        solo.fences
    );

    // EXPERIMENTS.md raw numbers (visible with --nocapture).
    let txs = THREADS * ROUNDS;
    println!(
        "group-commit A/B over {txs} txs: solo fences={} ({:.2}/tx), \
         batched fences={} ({:.2}/tx), epochs={}, saved={}",
        solo.fences,
        solo.fences as f64 / txs as f64,
        batched.fences,
        batched.fences as f64 / txs as f64,
        batched.gc_epochs,
        batched.gc_fences_saved
    );
}

/// No lost wake-up: three free-running threads issue 2 000 ordering
/// requests each at `min_batch` 1, 2 and 3. With more threads than
/// `min_batch`, requesters keep joining the next epoch while a leader is
/// still fencing the current one and park until it completes — the leader
/// only notifies when somebody is parked, so a miscounted follower would
/// sleep forever and this test would hang rather than fail. Every request
/// is accounted for as an epoch's fence or a saved one.
#[test]
fn followers_joining_mid_fence_are_all_released() {
    const WORKERS: u64 = 3;
    const REQUESTS: u64 = 2_000;
    for min_batch in 1..=WORKERS {
        let pool = PmemPool::create(PoolOptions::performance(1 << 20)).unwrap();
        let gc = GroupCommit::new(min_batch as usize);
        let finished = AtomicU64::new(0);
        let before = pool.stats().snapshot();
        let served = || {
            let d = pool.stats().snapshot().delta(&before);
            assert_eq!(d.fences, d.gc_epochs, "one pool fence per epoch");
            d.gc_epochs + d.gc_fences_saved
        };
        let closing = std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| {
                    for _ in 0..REQUESTS {
                        gc.fence(&pool);
                    }
                    finished.fetch_add(1, Ordering::Release);
                });
            }
            // Once fewer than `min_batch` workers are left they cannot
            // close an epoch among themselves (the documented contract of
            // `min_batch` > 1), so the counters stand still and say exactly
            // how many requests the straggler still needs a partner for.
            while finished.load(Ordering::Acquire) + min_batch <= WORKERS {
                std::thread::yield_now();
            }
            let closing = WORKERS * REQUESTS - served();
            for _ in 0..closing {
                gc.fence(&pool);
            }
            closing
        });
        assert_eq!(
            served(),
            WORKERS * REQUESTS + closing,
            "min_batch {min_batch}: every request is an epoch's fence or a saved one"
        );
    }
}

/// Epoch boundaries are visible as `GroupCommitEpoch` trace events: one per
/// issued fence, carrying the epoch number in `a` and the batch size in
/// `b`. At the default batch of 1 every event reports a lone committer.
#[test]
fn group_commit_epochs_appear_in_traces() {
    let (pool, rt, base) = setup(Backend::clobber());
    let before = pool.stats().snapshot();
    let tracer = Arc::new(Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    run_script(&rt, base).unwrap();
    pool.set_tracer(None);
    let d = pool.stats().snapshot().delta(&before);
    let trace = tracer.take();

    let epochs: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::GroupCommitEpoch)
        .collect();
    assert_eq!(epochs.len() as u64, d.gc_epochs, "one event per epoch");
    assert!(!epochs.is_empty());
    for (i, e) in epochs.iter().enumerate() {
        assert_eq!(e.a, i as u64 + 1, "epoch numbers count up from 1");
        assert_eq!(e.b, 1, "no concurrency: every epoch has one committer");
    }
}

/// Runtime-level flush amortization, pinned: the 4-transaction script
/// logs 8 pre-images (two 8-byte balances per transfer), and the
/// line-buffered writer spends one clobber-log flush and one ordering fence
/// on each transfer's two — its commit's one log sync; a per-entry writer
/// needed two flushes (entry + tail) per append. The cache-line buffer only
/// batches; it never reorders or drops. (The total moved 34 → 31 when an
/// immediate `alloc` — the script's first transaction creates a slot with
/// three — went from two fences to one, 31 → 24 when each of the four
/// begins stopped paying two fences of its own and the slot's first
/// transaction, adopting its logs, truncated the clobber log with one, and
/// 24 → 20 when a transfer's two entries started sharing one sync.)
#[test]
fn line_buffer_cuts_clog_flushes_at_equal_fences() {
    let (pool, rt, base) = setup(Backend::clobber());
    let before = pool.stats().snapshot();
    run_script(&rt, base).unwrap();
    let d = pool.stats().snapshot().delta(&before);

    assert_eq!((d.log_entries, d.log_bytes), (8, 64));
    assert_eq!((d.clog_flushes, d.clog_fences), (4, 4));
    assert_eq!(d.fences, 20, "total ordering points of the script");
    // Redo machinery stays silent under the clobber backend.
    assert_eq!((d.rlog_flushes, d.rlog_fences), (0, 0));
}
