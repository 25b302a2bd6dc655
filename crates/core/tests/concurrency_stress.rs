//! Multi-thread stress test for the pool: N threads run transactions on
//! disjoint account regions and disjoint v_log slots of one pool, the pool
//! takes a seeded power failure, and recovery must restore conservation.
//!
//! A pool keeps its hot counters with plain load+store pairs under its
//! engine lock (fences excepted: a performance-mode fence takes no lock, so
//! they are atomic adds); a second case hammers a pool from racing threads
//! and requires the totals to be exact, so a counter updated outside that
//! rule loses increments here rather than skewing a figure.
//!
//! The seed comes from `CLOBBER_STRESS_SEED` (default 42) so CI can run a
//! seed matrix without recompiling.

use std::sync::{Arc, Barrier};

use clobber_nvm::{ArgList, Runtime, RuntimeOptions};
use clobber_pmem::{CrashConfig, PAddr, PmemPool, PoolMode, PoolOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 4;
const ACCTS_PER_THREAD: u64 = 8;
const INITIAL: u64 = 1000;
const TRANSFERS_PER_THREAD: u64 = 40;

/// Small per-slot log capacities so four slots fit the test pool.
fn rt_options() -> RuntimeOptions {
    let mut opts = RuntimeOptions::new(clobber_nvm::Backend::clobber());
    opts.clobber_log_cap = 32 << 10;
    opts.redo_log_cap = 32 << 10;
    opts
}

fn seed_from_env() -> u64 {
    std::env::var("CLOBBER_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn register_transfer(rt: &Runtime) {
    rt.register("stress_transfer", |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        let from = args.u64(1)?;
        let to = args.u64(2)?;
        let amount = args.u64(3)?;
        let from_bal = tx.read_u64(base.add(from * 8))?;
        if from_bal < amount || from == to {
            return Ok(Some(vec![0]));
        }
        tx.write_u64(base.add(from * 8), from_bal - amount)?;
        let to_bal = tx.read_u64(base.add(to * 8))?;
        tx.write_u64(base.add(to * 8), to_bal + amount)?;
        Ok(Some(vec![1]))
    });
}

/// Sum of every account balance across all thread regions.
fn grand_total(pool: &PmemPool, base: PAddr) -> u64 {
    (0..THREADS as u64 * ACCTS_PER_THREAD)
        .map(|i| pool.read_u64(base.add(i * 8)).unwrap())
        .sum()
}

#[test]
fn threads_on_disjoint_slots_conserve_through_crash_and_recovery() {
    let seed = seed_from_env();
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(2 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), rt_options()).unwrap();
    register_transfer(&rt);

    let accounts = THREADS as u64 * ACCTS_PER_THREAD;
    let base = pool.alloc(accounts * 8).unwrap();
    for i in 0..accounts {
        pool.write_u64(base.add(i * 8), INITIAL).unwrap();
    }
    pool.persist(base, accounts * 8).unwrap();
    rt.set_app_root(base).unwrap();

    // Each thread transacts only inside its own region, on its own v_log
    // slot — disjoint persistent state, fully shared pool internals.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let rt = &rt;
            s.spawn(move || {
                let region = base.add(t as u64 * ACCTS_PER_THREAD * 8);
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64) << 32);
                for _ in 0..TRANSFERS_PER_THREAD {
                    let from = rng.gen_range(0..ACCTS_PER_THREAD);
                    let to = rng.gen_range(0..ACCTS_PER_THREAD);
                    let amount = rng.gen_range(0..30u64);
                    let args = ArgList::new()
                        .with_u64(region.offset())
                        .with_u64(from)
                        .with_u64(to)
                        .with_u64(amount);
                    rt.run_on(t, "stress_transfer", &args).unwrap();
                }
            });
        }
    });

    // All transactions committed: conservation holds region-by-region and
    // globally.
    assert_eq!(grand_total(&pool, base), accounts * INITIAL);
    for t in 0..THREADS as u64 {
        let region = base.add(t * ACCTS_PER_THREAD * 8);
        let region_total: u64 = (0..ACCTS_PER_THREAD)
            .map(|i| pool.read_u64(region.add(i * 8)).unwrap())
            .sum();
        assert_eq!(
            region_total,
            ACCTS_PER_THREAD * INITIAL,
            "thread {t}: transfers leaked across regions"
        );
    }

    // Power failure with seeded line survival, then recovery on the
    // reopened pool.
    let media = pool.crash_media(&CrashConfig::with_seed(seed));
    let pool2 = Arc::new(PmemPool::open_from_media(media, PoolMode::CrashSim).unwrap());
    let rt2 = Runtime::open(pool2.clone(), rt_options()).unwrap();
    register_transfer(&rt2);
    rt2.recover().unwrap();
    let base2 = rt2.app_root().unwrap();
    assert_eq!(
        grand_total(&pool2, base2),
        accounts * INITIAL,
        "conservation violated after crash + recovery"
    );
}

/// `THREADS` racing threads issue a fixed mix of loads, stores, flushes,
/// fused store+flushes and fences against one pool, in both pool modes. Every hot counter must come out at exactly the issued
/// total.
#[test]
fn global_lock_hot_counters_are_exact_under_racing_threads() {
    const ROUNDS: u64 = 5_000;
    for opts in [
        PoolOptions::performance(1 << 20),
        PoolOptions::crash_sim(1 << 20),
    ] {
        let pool = PmemPool::create(opts).unwrap();
        // One line-aligned 256-byte region per thread.
        let raw = pool.alloc(THREADS as u64 * 256 + 64).unwrap();
        let base = PAddr::new((raw.offset() + 63) & !63);
        let before = pool.stats().snapshot();
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    let region = base.add(t * 256);
                    let mut buf = [0u8; 24];
                    start.wait();
                    for i in 0..ROUNDS {
                        pool.write_bytes(region, &[t as u8; 24]).unwrap();
                        pool.write_u64(region.add(64), i).unwrap();
                        pool.flush(region, 72).unwrap(); // 2 lines
                        pool.store_flush(region.add(120), &[7; 16]).unwrap(); // 2 lines
                        pool.read_into(region, &mut buf).unwrap();
                        assert_eq!(pool.read_u64(region.add(64)).unwrap(), i);
                        pool.fence();
                    }
                });
            }
        });
        let d = pool.stats().snapshot().delta(&before);
        let n = THREADS as u64 * ROUNDS;
        assert_eq!(
            (d.writes, d.write_bytes, d.reads, d.read_bytes),
            (3 * n, (24 + 8 + 16) * n, 2 * n, (24 + 8) * n),
            "{:?}",
            pool.mode()
        );
        assert_eq!((d.flushes, d.fences), (4 * n, n), "{:?}", pool.mode());
    }
}
