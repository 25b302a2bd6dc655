//! Deterministic trip points: for a fixed single-threaded workload, a
//! [`FaultPlan`] armed at persist event `k` trips at exactly event `k`,
//! and the seeded torn store it leaves on media is the same every run.

use clobber_pmem::{CrashConfig, FaultPlan, PAddr, PmemPool, PoolOptions, CACHE_LINE};

const POOL_SIZE: u64 = 1 << 20;
const BLOCK: u64 = 16 << 10;

fn create() -> (PmemPool, PAddr) {
    let pool = PmemPool::create(PoolOptions::crash_sim(POOL_SIZE)).unwrap();
    let base = pool.alloc(BLOCK).unwrap();
    (pool, base)
}

/// The fixed workload: a mix of single-line and multi-line stores, flushes
/// over mixed ranges, and fences. Stops early once the pool dies.
fn run_workload(pool: &PmemPool, base: PAddr) {
    let sixteenth = BLOCK / 16;
    for round in 0u64..3 {
        for i in 0..16u64 {
            // A store across the i-th sixteenth of the block.
            let off = (i * sixteenth).saturating_sub(8);
            let data = [round as u8 ^ i as u8; 80];
            if pool.write_bytes(base.add(off), &data).is_err() {
                return;
            }
        }
        if pool.flush(base, BLOCK / 2).is_err() {
            return;
        }
        pool.fence();
        // One large multi-line store (tear candidate) and its persist.
        let big = [0xA5u8 ^ round as u8; (4 * CACHE_LINE) as usize];
        if pool.write_bytes(base.add(round * 1024 + 32), &big).is_err() {
            return;
        }
        if pool
            .persist(base.add(round * 1024), 8 * CACHE_LINE)
            .is_err()
        {
            return;
        }
    }
}

/// For every trip point `k`, the pool trips at exactly event `k`, having
/// observed exactly `k + 1` events, and the post-trip `drop_all` media is
/// byte-identical across two runs.
#[test]
fn every_trip_point_trips_at_its_event() {
    let (pool, base) = create();
    pool.arm_faults(FaultPlan::count_only());
    run_workload(&pool, base);
    let events = pool.disarm_faults();
    assert!(events > 0, "workload must issue persist events");

    // Sweeping every k is quadratic in the workload size; stride through
    // the space while always covering the first and last events.
    let mut ks: Vec<u64> = (0..events).step_by(7).collect();
    if !ks.contains(&(events - 1)) {
        ks.push(events - 1);
    }
    for k in ks {
        // Torn trip-point stores exercise the seeded media prefix push.
        let plan = FaultPlan::torn_crash_at(k, 0xD00D ^ k);
        let mut reference: Option<Vec<u8>> = None;
        for _ in 0..2 {
            let (pool, base) = create();
            pool.arm_faults(plan);
            run_workload(&pool, base);
            assert_eq!(pool.fault_tripped(), Some(k), "event {k} must trip");
            assert_eq!(pool.fault_events(), k + 1, "events stop at the trip");
            let media = pool.crash_media(&CrashConfig::drop_all(0xFEED ^ k));
            match &reference {
                None => reference = Some(media),
                Some(r) => assert_eq!(&media, r, "durable media diverged at k={k}"),
            }
        }
    }
}
