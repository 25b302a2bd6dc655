//! Deterministic-schedule interleaving tests: persist-event numbering is
//! shard-count-invariant.
//!
//! A fixed single-threaded workload issues the same sequence of persist
//! events (stores, flushes, fences) no matter how the address space is
//! partitioned, because event numbering happens on the pool's single fault
//! mutex *before* any shard is consulted. These tests pin that contract
//! concretely: the event count, every [`FaultPlan`] trip point, the
//! fault-event stream, and the post-trip durable media all agree across
//! shard counts 1, 4 and 16.

use clobber_pmem::{CrashConfig, FaultPlan, PAddr, PmemPool, PoolOptions, CACHE_LINE};

const POOL_SIZE: u64 = 1 << 20;
const BLOCK: u64 = 16 << 10;

/// Shard counts under test; one shard first as the reference.
const SHARDS: &[u32] = &[1, 4, 16];

fn create(shards: u32) -> (PmemPool, PAddr) {
    let pool = PmemPool::create(PoolOptions::crash_sim(POOL_SIZE).with_shards(shards)).unwrap();
    let base = pool.alloc(BLOCK).unwrap();
    (pool, base)
}

/// The fixed workload: a mix of single-line stores, multi-line stores that
/// straddle every shard boundary a 16-way split of `BLOCK` would create,
/// flushes over mixed ranges, and fences. Stops early once the pool dies.
fn run_workload(pool: &PmemPool, base: PAddr) {
    let sixteenth = BLOCK / 16; // one 16-way shard span inside the block
    for round in 0u64..3 {
        for i in 0..16u64 {
            // A store straddling the i-th sixteenth boundary.
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

/// The workload issues the same number of persist events at every shard
/// count.
#[test]
fn event_count_is_shard_count_invariant() {
    let mut counts = Vec::new();
    for &shards in SHARDS {
        let (pool, base) = create(shards);
        pool.arm_faults(FaultPlan::count_only());
        run_workload(&pool, base);
        counts.push((shards, pool.disarm_faults()));
    }
    let (_, reference) = counts[0];
    assert!(reference > 0, "workload must issue persist events");
    for (shards, n) in counts {
        assert_eq!(n, reference, "event count diverged at {shards} shards");
    }
}

/// For every trip point `k`, every shard count trips at exactly event `k`,
/// having observed exactly `k + 1` events, and the post-trip `drop_all`
/// media is byte-identical across shard counts.
#[test]
fn trip_points_and_torn_media_are_shard_count_invariant() {
    let (pool, base) = create(1);
    pool.arm_faults(FaultPlan::count_only());
    run_workload(&pool, base);
    let events = pool.disarm_faults();
    assert!(events > 0);

    // Sweeping every k is quadratic in the workload size; stride through
    // the space while always covering the first and last events.
    let mut ks: Vec<u64> = (0..events).step_by(7).collect();
    if !ks.contains(&(events - 1)) {
        ks.push(events - 1);
    }
    for k in ks {
        // Torn trip-point stores exercise the seeded media prefix push —
        // the draw must be shard-count-independent too.
        let plan = FaultPlan::torn_crash_at(k, 0xD00D ^ k);
        let mut reference: Option<Vec<u8>> = None;
        for &shards in SHARDS {
            let (pool, base) = create(shards);
            pool.arm_faults(plan);
            run_workload(&pool, base);
            assert_eq!(
                pool.fault_tripped(),
                Some(k),
                "{shards} shards: event {k} must trip"
            );
            assert_eq!(
                pool.fault_events(),
                k + 1,
                "{shards} shards: events stop at the trip"
            );
            let media = pool.crash_media(&CrashConfig::drop_all(0xFEED ^ k));
            match &reference {
                None => reference = Some(media),
                Some(r) => assert_eq!(
                    &media, r,
                    "{shards} shards: durable media diverged at k={k}"
                ),
            }
        }
    }
}
