//! Crash a key-value store in the middle of a transaction, then watch each
//! logging strategy recover it.
//!
//! An armed fault plan kills the pool at a persist event *inside* an
//! insert; we then recover the power-failure image under the clobber
//! backend (re-execution completes the interrupted insert) and under the
//! PMDK-style undo and redo backends (rollback erases it).
//!
//! ```bash
//! cargo run --example crash_recovery
//! ```

use std::sync::Arc;

use clobber_nvm::{Backend, Runtime, RuntimeOptions};
use clobber_pds::HashMap;
use clobber_pmem::{CrashConfig, EventKind, FaultPlan, PmemPool, PoolMode, PoolOptions, Tracer};

fn run_one(backend: Backend) -> Result<(), Box<dyn std::error::Error>> {
    println!("--- backend: {} ---", backend.label());
    // A fresh store with `plan` armed, and the twelve inserts run on it.
    let open = |plan| -> Result<_, Box<dyn std::error::Error>> {
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(32 << 20))?);
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend))?;
        HashMap::register(&rt);
        let map = HashMap::create(&rt)?;
        rt.set_app_root(map.root())?;
        pool.arm_faults(plan);
        Ok((pool, rt, map))
    };
    let inserts = |rt: &Runtime, map: &HashMap| {
        (0..12u64).try_for_each(|k| map.insert(rt, k, format!("value-{k}").as_bytes()))
    };

    // A dry run counts the inserts' persist events (an armed plan stamps
    // each traced one with its index); the real run dies just past the
    // first fence from halfway on — inside an insert whose begin is durable.
    let (pool, rt, map) = open(FaultPlan::count_only())?;
    let tracer = Arc::new(Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    inserts(&rt, &map)?;
    let events = pool.disarm_faults();
    let trace = tracer.take();
    let fence = trace
        .events
        .iter()
        .find(|e| e.kind == EventKind::Fence && e.seq >= events / 2);
    let trip = fence.expect("the inserts fence").seq + 1;
    let (pool, rt, map) = open(FaultPlan::crash_at(trip))?;
    let died = inserts(&rt, &map).expect_err("the pool dies mid-stream");
    println!("persist event {trip} of {events}: {died}");

    let media = pool.crash_media(&CrashConfig::drop_all(99));
    let pool2 = Arc::new(PmemPool::open_from_media(media, PoolMode::CrashSim)?);
    let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::new(backend))?;
    HashMap::register(&rt2);
    let report = rt2.recover()?;
    let map2 = HashMap::open(&pool2, rt2.app_root()?)?;
    println!(
        "recovered: {} keys (re-executed: {}, rolled back: {})",
        map2.len(&pool2)?,
        report.reexecuted.len(),
        report.rolled_back
    );
    // Every surviving value is intact — partial transactions are invisible.
    for (k, v) in map2.dump(&pool2)? {
        assert_eq!(v, format!("value-{k}").into_bytes(), "torn value for {k}");
    }
    println!("all surviving values verified intact\n");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run_one(Backend::clobber())?;
    run_one(Backend::Undo)?;
    run_one(Backend::Redo)?;
    Ok(())
}
