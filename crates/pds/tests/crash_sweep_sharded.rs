//! Persist-event crash-point sweep over the pds structures at multiple
//! shard counts.
//!
//! The product's `CrashBattery` over an insert stream: strided crash
//! points, each crashed, recovered and put through the battery's checks
//! with "the contents are an intact prefix of the inserted keys" as the
//! workload invariant. Because persist-event numbering is
//! shard-count-invariant, the sweep summary — and the recorded event
//! trace — must be identical at every shard count.

use std::collections::BTreeMap;
use std::sync::Arc;

use clobber_nvm::{
    reopen_media, Backend, CrashBattery, ExploreSession, Nested, Runtime, RuntimeOptions,
    SweepSummary,
};
use clobber_pds::{HashMap, RbTree};
use clobber_pmem::{PAddr, PmemPool, PoolOptions, Tracer};

const KEYS: u64 = 12;

fn value_of(k: u64) -> Vec<u8> {
    let mut v = vec![0u8; 64];
    v[..8].copy_from_slice(&k.to_le_bytes());
    v[63] = k as u8 ^ 0x5A;
    v
}

enum Handle {
    H(HashMap),
    R(RbTree),
}

fn register(structure: &str, rt: &Runtime) {
    match structure {
        "hashmap" => HashMap::register(rt),
        "rbtree" => RbTree::register(rt),
        _ => unreachable!(),
    }
}

/// Fresh pool + runtime with the structure created and set as app root.
fn setup(structure: &str, shards: u32) -> (Arc<PmemPool>, Runtime, Handle) {
    let opts = PoolOptions::crash_sim(8 << 20).with_shards(shards);
    let pool = Arc::new(PmemPool::create(opts).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(Backend::clobber())).unwrap();
    register(structure, &rt);
    let h = match structure {
        "hashmap" => Handle::H(HashMap::create(&rt).unwrap()),
        "rbtree" => Handle::R(RbTree::create(&rt).unwrap()),
        _ => unreachable!(),
    };
    let root = match &h {
        Handle::H(x) => x.root(),
        Handle::R(x) => x.root(),
    };
    rt.set_app_root(root).unwrap();
    (pool, rt, h)
}

/// Inserts keys 0..KEYS, stopping at the first failure (a dead pool fails
/// every later transaction anyway).
fn run_inserts(rt: &Runtime, h: &Handle) {
    for k in 0..KEYS {
        let r = match h {
            Handle::H(x) => x.insert(rt, k, &value_of(k)),
            Handle::R(x) => x.insert(rt, k, &value_of(k)),
        };
        if r.is_err() {
            break;
        }
    }
}

fn open_handle(structure: &str, root: PAddr) -> Handle {
    match structure {
        "hashmap" => Handle::H(HashMap::open(root)),
        "rbtree" => Handle::R(RbTree::open(root)),
        _ => unreachable!(),
    }
}

/// Contents are exactly the prefix `0..len` with every value intact:
/// clobber recovery completes the interrupted insert, never tears it.
fn check_prefix(structure: &str, pool: &PmemPool, rt: &Runtime) -> Result<u64, String> {
    let root = rt.app_root().map_err(|e| format!("app root: {e}"))?;
    let dump = match open_handle(structure, root) {
        Handle::H(x) => x.dump(pool),
        Handle::R(x) => x.dump(pool),
    };
    let pairs: BTreeMap<u64, Vec<u8>> = dump
        .map_err(|e| format!("dump: {e}"))?
        .into_iter()
        .collect();
    let len = pairs.len() as u64;
    if len > KEYS {
        return Err(format!("{structure}: {len} keys, only {KEYS} inserted"));
    }
    match (0..len).find(|key| pairs.get(key) != Some(&value_of(*key))) {
        Some(key) => Err(format!("{structure}: key {key} missing or torn")),
        None => Ok(len),
    }
}

/// Sweeps ~12 strided crash points at the given shard count; returns the
/// battery's summary and the keys found across all recovered pools.
fn sweep(structure: &'static str, shards: u32) -> (SweepSummary, u64) {
    let session = ExploreSession {
        build: Box::new(move || {
            let (pool, rt, _) = setup(structure, shards);
            (pool, rt)
        }),
        reopen: Box::new(move |media| {
            let opts = RuntimeOptions::new(Backend::clobber());
            let (pool, rt) = reopen_media(media, shards, opts);
            register(structure, &rt);
            (pool, rt)
        }),
        check: Box::new(move |pool, rt| check_prefix(structure, pool, rt).map(drop)),
    };
    let drive =
        |rt: &Arc<Runtime>| run_inserts(rt, &open_handle(structure, rt.app_root().unwrap()));
    let battery = CrashBattery {
        session: &session,
        drive: &drive,
        nested: Nested::Off,
    };
    let events = battery.count_events().unwrap_or_else(|v| panic!("{v}"));
    let mut keys_recovered = 0;
    let summary = battery
        .sweep((events / 12).max(1), u64::MAX, |r| {
            assert_eq!(r.report.rolled_back, 0, "{structure} crash@{}", r.crash_at);
            keys_recovered += check_prefix(structure, &r.pool, &r.rt).unwrap();
        })
        .unwrap_or_else(|v| panic!("{structure}: {v}"));
    assert!(summary.crash_points > 0);
    assert_eq!(summary.not_tripped, 0, "{structure}: every event trips");
    (summary, keys_recovered)
}

/// Satellite 1: the sweep passes on both structures at shards {1, 4}, and
/// — because crash draws and event numbering are shard-invariant — the
/// summaries agree exactly across shard counts.
#[test]
fn sharded_sweep_rbtree_and_hashmap() {
    for structure in ["rbtree", "hashmap"] {
        let base = sweep(structure, 1);
        let four = sweep(structure, 4);
        assert_eq!(
            base, four,
            "{structure}: sweep diverged across shard counts"
        );
    }
}

/// The insert stream's recorded trace is identical at shards 1 and 4 —
/// the pds workloads obey the same golden-trace contract as the core
/// script.
#[test]
fn insert_trace_is_shard_invariant() {
    for structure in ["rbtree", "hashmap"] {
        let mut traces = Vec::new();
        for shards in [1, 4] {
            let (pool, rt, h) = setup(structure, shards);
            let tracer = Arc::new(Tracer::new());
            pool.set_tracer(Some(tracer.clone()));
            run_inserts(&rt, &h);
            pool.set_tracer(None);
            traces.push(tracer.take());
        }
        assert!(!traces[0].events.is_empty(), "{structure}");
        assert!(
            traces[0].diff(&traces[1]).is_none(),
            "{structure}: {}",
            traces[0].diff(&traces[1]).unwrap()
        );
    }
}
