//! Persist-event crash-point sweep over the five pds structures, under
//! every failure-atomic backend, at multiple shard counts.
//!
//! The product's `CrashBattery` over an insert stream: strided crash
//! points (every point in the `--ignored` tier), each crashed, recovered
//! and put through the battery's checks with "the contents are an intact
//! prefix of the inserted keys" as the workload invariant — clobber
//! recovery completes the interrupted insert, undo rolls it back, redo
//! discards it, none may tear it. Because persist-event numbering is
//! shard-count-invariant, the sweep summary — and the recorded event
//! trace — must be identical at every shard count.

use std::collections::BTreeMap;
use std::convert::identity;
use std::sync::Arc;

use clobber_nvm::{
    reopen_media, Backend, CrashBattery, ExploreSession, Nested, Runtime, RuntimeOptions,
    SweepSummary, TxError,
};
use clobber_pds::{AvlTree, BpTree, HashMap, RbTree, SkipList};
use clobber_pmem::{PAddr, PmemPool, PoolOptions, Tracer};

type Pairs = Vec<(u64, Vec<u8>)>;

/// One structure behind its root block: what the sweep needs of it.
struct Structure {
    name: &'static str,
    /// Keys `0..keys` are inserted, key `i` by the `i`-th transaction.
    keys: u64,
    register: fn(&Runtime),
    create: fn(&Runtime) -> Result<PAddr, TxError>,
    insert: fn(&Runtime, PAddr, u64, &[u8]) -> Result<(), TxError>,
    dump: fn(&PmemPool, PAddr) -> Result<Pairs, TxError>,
}

macro_rules! structure {
    ($ty:ident, $keys:expr, $insert:ident, $key_of:expr) => {
        Structure {
            name: stringify!($ty),
            keys: $keys,
            register: $ty::register,
            create: |rt| $ty::create(rt).map(|s| s.root()),
            insert: |rt, root, k, v| $ty::open(root).$insert(rt, k, v),
            dump: |pool, root| {
                let pairs = $ty::open(root).dump(pool)?;
                Ok(pairs.into_iter().map(|(k, v)| ($key_of(k), v)).collect())
            },
        }
    };
}

/// The u64 a `key32`-encoded B+Tree key carries in its last 8 bytes.
fn bp_key(k: Vec<u8>) -> u64 {
    u64::from_be_bytes(k[24..32].try_into().unwrap())
}

static HASHMAP: Structure = structure!(HashMap, 12, insert, identity);
static RBTREE: Structure = structure!(RbTree, 12, insert, identity);
static SKIPLIST: Structure = structure!(SkipList, 12, insert, identity);
static AVLTREE: Structure = structure!(AvlTree, 12, insert, identity);
/// Leaf capacity is 8: 24 sequential keys split leaves and grow the root.
static BPTREE: Structure = structure!(BpTree, 24, insert_u64, bp_key);

static ALL: [&Structure; 5] = [&HASHMAP, &RBTREE, &SKIPLIST, &AVLTREE, &BPTREE];

fn value_of(k: u64) -> Vec<u8> {
    let mut v = vec![0u8; 64];
    v[..8].copy_from_slice(&k.to_le_bytes());
    v[63] = k as u8 ^ 0x5A;
    v
}

/// Fresh pool + runtime with the structure created and set as app root.
fn setup(s: &Structure, backend: Backend, shards: u32) -> (Arc<PmemPool>, Runtime) {
    let opts = PoolOptions::crash_sim(8 << 20).with_shards(shards);
    let pool = Arc::new(PmemPool::create(opts).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
    (s.register)(&rt);
    rt.set_app_root((s.create)(&rt).unwrap()).unwrap();
    (pool, rt)
}

/// Inserts keys `0..s.keys`, stopping at the first failure (a dead pool
/// fails every later transaction anyway).
fn run_inserts(s: &Structure, rt: &Runtime) {
    let root = rt.app_root().unwrap();
    for k in 0..s.keys {
        if (s.insert)(rt, root, k, &value_of(k)).is_err() {
            break;
        }
    }
}

/// Contents are exactly the prefix `0..len` with every value intact: no
/// backend's recovery may tear the interrupted insert or lose a committed
/// one.
fn check_prefix(s: &Structure, pool: &PmemPool, rt: &Runtime) -> Result<u64, String> {
    let root = rt.app_root().map_err(|e| format!("app root: {e}"))?;
    let pairs: BTreeMap<u64, Vec<u8>> = (s.dump)(pool, root)
        .map_err(|e| format!("dump: {e}"))?
        .into_iter()
        .collect();
    let (name, len) = (s.name, pairs.len() as u64);
    if len > s.keys {
        return Err(format!("{name}: {len} keys, only {} inserted", s.keys));
    }
    match (0..len).find(|key| pairs.get(key) != Some(&value_of(*key))) {
        Some(key) => Err(format!("{name}: key {key} missing or torn")),
        None => Ok(len),
    }
}

/// Sweeps about `points` evenly strided crash points (every persist event
/// once `points` exceeds their number); returns the battery's summary and
/// the keys found across all recovered pools.
fn sweep(s: &'static Structure, backend: Backend, shards: u32, points: u64) -> (SweepSummary, u64) {
    let session = ExploreSession {
        build: Box::new(move || setup(s, backend, shards)),
        reopen: Box::new(move |media| {
            let (pool, rt) = reopen_media(media, shards, RuntimeOptions::new(backend));
            (s.register)(&rt);
            (pool, rt)
        }),
        check: Box::new(move |pool, rt| check_prefix(s, pool, rt).map(drop)),
    };
    let drive = |rt: &Arc<Runtime>| run_inserts(s, rt);
    let battery = CrashBattery {
        session: &session,
        drive: &drive,
        nested: Nested::Rotating,
    };
    let at = |k: u64| format!("{} under {} crash@{k}", s.name, backend.label());
    let events = battery.count_events().unwrap_or_else(|v| panic!("{v}"));
    let mut keys_recovered = 0;
    let summary = battery
        .sweep((events / points).max(1), u64::MAX, |r| {
            if matches!(backend, Backend::Clobber(_)) {
                assert_eq!(r.report.rolled_back, 0, "{}", at(r.crash_at));
                assert!(r.report.reexecuted.len() <= 1, "{}", at(r.crash_at));
            } else {
                assert!(r.report.reexecuted.is_empty(), "{}", at(r.crash_at));
            }
            let len = check_prefix(s, &r.pool, &r.rt).unwrap();
            keys_recovered += len;
            // It keeps serving: the rest of the stream lands beside what
            // recovery left.
            let root = r.rt.app_root().unwrap();
            for k in len..s.keys {
                (s.insert)(&r.rt, root, k, &value_of(k)).unwrap();
            }
            let all = check_prefix(s, &r.pool, &r.rt);
            assert_eq!(all, Ok(s.keys), "{}", at(r.crash_at));
        })
        .unwrap_or_else(|v| panic!("{} under {}: {v}", s.name, backend.label()));
    assert!(summary.crash_points > 0);
    assert_eq!(summary.not_tripped, 0, "{}: every event trips", s.name);
    (summary, keys_recovered)
}

/// The sweep passes on every structure at shards {1, 4}, and — because
/// crash draws and event numbering are shard-invariant — the summaries
/// agree exactly across shard counts.
fn sweep_all(backend: Backend, points: u64) {
    for s in ALL {
        let base = sweep(s, backend, 1, points);
        let four = sweep(s, backend, 4, points);
        assert_eq!(base, four, "{}: diverged across shard counts", s.name);
        assert!(base.0.nested_points > 0, "{}: no recovery crashed", s.name);
    }
}

/// Default-tier crash points per sweep (30 sweeps; the file stays within
/// 10 s).
const POINTS: u64 = 24;

#[test]
fn sharded_sweep_clobber() {
    sweep_all(Backend::clobber(), POINTS);
}

#[test]
fn sharded_sweep_undo() {
    sweep_all(Backend::Undo, POINTS);
}

#[test]
fn sharded_sweep_redo() {
    sweep_all(Backend::Redo, POINTS);
}

/// Every persist event of every structure under every backend.
#[test]
#[ignore = "exhaustive tier: stride 1"]
fn sharded_sweep_every_event() {
    for backend in [Backend::clobber(), Backend::Undo, Backend::Redo] {
        sweep_all(backend, u64::MAX);
    }
}

/// The insert stream's recorded trace is identical at shards 1 and 4 —
/// the pds workloads obey the same golden-trace contract as the core
/// script.
#[test]
fn insert_trace_is_shard_invariant() {
    for s in [&RBTREE, &HASHMAP] {
        let mut traces = Vec::new();
        for shards in [1, 4] {
            let (pool, rt) = setup(s, Backend::clobber(), shards);
            let tracer = Arc::new(Tracer::new());
            pool.set_tracer(Some(tracer.clone()));
            run_inserts(s, &rt);
            pool.set_tracer(None);
            traces.push(tracer.take());
        }
        assert!(!traces[0].events.is_empty(), "{}", s.name);
        assert!(
            traces[0].diff(&traces[1]).is_none(),
            "{}: {}",
            s.name,
            traces[0].diff(&traces[1]).unwrap()
        );
    }
}
