//! Persist-event crash-point sweep over the five pds structures, under
//! every failure-atomic backend.
//!
//! The product's `CrashBattery` over an insert stream followed by an
//! update pass (a prefix of the keys set again to new values, where a
//! walk's read set meets a clobbering write): strided crash points (every
//! point in the `--ignored` tier), each crashed, recovered and put through
//! the battery's checks with "the contents are an intact point of the
//! stream" as the workload invariant — clobber recovery completes the
//! interrupted transaction, undo rolls it back, redo discards it, none may
//! tear it. The recorded event trace of the stream is the same on every
//! run.

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
    /// Keys `0..keys` are inserted, key `i` by the `i`-th transaction;
    /// then keys `0..UPDATES` are set again.
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
            insert: |rt, root, k, v| $ty::open(rt.pool(), root)?.$insert(rt, k, v),
            dump: |pool, root| {
                let pairs = $ty::open(pool, root)?.dump(pool)?;
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

/// Keys the update pass sets again, in order, after every key is in.
const UPDATES: u64 = 4;

fn value_of(k: u64) -> Vec<u8> {
    let mut v = vec![0u8; 64];
    v[..8].copy_from_slice(&k.to_le_bytes());
    v[63] = k as u8 ^ 0x5A;
    v
}

/// The update pass's value for `k`: same length, every byte different.
fn update_of(k: u64) -> Vec<u8> {
    value_of(k).iter().map(|b| !b).collect()
}

/// Fresh pool + runtime with the structure created and set as app root.
fn setup(s: &Structure, backend: Backend) -> (Arc<PmemPool>, Runtime) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(8 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
    (s.register)(&rt);
    rt.set_app_root((s.create)(&rt).unwrap()).unwrap();
    (pool, rt)
}

/// Runs the stream on from `len` keys inserted and `updated` keys set
/// again, stopping at the first failure (a dead pool fails every later
/// transaction anyway).
fn run_from(s: &Structure, rt: &Runtime, (len, updated): (u64, u64)) -> Result<(), TxError> {
    let root = rt.app_root()?;
    for k in len..s.keys {
        (s.insert)(rt, root, k, &value_of(k))?;
    }
    for k in updated..UPDATES {
        (s.insert)(rt, root, k, &update_of(k))?;
    }
    Ok(())
}

/// Contents are a point of the stream, `(len, updated)`: keys `0..len`,
/// the first `updated` of them with their new values and the rest with
/// their first, and no update before every key is in. No backend's
/// recovery may tear the interrupted transaction or lose a committed one.
fn check_stream(s: &Structure, pool: &PmemPool, rt: &Runtime) -> Result<(u64, u64), String> {
    let root = rt.app_root().map_err(|e| format!("app root: {e}"))?;
    let pairs: BTreeMap<u64, Vec<u8>> = (s.dump)(pool, root)
        .map_err(|e| format!("dump: {e}"))?
        .into_iter()
        .collect();
    let (name, len) = (s.name, pairs.len() as u64);
    if len > s.keys {
        return Err(format!("{name}: {len} keys, only {} inserted", s.keys));
    }
    let updated = (0..UPDATES)
        .take_while(|k| pairs.get(k) == Some(&update_of(*k)))
        .count() as u64;
    if updated > 0 && len < s.keys {
        return Err(format!("{name}: an update before key {len} was in"));
    }
    let expect = |k: u64| {
        if k < updated {
            update_of(k)
        } else {
            value_of(k)
        }
    };
    match (0..len).find(|&k| pairs.get(&k) != Some(&expect(k))) {
        Some(key) => Err(format!("{name}: key {key} missing or torn")),
        None => Ok((len, updated)),
    }
}

/// Sweeps about `points` evenly strided crash points (every persist event
/// once `points` exceeds their number); returns the battery's summary and
/// the keys and updates found across all recovered pools.
fn sweep(s: &'static Structure, backend: Backend, points: u64) -> SweepSummary {
    let session = ExploreSession {
        build: Box::new(move || setup(s, backend)),
        reopen: Box::new(move |media| {
            let (pool, rt) = reopen_media(media, RuntimeOptions::new(backend));
            (s.register)(&rt);
            (pool, rt)
        }),
        check: Box::new(move |pool, rt| check_stream(s, pool, rt).map(drop)),
    };
    let drive = |rt: &Arc<Runtime>| drop(run_from(s, rt, (0, 0)));
    let battery = CrashBattery {
        session: &session,
        drive: &drive,
        nested: Nested::Rotating,
    };
    let at = |k: u64| format!("{} under {} crash@{k}", s.name, backend.label());
    let events = battery.count_events().unwrap_or_else(|v| panic!("{v}"));
    let summary = battery
        .sweep((events / points).max(1), u64::MAX, |r| {
            if matches!(backend, Backend::Clobber(_)) {
                assert_eq!(r.report.rolled_back, 0, "{}", at(r.crash_at));
                assert!(r.report.reexecuted.len() <= 1, "{}", at(r.crash_at));
            } else {
                assert!(r.report.reexecuted.is_empty(), "{}", at(r.crash_at));
            }
            let point = check_stream(s, &r.pool, &r.rt).unwrap();
            // It keeps serving: the rest of the stream lands beside what
            // recovery left.
            run_from(s, &r.rt, point).unwrap();
            let all = check_stream(s, &r.pool, &r.rt);
            assert_eq!(all, Ok((s.keys, UPDATES)), "{}", at(r.crash_at));
        })
        .unwrap_or_else(|v| panic!("{} under {}: {v}", s.name, backend.label()));
    assert!(summary.crash_points > 0);
    assert_eq!(summary.not_tripped, 0, "{}: every event trips", s.name);
    summary
}

/// The sweep passes on every structure.
fn sweep_all(backend: Backend, points: u64) {
    for s in ALL {
        let summary = sweep(s, backend, points);
        assert!(summary.nested_points > 0, "{}: no recovery crashed", s.name);
    }
}

/// Default-tier crash points per sweep (15 sweeps).
const POINTS: u64 = 24;

#[test]
fn sweep_clobber() {
    sweep_all(Backend::clobber(), POINTS);
}

#[test]
fn sweep_undo() {
    sweep_all(Backend::Undo, POINTS);
}

#[test]
fn sweep_redo() {
    sweep_all(Backend::Redo, POINTS);
}

/// Every persist event of every structure under every backend.
#[test]
#[ignore = "exhaustive tier: stride 1"]
fn sweep_every_event() {
    for backend in [Backend::clobber(), Backend::Undo, Backend::Redo] {
        sweep_all(backend, u64::MAX);
    }
}

/// The stream's recorded trace is identical between runs — the pds
/// workloads obey the same golden-trace contract as the core script.
#[test]
fn insert_trace_is_deterministic() {
    for s in [&RBTREE, &HASHMAP] {
        let mut traces = Vec::new();
        for _ in 0..2 {
            let (pool, rt) = setup(s, Backend::clobber());
            let tracer = Arc::new(Tracer::new());
            pool.set_tracer(Some(tracer.clone()));
            run_from(s, &rt, (0, 0)).unwrap();
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
