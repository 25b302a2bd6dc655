//! What a transaction pays the pool: one write-back per line per ordering
//! point, and no pool read to find a slot's logs it left itself.
//!
//! * With a tracer attached, no cache line is flushed twice between two
//!   fences of one transaction — for each of the five pds structures under
//!   clobber, undo and nolog.
//! * A slot's first transaction on a runtime adopts its logs by probing
//!   them ([`adopt_reads`] pool reads); the next one reads nothing before
//!   its first store. A live `recover()`, and an abort past a store, each
//!   send exactly one transaction back through the probe.
//! * Transactional stores sit *dirty* until the ordering point, and a
//!   begin is flushed but unfenced until the transaction's first one;
//!   `drop_all` never lets either reach media early. Seeded draws that keep
//!   half the dirty and half the flushed-unfenced lines, at every trip
//!   point of the transfer script, of a transaction whose first store to
//!   older data logs nothing, of one insert into each pds structure, and of
//!   the deferred-store buffer's cases: a batch reading its own deferred
//!   stores, one whose values grow, shrink and keep their length, a
//!   conservative second clobber of one word, and stores that overflow
//!   the buffer. The last also goes through the crash battery
//!   with a nested crash at every recovery event (every other outer event;
//!   all of them under `--ignored`): its replay overflows the buffer too.
//! * A read the deferred buffer serves is interposed and priced; one it
//!   does not serve costs nothing extra.
//! * The line-buffered log writer spends one clobber-log flush and one
//!   fence per transfer of the script.

mod common;

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use clobber_nvm::{
    reopen_media, ArgList, Backend, CrashBattery, ExploreSession, Nested, Runtime, RuntimeOptions,
    TxError,
};
use clobber_pds::{AvlTree, BpTree, HashMap, RbTree, SkipList};
use clobber_pmem::addr::lines_for_range;
use clobber_pmem::{
    CrashConfig, EventKind, FaultPlan, PAddr, PmemPool, PoolOptions, Tracer, CACHE_LINE,
};
use common::*;

/// `(reads, bytes)` of the probing path: four descriptor words, then per
/// log the 16-byte header and the first data line, then the clobber log's
/// header once more for its writer's generation. Under a v_log the clobber
/// log is truncated instead, whatever it holds: its header alone.
fn adopt_reads(backend: Backend) -> (u64, u64) {
    match backend {
        Backend::Clobber(_) => (7, 4 * 8 + 16 + (16 + 64)),
        _ => (9, 4 * 8 + 2 * (16 + 64) + 16),
    }
}

/// Runs `inserts` traced on a fresh structure and checks every
/// `TxBegin..TxCommit` window: between two fences no line is written back
/// twice. Returns the number of flush events checked.
fn assert_one_writeback_per_line(
    label: &str,
    backend: Backend,
    inserts: impl FnOnce(&Runtime),
) -> usize {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(8 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
    let tracer = Arc::new(Tracer::with_capacity(1 << 20));
    pool.set_tracer(Some(tracer.clone()));
    inserts(&rt);
    pool.set_tracer(None);
    let trace = tracer.take();
    assert_eq!(trace.dropped, 0, "{label}: ring overflow");

    let (mut in_tx, mut flushes) = (false, 0);
    let mut flushed: HashSet<u64> = HashSet::new();
    for ev in &trace.events {
        match ev.kind {
            EventKind::TxBegin => {
                in_tx = true;
                flushed.clear();
            }
            EventKind::TxCommit | EventKind::TxAbort => in_tx = false,
            EventKind::Fence => flushed.clear(),
            EventKind::Flush if in_tx => {
                flushes += 1;
                for line in lines_for_range(ev.a, ev.b) {
                    assert!(
                        flushed.insert(line),
                        "{label}: line {:#x} flushed twice between two fences (seq {})",
                        line * CACHE_LINE,
                        ev.seq
                    );
                }
            }
            _ => {}
        }
    }
    flushes
}

#[test]
fn no_line_is_written_back_twice_between_two_fences() {
    let value = |k: u64| vec![k as u8 ^ 0x5A; 256];
    for backend in [Backend::clobber(), Backend::Undo, Backend::NoLog] {
        macro_rules! structure {
            ($ty:ident, $insert:ident, $keys:expr) => {{
                let label = format!("{} under {}", stringify!($ty), backend.label());
                let flushes = assert_one_writeback_per_line(&label, backend, |rt| {
                    $ty::register(rt);
                    let s = $ty::create(rt).unwrap();
                    for k in 0..$keys {
                        // Scattered keys: rotations, tall towers, splits.
                        let key = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                        s.$insert(rt, key, &value(k)).unwrap();
                    }
                });
                assert!(flushes > $keys, "{label}: only {flushes} flushes traced");
            }};
        }
        structure!(HashMap, insert, 64);
        structure!(RbTree, insert, 64);
        structure!(SkipList, insert, 64);
        structure!(AvlTree, insert, 64);
        structure!(BpTree, insert_u64, 64);
    }
}

/// A runtime on a fresh pool with slot 0 created, one cell, and two
/// txfuncs that report the pool's read counters as their body starts:
/// `store` writes the cell blind, `bump` reads it first (a clobber write
/// under the clobber backend), and either fails after its store when asked
/// to.
struct Probe {
    pool: Arc<PmemPool>,
    rt: Runtime,
    args: ArgList,
    at_entry: Arc<Mutex<(u64, u64)>>,
}

impl Probe {
    fn new(backend: Backend) -> Probe {
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        let cell = pool.alloc(8).unwrap();
        rt.slot_handle(0).unwrap();
        let at_entry = Arc::new(Mutex::new((0, 0)));
        for (name, reads_first) in [("store", false), ("bump", true)] {
            let at_entry = at_entry.clone();
            rt.register(name, move |tx, args| {
                let s = tx.pool().stats().snapshot();
                *at_entry.lock().unwrap() = (s.reads, s.read_bytes);
                let cell = PAddr::new(args.u64(0)?);
                let old = if reads_first { tx.read_u64(cell)? } else { 0 };
                tx.write_u64(cell, old + 1)?;
                if args.u64(1)? == 1 {
                    return Err(TxError::Aborted("asked to".into()));
                }
                Ok(None)
            });
        }
        let args = ArgList::new().with_u64(cell.offset()).with_u64(0);
        Probe {
            pool,
            rt,
            args,
            at_entry,
        }
    }

    /// `(reads, bytes read)` between dispatching `name` and its body.
    fn reads_before_body(&self, name: &str) -> (u64, u64) {
        let before = self.pool.stats().snapshot();
        self.rt.run_on(0, name, &self.args).unwrap();
        let (reads, bytes) = *self.at_entry.lock().unwrap();
        (reads - before.reads, bytes - before.read_bytes)
    }
}

#[test]
fn a_slot_is_probed_once_and_then_served_from_its_mirror() {
    for backend in [Backend::clobber(), Backend::Undo, Backend::NoLog] {
        let label = backend.label();
        let p = Probe::new(backend);
        assert_eq!(
            p.reads_before_body("store"),
            adopt_reads(backend),
            "{label}: first"
        );
        assert_eq!(p.reads_before_body("store"), (0, 0), "{label}: second");
        assert_eq!(p.reads_before_body("bump"), (0, 0), "{label}: third");
        // An undo commit truncates its log itself; a clobber begin
        // truncates its log inside the body, where the new generation
        // numbers the begin.
        assert_eq!(p.reads_before_body("store"), (0, 0), "{label}: after a log");
        assert_eq!(p.reads_before_body("store"), (0, 0), "{label}: truncated");
    }
}

#[test]
fn recovery_and_an_abort_past_a_store_each_cost_one_probe() {
    for backend in [Backend::clobber(), Backend::Undo] {
        let label = backend.label();
        let p = Probe::new(backend);
        p.reads_before_body("store");
        assert_eq!(p.reads_before_body("store"), (0, 0), "{label}: warmed up");

        // A live scan may rewrite any log: every mirror is dropped.
        assert!(p.rt.recover().unwrap().is_clean(), "{label}");
        assert_eq!(
            p.reads_before_body("store"),
            adopt_reads(backend),
            "{label}: scan"
        );
        assert_eq!(
            p.reads_before_body("store"),
            (0, 0),
            "{label}: after the scan"
        );

        // An abort leaves the logs as the abort path left them, not as a
        // commit would have.
        let failing = ArgList::new().with_u64(p.args.u64(0).unwrap()).with_u64(1);
        let err = p.rt.run_on(0, "bump", &failing).unwrap_err();
        if matches!(backend, Backend::Clobber(_)) {
            assert!(matches!(err, TxError::AbortedAfterWrite(_)), "{label}");
        } else {
            assert!(matches!(err, TxError::Aborted(_)), "{label}: {err}");
        }
        assert_eq!(
            p.reads_before_body("store"),
            adopt_reads(backend),
            "{label}: abort"
        );
        assert_eq!(
            p.reads_before_body("store"),
            (0, 0),
            "{label}: after the abort"
        );
    }
}

/// Draws per trip point.
const DRAWS: u64 = 32;

/// Crashes `drive` at every persist event past `session.build` and takes
/// [`DRAWS`] power failures from each dead pool, each keeping a seeded half
/// of the dirty lines and half of the flushed-but-unfenced ones. The
/// uncrashed run must pass the session check, and every recovered pool
/// the check, a heap walk and a clean second recovery.
fn draws_at_every_event(label: &str, session: &ExploreSession<'_>, drive: &dyn Fn(&Runtime)) {
    let events = {
        let (pool, rt) = (session.build)();
        pool.arm_faults(FaultPlan::count_only());
        drive(&rt);
        (session.check)(&pool, &rt).unwrap_or_else(|e| panic!("{label} uncrashed: {e}"));
        pool.disarm_faults()
    };
    assert!(events > 0, "{label}: the workload persists nothing");
    for k in 0..events {
        let (pool, rt) = (session.build)();
        pool.arm_faults(FaultPlan::crash_at(k));
        drive(&rt);
        assert_eq!(pool.fault_tripped(), Some(k), "{label}: event {k}");
        for seed in 0..DRAWS {
            let cfg = CrashConfig::new(0.5, 0.5, k * DRAWS + seed);
            let at = format!("{label} crash_at({k}) {cfg:?}");
            let (pool2, rt2) = (session.reopen)(pool.crash_media(&cfg));
            rt2.recover().unwrap_or_else(|e| panic!("{at}: {e}"));
            (session.check)(&pool2, &rt2).unwrap_or_else(|e| panic!("{at}: {e}"));
            pool2
                .check_heap()
                .unwrap_or_else(|e| panic!("{at}: heap check failed: {e}"));
            assert!(rt2.recover().unwrap().is_clean(), "{at}: second recovery");
        }
    }
}

/// Small logs keep each drawn image cheap to copy.
fn small_logs(backend: Backend) -> RuntimeOptions {
    let mut opts = RuntimeOptions::new(backend);
    opts.clobber_log_cap = 32 << 10;
    opts.redo_log_cap = 32 << 10;
    opts
}

/// The transfer script.
#[test]
fn seeded_draws_over_dirty_and_flushed_lines_recover_the_bank() {
    for backend in [Backend::clobber(), Backend::Undo] {
        draws_at_every_event(backend.label(), &bank_session(backend), &|rt| {
            let _ = run_script(rt, rt.app_root().unwrap());
        });
    }
}

/// `stamp(v)` fills a fresh node with `v`, stores its address into the
/// root's first word without reading it — a blind store to data older than
/// the transaction, and its first — and then sets the second word to `v`,
/// reading it first for even `v`: an odd one logs nothing, so only its
/// log's sync at the commit orders its begin. A store that reached media
/// before the begin was ordered would leave the first word naming a node
/// the second word disagrees with.
#[test]
fn seeded_draws_cover_a_blind_first_store_to_older_data() {
    let register = |rt: &Runtime| {
        rt.register("stamp", |tx, args| {
            let root = PAddr::new(args.u64(0)?);
            let v = args.u64(1)?;
            let node = tx.pmalloc(8)?;
            tx.write_u64(node, v)?;
            tx.write_paddr(root, node)?;
            let old = match v % 2 {
                0 => tx.read_u64(root.add(8))?,
                _ => 0,
            };
            tx.write_u64(root.add(8), old.max(v))?;
            Ok(None)
        });
    };
    let session = ExploreSession {
        build: Box::new(|| {
            let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
            let rt = Runtime::create(pool.clone(), small_logs(Backend::clobber())).unwrap();
            register(&rt);
            let root = pool.alloc(16).unwrap();
            pool.persist(root, 16).unwrap();
            rt.set_app_root(root).unwrap();
            rt.slot_handle(0).unwrap();
            (pool, rt)
        }),
        reopen: Box::new(|media| {
            let (pool, rt) = reopen_media(media, small_logs(Backend::clobber()));
            register(&rt);
            (pool, rt)
        }),
        check: Box::new(|pool, rt| {
            let root = rt.app_root().map_err(|e| e.to_string())?;
            let node = pool.read_u64(root).map_err(|e| e.to_string())?;
            let stamped = pool.read_u64(root.add(8)).map_err(|e| e.to_string())?;
            let named = match node {
                0 => 0,
                at => pool.read_u64(PAddr::new(at)).map_err(|e| e.to_string())?,
            };
            match named == stamped {
                true => Ok(()),
                false => Err(format!("node {node:#x} holds {named}, stamp is {stamped}")),
            }
        }),
    };
    draws_at_every_event("stamp", &session, &|rt| {
        let root = rt.app_root().unwrap();
        for v in 1..=3 {
            if rt
                .run("stamp", &ArgList::new().with_u64(root.offset()).with_u64(v))
                .is_err()
            {
                break;
            }
        }
    });
}

fn pds_value(k: u64) -> Vec<u8> {
    vec![k as u8 ^ 0x3C; 48]
}

/// One insert into each pds structure holding eight keys — the B+Tree's
/// splits a full leaf — crashed at every event under the same draws; the
/// contents must be the first eight or nine keys, every value intact.
#[test]
fn seeded_draws_cover_the_pds_inserts() {
    macro_rules! structure {
        ($ty:ident, $insert:ident, $key_of:expr) => {{
            let register = $ty::register;
            let contents = |pool: &PmemPool, rt: &Runtime| -> Result<Vec<(u64, Vec<u8>)>, String> {
                let root = rt.app_root().map_err(|e| e.to_string())?;
                let tree = $ty::open(pool, root).map_err(|e| e.to_string())?;
                let pairs = tree.dump(pool).map_err(|e| e.to_string())?;
                Ok(pairs.into_iter().map(|(k, v)| ($key_of(k), v)).collect())
            };
            let session = ExploreSession {
                build: Box::new(move || {
                    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
                    let rt = Runtime::create(pool.clone(), small_logs(Backend::clobber())).unwrap();
                    register(&rt);
                    let s = $ty::create(&rt).unwrap();
                    rt.set_app_root(s.root()).unwrap();
                    for k in 0..8 {
                        s.$insert(&rt, k, &pds_value(k)).unwrap();
                    }
                    (pool, rt)
                }),
                reopen: Box::new(move |media| {
                    let (pool, rt) = reopen_media(media, small_logs(Backend::clobber()));
                    register(&rt);
                    (pool, rt)
                }),
                check: Box::new(move |pool, rt| {
                    let mut pairs = contents(pool, rt)?;
                    pairs.sort();
                    let n = pairs.len() as u64;
                    let prefix = (0..n).map(|k| (k, pds_value(k))).collect::<Vec<_>>();
                    match (8..=9).contains(&n) && pairs == prefix {
                        true => Ok(()),
                        false => Err(format!("{} keys, not an intact prefix", n)),
                    }
                }),
            };
            draws_at_every_event(stringify!($ty), &session, &|rt| {
                let s = $ty::open(rt.pool(), rt.app_root().unwrap()).unwrap();
                let _ = s.$insert(rt, 8, &pds_value(8));
            });
        }};
    }
    structure!(HashMap, insert, std::convert::identity);
    structure!(RbTree, insert, std::convert::identity);
    structure!(SkipList, insert, std::convert::identity);
    structure!(AvlTree, insert, std::convert::identity);
    structure!(BpTree, insert_u64, |k: Vec<u8>| u64::from_be_bytes(
        k[24..32].try_into().unwrap()
    ));
}

/// A session over a region seeded with `init` as the app root, slot 0
/// created and `register` run on every runtime; `check` reads the region.
fn region_session<'a>(
    backend: Backend,
    init: &'a [u8],
    register: &'a dyn Fn(&Runtime),
    check: &'a dyn Fn(&[u8]) -> Result<(), String>,
) -> ExploreSession<'a> {
    ExploreSession {
        build: Box::new(move || {
            let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
            let rt = Runtime::create(pool.clone(), small_logs(backend)).unwrap();
            register(&rt);
            let root = pool.alloc(init.len() as u64).unwrap();
            pool.write_bytes(root, init).unwrap();
            pool.persist(root, init.len() as u64).unwrap();
            rt.set_app_root(root).unwrap();
            rt.slot_handle(0).unwrap();
            (pool, rt)
        }),
        reopen: Box::new(move |media| {
            let (pool, rt) = reopen_media(media, small_logs(backend));
            register(&rt);
            (pool, rt)
        }),
        check: Box::new(move |pool, rt| {
            let root = rt.app_root().map_err(|e| e.to_string())?;
            check(
                &pool
                    .read_bytes(root, init.len() as u64)
                    .map_err(|e| e.to_string())?,
            )
        }),
    }
}

/// Runs `name` on slot 0 over the app root with `args` appended, `runs`
/// times or until the pool dies.
fn drive_region(rt: &Runtime, name: &str, runs: &[u64]) {
    let root = rt.app_root().unwrap();
    for &v in runs {
        let args = ArgList::new().with_u64(root.offset()).with_u64(v);
        if rt.run_on(0, name, &args).is_err() {
            break;
        }
    }
}

/// Crash draws over one `TX_BATCH_SET` of `pairs` into a map holding
/// `before`: after any draw the map holds the batch whole or not at all.
fn batch_draws(label: &str, before: &[(u64, Vec<u8>)], pairs: &[(u64, Vec<u8>)]) {
    let mut after = std::collections::BTreeMap::from_iter(before.iter().cloned());
    after.extend(pairs.iter().cloned());
    let after: Vec<(u64, Vec<u8>)> = after.into_iter().collect();
    let session = ExploreSession {
        build: Box::new(|| {
            let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
            let rt = Runtime::create(pool.clone(), small_logs(Backend::clobber())).unwrap();
            HashMap::register(&rt);
            let map = HashMap::create(&rt).unwrap();
            rt.set_app_root(map.root()).unwrap();
            map.insert_batch_on(&rt, 0, before).unwrap();
            (pool, rt)
        }),
        reopen: Box::new(|media| {
            let (pool, rt) = reopen_media(media, small_logs(Backend::clobber()));
            HashMap::register(&rt);
            (pool, rt)
        }),
        check: Box::new(|pool, rt| {
            let root = rt.app_root().map_err(|e| e.to_string())?;
            let map = HashMap::open(pool, root).map_err(|e| e.to_string())?;
            let mut pairs = map.dump(pool).map_err(|e| e.to_string())?;
            pairs.sort();
            match pairs == before || pairs == after {
                true => Ok(()),
                false => Err(format!(
                    "{} keys, neither before nor after the batch",
                    pairs.len()
                )),
            }
        }),
    };
    draws_at_every_event(label, &session, &|rt| {
        let map = HashMap::open(rt.pool(), rt.app_root().unwrap()).unwrap();
        let _ = map.insert_batch_on(rt, 0, pairs);
    });
}

/// One `TX_BATCH_SET` of 16 keys over a map of eight: same-length updates
/// overwriting their values in place, a key set twice and two fresh keys
/// sharing a bucket, so later inserts walk heads and nodes that earlier
/// ones left in the deferred buffer.
#[test]
fn seeded_draws_cover_a_batch_that_reads_its_own_deferred_stores() {
    let value = |k: u64, round: u8| vec![k as u8 ^ round; 24];
    let before: Vec<(u64, Vec<u8>)> = (0..8).map(|k| (k, value(k, 0x11))).collect();
    // Equal locks of a 256-bucket map are equal buckets.
    let pool = Arc::new(PmemPool::create(PoolOptions::performance(4 << 20)).unwrap());
    let rt = Runtime::create(pool, small_logs(Backend::clobber())).unwrap();
    let buckets = HashMap::create(&rt).unwrap();
    let twin = (101..)
        .find(|&k| buckets.lock_of(k) == buckets.lock_of(100))
        .unwrap();
    let keys = [
        0, 1, 2, 100, 3, 4, twin, 5, 2, 6, 7, 200, 201, 202, 203, 204,
    ];
    let pairs: Vec<(u64, Vec<u8>)> = (0..16)
        .map(|i| (keys[i], value(keys[i], 0xA0 | i as u8)))
        .collect();
    batch_draws("batch", &before, &pairs);
}

/// Length changes mixed with in-place updates in one batch: key 0 grows
/// into a fresh buffer, is overwritten there at its new length and then
/// shrinks into another; key 1 is overwritten in place and then grows.
/// Each branch is taken on a `val_len` the crashed run either left alone
/// or logged, so a replay takes the same branches.
#[test]
fn seeded_draws_cover_a_batch_that_resizes_values() {
    let before: Vec<(u64, Vec<u8>)> = (0..4).map(|k| (k, vec![k as u8; 24])).collect();
    let pairs: Vec<(u64, Vec<u8>)> = [(0, 40), (1, 24), (2, 24), (0, 40), (3, 8), (1, 48), (0, 8)]
        .iter()
        .enumerate()
        .map(|(i, &(k, len))| (k, vec![0xA0 | i as u8; len]))
        .collect();
    batch_draws("resize", &before, &pairs);
}

/// Under the conservative variant `twice` clobbers one word twice, reading
/// it back in between: its second pre-image is the first store's deferred
/// value, and the log holds exactly what a store-by-store run would have.
#[test]
fn seeded_draws_cover_a_conservative_second_clobber() {
    let register = |rt: &Runtime| {
        rt.register("twice", |tx, args| {
            let cell = PAddr::new(args.u64(0)?);
            let v = tx.read_u64(cell)?;
            tx.write_u64(cell, v + 1)?;
            let w = tx.read_u64(cell)?;
            tx.write_u64(cell, 3 * w)?;
            Ok(None)
        });
    };
    let check = |cell: &[u8]| match u64::from_le_bytes(cell.try_into().unwrap()) {
        5 | 18 | 57 => Ok(()),
        v => Err(format!("cell holds {v}, not 5, 18 or 57")),
    };
    let init = 5u64.to_le_bytes();
    let session = region_session(Backend::clobber_conservative(), &init, &register, &check);

    let (pool, rt) = (session.build)();
    drive_region(&rt, "twice", &[0]);
    let cell = rt.app_root().unwrap();
    let log = rt.slot_handle(0).unwrap().clobber_log(&pool).unwrap();
    let pre_images = [5u64, 6].map(|v| (cell, v.to_le_bytes().to_vec()));
    assert_eq!(log.entries(&pool).unwrap(), pre_images, "second pre-image");

    draws_at_every_event("twice", &session, &|rt| drive_region(rt, "twice", &[0, 0]));
}

const BLOCK: usize = 400;
const FILL_INIT: [u8; 4 * BLOCK] = [0; 4 * BLOCK];

/// `fill` rewrites four 400-byte blocks it read first. The third does not
/// fit the deferred-store buffer beside the first two, so the log syncs
/// mid-transaction; the fourth waits for the commit.
fn register_fill(rt: &Runtime) {
    rt.register("fill", |tx, args| {
        let root = PAddr::new(args.u64(0)?);
        let v = args.u64(1)? as u8;
        let mut block = [0u8; BLOCK];
        for b in 0..4 {
            let at = root.add((b * BLOCK) as u64);
            tx.read_into(at, &mut block)?;
            tx.write_bytes(at, &[v ^ block[0]; BLOCK])?;
        }
        Ok(None)
    });
}

/// Every byte holds one run's value.
fn check_fill(region: &[u8]) -> Result<(), String> {
    match region.iter().all(|&b| b == region[0]) {
        true => Ok(()),
        false => Err("the blocks disagree".to_string()),
    }
}

/// `fill`, crashed at every event with seeded draws.
#[test]
fn seeded_draws_cover_deferred_stores_that_overflow_the_buffer() {
    let session = region_session(Backend::clobber(), &FILL_INIT, &register_fill, &check_fill);
    draws_at_every_event("fill", &session, &|rt| drive_region(rt, "fill", &[1, 2]));
}

/// `fill` through the crash battery at every `stride`-th event, with a
/// nested crash at every recovery event: its replay overflows the buffer
/// too and syncs mid-replay, so a nested crash lands before, between and
/// after the replay's two syncs.
fn sweep_overflowing_replay(stride: u64) {
    let session = region_session(Backend::clobber(), &FILL_INIT, &register_fill, &check_fill);
    let battery = CrashBattery {
        session: &session,
        drive: &|rt| drive_region(rt, "fill", &[1, 2]),
        nested: Nested::Exhaustive,
    };
    let s = battery
        .sweep(stride, u64::MAX, |_| {})
        .unwrap_or_else(|v| panic!("{v}"));
    assert!(s.reexecuted > 0 && s.nested_points > 0, "{s:?}");
    assert_eq!(s.not_tripped, 0, "{s:?}");
}

#[test]
fn nested_crashes_inside_an_overflowing_replay() {
    sweep_overflowing_replay(2);
}

#[test]
#[ignore = "every outer event; run with --ignored"]
fn nested_crashes_inside_an_overflowing_replay_at_every_event() {
    sweep_overflowing_replay(1);
}

/// A read the deferred buffer serves, in whole or in part, counts one
/// interposed read, priced like Redo's; a read it does not serve counts
/// none.
#[test]
fn reads_the_deferred_buffer_serves_are_interposed() {
    for backend in [Backend::clobber(), Backend::clobber_conservative()] {
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        let cells = pool.alloc(24).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        rt.register("probe", move |tx, args| {
            let interposed =
                |tx: &clobber_nvm::Tx<'_>| tx.pool().stats().snapshot().interposed_reads;
            let base = PAddr::new(args.u64(0)?);
            let v = tx.read_u64(base)?;
            tx.write_u64(base, v + 7)?; // clobbers an input: deferred
            let mut counts = Vec::new();
            let mut pair = [0u8; 16];
            for read in 0..3 {
                let before = interposed(tx);
                match read {
                    0 => assert_eq!(tx.read_u64(base)?, v + 7, "whole"),
                    1 => tx.read_into(base, &mut pair)?, // in part
                    _ => assert_eq!(tx.read_u64(base.add(16))?, 0, "none"),
                }
                counts.push(interposed(tx) - before);
            }
            assert_eq!(pair[..8], (v + 7).to_le_bytes());
            log.lock().unwrap().push(counts);
            Ok(None)
        });
        rt.run("probe", &ArgList::new().with_u64(cells.offset()))
            .unwrap();
        assert_eq!(*seen.lock().unwrap(), [[1, 1, 0]], "{}", backend.label());
        assert_eq!(pool.read_u64(cells).unwrap(), 7);
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
