//! Counter-preservation regression: fixed-seed fig6/fig9-style runs must
//! produce bit-identical `StatsSnapshot`s on every run and with a
//! count-only fault plan armed, and the pinned counts must hold exactly.
//!
//! Every flush/fence/log accounting decision of the CrashSim substrate —
//! and the seeded crash's per-line survival draws — is part of its
//! contract. If these assertions fail, the substrate's behaviour (not just
//! its speed) changed and every recorded experiment in EXPERIMENTS.md is
//! invalidated.

use std::sync::Arc;

use clobber_apps::{KvServer, LockScheme};
use clobber_kvnet::{
    serve, Admission, AdmissionConfig, KvService, ServeConfig, SimNet, SimNetConfig,
};
use clobber_nvm::{ArgList, Backend, LockRequest, RecoveryOptions, Runtime, RuntimeOptions};
use clobber_pds::HashMap;
use clobber_pmem::{CrashConfig, FaultPlan, PAddr, PmemPool, PoolMode, PoolOptions, StatsSnapshot};
use clobber_workloads::{KvOp, Mix, Workload, WorkloadKind};

const OPS: u64 = 400;
const VALUE_SIZE: usize = 256;
const WORKLOAD_SEED: u64 = 42;
const CRASH_SEED: u64 = 7;

fn pool() -> Arc<PmemPool> {
    Arc::new(PmemPool::create(PoolOptions::crash_sim(64 << 20)).unwrap())
}

/// YCSB-Load into the hashmap on `pool`, optionally with a count-only
/// fault plan armed for the whole load (the injector must observe without
/// perturbing), then a seeded crash, recovery, and a full dump: returns the
/// pre-crash counters and the recovered contents.
fn hashmap_load(
    pool: Arc<PmemPool>,
    backend: Backend,
    armed: bool,
) -> (StatsSnapshot, Vec<(u64, Vec<u8>)>) {
    if armed {
        pool.arm_faults(FaultPlan::count_only());
    }
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
    HashMap::register(&rt);
    let map = HashMap::create(&rt).unwrap();
    for op in Workload::new(WorkloadKind::Load, OPS, VALUE_SIZE, WORKLOAD_SEED) {
        if let KvOp::Insert { key, value } = op {
            map.insert(&rt, key, &value).unwrap();
        }
    }
    let snap = pool.stats().snapshot();
    let crashed = Arc::new(pool.crash(&CrashConfig::with_seed(CRASH_SEED)).unwrap());
    let rt2 = Runtime::open(crashed.clone(), RuntimeOptions::new(backend)).unwrap();
    HashMap::register(&rt2);
    rt2.recover().unwrap();
    let mut pairs = HashMap::open(&crashed, map.root())
        .unwrap()
        .dump(&crashed)
        .unwrap();
    pairs.sort();
    (snap, pairs)
}

/// A count-only fault plan armed for the whole run must not perturb a
/// single persistence counter: the injector observes, never interferes.
#[test]
fn armed_count_only_plan_leaves_counters_untouched() {
    let backend = Backend::clobber();
    let (plain, plain_pairs) = hashmap_load(pool(), backend, false);
    let (armed, armed_pairs) = hashmap_load(pool(), backend, true);
    let mut masked = armed;
    assert_eq!(masked.faults_armed, 1);
    assert_eq!(masked.faults_tripped, 0);
    assert_eq!(masked.fault_retries, 0);
    masked.faults_armed = 0;
    assert_eq!(masked, plain, "armed-but-idle injector perturbed counters");
    assert_eq!(armed_pairs, plain_pairs);
}

/// A second run must reproduce the first run's counters and recovered
/// contents bit-for-bit on the same fixed workload.
#[test]
fn hashmap_load_counters_identical_across_runs() {
    for backend in [Backend::clobber(), Backend::Undo, Backend::Redo] {
        let (one, one_pairs) = hashmap_load(pool(), backend, false);
        assert_eq!(
            (one.faults_armed, one.faults_tripped, one.fault_retries),
            (0, 0, 0),
            "no fault activity in a plain run under {}",
            backend.label()
        );
        let (snap, pairs) = hashmap_load(pool(), backend, false);
        assert_eq!(snap, one, "counters diverged under {}", backend.label());
        assert_eq!(
            pairs,
            one_pairs,
            "recovered contents diverged under {}",
            backend.label()
        );
    }
}

/// Per-log-kind attribution pins: the same fixed load must attribute
/// clobber-log, redo-log, and v_log persistence traffic to the right
/// counters (the bit-identical `StatsSnapshot` equality above already
/// guarantees reruns agree; this pins the *shape* those counters must have
/// so a silent mis-attribution can't hide inside an equality that holds
/// vacuously).
#[test]
fn per_kind_log_counters_attribute_by_backend() {
    let (clobber, _) = hashmap_load(pool(), Backend::clobber(), false);
    assert!(
        clobber.clog_flushes > 0 && clobber.clog_fences > 0,
        "clobber load must sync the clobber log: {clobber:?}"
    );
    assert_eq!(
        (clobber.rlog_flushes, clobber.rlog_fences),
        (0, 0),
        "clobber backend must not touch the redo log"
    );
    assert!(
        clobber.vlog_flushes > 0 && clobber.vlog_fences == 0,
        "begin records are v_log traffic, ordered by the \
         clobber log's syncs: {clobber:?}"
    );
    // No fence coalescer: the group-commit counters are always 0.
    assert_eq!((clobber.gc_epochs, clobber.gc_fences_saved), (0, 0));

    let (redo, _) = hashmap_load(pool(), Backend::Redo, false);
    assert!(
        redo.rlog_flushes > 0 && redo.rlog_fences > 0,
        "redo load must sync the redo log: {redo:?}"
    );
    assert_eq!(
        (redo.clog_flushes, redo.clog_fences),
        (0, 0),
        "redo backend must not touch the clobber log"
    );
}

/// Golden allocator-counter pins: a fixed alloc/free/reserve/publish/cancel
/// sequence must attribute exactly these counts. `alloc_freelist`/`alloc_frontier` split where each block
/// came from; every reserve is one locked pop, so `magazine_hits` has no
/// writer and stays 0.
#[test]
fn allocator_counters_pin() {
    let pool = pool();
    let before = pool.stats().snapshot();
    let a = pool.alloc(64).unwrap(); // frontier
    let b = pool.alloc(64).unwrap(); // frontier
    pool.free(a).unwrap();
    pool.free(b).unwrap();
    let r1 = pool.reserve(64).unwrap(); // free list
    let r2 = pool.reserve(64).unwrap(); // free list
    let r3 = pool.reserve(64).unwrap(); // frontier (lists drained)
    pool.publish(&[r1, r2]).unwrap();
    pool.fence();
    pool.cancel(&[r3]).unwrap();
    let d = pool.stats().snapshot().delta(&before);
    assert_eq!(
        (d.allocs, d.frees, d.reserves, d.publishes, d.cancels),
        (5, 2, 3, 1, 1),
        "{d:?}"
    );
    assert_eq!(
        (d.alloc_freelist, d.alloc_frontier, d.magazine_hits),
        (2, 3, 0),
        "{d:?}"
    );
    // Pops hand out the freed blocks, newest first.
    assert_eq!(r1, b, "LIFO pop order");
    assert_eq!(r2, a, "LIFO pop order");
}

/// Cells mutated by the `rec_chain` txfunc in the recovery pins below.
const REC_CELLS: u64 = 3;
/// The persist event of a clean `rec_chain` recovery a crash interrupts.
const REC_RESTART_AT: u64 = 18;

fn register_rec_chain(rt: &Runtime) {
    rt.register("rec_chain", move |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        for i in 0..REC_CELLS {
            let cell = base.add(8 * i);
            let v = tx.read_u64(cell)?;
            tx.write_u64(cell, v + i + 1)?;
        }
        Ok(None)
    });
}

/// A `rec_chain` run crashed at its last persist event — the fence that
/// would clear its status word — as an adversarial crash image.
fn interrupted_chain_image() -> Vec<u8> {
    let run = |plan: FaultPlan| {
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
        let base = pool.alloc(8 * REC_CELLS).unwrap();
        for i in 0..REC_CELLS {
            pool.write_u64(base.add(8 * i), 100 + i).unwrap();
        }
        pool.persist(base, 8 * REC_CELLS).unwrap();
        rt.set_app_root(base).unwrap();
        register_rec_chain(&rt);
        pool.arm_faults(plan);
        let _ = rt.run("rec_chain", &ArgList::new().with_u64(base.offset()));
        pool
    };
    let events = run(FaultPlan::count_only()).disarm_faults();
    let pool = run(FaultPlan::crash_at(events - 1));
    assert_eq!(pool.fault_tripped(), Some(events - 1));
    pool.crash_media(&CrashConfig::drop_all(9))
}

fn reopen_rec(image: Vec<u8>) -> (Arc<PmemPool>, Runtime) {
    let pool = Arc::new(PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap());
    let rt = Runtime::open(pool.clone(), RuntimeOptions::default()).unwrap();
    register_rec_chain(&rt);
    (pool, rt)
}

/// Golden recovery-observability pins: the same fixed interrupted
/// transaction — recovered cleanly, and restarted after a crash *inside*
/// recovery — must attribute exactly these `rec_*` counts and fences.
#[test]
fn recovery_counters_pin() {
    let no_wait = RecoveryOptions::default().no_wait();
    let rec_cells = |pool: &PmemPool, rt: &Runtime| {
        let base = rt.app_root().unwrap();
        (0..REC_CELLS)
            .map(|i| pool.read_u64(base.add(8 * i)).unwrap())
            .collect::<Vec<_>>()
    };
    let committed: Vec<u64> = (0..REC_CELLS).map(|i| 100 + 2 * i + 1).collect();
    let image = interrupted_chain_image();

    // A clean scan: one slot, one re-execution. Its fences: the
    // rollback's, the truncation's, the replay's one log sync, its
    // commit's and the status clear's.
    let (pool, rt) = reopen_rec(image.clone());
    let before = pool.stats().snapshot();
    rt.recover_with(&no_wait).unwrap();
    let s = pool.stats().snapshot().delta(&before);
    assert_eq!(
        (
            s.rec_slots_scanned,
            s.rec_reexecuted,
            s.fences,
            s.clog_fences,
            s.vlog_fences,
        ),
        (1, 1, 5, 1, 0),
        "clean scan: {s:?}"
    );
    assert_eq!(rec_cells(&pool, &rt), committed);

    // Crash that scan at a fixed persist event, after the replay's log
    // sync and its first deferred store: the next scan rolls back and
    // re-runs the chain from the top, once.
    let (pool_c, rt_c) = reopen_rec(image);
    pool_c.arm_faults(FaultPlan::crash_at(REC_RESTART_AT));
    let _ = rt_c.recover_with(&no_wait);
    assert_eq!(pool_c.fault_tripped(), Some(REC_RESTART_AT));
    let crashed = pool_c.crash_media(&CrashConfig::drop_all(0xEC));
    let (pool_r, rt_r) = reopen_rec(crashed);
    let report = rt_r.recover_with(&no_wait).unwrap();
    let r = pool_r.stats().snapshot();
    assert_eq!(
        (r.rec_slots_scanned, r.rec_reexecuted),
        (1, 1),
        "restarted scan: {r:?}"
    );
    assert_eq!(report.clobber_entries_applied, REC_CELLS, "{report:?}");
    assert_eq!(rec_cells(&pool_r, &rt_r), committed);
}

/// Golden lock-manager pins: a fixed sequence of locked transactions,
/// multi-lock sets, shared holds and one contended acquire must attribute
/// exactly these `lock_*` counts. Counter contract:
/// `lock_acquisitions` is per granted *set*, `lock_read_holds` /
/// `lock_write_holds` per individual lock by mode, and `lock_waits` per
/// acquire that actually queued (one here: a second thread waits for a
/// lock the main thread holds).
#[test]
fn lock_counters_pin() {
    let pool = pool();
    let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
    HashMap::register(&rt);
    let map = HashMap::create(&rt).unwrap();
    let before = pool.stats().snapshot();

    // One locked transaction through the runtime (acq 1, wh 1).
    map.insert_sync(&rt, 1, b"pinned").unwrap();
    // A multi-lock exclusive set (acq 2, wh 3).
    drop(rt.locks().acquire(
        &pool,
        &[LockRequest::exclusive(100), LockRequest::exclusive(101)],
    ));
    // Two shared holders of one lock.
    let a = rt.locks().acquire(&pool, &[LockRequest::shared(7)]); // acq 3, rh 1
    let b = rt.locks().acquire(&pool, &[LockRequest::shared(7)]); // acq 4, rh 2
    drop(b);
    drop(a);
    // A contended acquire: a second thread queues for a held lock and is
    // granted by its release (acq 5, wh 4; then acq 6, wh 5, wait 1).
    let h = rt.locks().acquire(&pool, &[LockRequest::exclusive(9)]);
    std::thread::scope(|s| {
        s.spawn(|| drop(rt.locks().acquire(&pool, &[LockRequest::exclusive(9)])));
        while rt.locks().queued() != 1 {
            std::thread::yield_now();
        }
        drop(h);
    });

    let d = pool.stats().snapshot().delta(&before);
    assert_eq!(
        (
            d.lock_acquisitions,
            d.lock_read_holds,
            d.lock_write_holds,
            d.lock_waits,
        ),
        (6, 2, 5, 1),
        "{d:?}"
    );
    assert!(rt.locks().is_idle(), "guards all released");
}

/// Golden service-counter pins: a fixed simulated client population under
/// deliberately tight admission caps must attribute exactly these `net_*`
/// counts. Counter contract: `net_accepted`
/// is per admitted request (a shed request re-admits when its resubmission
/// succeeds, so accepted > completed is impossible but accepted ==
/// completed + still-inflight is), `net_shed` per typed `Overloaded`
/// refusal, and every accepted request lands in exactly one of
/// `net_batched` (writes, batched into ONE locked transaction per drain)
/// or `net_snapshot_reads` (reads off the volatile cache, no transaction).
#[test]
fn net_counters_pin() {
    let pool = pool();
    let rt = Arc::new(Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap());
    let server = KvServer::create(&rt, LockScheme::BucketRw).unwrap();
    let mut svc = KvService::new(rt, server);
    let mut adm = Admission::new(AdmissionConfig {
        per_conn_window: 1,
        global_cap: 2,
    });
    let cfg = SimNetConfig {
        clients: 4,
        requests_per_client: 4,
        key_space: 32,
        seed: 5,
        mix: Mix::InsertMost,
        zipf_theta: Some(0.9),
        window: 1,
        think_ns: 500,
        shed_backoff_ns: 20_000,
    };
    let before = pool.stats().snapshot();
    let mut net = SimNet::new(&cfg).with_window(1);
    serve(
        &mut svc,
        &mut adm,
        &mut net,
        &ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let d = pool.stats().snapshot().delta(&before);
    assert_eq!(
        (
            d.net_accepted,
            d.net_shed,
            d.net_batched,
            d.net_snapshot_reads
        ),
        (16, 1, 9, 7),
        "{d:?}"
    );
    // Accounting closes: accepted requests split exactly between the
    // batched-write and snapshot-read paths, and all 16 completed.
    assert_eq!(d.net_accepted, d.net_batched + d.net_snapshot_reads);
    let report = net.report();
    assert_eq!((report.completed, report.shed), (16, 1), "{report:?}");
}

/// One `TX_BATCH_SET` of 16 keys over 4 096 preloaded keys — the
/// batch-sized, scattered read set the KV service's drain produces (12
/// updates walking their chains, 4 fresh prepends). Clobber detection is
/// set algebra over that read set, so any change to the access-set
/// representation that altered a single to-log range would move these
/// counts. Values taken on the sorted-`Vec` implementation (PR 11); flushes
/// and fences moved when the 12 deferred frees stopped costing a redo
/// record each (4 flushes, 2 fences) and became one `free_many`, and again
/// when its second fence went: its unfenced hints now carry the frontier
/// the settle before it left (one flush more, one fence less). The clobber
/// rows lost two fences more when the begin stopped paying its own, and
/// then one per entry but one when the clobbering stores started waiting
/// for the commit: its one log sync orders the begin and every entry, and
/// the stores reach the pool after it — four fences (sync, settle, clear,
/// `free_many`), and each line the stores share written back once. Every
/// row's reads fell by 161 when a chain hop became one `(key, next)` load
/// and a match one `(val_ptr, val_len)` load; the bytes read as inputs, and
/// so every log, flush and fence count, did not move. The clobber rows'
/// flushes rose by two when the begin record became v_log entry lines:
/// seven payload words a line instead of eight, and the v_log header. Then
/// the 12 updates, all of the preloaded length, began overwriting their
/// values in place: no reservation, no free, no clobbered `val_ptr`. The
/// clobber rows log only the prepends' bucket heads, every row lost the
/// `free_many` fence and its 12 header reads. Undo, which snapshots a fresh
/// buffer's bytes too, snapshots the old bytes instead and no longer the
/// two value words. Every row's flushes fell (clobber 77 → 62, undo
/// 137 → 117) when heap payloads began on a cache line: a 64-byte value
/// is one line to flush instead of two. The logs' flushes did not move.
#[test]
fn batch_set_counters_pin() {
    for (backend, expect) in [
        (Backend::clobber(), (3, 24, 62, 3, 209)),
        (Backend::clobber_conservative(), (4, 32, 62, 3, 210)),
        (Backend::Undo, (35, 1176, 117, 38, 241)),
    ] {
        let pool = pool();
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        HashMap::register(&rt);
        let map = HashMap::create(&rt).unwrap();
        for key in 0..4096u64 {
            map.insert(&rt, key, &[key as u8; 64]).unwrap();
        }
        // Two of the fresh keys share a bucket: the second prepend re-reads
        // a head this transaction already wrote, which only the
        // conservative variant treats as a clobber.
        let twin = (4097..)
            .find(|&k| map.lock_of(k) == map.lock_of(4096))
            .unwrap();
        let fresh = [4096, twin, 5000, 5001];
        let pairs: Vec<(u64, Vec<u8>)> = (0..16u64)
            .map(|i| {
                let key = if i % 4 == 3 {
                    fresh[i as usize / 4]
                } else {
                    (i * 257) % 4096
                };
                (key, vec![0xB0 | i as u8; 64])
            })
            .collect();
        let before = pool.stats().snapshot();
        map.insert_batch_on(&rt, 0, &pairs).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(
            (d.log_entries, d.log_bytes, d.flushes, d.fences, d.reads),
            expect,
            "{}: {d:?}",
            backend.label()
        );
        // The 12 updates keep their value buffers, so no deferred free
        // follows the commit with a fence of its own.
        assert_eq!(d.frees, 0);
        for (key, value) in &pairs {
            assert_eq!(map.get(&rt, *key).unwrap().as_ref(), Some(value));
        }
    }
}

/// One `TX_BATCH_SET` of 16 same-length updates, at a value size whose 16
/// in-place stores fill the transaction's store buffer exactly (64 B × 16
/// = 1 024 B) and at two that overflow it. An overflow moves the one log
/// sync earlier and the stores after it go straight to the pool, so every
/// size costs the same three fences (sync, settle, clear) and logs,
/// reserves and frees nothing; only the write-back grows with the bytes.
/// The 64- and 128-byte rows lost one flush per value (60 → 44, 94 → 78)
/// when heap payloads began on a cache line; a 72-byte value spans two
/// lines either way.
#[test]
fn batch_set_store_buffer_overflow_pin() {
    for (size, flushes) in [(64usize, 44), (72, 62), (128, 78)] {
        let pool = pool();
        let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
        HashMap::register(&rt);
        let map = HashMap::create(&rt).unwrap();
        for key in 0..4096u64 {
            map.insert(&rt, key, &vec![key as u8; size]).unwrap();
        }
        let pairs: Vec<(u64, Vec<u8>)> = (0..16u64)
            .map(|i| ((i * 257) % 4096, vec![0xB0 | i as u8; size]))
            .collect();
        let before = pool.stats().snapshot();
        map.insert_batch_on(&rt, 0, &pairs).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(
            (d.fences, d.log_bytes, d.reserves, d.frees, d.flushes),
            (3, 0, 0, 0, flushes),
            "{size}-byte values: {d:?}"
        );
        for (key, value) in &pairs {
            assert_eq!(map.get(&rt, *key).unwrap().as_ref(), Some(value));
        }
    }
}
