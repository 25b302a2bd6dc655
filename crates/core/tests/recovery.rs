//! End-to-end crash/recovery tests.
//!
//! Methodology: a txfunc is instrumented (outside persistent state) to
//! capture a *crash image* of the pool — `PmemPool::crash` with an
//! adversarial policy — after its k-th persistent write. The image is then
//! reopened with a fresh runtime, txfuncs are re-registered, and
//! `Runtime::recover` runs. This simulates a power failure at every
//! interesting instant of the transaction. A clobber transaction's stores
//! wait for its commit's log sync, so such an image never holds a clobber
//! begin; tests that need one crash at a persist event of the commit.

mod common;

use std::sync::{Arc, Mutex};

use clobber_nvm::{
    ArgList, Backend, RecoveryOptions, RecoveryReport, Runtime, RuntimeOptions, TxError, VlogSlot,
};
use clobber_pmem::{
    CrashConfig, FaultPlan, PAddr, PmemError, PmemPool, PoolMode, PoolOptions, Ulog,
};

/// Captures a crash image after a configured number of tx writes.
#[derive(Clone)]
struct CrashTrap {
    inner: Arc<Mutex<TrapState>>,
}

struct TrapState {
    /// Writes remaining before the trap fires; `None` disarms it.
    countdown: Option<u32>,
    image: Option<Vec<u8>>,
    seed: u64,
}

impl CrashTrap {
    fn armed(after_writes: u32, seed: u64) -> CrashTrap {
        CrashTrap {
            inner: Arc::new(Mutex::new(TrapState {
                countdown: Some(after_writes),
                image: None,
                seed,
            })),
        }
    }

    fn disarmed(seed: u64) -> CrashTrap {
        CrashTrap {
            inner: Arc::new(Mutex::new(TrapState {
                countdown: None,
                image: None,
                seed,
            })),
        }
    }

    fn arm(&self, after_writes: u32) {
        self.inner.lock().unwrap().countdown = Some(after_writes);
    }

    /// Called by the txfunc after each persistent write.
    fn tick(&self, pool: &PmemPool) {
        let mut st = self.inner.lock().unwrap();
        if let Some(n) = st.countdown {
            if n == 0 {
                st.image = Some(pool.crash_media(&CrashConfig::drop_all(st.seed)));
                st.countdown = None;
            } else {
                st.countdown = Some(n - 1);
            }
        }
    }

    fn take_image(&self) -> Option<Vec<u8>> {
        self.inner.lock().unwrap().image.take()
    }
}

/// A persistent stack: root -> head pointer; node = [next: u64][len: u64][bytes].
/// `push` clobbers exactly one input (the head pointer), mirroring the
/// paper's Fig. 2 list-insert example.
fn register_stack(rt: &Runtime, trap: Option<CrashTrap>) {
    let pool = rt.pool().clone();
    rt.register("push", move |tx, args| {
        let head_cell = PAddr::new(args.u64(0)?);
        let payload = args.bytes(1)?.to_vec();
        let node = tx.pmalloc(16 + payload.len() as u64)?;
        tx.write_u64(node.add(8), payload.len() as u64)?;
        if let Some(t) = &trap {
            t.tick(&pool);
        }
        tx.write_bytes(node.add(16), &payload)?;
        if let Some(t) = &trap {
            t.tick(&pool);
        }
        let old_head = tx.read_u64(head_cell)?;
        tx.write_u64(node, old_head)?;
        if let Some(t) = &trap {
            t.tick(&pool);
        }
        // Clobber write: head_cell is a transaction input being overwritten.
        tx.write_u64(head_cell, node.offset())?;
        if let Some(t) = &trap {
            t.tick(&pool);
        }
        Ok(None)
    });
}

fn stack_contents(pool: &PmemPool, head_cell: PAddr) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut cur = pool.read_u64(head_cell).unwrap();
    while cur != 0 {
        let len = pool.read_u64(PAddr::new(cur + 8)).unwrap();
        out.push(pool.read_bytes(PAddr::new(cur + 16), len).unwrap());
        cur = pool.read_u64(PAddr::new(cur)).unwrap();
    }
    out
}

fn new_runtime(backend: Backend) -> (Arc<PmemPool>, Runtime, PAddr) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(8 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
    let head_cell = pool.alloc(8).unwrap();
    pool.persist(head_cell, 8).unwrap();
    rt.set_app_root(head_cell).unwrap();
    (pool, rt, head_cell)
}

fn reopen(image: Vec<u8>, backend: Backend) -> (Arc<PmemPool>, Runtime, PAddr) {
    let pool = Arc::new(PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap());
    let rt = Runtime::open(pool.clone(), RuntimeOptions::new(backend)).unwrap();
    register_stack(&rt, None);
    let head_cell = rt.app_root().unwrap();
    (pool, rt, head_cell)
}

fn push_args(head: PAddr, payload: &[u8]) -> ArgList {
    ArgList::new().with_u64(head.offset()).with_bytes(payload)
}

/// A clobber runtime whose stack holds one committed push; `run` pushes
/// `b"interrupted"` on it.
fn stack_with_one_push() -> (Arc<PmemPool>, (Runtime, PAddr)) {
    let (pool, rt, head) = new_runtime(Backend::clobber());
    register_stack(&rt, None);
    rt.run("push", &push_args(head, b"committed")).unwrap();
    (pool, (rt, head))
}

fn push_interrupted((rt, head): &(Runtime, PAddr)) {
    let _ = rt.run("push", &push_args(*head, b"interrupted"));
}

/// Persist events `run` issues on a world `build` makes fresh.
fn count_events<W>(build: &impl Fn() -> (Arc<PmemPool>, W), run: &impl Fn(&W)) -> u64 {
    let (pool, world) = build();
    pool.arm_faults(FaultPlan::count_only());
    run(&world);
    pool.disarm_faults()
}

/// The image an adversarial power failure at persist event `k` of `run`
/// leaves, on a world `build` makes fresh.
fn crash_image<W>(build: &impl Fn() -> (Arc<PmemPool>, W), run: &impl Fn(&W), k: u64) -> Vec<u8> {
    let (pool, world) = build();
    pool.arm_faults(FaultPlan::crash_at(k));
    run(&world);
    assert_eq!(pool.fault_tripped(), Some(k));
    pool.crash_media(&CrashConfig::drop_all(k))
}

#[test]
fn committed_pushes_survive_adversarial_crash() {
    for backend in [
        Backend::clobber(),
        Backend::Undo,
        Backend::Redo,
        Backend::Atlas,
    ] {
        let (pool, rt, head) = new_runtime(backend);
        register_stack(&rt, None);
        for i in 0..5u64 {
            let args = ArgList::new()
                .with_u64(head.offset())
                .with_bytes(format!("value-{i}").as_bytes());
            rt.run("push", &args).unwrap();
        }
        let crashed = pool.crash(&CrashConfig::drop_all(7)).unwrap();
        let (pool2, rt2, head2) = reopen(crashed.media_snapshot(), backend);
        let report = rt2.recover().unwrap();
        assert!(report.is_clean(), "{}: {report:?}", backend.label());
        let vals = stack_contents(&pool2, head2);
        assert_eq!(vals.len(), 5, "backend {}", backend.label());
        assert_eq!(
            vals[0],
            b"value-4",
            "LIFO order, backend {}",
            backend.label()
        );
    }
}

#[test]
fn clobber_reexecutes_interrupted_push_at_every_crash_point() {
    // A crash at each persist event of the interrupted push. Until its
    // commit's log sync nothing it did is durable and the push never
    // happened; from then on its begin and the head's pre-image are, and
    // recovery completes it, through the fence that clears the status word.
    let events = count_events(&stack_with_one_push, &push_interrupted);
    let mut begun = false;
    for k in 0..events {
        let image = crash_image(&stack_with_one_push, &push_interrupted, k);
        let (pool2, rt2, head2) = reopen(image, Backend::clobber());
        let report = rt2.recover().unwrap();
        assert!(
            report.reexecuted.len() == 1 || !begun,
            "crash point {k}/{events}: expected a re-execution"
        );
        begun = report.reexecuted == ["push"];
        let mut expected = vec![b"committed".to_vec()];
        if begun {
            expected.insert(0, b"interrupted".to_vec());
        }
        assert_eq!(
            stack_contents(&pool2, head2),
            expected,
            "the interrupted push happened whole or not at all (crash point {k}/{events})"
        );
    }
    assert!(begun, "the last crash point re-executes");
}

#[test]
fn undo_rolls_back_interrupted_push_at_every_crash_point() {
    for crash_at in 0..4u32 {
        let (_pool, rt, head) = new_runtime(Backend::Undo);
        let trap = CrashTrap::disarmed(2000 + crash_at as u64);
        register_stack(&rt, Some(trap.clone()));
        rt.run(
            "push",
            &ArgList::new()
                .with_u64(head.offset())
                .with_bytes(b"committed"),
        )
        .unwrap();
        trap.arm(crash_at);
        rt.run(
            "push",
            &ArgList::new()
                .with_u64(head.offset())
                .with_bytes(b"interrupted"),
        )
        .unwrap();
        let image = trap.take_image().expect("trap fired");
        let (pool2, rt2, head2) = reopen(image, Backend::Undo);
        let report = rt2.recover().unwrap();
        assert_eq!(report.rolled_back, 1, "crash point {crash_at}");
        let vals = stack_contents(&pool2, head2);
        assert_eq!(
            vals,
            vec![b"committed".to_vec()],
            "rollback erased the interrupted push (crash point {crash_at})"
        );
    }
}

#[test]
fn redo_discards_uncommitted_push() {
    for crash_at in 0..4u32 {
        let (_pool, rt, head) = new_runtime(Backend::Redo);
        let trap = CrashTrap::disarmed(3000 + crash_at as u64);
        register_stack(&rt, Some(trap.clone()));
        rt.run(
            "push",
            &ArgList::new()
                .with_u64(head.offset())
                .with_bytes(b"committed"),
        )
        .unwrap();
        trap.arm(crash_at);
        rt.run(
            "push",
            &ArgList::new()
                .with_u64(head.offset())
                .with_bytes(b"interrupted"),
        )
        .unwrap();
        let image = trap.take_image().expect("trap fired");
        let (pool2, rt2, head2) = reopen(image, Backend::Redo);
        rt2.recover().unwrap();
        let vals = stack_contents(&pool2, head2);
        assert_eq!(vals, vec![b"committed".to_vec()], "crash point {crash_at}");
    }
}

#[test]
fn atlas_rolls_back_interrupted_push() {
    let (_pool, rt, head) = new_runtime(Backend::Atlas);
    let trap = CrashTrap::armed(3, 4000);
    register_stack(&rt, Some(trap.clone()));
    rt.run(
        "push",
        &ArgList::new()
            .with_u64(head.offset())
            .with_bytes(b"interrupted"),
    )
    .unwrap();
    let image = trap.take_image().expect("trap fired");
    let (pool2, rt2, head2) = reopen(image, Backend::Atlas);
    let report = rt2.recover().unwrap();
    assert_eq!(report.rolled_back, 1);
    assert!(stack_contents(&pool2, head2).is_empty());
}

/// Transactions maintain "both cells always equal" — the classic atomicity
/// invariant — under crashes at every write for every failure-atomic
/// backend.
#[test]
fn paired_cells_stay_equal_across_crashes() {
    for backend in [
        Backend::clobber(),
        Backend::Undo,
        Backend::Redo,
        Backend::Atlas,
    ] {
        for crash_at in 0..2u32 {
            let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap());
            let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
            let cells = pool.alloc(16).unwrap();
            pool.persist(cells, 16).unwrap();
            rt.set_app_root(cells).unwrap();
            let trap = CrashTrap::disarmed(5000 + crash_at as u64);
            let register = |rt: &Runtime, trap: Option<CrashTrap>| {
                let p = rt.pool().clone();
                rt.register("bump_pair", move |tx, args| {
                    let base = PAddr::new(args.u64(0)?);
                    let v = tx.read_u64(base)?;
                    tx.write_u64(base, v + 1)?;
                    if let Some(t) = &trap {
                        t.tick(&p);
                    }
                    tx.write_u64(base.add(8), v + 1)?;
                    if let Some(t) = &trap {
                        t.tick(&p);
                    }
                    Ok(None)
                });
            };
            register(&rt, Some(trap.clone()));
            let args = ArgList::new().with_u64(cells.offset());
            rt.run("bump_pair", &args).unwrap(); // committed: cells = 1,1
            trap.arm(crash_at);
            rt.run("bump_pair", &args).unwrap(); // interrupted by trap
            let image = trap.take_image().expect("trap fired");
            let pool2 = Arc::new(PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap());
            let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::new(backend)).unwrap();
            register(&rt2, None);
            rt2.recover().unwrap();
            let a = pool2.read_u64(cells).unwrap();
            let b = pool2.read_u64(cells.add(8)).unwrap();
            assert_eq!(a, b, "backend {} crash point {crash_at}", backend.label());
            assert!(
                a == 1 || a == 2,
                "value is pre- or post-transaction, backend {}",
                backend.label()
            );
            if matches!(backend, Backend::Clobber(_)) {
                // Both stores wait for the commit's log sync.
                assert_eq!(
                    a, 1,
                    "a clobber transaction crashed in its body never began"
                );
            }
        }
    }
}

#[test]
fn vlog_preserve_replays_during_recovery() {
    let (_pool, rt, _head) = new_runtime(Backend::clobber());
    let p = rt.pool().clone();
    let trap = CrashTrap::armed(0, 6000);
    let trap2 = trap.clone();
    // The txfunc preserves a volatile blob and writes it; on re-execution
    // the blob must come from the v_log, not from the (changed) argument.
    rt.register("store_volatile", move |tx, args| {
        let cell = PAddr::new(args.u64(0)?);
        let volatile = tx.vlog_preserve(b"from-first-run")?;
        tx.write_bytes(cell, &volatile)?;
        trap2.tick(&p);
        let len_cell = PAddr::new(args.u64(1)?);
        tx.write_u64(len_cell, volatile.len() as u64)?;
        Ok(None)
    });
    let cell = rt.pool().alloc(64).unwrap();
    let len_cell = rt.pool().alloc(8).unwrap();
    rt.pool().persist(cell, 64).unwrap();
    rt.pool().persist(len_cell, 8).unwrap();
    let args = ArgList::new()
        .with_u64(cell.offset())
        .with_u64(len_cell.offset());
    rt.run("store_volatile", &args).unwrap();
    let image = trap.take_image().expect("trap fired");

    let pool2 = Arc::new(PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap());
    let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::default()).unwrap();
    rt2.register("store_volatile", move |tx, args| {
        let cell = PAddr::new(args.u64(0)?);
        // During recovery this returns the recorded blob even though the
        // "live" volatile input no longer exists.
        let volatile = tx.vlog_preserve(b"SHOULD-NOT-BE-USED")?;
        tx.write_bytes(cell, &volatile)?;
        let len_cell = PAddr::new(args.u64(1)?);
        tx.write_u64(len_cell, volatile.len() as u64)?;
        Ok(None)
    });
    let report = rt2.recover().unwrap();
    assert_eq!(report.reexecuted.len(), 1);
    let stored = pool2.read_bytes(cell, 14).unwrap();
    assert_eq!(&stored, b"from-first-run");
    assert_eq!(pool2.read_u64(len_cell).unwrap(), 14);
}

#[test]
fn recovery_requires_registered_txfunc() {
    // At the push's last persist event, the fence that would clear its
    // status word: everything else is durable.
    let events = count_events(&stack_with_one_push, &push_interrupted);
    let image = crash_image(&stack_with_one_push, &push_interrupted, events - 1);
    let pool2 = Arc::new(PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap());
    let rt2 = Runtime::open(pool2, RuntimeOptions::default()).unwrap();
    // "push" deliberately not re-registered.
    assert!(matches!(rt2.recover(), Err(TxError::Unregistered(_))));
}

#[test]
fn multiple_slots_recover_independently() {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(8 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
    let c0 = pool.alloc(8).unwrap();
    let c1 = pool.alloc(8).unwrap();
    pool.persist(c0, 8).unwrap();
    pool.persist(c1, 8).unwrap();
    let register = |rt: &Runtime| {
        rt.register("set_cell", |tx, args| {
            let cell = PAddr::new(args.u64(0)?);
            let old = tx.read_u64(cell)?;
            tx.write_u64(cell, old + args.u64(1)?)?;
            Ok(None)
        })
    };
    register(&rt);
    // Run an interrupted tx on slot 0 and slot 1 by beginning on each slot
    // and crashing before either commits: emulate by running each halfway
    // via the trapless path, then crafting ongoing slots directly.
    rt.run_on(
        0,
        "set_cell",
        &ArgList::new().with_u64(c0.offset()).with_u64(10),
    )
    .unwrap();
    rt.run_on(
        1,
        "set_cell",
        &ArgList::new().with_u64(c1.offset()).with_u64(20),
    )
    .unwrap();
    // Crash cleanly: both slots idle.
    let crashed = pool.crash(&CrashConfig::drop_all(8)).unwrap();
    let pool2 =
        Arc::new(PmemPool::open_from_media(crashed.media_snapshot(), PoolMode::CrashSim).unwrap());
    let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::default()).unwrap();
    register(&rt2);
    let report = rt2.recover().unwrap();
    assert_eq!(report.slots_scanned, 2);
    assert!(report.is_clean());
    assert_eq!(pool2.read_u64(c0).unwrap(), 10);
    assert_eq!(pool2.read_u64(c1).unwrap(), 20);
}

#[test]
fn clobber_logs_exactly_the_clobbered_input() {
    let (pool, rt, head) = new_runtime(Backend::clobber());
    register_stack(&rt, None);
    let before = pool.stats().snapshot();
    rt.run(
        "push",
        &ArgList::new()
            .with_u64(head.offset())
            .with_bytes(&[0xAB; 256]),
    )
    .unwrap();
    let d = pool.stats().snapshot().delta(&before);
    assert_eq!(d.log_entries, 1, "only the head pointer is clobbered");
    assert_eq!(d.log_bytes, 8, "exactly the 8-byte head pointer");
    assert_eq!(d.vlog_entries, 1, "one v_log record per transaction");
    assert!(
        d.vlog_bytes > 256,
        "v_log holds the serialized value argument"
    );
}

#[test]
fn a_transaction_with_no_store_persists_nothing() {
    // The begin record is persisted before the first store, not at begin:
    // a lookup pays no v_log record and no fence (paper §5.6: searches
    // involve no logging).
    let (pool, rt, head) = new_runtime(Backend::clobber());
    rt.register("peek", |tx, args| {
        let word = tx.read_u64(PAddr::new(args.u64(0)?))?;
        Ok(Some(word.to_le_bytes().to_vec()))
    });
    let args = ArgList::new().with_u64(head.offset());
    rt.run("peek", &args).unwrap(); // creates the thread's v_log slot
    let before = pool.stats().snapshot();
    rt.run("peek", &args).unwrap();
    let d = pool.stats().snapshot().delta(&before);
    assert_eq!((d.fences, d.flushes, d.vlog_entries), (0, 0, 0));
    assert_eq!(d.writes, 0, "nothing was stored either");
}

#[test]
fn undo_logs_far_more_than_clobber() {
    let run_one = |backend: Backend| {
        let (pool, rt, head) = new_runtime(backend);
        register_stack(&rt, None);
        let before = pool.stats().snapshot();
        rt.run(
            "push",
            &ArgList::new()
                .with_u64(head.offset())
                .with_bytes(&[0xCD; 256]),
        )
        .unwrap();
        pool.stats().snapshot().delta(&before)
    };
    let clobber = run_one(Backend::clobber());
    let undo = run_one(Backend::Undo);
    assert!(
        undo.log_entries > clobber.log_entries,
        "undo {} vs clobber {}",
        undo.log_entries,
        clobber.log_entries
    );
    assert!(
        undo.log_bytes >= 10 * clobber.log_bytes,
        "undo snapshots fresh allocations too: {} vs {}",
        undo.log_bytes,
        clobber.log_bytes
    );
}

#[test]
fn conservative_clobber_logs_at_least_as_much() {
    let run_loop = |backend: Backend| {
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        let cell = pool.alloc(8).unwrap();
        pool.persist(cell, 8).unwrap();
        // A loop that clobbers the same input every iteration: the refined
        // analysis logs once (shadowed candidates removed), the
        // conservative one logs every iteration.
        rt.register("loop_bump", |tx, args| {
            let cell = PAddr::new(args.u64(0)?);
            for _ in 0..10 {
                let v = tx.read_u64(cell)?;
                tx.write_u64(cell, v + 1)?;
            }
            Ok(None)
        });
        let before = pool.stats().snapshot();
        rt.run("loop_bump", &ArgList::new().with_u64(cell.offset()))
            .unwrap();
        (pool.stats().snapshot().delta(&before), pool, cell)
    };
    let (refined, _, _) = run_loop(Backend::clobber());
    let (conservative, pool, cell) = run_loop(Backend::clobber_conservative());
    assert_eq!(refined.log_entries, 1, "shadowed loop clobbers removed");
    assert_eq!(conservative.log_entries, 10, "one log per loop iteration");
    // Refinement saves entries, bytes and log-line flushes; either way the
    // entries share the commit's one log sync.
    assert!(conservative.flushes > refined.flushes);
    assert_eq!(conservative.fences, refined.fences);
    assert_eq!(pool.read_u64(cell).unwrap(), 10);
}

#[test]
fn abort_before_write_is_clean() {
    let (pool, rt, _head) = new_runtime(Backend::clobber());
    rt.register("maybe_abort", |tx, args| {
        let _probe = tx.read_u64(PAddr::new(args.u64(0)?))?;
        Err(TxError::Aborted("validation failed".into()))
    });
    let cell = pool.alloc(8).unwrap();
    pool.persist(cell, 8).unwrap();
    let err = rt
        .run("maybe_abort", &ArgList::new().with_u64(cell.offset()))
        .unwrap_err();
    assert!(matches!(err, TxError::Aborted(_)));
    // The slot is idle again: a crash now recovers cleanly.
    let crashed = pool.crash(&CrashConfig::drop_all(9)).unwrap();
    let rt2 = Runtime::open(
        Arc::new(PmemPool::open_from_media(crashed.media_snapshot(), PoolMode::CrashSim).unwrap()),
        RuntimeOptions::default(),
    )
    .unwrap();
    assert!(rt2.recover().unwrap().is_clean());
}

#[test]
fn undo_abort_after_write_rolls_back_inline() {
    let (pool, rt, _head) = new_runtime(Backend::Undo);
    let cell = pool.alloc(8).unwrap();
    pool.write_u64(cell, 5).unwrap();
    pool.persist(cell, 8).unwrap();
    rt.register("write_then_abort", |tx, args| {
        let cell = PAddr::new(args.u64(0)?);
        tx.write_u64(cell, 99)?;
        Err(TxError::Aborted("changed my mind".into()))
    });
    let err = rt
        .run("write_then_abort", &ArgList::new().with_u64(cell.offset()))
        .unwrap_err();
    assert!(matches!(err, TxError::Aborted(_)));
    assert_eq!(
        pool.read_u64(cell).unwrap(),
        5,
        "undo rolled the write back"
    );
}

#[test]
fn clobber_abort_after_write_is_rejected() {
    let (pool, rt, _head) = new_runtime(Backend::clobber());
    let cell = pool.alloc(8).unwrap();
    pool.persist(cell, 8).unwrap();
    rt.register("write_then_abort", |tx, args| {
        let cell = PAddr::new(args.u64(0)?);
        tx.write_u64(cell, 99)?;
        Err(TxError::Aborted("too late".into()))
    });
    let err = rt
        .run("write_then_abort", &ArgList::new().with_u64(cell.offset()))
        .unwrap_err();
    assert!(matches!(err, TxError::AbortedAfterWrite(_)));
}

/// A load or store outside the pool fails at the call itself, with the
/// typed bounds error, on every failure-atomic discipline — before anything
/// is buffered or begun, and before its end offset is computed (one past
/// `u64::MAX - 3` overflows) — so the transaction aborts cleanly and leaves
/// nothing to recover. A buffered store that failed only when its commit
/// applied it left Clobber's slot ongoing and Redo's commit marker durable
/// over a log entry no replay could apply.
#[test]
fn an_access_outside_the_pool_fails_at_the_call_and_recovers_clean() {
    let backends = [
        Backend::clobber(),
        Backend::clobber_conservative(),
        Backend::Undo,
        Backend::Redo,
    ];
    for backend in backends {
        for past_end in [false, true] {
            for store in [true, false] {
                let (pool, rt, _) = new_runtime(backend);
                let bad = if past_end {
                    pool.capacity() + 64
                } else {
                    u64::MAX - 3
                };
                let case = format!(
                    "{} {} at {bad:#x}",
                    backend.label(),
                    ["load", "store"][usize::from(store)]
                );
                let cell = pool.alloc(8).unwrap();
                pool.write_u64(cell, 5).unwrap();
                pool.persist(cell, 8).unwrap();
                let seen: Arc<Mutex<Option<Result<(), TxError>>>> = Arc::default();
                let seen_in = seen.clone();
                rt.register("stray", move |tx, args| {
                    let cell = PAddr::new(args.u64(0)?);
                    let v = tx.read_u64(cell)?;
                    let r = if store {
                        tx.write_u64(PAddr::new(bad), 1)
                    } else {
                        tx.read_u64(PAddr::new(bad)).map(drop)
                    };
                    *seen_in.lock().unwrap() = Some(r.clone());
                    r?;
                    tx.write_u64(cell, v + 1)?;
                    Ok(None)
                });
                let out = rt
                    .run("stray", &ArgList::new().with_u64(cell.offset()))
                    .map(drop);
                let oob = |r: &Result<(), TxError>| {
                    matches!(r, Err(TxError::Pmem(PmemError::OutOfBounds { .. })))
                };
                let at_call = seen.lock().unwrap().clone().unwrap();
                assert!(oob(&at_call), "{case}: the call returned {at_call:?}");
                assert!(oob(&out), "{case}: run returned {out:?}");
                let report = rt.recover().unwrap();
                assert!(report.is_clean(), "{case}: {report:?}");
                assert_eq!(pool.read_u64(cell).unwrap(), 5, "{case}");
            }
        }
    }
}

/// `reserve` reserves a block before each of its two preserves and records
/// every address in `seen`. When `fault_once` is set, a replay arms one
/// transient read fault after its first reservation.
fn register_reserving(rt: &Runtime, seen: Arc<Mutex<Vec<PAddr>>>, fault_once: Arc<Mutex<bool>>) {
    rt.register("reserve", move |tx, args| {
        let cell = PAddr::new(args.u64(0)?);
        let a = tx.pmalloc(64)?;
        seen.lock().unwrap().push(a);
        if tx.is_recovery() && std::mem::take(&mut *fault_once.lock().unwrap()) {
            tx.pool().arm_faults(FaultPlan::transient_reads(1));
        }
        tx.vlog_preserve(b"one")?;
        let b = tx.pmalloc(64)?;
        seen.lock().unwrap().push(b);
        tx.vlog_preserve(b"two")?;
        let v = tx.read_u64(cell)?;
        tx.write_u64(cell, v + 1)?;
        tx.write_paddr(a, b)?;
        Ok(None)
    });
}

/// Recovers `image` with `reserve` registered, and checks that no block
/// the replays reserved is still reserved afterwards: each was published
/// by a commit or cancelled with its replay. Returns the report.
fn recover_leaves_no_reservation(image: Vec<u8>, fault_once: bool, at: &str) -> RecoveryReport {
    let pool = Arc::new(PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap());
    let rt = Runtime::open(pool.clone(), RuntimeOptions::new(Backend::clobber())).unwrap();
    let seen = Arc::new(Mutex::new(Vec::new()));
    register_reserving(&rt, seen.clone(), Arc::new(Mutex::new(fault_once)));
    let report = rt
        .recover_with(&RecoveryOptions::default().no_wait())
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    pool.disarm_faults();
    for &a in seen.lock().unwrap().iter() {
        assert!(
            matches!(pool.cancel(&[a]), Err(PmemError::InvalidFree { .. })),
            "{at}: the replay's block {a:?} is still reserved: {report:?}"
        );
    }
    report
}

/// A replay that does not commit cancels its reservations: one that asks
/// for a preserve the crash lost (abandoned), and one a transient read
/// fault ends (retried).
#[test]
fn a_failed_replay_cancels_its_reservations() {
    let build = || {
        let (pool, rt, cell) = new_runtime(Backend::clobber());
        register_reserving(&rt, Default::default(), Default::default());
        (pool, (rt, cell))
    };
    let run = |(rt, cell): &(Runtime, PAddr)| {
        let _ = rt.run("reserve", &ArgList::new().with_u64(cell.offset()));
    };
    let events = count_events(&build, &run);
    let mut abandoned = 0;
    for k in 0..events {
        let image = crash_image(&build, &run, k);
        let report = recover_leaves_no_reservation(image, false, &format!("crash_at({k})"));
        abandoned += report.abandoned;
    }
    assert!(abandoned > 0, "no crash lost the second preserve");

    let image = crash_image(&build, &run, events - 1);
    let report = recover_leaves_no_reservation(image, true, "transient read");
    assert_eq!(
        (report.transient_retries, report.reexecuted.len()),
        (1, 1),
        "{report:?}"
    );
}

#[test]
fn preserve_after_write_is_rejected() {
    let (pool, rt, _head) = new_runtime(Backend::clobber());
    let cell = pool.alloc(8).unwrap();
    pool.persist(cell, 8).unwrap();
    rt.register("late_preserve", |tx, args| {
        tx.write_u64(PAddr::new(args.u64(0)?), 1)?;
        tx.vlog_preserve(b"too late")?;
        Ok(None)
    });
    let err = rt
        .run("late_preserve", &ArgList::new().with_u64(cell.offset()))
        .unwrap_err();
    assert!(matches!(err, TxError::AbortedAfterWrite(_)));
}

#[test]
fn pfree_of_pre_existing_block_is_deferred_to_commit() {
    let (pool, rt, _head) = new_runtime(Backend::clobber());
    let victim = pool.alloc(64).unwrap();
    pool.persist(victim, 64).unwrap();
    let p = rt.pool().clone();
    let trap = CrashTrap::armed(0, 7777);
    let trap2 = trap.clone();
    rt.register("free_it", move |tx, args| {
        // The preserve's fence orders the begin: the body's store alone
        // would wait for the commit.
        tx.vlog_preserve(b"begun")?;
        let victim = PAddr::new(args.u64(0)?);
        tx.pfree(victim)?;
        tx.write_u64(PAddr::new(args.u64(1)?), 1)?;
        trap2.tick(&p);
        Ok(None)
    });
    let flag = pool.alloc(8).unwrap();
    pool.persist(flag, 8).unwrap();
    let args = ArgList::new()
        .with_u64(victim.offset())
        .with_u64(flag.offset());
    rt.run("free_it", &args).unwrap();
    // Committed: the block is genuinely free (allocating reuses it).
    let again = pool.alloc(64).unwrap();
    assert_eq!(again, victim);

    // In the crash image (taken before commit) the block must still be
    // allocated; recovery re-executes and frees it exactly once.
    let image = trap.take_image().unwrap();
    let pool2 = Arc::new(PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap());
    let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::default()).unwrap();
    let p2 = pool2.clone();
    rt2.register("free_it", move |tx, args| {
        tx.vlog_preserve(b"begun")?;
        let victim = PAddr::new(args.u64(0)?);
        tx.pfree(victim)?;
        tx.write_u64(PAddr::new(args.u64(1)?), 1)?;
        let _ = &p2;
        Ok(None)
    });
    let report = rt2.recover().unwrap();
    assert_eq!(report.reexecuted.len(), 1);
    let again2 = pool2.alloc(64).unwrap();
    assert_eq!(
        again2, victim,
        "deferred free applied during recovery commit"
    );
}

/// A transaction's deferred frees are one batch: a double `pfree` fails the
/// run after its commit with nothing freed, where the first free used to
/// land before the second was refused.
#[test]
fn double_pfree_frees_nothing() {
    let (pool, rt, _head) = new_runtime(Backend::clobber());
    let (victim, other) = (pool.alloc(64).unwrap(), pool.alloc(64).unwrap());
    rt.register("free_twice", move |tx, _| {
        tx.pfree(victim)?;
        tx.pfree(other)?;
        tx.pfree(victim)?;
        Ok(None)
    });
    rt.register("noop", |_, _| Ok(None));
    rt.run("noop", &ArgList::new()).unwrap(); // the thread's log slot exists
    let before = pool.check_heap().unwrap();
    let err = rt.run("free_twice", &ArgList::new()).unwrap_err();
    assert!(
        matches!(err, TxError::Pmem(PmemError::InvalidFree { addr }) if addr == victim.offset()),
        "{err}"
    );
    assert_eq!(pool.check_heap().unwrap(), before);
    pool.free_many(&[victim, other]).unwrap();
}

/// A transaction that allocates twice and fails, then ones that allocate
/// and commit: no `pfree`, no duplicate key. The abort cancels both blocks,
/// so the first it pushes back is not the newest reservation outstanding in
/// the heap.
#[test]
fn abort_then_commit_leaves_a_walkable_heap() {
    for backend in [Backend::clobber(), Backend::Undo, Backend::Redo] {
        let (pool, rt, head_cell) = new_runtime(backend);
        let freed: Vec<PAddr> = (0..6).map(|_| pool.alloc(64).unwrap()).collect();
        for &b in &freed {
            pool.free(b).unwrap();
        }
        let failed = Arc::new(Mutex::new(Vec::new()));
        let seen = failed.clone();
        rt.register("alloc_then_fail", move |tx, _args| {
            *seen.lock().unwrap() = vec![tx.pmalloc(64)?, tx.pmalloc(64)?];
            Err(TxError::Aborted("no".into()))
        });
        rt.register("alloc_and_link", |tx, args| {
            let head_cell = PAddr::new(args.u64(0)?);
            let node = tx.pmalloc(64)?;
            let old_head = tx.read_u64(head_cell)?;
            tx.write_u64(node, old_head)?;
            tx.write_u64(head_cell, node.offset())?;
            Ok(None)
        });
        let args = ArgList::new().with_u64(head_cell.offset());
        let err = rt.run("alloc_then_fail", &args).unwrap_err();
        assert!(matches!(err, TxError::Aborted(_)), "{backend:?}: {err}");
        let before = pool
            .check_heap()
            .unwrap_or_else(|e| panic!("{backend:?}, abort: {e}"));
        let mut linked = Vec::new();
        for round in 0..freed.len() as u64 {
            rt.run("alloc_and_link", &args).unwrap();
            linked.push(PAddr::new(pool.read_u64(head_cell).unwrap()));
            let heap = pool
                .check_heap()
                .unwrap_or_else(|e| panic!("{backend:?}, commit {round}: {e}"));
            assert_eq!(heap.allocated_blocks, before.allocated_blocks + round + 1);
        }
        let failed = failed.lock().unwrap().clone();
        assert!(
            failed.iter().all(|b| linked.contains(b)),
            "{backend:?}: the failed transaction's blocks {failed:?} are handed out again"
        );
        linked.sort_unstable();
        assert_eq!(linked, freed, "{backend:?}: every freed block is reused");
    }
}

/// Two *genuinely concurrent* transactions — both parked mid-txfunc, after
/// their writes, in different v_log slots at the instant of the crash —
/// recover independently in either slot assignment (the doc claim in
/// `core/src/recovery.rs` that slots recover in any order). Both transfers
/// complete exactly once under clobber re-execution.
#[test]
fn concurrent_interrupted_slots_recover_independently() {
    let backend = Backend::clobber();
    // Either order: which transfer lands in slot 0 vs slot 1 is swapped.
    for assignments in [[(0, 1, 30), (2, 3, 45)], [(2, 3, 45), (0, 1, 30)]] {
        let media = common::two_parked_transfers(backend, assignments);
        let (pool2, rt2) = common::reopen(media, backend);
        common::register_parked_plain(&rt2);
        let report = rt2.recover().unwrap();
        assert_eq!(report.slots_scanned, 2);
        assert_eq!(
            report.reexecuted.len(),
            2,
            "both interrupted slots re-execute: {report:?}"
        );
        let base = rt2.app_root().unwrap();
        // Exactly-once: the final balances reflect each transfer applied
        // once, independent of slot assignment.
        assert_eq!(pool2.read_u64(base.add(0)).unwrap(), common::INITIAL - 30);
        assert_eq!(pool2.read_u64(base.add(8)).unwrap(), common::INITIAL + 30);
        assert_eq!(pool2.read_u64(base.add(16)).unwrap(), common::INITIAL - 45);
        assert_eq!(pool2.read_u64(base.add(24)).unwrap(), common::INITIAL + 45);
    }
}

/// The same concurrent-interruption image under the rollback backends:
/// both slots roll back independently, restoring the initial balances.
#[test]
fn concurrent_interrupted_slots_roll_back_independently() {
    for backend in [Backend::Undo, Backend::Atlas] {
        let media = common::two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);
        let (pool2, rt2) = common::reopen(media, backend);
        common::register_parked_plain(&rt2);
        let report = rt2.recover().unwrap();
        assert_eq!(report.slots_scanned, 2);
        assert_eq!(report.rolled_back, 2, "{report:?}");
        let base = rt2.app_root().unwrap();
        for i in 0..common::ACCOUNTS {
            assert_eq!(pool2.read_u64(base.add(i * 8)).unwrap(), common::INITIAL);
        }
    }
}

#[test]
fn run_returns_txfunc_payload() {
    let (_pool, rt, _head) = new_runtime(Backend::clobber());
    rt.register("answer", |_tx, _args| Ok(Some(vec![42])));
    assert_eq!(rt.run("answer", &ArgList::new()).unwrap(), Some(vec![42]));
    assert!(matches!(
        rt.run("missing", &ArgList::new()),
        Err(TxError::Unregistered(_))
    ));
}

/// The begin writes its v_log header, record and status word with flushes
/// only, and no store in the body fences: a clobbering store and a
/// blind store to older data alike wait for the commit, whose log sync — or
/// a fence of its own when nothing was logged — orders the begin before
/// they reach the pool. Settling and clearing pay the commit's other two.
#[test]
fn begin_and_body_issue_no_fence_and_the_commit_pays_three() {
    let (pool, rt, cell) = new_runtime(Backend::clobber());
    let slot = rt.slot_handle(1).unwrap();
    let mut logs = slot.logs(&pool).unwrap();
    let before = pool.stats().snapshot();
    slot.begin(&pool, &mut logs, "f", &ArgList::new(), &mut Vec::new())
        .unwrap();
    let d = pool.stats().snapshot().delta(&before);
    // Header, the record's one line, status word.
    assert_eq!((d.fences, d.vlog_flushes), (0, 3), "flushes only");

    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = seen.clone();
    fn fences(tx: &clobber_nvm::Tx<'_>) -> u64 {
        tx.pool().stats().snapshot().fences
    }
    rt.register("steps", move |tx, args| {
        let f0 = fences(tx);
        let r = tx.pmalloc(8)?;
        tx.write_u64(r, 1)?;
        let f1 = fences(tx);
        if args.u64(0)? == 0 {
            let v = tx.read_u64(cell)?;
            tx.write_u64(cell, v + 1)?;
        } else {
            tx.write_u64(cell, 9)?;
        }
        let f2 = fences(tx);
        tx.write_u64(cell, 7)?;
        log.lock()
            .unwrap()
            .push([f1 - f0, f2 - f1, fences(tx) - f2]);
        Ok(None)
    });
    let mut per_tx = Vec::new();
    for blind in [0, 1, 0] {
        let f0 = pool.stats().snapshot().fences;
        rt.run_on(0, "steps", &ArgList::new().with_u64(blind))
            .unwrap();
        per_tx.push(pool.stats().snapshot().fences - f0);
    }
    assert_eq!(
        *seen.lock().unwrap(),
        vec![[0, 0, 0]; 3],
        "reservation store, first store to older data, a later store"
    );
    // The first run also creates and adopts slot 0.
    assert_eq!(per_tx[1..], [3, 3], "ordering point, settle, clear");
}

// Begin-window hazards: a power failure between a fenceless begin and the
// transaction's first ordering point keeps an arbitrary subset of the lines
// the begin wrote. Each case keeps all of them but the named ones.

/// The image a crash leaves when every line written since the last fence
/// persists except those covering `dropped`.
fn crash_dropping(pool: &PmemPool, dropped: &[(PAddr, u64)]) -> Vec<u8> {
    let durable = pool.crash_media(&CrashConfig::drop_all(0));
    splice_lines(
        pool.crash_media(&CrashConfig::keep_all(0)),
        &durable,
        dropped,
    )
}

/// The image a crash leaves when, of the lines written since the last
/// fence, only those covering `kept` persist.
fn crash_keeping(pool: &PmemPool, kept: &[(PAddr, u64)]) -> Vec<u8> {
    let written = pool.crash_media(&CrashConfig::keep_all(0));
    splice_lines(pool.crash_media(&CrashConfig::drop_all(0)), &written, kept)
}

/// `image` with the lines covering `ranges` taken from `from`.
fn splice_lines(mut image: Vec<u8>, from: &[u8], ranges: &[(PAddr, u64)]) -> Vec<u8> {
    for &(at, len) in ranges {
        let lo = (at.offset() / 64 * 64) as usize;
        let hi = (at.offset() + len).next_multiple_of(64) as usize;
        image[lo..hi].copy_from_slice(&from[lo..hi]);
    }
    image
}

/// Begin A (`first`, then a preserved blob) committed, then begin B
/// (`second`) written and not yet ordered, when power failed keeping every
/// line. Each record fills exactly two v_log lines, so B's lines end where
/// A's preserve entry begins: only its line's generation keeps it out.
#[test]
fn a_stale_preserve_is_not_the_new_begins() {
    let pool = PmemPool::create(PoolOptions::crash_sim(1 << 22)).unwrap();
    let slot = VlogSlot::create(&pool, 0, PAddr::NULL, 4096, 4096).unwrap();
    let mut logs = slot.logs(&pool).unwrap();
    let mut buf = Vec::new();
    // Name + encoded bytes argument = 96 bytes: 14 words with the header.
    let args = |name: &str| ArgList::new().with_bytes(&vec![0; 91 - name.len()]);
    slot.begin(&pool, &mut logs, "first", &args("first"), &mut buf)
        .unwrap();
    slot.preserve(&pool, &mut logs.vlog, &[0x5A; 300], &|p| p.fence())
        .unwrap();
    slot.clear_ongoing(&pool).unwrap();
    pool.fence();
    slot.begin(&pool, &mut logs, "second", &args("second"), &mut buf)
        .unwrap();
    let image = crash_dropping(&pool, &[]);
    let pool = PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap();
    let rec = slot
        .record(&pool, slot.status(&pool).unwrap())
        .unwrap()
        .expect("B's record is whole");
    assert_eq!((rec.name.as_str(), rec.preserves.len()), ("second", 0));
}

/// Slot 0 committed `add(cell, 5)`, then began `add(cell, 7)`
/// — v_log header, record, status and log truncation written, nothing
/// fenced — when power failed, keeping every line but those `dropped`
/// names. Returns what recovering that image did and left.
fn recover_window(dropped: fn(&Ulog, &Ulog) -> Vec<(PAddr, u64)>) -> (RecoveryReport, u64) {
    let (pool, rt, cell) = new_runtime(Backend::clobber());
    let slot = rt.slot_handle(0).unwrap();
    let (vlog, clog) = (slot.vlog(), slot.clobber_log(&pool).unwrap());
    let image = Arc::new(Mutex::new(None));
    let register = |rt: &Runtime, image: Option<Arc<Mutex<Option<Vec<u8>>>>>| {
        rt.register("add", move |tx, args| {
            let cell = PAddr::new(args.u64(0)?);
            // A store into its own reservation leaves the begin unordered.
            let r = tx.pmalloc(8)?;
            tx.write_u64(r, 1)?;
            if let Some(image) = image.as_ref().filter(|_| args.u64(1) == Ok(7)) {
                *image.lock().unwrap() = Some(crash_dropping(tx.pool(), &dropped(&vlog, &clog)));
            }
            let v = tx.read_u64(cell)?;
            tx.write_u64(cell, v + args.u64(1)?)?;
            Ok(None)
        });
    };
    register(&rt, Some(image.clone()));
    // 300 padding bytes spread the record over seven v_log lines.
    for (d, pad) in [(5, 0xAA), (7, 0xBB)] {
        let args = ArgList::new()
            .with_u64(cell.offset())
            .with_u64(d)
            .with_bytes(&[pad; 300]);
        rt.run("add", &args).unwrap();
    }
    let image = image.lock().unwrap().take().unwrap();
    let pool = Arc::new(PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap());
    let rt = Runtime::open(pool.clone(), RuntimeOptions::default()).unwrap();
    register(&rt, None);
    let report = rt
        .recover_with(&RecoveryOptions::default().no_wait())
        .unwrap();
    (report, pool.read_u64(cell).unwrap())
}

#[test]
fn the_whole_begin_window_kept_re_executes() {
    let (report, v) = recover_window(|_, _| Vec::new());
    assert_eq!((report.reexecuted.len(), report.abandoned, v), (1, 0, 12));
}

#[test]
fn a_torn_begin_entry_was_never_begun() {
    // Line 3 of the record's seven keeps the committed begin's bytes.
    let (report, v) = recover_window(|vlog, _| vec![(vlog.v2_marker_addr(3), 8)]);
    assert_eq!((report.reexecuted.len(), report.abandoned, v), (0, 1, 5));
}

#[test]
fn a_lost_vlog_header_was_never_begun() {
    // The record's lines persisted, sealed under a generation the header
    // does not name.
    let (report, v) = recover_window(|vlog, _| vec![(vlog.base(), 16)]);
    assert_eq!((report.reexecuted.len(), report.abandoned, v), (0, 1, 5));
}

#[test]
fn the_previous_begins_lines_under_a_new_status_were_never_begun() {
    // Status word and truncation persisted; the v_log is the committed
    // begin's, header and record, whole but at that begin's generation.
    let (report, v) = recover_window(|vlog, _| vec![(vlog.base(), 16 + 8 * 64)]);
    assert_eq!((report.reexecuted.len(), report.abandoned, v), (0, 1, 5));
}

#[test]
fn a_truncation_that_did_not_persist_hides_the_previous_log() {
    // The log header still holds the committed begin's generation, so its
    // entry — the cell's value before that begin — is not this
    // transaction's to restore.
    let (report, v) = recover_window(|_, clog| vec![(clog.base(), 16)]);
    assert_eq!((report.reexecuted.len(), report.abandoned, v), (1, 0, 12));
}

/// Three power failures in a row, each inside a begin window on slot 0.
/// The first two each keep a begin's v_log (A's, then B's) but drop its
/// status word and log truncation, so recovery finds nothing to do. No
/// later begin may reuse a lost begin's number: a third failure keeping
/// only begin C's status word would then find a lost begin's v_log at it
/// and re-execute a transaction an earlier recovery discarded. Two losses
/// in a row catch an adoption whose truncation was not fenced, and so was
/// lost with B.
#[test]
fn a_begin_lost_to_one_crash_is_not_revived_by_the_next() {
    let (pool, rt, cell) = new_runtime(Backend::clobber());
    let slot = rt.slot_handle(0).unwrap();
    let status = (slot.base(), 8);
    let header = (slot.clobber_log(&pool).unwrap().base(), 16);
    let image = Arc::new(Mutex::new(None));
    // `set(cell, v, crash)` stores into its own reservation, leaving its
    // begin unordered, takes the crash image `crash` names, then stores `v`
    // into the cell blind: its commit logs nothing.
    let register = |rt: &Runtime| {
        let image = image.clone();
        rt.register("set", move |tx, args| {
            let r = tx.pmalloc(8)?;
            tx.write_u64(r, 1)?;
            let crashed = match args.u64(2)? {
                1 => Some(crash_dropping(tx.pool(), &[status, header])),
                2 => Some(crash_keeping(tx.pool(), &[status])),
                _ => None,
            };
            if crashed.is_some() {
                *image.lock().unwrap() = crashed;
            }
            tx.write_u64(PAddr::new(args.u64(0)?), args.u64(1)?)?;
            Ok(None)
        });
    };
    let set = |v: u64, crash: u64| {
        ArgList::new()
            .with_u64(cell.offset())
            .with_u64(v)
            .with_u64(crash)
    };
    let restart = || {
        let image = image.lock().unwrap().take().expect("a crash image");
        let pool = Arc::new(PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap());
        let rt = Runtime::open(pool.clone(), RuntimeOptions::new(Backend::clobber())).unwrap();
        register(&rt);
        let report = rt.recover().unwrap();
        (pool, rt, report)
    };
    register(&rt);
    rt.run_on(0, "set", &set(1, 0)).unwrap();
    rt.run_on(0, "set", &set(2, 1)).unwrap(); // A
    let (_, rt1, report) = restart();
    assert!(
        report.is_clean(),
        "A never reached an ordering point: {report:?}"
    );
    rt1.run_on(0, "set", &set(3, 1)).unwrap(); // B
    let (_, rt2, report) = restart();
    assert!(report.is_clean(), "nor did B: {report:?}");
    rt2.run_on(0, "set", &set(4, 2)).unwrap(); // C
    let (pool3, _, report) = restart();
    assert!(report.reexecuted.is_empty(), "{report:?}");
    assert_eq!(report.abandoned, 1, "C's status word names no v_log");
    assert_eq!(pool3.read_u64(cell).unwrap(), 1);
}

#[test]
fn an_image_of_the_previous_slot_layout_is_refused() {
    let (pool, rt, _) = new_runtime(Backend::clobber());
    drop(rt);
    let header = pool.root().unwrap();
    pool.write_u64(header, 0xC10B_BE12_0000_0004).unwrap();
    pool.persist(header, 8).unwrap();
    assert!(matches!(
        Runtime::open(pool, RuntimeOptions::new(Backend::clobber())),
        Err(TxError::CorruptVlog(_))
    ));
}
