//! Shared crash-sweep harness.
//!
//! Deterministic bank-transfer and growing-reallocation workloads packaged
//! as [`ExploreSession`]s, plus the drivers and "keeps serving" steps that
//! hand them to the product's [`CrashBattery`] — the one crash → recover →
//! verify loop (`clobber_nvm::battery`).

#![allow(dead_code)] // each test binary uses a subset of the harness

use std::sync::{Arc, Barrier, Condvar, Mutex};

use clobber_nvm::{
    reopen_media, ArgList, Backend, CrashBattery, ExploreSession, Nested, Recovered, Runtime,
    RuntimeOptions, SweepSummary, TxError, VlogSlot,
};
use clobber_pmem::{CrashConfig, LogWriter, PAddr, PmemPool, PoolOptions};

/// Number of bank accounts in the sweep workload.
pub const ACCOUNTS: u64 = 8;
/// Initial balance per account; `ACCOUNTS * INITIAL` is the invariant.
pub const INITIAL: u64 = 1000;

/// Fixed transfer script: `(from, to, amount)` per transaction. Every entry
/// performs two persistent writes (amount is non-zero, from != to, and no
/// account can go negative under any prefix of the script).
pub const SCRIPT: &[(u64, u64, u64)] = &[(0, 1, 30), (2, 3, 45), (1, 2, 10), (3, 0, 25)];

/// Registers the transfer txfunc used by the whole sweep.
pub fn register_transfer(rt: &Runtime) {
    rt.register("transfer", |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        let from = args.u64(1)? % ACCOUNTS;
        let to = args.u64(2)? % ACCOUNTS;
        let amount = args.u64(3)? % 50;
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

/// Sum of all account balances.
pub fn total(pool: &PmemPool, base: PAddr) -> u64 {
    (0..ACCOUNTS)
        .map(|i| pool.read_u64(base.add(i * 8)).unwrap())
        .sum()
}

/// Small log capacities keep each replayed pool cheap to create.
fn sweep_options(backend: Backend) -> RuntimeOptions {
    let mut opts = RuntimeOptions::new(backend);
    opts.clobber_log_cap = 32 << 10;
    opts.redo_log_cap = 32 << 10;
    opts
}

/// Creates a fresh pool + runtime with the bank initialized and durable.
/// Identical across calls, so persist-event streams replay exactly.
pub fn setup(backend: Backend) -> (Arc<PmemPool>, Runtime, PAddr) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), sweep_options(backend)).unwrap();
    register_transfer(&rt);
    let base = pool.alloc(ACCOUNTS * 8).unwrap();
    for i in 0..ACCOUNTS {
        pool.write_u64(base.add(i * 8), INITIAL).unwrap();
    }
    pool.persist(base, ACCOUNTS * 8).unwrap();
    rt.set_app_root(base).unwrap();
    (pool, rt, base)
}

/// Reopens crashed media with a runtime ready to recover.
pub fn reopen(media: Vec<u8>, backend: Backend) -> (Arc<PmemPool>, Runtime) {
    let (pool, rt) = reopen_media(media, sweep_options(backend));
    register_transfer(&rt);
    (pool, rt)
}

/// Arguments of one `(from, to, amount)` transfer over the bank at `base`.
pub fn transfer_args(base: PAddr, (f, t, a): (u64, u64, u64)) -> ArgList {
    ArgList::new()
        .with_u64(base.offset())
        .with_u64(f)
        .with_u64(t)
        .with_u64(a)
}

/// Runs the script until the first failure (e.g. an injected crash). Once
/// the pool is dead every subsequent transaction fails fast, so stopping at
/// the first error loses nothing.
pub fn run_script(rt: &Runtime, base: PAddr) -> Result<(), TxError> {
    for &step in SCRIPT {
        rt.run("transfer", &transfer_args(base, step))?;
    }
    Ok(())
}

/// The transfer-script bank as a battery workload: fresh bank, reopen with
/// `transfer` registered, conservation as the invariant.
pub fn bank_session(backend: Backend) -> ExploreSession<'static> {
    ExploreSession {
        build: Box::new(move || {
            let (pool, rt, _) = setup(backend);
            (pool, rt)
        }),
        reopen: Box::new(move |media| reopen(media, backend)),
        check: Box::new(explore_check),
    }
}

/// Unwraps a driver step's outcome unless the pool was crashed under it:
/// a trip on a trailing fence can leave the step completing `Ok`, any
/// other trip surfaces as an error, and both are valid crash points — but
/// an un-crashed run must not fail.
pub fn unless_crashed<T>(rt: &Runtime, outcome: Result<T, TxError>) {
    if rt.pool().fault_tripped().is_none() {
        outcome.expect("an un-crashed run must not fail");
    }
}

/// The battery driver for the transfer script.
pub fn drive_script(rt: &Arc<Runtime>) {
    unless_crashed(rt, run_script(rt, rt.app_root().unwrap()));
}

/// Counts the persist events the script issues under `backend`.
pub fn count_script_events(backend: Backend) -> u64 {
    let session = bank_session(backend);
    let battery = CrashBattery {
        session: &session,
        drive: &drive_script,
        nested: Nested::Off,
    };
    let n = battery.count_events().unwrap_or_else(|v| panic!("{v}"));
    assert!(n > 0, "script must issue persist events");
    n
}

/// Runs a battery sweep to completion for a deterministic driver: any
/// violation fails the test, and every planted crash must trip.
pub fn sweep_clean(
    battery: &CrashBattery<'_>,
    stride: u64,
    served: impl FnMut(Recovered),
) -> SweepSummary {
    let s = battery
        .sweep(stride, u64::MAX, served)
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(s.not_tripped, 0, "a deterministic driver trips everywhere");
    s
}

/// Full crash-point sweep for one backend: the battery at every
/// `stride`-th persist event of the script, with `nested` deciding whether
/// recovery itself is crashed too. Each recovered bank keeps serving.
pub fn sweep(backend: Backend, stride: u64, nested: Nested) -> SweepSummary {
    let session = bank_session(backend);
    let battery = CrashBattery {
        session: &session,
        drive: &drive_script,
        nested,
    };
    sweep_clean(&battery, stride, |r| {
        let base = r.rt.app_root().unwrap();
        r.rt.run("transfer", &transfer_args(base, (0, 1, 5)))
            .unwrap();
        assert_eq!(
            total(&r.pool, base),
            ACCOUNTS * INITIAL,
            "k={} nested={:?}: post-recovery tx",
            r.crash_at,
            r.nested_at
        );
    })
}

/// Cells in the regrow workload's initial customer list.
pub const REGROW_INITIAL: u64 = 5;
/// Cells added by each regrow transaction.
pub const REGROW_DELTA: u64 = 5;
/// Regrow transactions in the alloc-heavy script.
pub const REGROW_STEPS: u64 = 5;

/// Registers the vacation-style growing-reallocation txfunc: each call
/// replaces the customer list at `base` (`[ptr, cells]`) with a copy one
/// `REGROW_DELTA` larger — `pmalloc` the bigger block, carry the contents,
/// extend, swap the root pointer, `pfree` the old block. Cell `i` always
/// holds `i + 1`, whatever prefix of the script committed.
pub fn register_regrow(rt: &Runtime) {
    rt.register("regrow", |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        let old = PAddr::new(tx.read_u64(base)?);
        let old_cells = tx.read_u64(base.add(8))?;
        let new_cells = old_cells + REGROW_DELTA;
        let block = tx.pmalloc(new_cells * 8)?;
        for i in 0..old_cells {
            let v = tx.read_u64(old.add(i * 8))?;
            tx.write_u64(block.add(i * 8), v)?;
        }
        for i in old_cells..new_cells {
            tx.write_u64(block.add(i * 8), i + 1)?;
        }
        tx.write_u64(base, block.offset())?;
        tx.write_u64(base.add(8), new_cells)?;
        tx.pfree(old)?;
        Ok(None)
    });
}

/// Fresh pool + runtime with the regrow root (`[ptr, cells]`) and initial
/// list durable. Deterministic, so persist-event streams replay exactly.
pub fn setup_regrow(backend: Backend) -> (Arc<PmemPool>, Runtime, PAddr) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), sweep_options(backend)).unwrap();
    register_regrow(&rt);
    let base = pool.alloc(16).unwrap();
    let list = pool.alloc(REGROW_INITIAL * 8).unwrap();
    for i in 0..REGROW_INITIAL {
        pool.write_u64(list.add(i * 8), i + 1).unwrap();
    }
    pool.write_u64(base, list.offset()).unwrap();
    pool.write_u64(base.add(8), REGROW_INITIAL).unwrap();
    pool.persist(base, 16).unwrap();
    pool.persist(list, REGROW_INITIAL * 8).unwrap();
    rt.set_app_root(base).unwrap();
    (pool, rt, base)
}

fn run_regrow_script(rt: &Runtime, base: PAddr) -> Result<(), TxError> {
    for _ in 0..REGROW_STEPS {
        rt.run("regrow", &ArgList::new().with_u64(base.offset()))?;
    }
    Ok(())
}

/// The regrow invariant: the root points at a list of `REGROW_INITIAL +
/// k * REGROW_DELTA` cells for some committed prefix `k`, and cell `i`
/// holds `i + 1`.
fn check_regrow_list(pool: &PmemPool, rt: &Runtime) -> Result<(), String> {
    let base = rt.app_root().map_err(|e| format!("app root: {e}"))?;
    let ptr = PAddr::new(pool.read_u64(base).unwrap());
    let cells = pool.read_u64(base.add(8)).unwrap();
    if !(REGROW_INITIAL..=REGROW_INITIAL + REGROW_STEPS * REGROW_DELTA).contains(&cells)
        || !(cells - REGROW_INITIAL).is_multiple_of(REGROW_DELTA)
    {
        return Err(format!("list has {cells} cells — not a committed prefix"));
    }
    match (0..cells).find(|&i| pool.read_u64(ptr.add(i * 8)).unwrap() != i + 1) {
        Some(i) => Err(format!("cell {i} corrupted")),
        None => Ok(()),
    }
}

/// Alloc-heavy crash-point sweep: the growing-reallocation script through
/// the battery at every `stride`-th persist event (so allocator metadata
/// is heap-walked at every crash point, not just on the happy path), and
/// the recovered heap keeps serving growing reallocations.
pub fn sweep_regrow(backend: Backend, stride: u64) -> SweepSummary {
    let session = ExploreSession {
        build: Box::new(move || {
            let (pool, rt, _) = setup_regrow(backend);
            (pool, rt)
        }),
        reopen: Box::new(move |media| {
            let (pool, rt) = reopen_media(media, sweep_options(backend));
            register_regrow(&rt);
            (pool, rt)
        }),
        check: Box::new(check_regrow_list),
    };
    let drive = |rt: &Arc<Runtime>| {
        unless_crashed(rt, run_regrow_script(rt, rt.app_root().unwrap()));
    };
    let battery = CrashBattery {
        session: &session,
        drive: &drive,
        nested: Nested::Off,
    };
    sweep_clean(&battery, stride, |r| {
        let base = r.rt.app_root().unwrap();
        r.rt.run("regrow", &ArgList::new().with_u64(base.offset()))
            .unwrap();
        r.pool
            .check_heap()
            .unwrap_or_else(|e| panic!("k={}: post-recovery heap check failed: {e}", r.crash_at));
    })
}

/// Registers a non-parking replacement for `parked_transfer`: recovery
/// re-execution must not block on test barriers, so recovered runtimes get
/// this plain unconditional transfer under the same name.
pub fn register_parked_plain(rt: &Runtime) {
    rt.register("parked_transfer", |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        let from = args.u64(1)?;
        let to = args.u64(2)?;
        let amount = args.u64(3)?;
        let from_bal = tx.read_u64(base.add(from * 8))?;
        tx.write_u64(base.add(from * 8), from_bal - amount)?;
        let to_bal = tx.read_u64(base.add(to * 8))?;
        tx.write_u64(base.add(to * 8), to_bal + amount)?;
        Ok(None)
    });
}

/// Rounds of a parked transfer: the first pays, the rest store the same
/// balances again, 2 × 40 stores against the deferred buffer's 64.
pub const PARKED_ROUNDS: u64 = 40;

/// Captures crashed media holding **two** genuinely concurrent interrupted
/// transfers, one per v_log slot: `assignments[i] = (from, to, amount)` runs
/// on slot `i`. Each worker parks inside its txfunc after its writes; the
/// main thread then takes an adversarial crash snapshot and releases them.
pub fn two_parked_transfers(backend: Backend, assignments: [(u64, u64, u64); 2]) -> Vec<u8> {
    parked_transfers(backend, &assignments)
}

/// Generalization of [`two_parked_transfers`] to any number of slots: one
/// parked transfer per assignment, crashed while all of them are mid-flight.
///
/// A parked transfer stores both balances [`PARKED_ROUNDS`] times — more
/// stores than the deferred-store buffer holds, so the buffer's early log
/// sync has made the begin and both pre-images durable by the time the
/// worker parks, while the stores after it are in flight. The workers pass
/// through a
/// turnstile in slot order — worker *i* enters its transaction only after
/// worker *i − 1* has issued its stores — so the image is a function of
/// `assignments` alone: every slot holds its begin and both pre-images, and
/// no account store is durable.
pub fn parked_transfers(backend: Backend, assignments: &[(u64, u64, u64)]) -> Vec<u8> {
    let (pool, rt, base) = setup(backend);
    let rendezvous = Arc::new(Barrier::new(assignments.len() + 1));
    let release = Arc::new(Barrier::new(assignments.len() + 1));
    // Index of the slot whose worker may run, and its wake-up.
    let turnstile = Arc::new((Mutex::new(0usize), Condvar::new()));
    {
        let (rendezvous, release, turnstile) =
            (rendezvous.clone(), release.clone(), turnstile.clone());
        rt.register("parked_transfer", move |tx, args| {
            let base = PAddr::new(args.u64(0)?);
            let from = args.u64(1)?;
            let to = args.u64(2)?;
            let amount = args.u64(3)?;
            for round in 0..PARKED_ROUNDS {
                let pay = if round == 0 { amount } else { 0 };
                let from_bal = tx.read_u64(base.add(from * 8))?;
                tx.write_u64(base.add(from * 8), from_bal - pay)?;
                let to_bal = tx.read_u64(base.add(to * 8))?;
                tx.write_u64(base.add(to * 8), to_bal + pay)?;
            }
            // Both pre-images durable, the stores in flight: let the next
            // slot in.
            *turnstile.0.lock().unwrap() += 1;
            turnstile.1.notify_all();
            rendezvous.wait();
            release.wait(); // hold until the snapshot is taken
            Ok(None)
        });
    }
    let mut media = None;
    std::thread::scope(|s| {
        for (slot, &step) in assignments.iter().enumerate() {
            let (rt, turnstile) = (&rt, &turnstile);
            s.spawn(move || {
                let turn = turnstile.0.lock().unwrap();
                drop(turnstile.1.wait_while(turn, |t| *t != slot).unwrap());
                rt.run_on(slot, "parked_transfer", &transfer_args(base, step))
                    .unwrap();
            });
        }
        rendezvous.wait();
        media = Some(pool.crash_media(&CrashConfig::drop_all(77)));
        release.wait();
    });
    media.unwrap()
}

/// Rewrites `slot`'s v_log, durably, as a whole begin entry for its status
/// word whose name is not UTF-8: lines that validate holding a record that
/// does not decode, the v_log's one corrupt state.
pub fn write_undecodable_begin(pool: &PmemPool, slot: &VlogSlot) {
    let mut vlog = LogWriter::new(slot.vlog());
    vlog.reset_to(pool, slot.status(pool).unwrap()).unwrap();
    // The address word of a begin entry is the name's length.
    vlog.append(pool, PAddr::new(2), &[0xFF, 0xFE]).unwrap();
    vlog.sync(pool).unwrap();
}

/// Runs the full script with a tracer attached (no faults armed) and
/// returns the captured trace.
pub fn traced_script_run(backend: Backend) -> clobber_pmem::Trace {
    let (pool, rt, base) = setup(backend);
    let tracer = Arc::new(clobber_pmem::Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    run_script(&rt, base).expect("traced run must not fail");
    pool.set_tracer(None);
    tracer.take()
}

/// Runs the script with a crash armed at event `k` and a tracer attached
/// *after* arming (so trace sequence numbers match untraced trip indices);
/// returns the trace recorded up to the trip.
pub fn traced_crash_at(backend: Backend, k: u64) -> clobber_pmem::Trace {
    let (pool, rt, base) = setup(backend);
    pool.arm_faults(clobber_pmem::FaultPlan::crash_at(k));
    let tracer = Arc::new(clobber_pmem::Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    let _ = run_script(&rt, base);
    assert_eq!(pool.fault_tripped(), Some(k), "event {k} must trip");
    tracer.take()
}

// ---------------------------------------------------------------------------
// Schedule-exploration harness (ISSUE 8)
// ---------------------------------------------------------------------------

/// Offset of the explore workload's reservation flag cell, just past the
/// account array.
pub const FLAG_OFFSET: u64 = ACCOUNTS * 8;

/// Registers the two explore-only txfuncs carrying the injected ordering
/// bug (test-only; gated behind `explore_setup(.., buggy=true)`):
///
/// * `reserve` increments the flag cell past the accounts (a
///   read-then-write clobber);
/// * `take_if_reserved` reads the flag, clobbers it back to zero, and —
///   the bug — debits account 0 by 60 *without crediting anyone* when a
///   reservation was pending. Conservation breaks exactly when `reserve`
///   ran first, so the explorer must surface the reordering; both ops
///   clobber the flag cell, so their footprints conflict and pruning
///   never hides it.
pub fn register_explore_extras(rt: &Runtime) {
    rt.register("reserve", |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        let flag = base.add(FLAG_OFFSET);
        let v = tx.read_u64(flag)?;
        tx.write_u64(flag, v + 1)?;
        Ok(None)
    });
    rt.register("take_if_reserved", |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        let flag = base.add(FLAG_OFFSET);
        let pending = tx.read_u64(flag)?;
        tx.write_u64(flag, 0)?;
        if pending > 0 {
            let bal = tx.read_u64(base)?;
            tx.write_u64(base, bal - 60)?; // injected bug: debit, no credit
        }
        Ok(None)
    });
}

/// Fresh pool + runtime for exploration: the bank plus a zeroed flag
/// cell, `buggy` additionally registering the ordering-bug txfuncs. The
/// pool is bigger than the sweep pool because explored schedules span two
/// v_log slots.
pub fn explore_setup(buggy: bool) -> (Arc<PmemPool>, Runtime, PAddr) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(2 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), sweep_options(Backend::clobber())).unwrap();
    register_transfer(&rt);
    if buggy {
        register_explore_extras(&rt);
    }
    let base = pool.alloc(ACCOUNTS * 8 + 8).unwrap();
    for i in 0..ACCOUNTS {
        pool.write_u64(base.add(i * 8), INITIAL).unwrap();
    }
    pool.write_u64(base.add(FLAG_OFFSET), 0).unwrap();
    pool.persist(base, ACCOUNTS * 8 + 8).unwrap();
    rt.set_app_root(base).unwrap();
    (pool, rt, base)
}

/// Reopens crashed explore media ready for recovery.
pub fn explore_reopen(media: Vec<u8>, buggy: bool) -> (Arc<PmemPool>, Runtime) {
    let (pool, rt) = reopen(media, Backend::clobber());
    if buggy {
        register_explore_extras(&rt);
    }
    (pool, rt)
}

/// The conservation invariant, shaped for the explorer: must hold for
/// every prefix, crash point, and ddmin-chosen subsequence of any
/// transfer schedule (transfers conserve the total unconditionally).
pub fn explore_check(pool: &PmemPool, rt: &Runtime) -> Result<(), String> {
    let base = rt.app_root().map_err(|e| format!("app root: {e}"))?;
    let sum = total(pool, base);
    if sum == ACCOUNTS * INITIAL {
        Ok(())
    } else {
        Err(format!(
            "conservation violated: total {sum} != {}",
            ACCOUNTS * INITIAL
        ))
    }
}

/// Packages the explore harness as an [`ExploreSession`].
pub fn explore_session(buggy: bool) -> ExploreSession<'static> {
    ExploreSession {
        build: Box::new(move || {
            let (pool, rt, _) = explore_setup(buggy);
            (pool, rt)
        }),
        reopen: Box::new(move |media| explore_reopen(media, buggy)),
        check: Box::new(explore_check),
    }
}

/// The deterministic base address every [`explore_setup`] produces.
pub fn explore_base() -> PAddr {
    let (_pool, _rt, base) = explore_setup(false);
    base
}

/// One transfer dispatch on an explicit slot, for building explore seeds.
pub fn transfer_op(base: PAddr, slot: usize, step: (u64, u64, u64)) -> clobber_nvm::ScheduleOp {
    clobber_nvm::ScheduleOp {
        slot,
        name: "transfer".to_string(),
        args: transfer_args(base, step),
    }
}

/// The 2-slot explore seed: slot 0 moves money between accounts 0–3,
/// slot 1 between accounts 4–5. The slot-1 op's footprint is disjoint
/// from both slot-0 ops, so under the sound conflict policy its
/// reorderings are pruned as commutative.
pub fn explore_seed(base: PAddr) -> clobber_nvm::Schedule {
    clobber_nvm::Schedule {
        ops: vec![
            transfer_op(base, 0, (0, 1, 30)),
            transfer_op(base, 0, (2, 3, 45)),
            transfer_op(base, 1, (4, 5, 20)),
        ],
    }
}

/// The buggy explore seed: in seed order `take_if_reserved` precedes
/// `reserve`, so the seed itself conserves; interleavings that move the
/// `reserve` first lose 60 units.
pub fn explore_buggy_seed(base: PAddr) -> clobber_nvm::Schedule {
    clobber_nvm::Schedule {
        ops: vec![
            transfer_op(base, 0, (0, 1, 30)),
            clobber_nvm::ScheduleOp {
                slot: 0,
                name: "take_if_reserved".to_string(),
                args: ArgList::new().with_u64(base.offset()),
            },
            clobber_nvm::ScheduleOp {
                slot: 1,
                name: "reserve".to_string(),
                args: ArgList::new().with_u64(base.offset()),
            },
        ],
    }
}
