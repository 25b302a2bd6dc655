//! What a transaction pays the pool: one write-back per line per ordering
//! point, and no pool read to find a slot's logs it left itself.
//!
//! * With a tracer attached, no cache line is flushed twice between two
//!   fences of one transaction — for each of the five pds structures under
//!   clobber, undo and nolog.
//! * A slot's first transaction on a runtime adopts its logs by probing
//!   them ([`ADOPT_READS`] pool reads); the next one reads nothing before
//!   its first store. A live `recover()`, and an abort past a store, each
//!   send exactly one transaction back through the probe.
//! * Transactional stores sit *dirty* until the ordering point, which
//!   `drop_all` never lets reach media early: seeded draws that keep half
//!   the dirty and half the flushed-unfenced lines, at every trip point of
//!   the transfer script.

mod common;

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use clobber_nvm::{ArgList, Backend, Runtime, RuntimeOptions, TxError};
use clobber_pds::{AvlTree, BpTree, HashMap, RbTree, SkipList};
use clobber_pmem::addr::lines_for_range;
use clobber_pmem::{
    CrashConfig, EventKind, FaultPlan, PAddr, PmemPool, PoolOptions, Tracer, CACHE_LINE,
};
use common::*;

/// `(reads, bytes)` of the probing path: four descriptor words, then per
/// log the 16-byte header and the first data line, then the clobber log's
/// header once more for its writer's generation.
const ADOPT_READS: (u64, u64) = (9, 4 * 8 + 2 * (16 + 64) + 16);

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
        assert_eq!(p.reads_before_body("store"), ADOPT_READS, "{label}: first");
        assert_eq!(p.reads_before_body("store"), (0, 0), "{label}: second");
        assert_eq!(p.reads_before_body("bump"), (0, 0), "{label}: third");
        // A clobber transaction that logged leaves its log to be truncated
        // ahead of the next begin, and truncating re-reads the 16-byte
        // header; an undo commit truncates its log itself.
        let header = if matches!(backend, Backend::Clobber(_)) {
            (1, 16)
        } else {
            (0, 0)
        };
        assert_eq!(p.reads_before_body("store"), header, "{label}: after a log");
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
        assert_eq!(p.reads_before_body("store"), ADOPT_READS, "{label}: scan");
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
        assert_eq!(p.reads_before_body("store"), ADOPT_READS, "{label}: abort");
        assert_eq!(
            p.reads_before_body("store"),
            (0, 0),
            "{label}: after the abort"
        );
    }
}

/// Draws per trip point.
const DRAWS: u64 = 32;

/// Crashes the transfer script at every persist event and takes [`DRAWS`]
/// power failures from each dead pool, each keeping a seeded half of the
/// dirty lines and half of the flushed-but-unfenced ones.
#[test]
fn seeded_draws_over_dirty_and_flushed_lines_recover_the_bank() {
    for backend in [Backend::clobber(), Backend::Undo] {
        let label = backend.label();
        let events = count_script_events(backend);
        for k in 0..events {
            let (pool, rt, base) = setup(backend);
            pool.arm_faults(FaultPlan::crash_at(k));
            let _ = run_script(&rt, base);
            assert_eq!(pool.fault_tripped(), Some(k), "{label}: event {k}");
            for seed in 0..DRAWS {
                let cfg = CrashConfig::new(0.5, 0.5, k * DRAWS + seed);
                let at = format!("{label} crash_at({k}) {cfg:?}");
                let (pool2, rt2) = reopen(pool.crash_media(&cfg), backend);
                rt2.recover().unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(total(&pool2, base), ACCOUNTS * INITIAL, "{at}");
                pool2
                    .check_heap()
                    .unwrap_or_else(|e| panic!("{at}: heap check failed: {e}"));
                assert!(rt2.recover().unwrap().is_clean(), "{at}: second recovery");
            }
        }
    }
}
