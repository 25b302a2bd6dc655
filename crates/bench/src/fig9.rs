//! Fig. 9: recovery overhead, Clobber-NVM vs PMDK.
//!
//! The benchmark crashes an insert stream at a persist event inside a
//! seeded mid-stream transaction, reopens the pool and recovers. Recovery
//! cost = pool-management cost (dominant, per the paper: "most of their
//! recovery latency is spent on pool managements") + log application +
//! (clobber only) re-execution, with the non-open components converted from
//! counted events by the cost model.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use clobber_nvm::{ArgList, Backend, Runtime, RuntimeOptions, Tx, TxError};
use clobber_pmem::{
    CrashConfig, EventKind, FaultPlan, PAddr, PmemPool, PoolMode, PoolOptions, Tracer,
};
use clobber_sim::CostModel;
use clobber_workloads::{Workload, WorkloadKind};

use crate::common::{DsHandle, DsKind, Scale};

/// Modeled pool-open cost: PMDK pool open/validation on Optane is on the
/// order of a millisecond; both systems pay it identically.
pub const POOL_OPEN_NS: u64 = 1_200_000;

/// One recovery measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// System label (clobber/pmdk).
    pub system: &'static str,
    /// Structure label.
    pub structure: &'static str,
    /// Modeled pool-open nanoseconds.
    pub open_ns: u64,
    /// Log-application + re-execution nanoseconds (modeled from events).
    pub apply_ns: u64,
    /// Log entries applied during recovery.
    pub entries_applied: u64,
    /// Transactions re-executed (clobber) or rolled back (pmdk).
    pub recovered_txs: u64,
}

/// CSV header.
pub const HEADER: &str = "system,structure,open_ns,apply_ns,total_ns,entries_applied,recovered_txs";

impl Row {
    /// One CSV line.
    pub fn csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            self.system,
            self.structure,
            self.open_ns,
            self.apply_ns,
            self.open_ns + self.apply_ns,
            self.entries_applied,
            self.recovered_txs
        )
    }
}

/// Crashes an insert stream mid-transaction and measures recovery.
pub fn run_cell(kind: DsKind, backend: Backend, scale: Scale, seed: u64) -> Row {
    // The insert the crash interrupts: a seeded one in the stream's second
    // half.
    let n = (scale.ds_ops() / 8).max(32);
    let victim = n / 2 + seed % (n / 2);
    // Loads a fresh pool armed with `plan` up to and including the victim,
    // traced by `tracer`; returns the pool and the victim's persist events.
    let load = |plan: FaultPlan, tracer: Option<Arc<Tracer>>| {
        let bytes = scale.pool_bytes().min(256 << 20);
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(bytes)).expect("pool"));
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).expect("runtime");
        let handle = DsHandle::create(kind, &rt);
        pool.arm_faults(plan);
        let mut ops = Workload::new(WorkloadKind::Load, n, kind.value_size(), seed);
        for op in ops.by_ref().take(victim as usize) {
            handle.exec(&rt, 0, &op);
        }
        let before = pool.fault_events();
        pool.set_tracer(tracer);
        // The armed crash kills this insert: its error is the point.
        let _ = handle.try_exec(&rt, 0, &ops.next().expect("the victim"));
        let span = before..pool.fault_events();
        (pool, span)
    };
    // A dry run learns the victim's events (an armed plan stamps each traced
    // one with its index); the crash lands in the middle of those after its
    // first fence — past the durable begin and short of the commit.
    let tracer = Arc::new(Tracer::new());
    let (_, span) = load(FaultPlan::count_only(), Some(tracer.clone()));
    let begun = tracer
        .take()
        .events
        .iter()
        .find(|e| e.kind == EventKind::Fence)
        .expect("the victim fences")
        .seq
        + 1;
    let (pool, _) = load(FaultPlan::crash_at((begun + span.end) / 2), None);
    assert!(
        pool.fault_tripped().is_some(),
        "the crash is inside {span:?}"
    );
    let media = pool.crash_media(&CrashConfig::drop_all(seed));

    // Recover and meter the events it generates.
    let pool2 = Arc::new(PmemPool::open_from_media(media, PoolMode::CrashSim).expect("open"));
    let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::new(backend)).expect("runtime");
    DsHandle::create_registry_only(kind, &rt2);
    let before = pool2.stats().snapshot();
    let report = rt2.recover().expect("recover");
    let delta = pool2.stats().snapshot().delta(&before);
    let cost = CostModel::optane();
    Row {
        system: if backend == Backend::Undo {
            "pmdk"
        } else {
            "clobber"
        },
        structure: kind.label(),
        open_ns: POOL_OPEN_NS,
        apply_ns: cost.op_cost(&delta),
        entries_applied: report.clobber_entries_applied + delta.log_entries,
        recovered_txs: (report.reexecuted.len() + report.rolled_back) as u64,
    }
}

impl DsHandle {
    /// Registers txfuncs without creating a new instance (recovery path).
    pub fn create_registry_only(kind: DsKind, rt: &Runtime) {
        match kind {
            DsKind::Hashmap => clobber_pds::HashMap::register(rt),
            DsKind::Skiplist => clobber_pds::SkipList::register(rt),
            DsKind::Rbtree => clobber_pds::RbTree::register(rt),
            DsKind::Bptree => clobber_pds::BpTree::register(rt),
        }
    }
}

/// Cells each parked scaling transaction mutates (its share of the live
/// data recovery must repair).
const SCALING_CELLS: u64 = 8;
/// Passes over its cells a scaling transaction makes before it parks: more
/// stores than the deferred buffer holds, so its early sync has run.
const SCALING_PASSES: u64 = 9;

/// `SCALING_PASSES` read-modify-writes of cells `lo..lo + SCALING_CELLS`.
fn scaling_chain(tx: &mut Tx<'_>, args: &ArgList) -> Result<(), TxError> {
    let base = PAddr::new(args.u64(0)?);
    let lo = args.u64(1)?;
    for _ in 0..SCALING_PASSES {
        for i in lo..lo + SCALING_CELLS {
            let v = tx.read_u64(base.add(8 * i))?;
            tx.write_u64(base.add(8 * i), v + i + 1)?;
        }
    }
    Ok(())
}

/// One recovery-scaling measurement: `slots` interrupted transactions in a
/// `pool_mib`-MiB pool.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Pool size in MiB (the *dead* dimension — recovery must not scan it).
    pub pool_mib: u64,
    /// Interrupted transactions (the live dimension).
    pub slots: usize,
    /// Modeled log-application + re-execution nanoseconds.
    pub apply_ns: u64,
    /// Measured wall-clock nanoseconds of the scan itself.
    pub wall_ns: u64,
    /// Clobber-log entries applied restoring inputs.
    pub entries_applied: u64,
    /// Transactions completed by re-execution.
    pub reexecuted: usize,
}

/// CSV header for the scaling table.
pub const SCALING_HEADER: &str =
    "pool_mib,slots,open_ns,apply_ns,total_ns,wall_ns,entries_applied,reexecuted";

impl ScalingRow {
    /// One CSV line.
    pub fn csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{}",
            self.pool_mib,
            self.slots,
            POOL_OPEN_NS,
            self.apply_ns,
            POOL_OPEN_NS + self.apply_ns,
            self.wall_ns,
            self.entries_applied,
            self.reexecuted
        )
    }
}

/// Small per-slot log buffers so the 1 MiB scaling pools hold every slot
/// (each chain logs `SCALING_CELLS` 8-byte entries — 8 KiB is generous).
fn scaling_rt_opts() -> RuntimeOptions {
    RuntimeOptions {
        clobber_log_cap: 8 << 10,
        redo_log_cap: 8 << 10,
        ..RuntimeOptions::default()
    }
}

/// Parks `slots` concurrent chain transactions (one per v_log slot, each
/// mid-flight with its `SCALING_CELLS` pre-images durable), crashes the
/// pool adversarially, and measures the recovery scan. Live data scales
/// with `slots`; the pool size scales with `pool_mib`; recovery cost must
/// track the former.
pub fn run_scaling_cell(pool_mib: u64, slots: usize, seed: u64) -> ScalingRow {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(pool_mib << 20)).expect("pool"));
    let rt = Runtime::create(pool.clone(), scaling_rt_opts()).expect("runtime");
    let cells = SCALING_CELLS * slots as u64;
    let base = pool.alloc(8 * cells).expect("alloc");
    for i in 0..cells {
        pool.write_u64(base.add(8 * i), 1_000).expect("seed");
    }
    pool.persist(base, 8 * cells).expect("persist");
    rt.set_app_root(base).expect("root");

    let rendezvous = Arc::new(Barrier::new(slots + 1));
    let release = Arc::new(Barrier::new(slots + 1));
    {
        let (rendezvous, release) = (rendezvous.clone(), release.clone());
        rt.register("scaling_chain", move |tx, args| {
            scaling_chain(tx, args)?;
            rendezvous.wait(); // all writes logged and in flight
            release.wait(); // hold until the snapshot is taken
            Ok(None)
        });
    }
    let mut media = None;
    std::thread::scope(|s| {
        for slot in 0..slots {
            let rt = &rt;
            let args = ArgList::new()
                .with_u64(base.offset())
                .with_u64(SCALING_CELLS * slot as u64);
            s.spawn(move || {
                rt.run_on(slot, "scaling_chain", &args).unwrap();
            });
        }
        rendezvous.wait();
        media = Some(pool.crash_media(&CrashConfig::drop_all(seed)));
        release.wait();
    });

    let pool2 =
        Arc::new(PmemPool::open_from_media(media.unwrap(), PoolMode::CrashSim).expect("open"));
    let rt2 = Runtime::open(pool2.clone(), scaling_rt_opts()).expect("runtime");
    rt2.register("scaling_chain", |tx, args| {
        scaling_chain(tx, args).map(|()| None)
    });
    let before = pool2.stats().snapshot();
    let t0 = Instant::now();
    let report = rt2.recover().expect("recover");
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let delta = pool2.stats().snapshot().delta(&before);
    ScalingRow {
        pool_mib,
        slots,
        apply_ns: CostModel::optane().op_cost(&delta),
        wall_ns,
        entries_applied: report.clobber_entries_applied,
        reexecuted: report.reexecuted.len(),
    }
}

/// Runs the scaling table: pool size × interrupted slots.
pub fn run_scaling() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for pool_mib in [1u64, 4, 16] {
        for slots in [1usize, 4] {
            rows.push(run_scaling_cell(pool_mib, slots, 53));
        }
    }
    rows
}

/// Runs the full figure: both systems over all structures.
pub fn run(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in DsKind::all() {
        for backend in [Backend::clobber(), Backend::Undo] {
            rows.push(run_cell(kind, backend, scale, 977));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_is_dominated_by_pool_open() {
        // Paper: "the recovery latency of Clobber-NVM and PMDK are similar;
        // most of their recovery latency is spent on pool managements".
        for row in run(Scale::Quick) {
            assert!(
                row.open_ns > row.apply_ns,
                "{}/{}: open {} vs apply {}",
                row.system,
                row.structure,
                row.open_ns,
                row.apply_ns
            );
        }
    }

    #[test]
    fn both_systems_recover_the_interrupted_tx() {
        for row in run(Scale::Quick) {
            assert_eq!(row.recovered_txs, 1, "{row:?}");
        }
    }

    #[test]
    fn recovery_cost_is_live_data_bound_not_pool_bound() {
        // Fixed live data, 16x pool growth: the modeled scan cost must not
        // grow with the pool — recovery walks the slot list, not the heap.
        let small = run_scaling_cell(1, 2, 53);
        let large = run_scaling_cell(16, 2, 53);
        assert_eq!(small.reexecuted, 2);
        assert_eq!(large.reexecuted, 2);
        assert!(
            (large.apply_ns as f64) <= (small.apply_ns as f64) * 1.1,
            "pool-bound recovery: 1 MiB -> {} ns, 16 MiB -> {} ns",
            small.apply_ns,
            large.apply_ns
        );
        // 4x the live data in the same pool must cost measurably more.
        let loaded = run_scaling_cell(1, 4, 53);
        assert!(
            loaded.apply_ns > small.apply_ns,
            "live-data growth invisible: {} vs {}",
            loaded.apply_ns,
            small.apply_ns
        );
    }

    #[test]
    fn totals_are_comparable_between_systems() {
        let rows = run(Scale::Quick);
        for kind in DsKind::all() {
            let get = |sys: &str| {
                rows.iter()
                    .find(|r| r.structure == kind.label() && r.system == sys)
                    .map(|r| (r.open_ns + r.apply_ns) as f64)
                    .unwrap()
            };
            let (c, p) = (get("clobber"), get("pmdk"));
            let ratio = c.max(p) / c.min(p);
            assert!(ratio < 2.0, "{}: clobber {c} vs pmdk {p}", kind.label());
        }
    }
}
