//! Fig. 6: data-structure throughput across libraries and thread counts.
//!
//! YCSB-Load over the four structures (8-byte keys, 32-byte for B+Tree,
//! 256-byte values), systems {Clobber-NVM, PMDK, Atlas, Mnemosyne},
//! threads swept to 24. The paper's headline claims this reproduces:
//! Clobber-NVM beats PMDK everywhere (~1.8× single-thread average, ≥1.9×
//! at 24 threads), beats Atlas by much more, and Mnemosyne closes the gap
//! on global-lock structures at high thread counts.

use std::sync::{Arc, Barrier};

use clobber_nvm::{ArgList, Backend, LockRequest, Runtime, RuntimeOptions};
use clobber_pds::{hashmap, skiplist, HashMap, SkipList};
use clobber_pmem::{PmemPool, PoolOptions};
use clobber_sim::{run_des, CostModel, OpSource, SimOp};

use crate::common::{make_runtime, DsHandle, DsKind, DsOpSource, Scale};
use clobber_workloads::WorkloadKind;

/// One throughput measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// System label (clobber/pmdk/atlas/mnemosyne).
    pub system: &'static str,
    /// Structure label.
    pub structure: &'static str,
    /// Logical threads.
    pub threads: usize,
    /// Value size in bytes.
    pub value_size: usize,
    /// Simulated throughput in operations per second.
    pub throughput: f64,
}

/// CSV header (matches the artifact's fig6.csv shape).
pub const HEADER: &str = "system,structure,threads,value_size,throughput_ops_per_sec";

impl Row {
    /// One CSV line.
    pub fn csv(&self) -> String {
        format!(
            "{},{},{},{},{:.0}",
            self.system, self.structure, self.threads, self.value_size, self.throughput
        )
    }
}

/// The systems compared in Fig. 6.
pub fn systems() -> [Backend; 4] {
    [
        Backend::clobber(),
        Backend::Undo,
        Backend::Atlas,
        Backend::Redo,
    ]
}

/// Runs one cell of the figure.
pub fn run_cell(
    kind: DsKind,
    backend: Backend,
    threads: usize,
    total_ops: u64,
    scale: Scale,
) -> Row {
    let (_pool, rt) = make_runtime(backend, scale);
    let handle = DsHandle::create(kind, &rt);
    let mut src = DsOpSource::new(
        handle,
        rt.clone(),
        backend,
        WorkloadKind::Load,
        total_ops,
        kind.value_size(),
        threads,
        42,
    );
    let result = run_des(threads, &mut src);
    Row {
        system: backend.label(),
        structure: kind.label(),
        threads,
        value_size: kind.value_size(),
        throughput: result.throughput_ops_per_sec(),
    }
}

/// Runs the full figure sweep.
pub fn run(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in DsKind::all() {
        for backend in systems() {
            for &threads in &scale.threads() {
                rows.push(run_cell(kind, backend, threads, scale.ds_ops(), scale));
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Real multi-thread Clobber series: racing OS threads through the
// LockManager, timed by the DES cost model.

/// One real-multithread measurement: racing OS threads execute locked
/// transactions for real (per-bucket locks vs a single serializing lock);
/// persistence costs are *measured* from the stats delta, and the makespan
/// comes from replaying the measured average op cost and the real lock
/// sets through [`run_des`] — the container has one CPU, so the cost model
/// is the wall clock (see EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct MtRow {
    /// Structure label (hashmap/skiplist).
    pub structure: &'static str,
    /// Lock series: the structure's native granularity (`per-node`) or a
    /// single lock serializing every transaction (`global-lock`).
    pub series: &'static str,
    /// Racing OS threads.
    pub threads: usize,
    /// Transactions committed across all threads.
    pub txs: u64,
    /// Measured ordering fences per transaction.
    pub fences_per_tx: f64,
    /// Lock-manager waits observed during the racing run.
    pub lock_waits: u64,
    /// Cost-model throughput in operations per second.
    pub throughput: f64,
}

/// CSV header for the multi-thread series (`fig6_mt.csv`).
pub const MT_HEADER: &str =
    "structure,series,threads,txs,fences_per_tx,lock_waits,throughput_ops_per_sec";

impl MtRow {
    /// One CSV line.
    pub fn csv(&self) -> String {
        format!(
            "{},{},{},{},{:.2},{},{:.0}",
            self.structure,
            self.series,
            self.threads,
            self.txs,
            self.fences_per_tx,
            self.lock_waits,
            self.throughput
        )
    }
}

/// Lock id for the serializing `global-lock` baseline (outside any
/// structure's `lock_of` namespace).
const MT_GLOBAL_LOCK: u64 = 0x61B0_CA11;

/// Replays recorded lock sets at a fixed measured per-op cost.
struct ReplaySource {
    per_thread: Vec<std::collections::VecDeque<Vec<LockRequest>>>,
    cost_ns: u64,
}

impl OpSource for ReplaySource {
    fn next_op(&mut self, thread: usize) -> Option<SimOp> {
        let locks = self.per_thread[thread].pop_front()?;
        let cost = self.cost_ns;
        Some(SimOp {
            locks,
            execute: Box::new(move || cost),
        })
    }
}

enum MtHandle {
    H(HashMap),
    S(SkipList),
}

/// Keys for thread `t`: disjoint *lock* sets across threads (a lock id is
/// owned by `lock mod threads`), so the per-node series never contends.
fn mt_keys(map: &HashMap, threads: usize, ops_per_thread: usize) -> Vec<Vec<u64>> {
    let mut keys: Vec<Vec<u64>> = vec![Vec::new(); threads];
    let mut k = 1u64;
    while keys.iter().any(|v| v.len() < ops_per_thread) {
        let t = (map.lock_of(k) % threads as u64) as usize;
        if keys[t].len() < ops_per_thread {
            keys[t].push(k);
        }
        k += 1;
    }
    keys
}

/// Runs one cell of the real multi-thread series.
pub fn run_mt_cell(
    kind: DsKind,
    series: &'static str,
    threads: usize,
    ops_per_thread: usize,
) -> MtRow {
    let pool = Arc::new(PmemPool::create(PoolOptions::performance(64 << 20)).expect("pool"));
    let rt = Arc::new(
        Runtime::create(pool.clone(), RuntimeOptions::new(Backend::clobber())).expect("runtime"),
    );
    let (handle, keys) = match kind {
        DsKind::Hashmap => {
            HashMap::register(&rt);
            let map = HashMap::create(&rt).expect("create");
            let keys = mt_keys(&map, threads, ops_per_thread);
            (MtHandle::H(map), keys)
        }
        DsKind::Skiplist => {
            SkipList::register(&rt);
            let sl = SkipList::create(&rt).expect("create");
            let keys = (0..threads as u64)
                .map(|t| (0..ops_per_thread as u64).map(|i| t * 1000 + i).collect())
                .collect();
            (MtHandle::S(sl), keys)
        }
        _ => panic!("multi-thread series covers hashmap and skiplist"),
    };
    let value = vec![0xABu8; kind.value_size()];

    // The real racing run, measured — slots made first: whether a thread
    // reuses a finished one's slot is the scheduler's call, and creating a
    // slot (two log buffers) outweighs many inserts.
    rt.slot_handle(threads - 1).expect("slots");
    let before = pool.stats().snapshot();
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        for thread_keys in &keys {
            let (rt, handle, start, value) = (&rt, &handle, &start, &value);
            s.spawn(move || {
                start.wait();
                for &k in thread_keys {
                    match (handle, series) {
                        (MtHandle::H(map), "per-node") => {
                            map.insert_sync(rt, k, value).expect("insert")
                        }
                        (MtHandle::H(map), _) => {
                            let args = ArgList::new()
                                .with_u64(map.arg())
                                .with_u64(k)
                                .with_bytes(value);
                            rt.run_locked(
                                &[LockRequest::exclusive(MT_GLOBAL_LOCK)],
                                hashmap::TX_INSERT,
                                &args,
                            )
                            .expect("insert");
                        }
                        (MtHandle::S(sl), "per-node") => {
                            sl.insert_sync(rt, k, value).expect("insert")
                        }
                        (MtHandle::S(sl), _) => {
                            let args = ArgList::new()
                                .with_u64(sl.root().offset())
                                .with_u64(k)
                                .with_bytes(value);
                            rt.run_locked(
                                &[LockRequest::exclusive(MT_GLOBAL_LOCK)],
                                skiplist::TX_INSERT,
                                &args,
                            )
                            .expect("insert");
                        }
                    }
                }
            });
        }
    });
    let delta = pool.stats().snapshot().delta(&before);
    let txs = threads as u64 * ops_per_thread as u64;
    assert_eq!(
        delta.lock_acquisitions, txs,
        "every racing insert took its lock set exactly once"
    );

    // DES replay: measured average op cost, real lock sets.
    let cost_ns = (CostModel::optane().op_cost(&delta) / txs).max(1);
    let lock_sets = |t: usize| -> std::collections::VecDeque<Vec<LockRequest>> {
        keys[t]
            .iter()
            .map(|&k| {
                let lock = match (&handle, series) {
                    (MtHandle::H(map), "per-node") => map.lock_of(k),
                    (MtHandle::S(sl), "per-node") => sl.lock(),
                    _ => MT_GLOBAL_LOCK,
                };
                vec![LockRequest::exclusive(lock)]
            })
            .collect()
    };
    let mut src = ReplaySource {
        per_thread: (0..threads).map(lock_sets).collect(),
        cost_ns,
    };
    let result = run_des(threads, &mut src);
    assert_eq!(result.total_ops, txs);
    MtRow {
        structure: kind.label(),
        series,
        threads,
        txs,
        fences_per_tx: delta.fences as f64 / txs as f64,
        lock_waits: delta.lock_waits,
        throughput: result.throughput_ops_per_sec(),
    }
}

/// Thread counts for the real multi-thread series (bounded: every cell is
/// a real racing run on one CPU).
pub fn mt_threads(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1, 2, 4],
        Scale::Full => vec![1, 2, 4, 8],
    }
}

/// Runs the real multi-thread Clobber series: both lock series over the
/// concurrent hashmap and skiplist at each thread count, asserting the
/// DES-oracle ordering (per-node never loses to the serializing lock).
pub fn run_multithread(scale: Scale) -> Vec<MtRow> {
    let ops = match scale {
        Scale::Quick => 16,
        Scale::Full => 64,
    };
    let mut rows = Vec::new();
    for kind in [DsKind::Hashmap, DsKind::Skiplist] {
        for &threads in &mt_threads(scale) {
            let per_node = run_mt_cell(kind, "per-node", threads, ops);
            let global = run_mt_cell(kind, "global-lock", threads, ops);
            // The DES-oracle ordering. For the hashmap the granularities
            // genuinely differ, so per-node must win (or tie at one
            // thread). The skiplist's native lock *is* global — the two
            // series are the same experiment and may only diverge by
            // racing-interleaving noise (allocation placement shifts
            // cache-line flush coalescing), so the bound is a noise band.
            let floor = if kind == DsKind::Hashmap { 0.999 } else { 0.5 };
            assert!(
                per_node.throughput >= global.throughput * floor,
                "{} at {} threads: per-node {:.0} must not lose to global-lock {:.0}",
                kind.label(),
                threads,
                per_node.throughput,
                global.throughput
            );
            rows.push(per_node);
            rows.push(global);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quick-scale rows computed once and shared by all tests in this
    /// module (the sweep is the expensive part).
    fn cached_rows() -> &'static [Row] {
        static ROWS: std::sync::OnceLock<Vec<Row>> = std::sync::OnceLock::new();
        ROWS.get_or_init(|| run(Scale::Quick))
    }

    fn throughput(rows: &[Row], system: &str, structure: &str, threads: usize) -> f64 {
        rows.iter()
            .find(|r| r.system == system && r.structure == structure && r.threads == threads)
            .map(|r| r.throughput)
            .expect("row")
    }

    #[test]
    fn clobber_beats_undo_and_atlas_single_thread() {
        let rows = cached_rows();
        for ds in ["hashmap", "skiplist", "rbtree", "bptree"] {
            let clobber = throughput(rows, "clobber", ds, 1);
            let pmdk = throughput(rows, "pmdk", ds, 1);
            let atlas = throughput(rows, "atlas", ds, 1);
            assert!(
                clobber > pmdk,
                "{ds}: clobber {clobber:.0} vs pmdk {pmdk:.0}"
            );
            assert!(pmdk > atlas, "{ds}: pmdk {pmdk:.0} vs atlas {atlas:.0}");
        }
    }

    #[test]
    fn bptree_scales_with_per_leaf_locks() {
        let rows = cached_rows();
        let t1 = throughput(rows, "clobber", "bptree", 1);
        let t4 = throughput(rows, "clobber", "bptree", 4);
        assert!(t4 > t1 * 1.5, "bptree should scale: {t1:.0} -> {t4:.0}");
    }

    #[test]
    fn mnemosyne_scales_on_global_lock_structures() {
        // Paper: Mnemosyne matches Clobber-NVM on rbtree/skiplist at high
        // thread counts because it is not serialized by the global lock.
        let rows = cached_rows();
        let clobber_gain =
            throughput(rows, "clobber", "skiplist", 4) / throughput(rows, "clobber", "skiplist", 1);
        let mnemosyne_gain = throughput(rows, "mnemosyne", "skiplist", 4)
            / throughput(rows, "mnemosyne", "skiplist", 1);
        assert!(
            mnemosyne_gain > clobber_gain,
            "mnemosyne {mnemosyne_gain:.2}x vs clobber {clobber_gain:.2}x"
        );
    }

    #[test]
    fn csv_rows_are_well_formed() {
        let r = Row {
            system: "clobber",
            structure: "skiplist",
            threads: 1,
            value_size: 256,
            throughput: 181_000.0,
        };
        assert_eq!(r.csv(), "clobber,skiplist,1,256,181000");
    }

    /// Quick-scale multi-thread rows, computed once (each cell is a real
    /// racing run).
    fn cached_mt_rows() -> &'static [MtRow] {
        static ROWS: std::sync::OnceLock<Vec<MtRow>> = std::sync::OnceLock::new();
        ROWS.get_or_init(|| run_multithread(Scale::Quick))
    }

    fn mt_row(structure: &str, series: &str, threads: usize) -> &'static MtRow {
        cached_mt_rows()
            .iter()
            .find(|r| r.structure == structure && r.series == series && r.threads == threads)
            .expect("row")
    }

    /// The tentpole acceptance: measured scaling shape matches the DES
    /// oracle — per-node never loses to the serializing lock at any
    /// thread count (also asserted inside `run_multithread` itself).
    #[test]
    fn mt_per_node_beats_global_lock_at_every_thread_count() {
        for &threads in &mt_threads(Scale::Quick) {
            let pn = mt_row("hashmap", "per-node", threads).throughput;
            let gl = mt_row("hashmap", "global-lock", threads).throughput;
            assert!(
                pn >= gl * 0.999,
                "hashmap@{threads}: per-node {pn:.0} vs global {gl:.0}"
            );
            if threads > 1 {
                // Overlap is eroded below the ideal `threads`x because
                // racing interleavings coalesce cache-line flushes worse
                // than a serialized run; half the ideal is a safe floor
                // (measured: 2.3x at 2 threads, 5.0x at 4).
                let floor = threads as f64 * 0.5;
                assert!(
                    pn > gl * floor,
                    "hashmap@{threads}: per-node must genuinely overlap: {pn:.0} vs {gl:.0}"
                );
            }
        }
    }

    /// Per-bucket locks scale the hashmap; the skiplist's native global
    /// lock keeps it flat (the paper's Mnemosyne talking point).
    #[test]
    fn mt_hashmap_scales_but_skiplist_stays_flat() {
        let hm1 = mt_row("hashmap", "per-node", 1).throughput;
        let hm4 = mt_row("hashmap", "per-node", 4).throughput;
        assert!(hm4 > hm1 * 1.5, "hashmap: {hm1:.0} -> {hm4:.0}");
        // The skiplist band is loose: the 1- and 4-thread runs insert
        // different key sets (different node heights) and racing runs
        // jitter flush coalescing by ~20%, so "flat" means "well short
        // of the hashmap's genuine >=2x overlap", not bit-equal.
        let sl1 = mt_row("skiplist", "per-node", 1).throughput;
        let sl4 = mt_row("skiplist", "per-node", 4).throughput;
        assert!(sl4 < sl1 * 2.0, "skiplist: {sl1:.0} -> {sl4:.0}");
    }

    /// Disjoint per-bucket lock sets never wait.
    #[test]
    fn mt_lock_counters_behave() {
        let pn = mt_row("hashmap", "per-node", 4);
        assert_eq!(pn.lock_waits, 0, "disjoint buckets never queue");
        // No assertion on the serializing series' lock_waits: on a 1-CPU
        // host a thread often runs its whole loop before a peer is even
        // scheduled, so real queueing is timing-dependent.
    }

    #[test]
    fn mt_csv_rows_are_well_formed() {
        let r = MtRow {
            structure: "hashmap",
            series: "per-node",
            threads: 4,
            txs: 64,
            fences_per_tx: 3.25,
            lock_waits: 0,
            throughput: 98_765.4,
        };
        assert_eq!(r.csv(), "hashmap,per-node,4,64,3.25,0,98765");
    }
}
