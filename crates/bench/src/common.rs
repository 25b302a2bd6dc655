//! Shared experiment infrastructure: runtime construction, the
//! data-structure abstraction over the four benchmark structures, the
//! DES operation source for YCSB streams, and CSV output.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use std::sync::Mutex;

use clobber_nvm::{Backend, Runtime, RuntimeOptions, TxError};
use clobber_pds::{value::key32, BpTree, HashMap, RbTree, SkipList};
use clobber_pmem::{PmemPool, PoolOptions, StatsSnapshot, Trace, Tracer};
use clobber_sim::{CostModel, LockRequest, OpSource, SimOp};
use clobber_workloads::{KvOp, Workload, WorkloadKind};

/// Experiment scale: quick (`repro --quick` and the unit tests) or full
/// (`repro`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small op counts for fast iteration.
    Quick,
    /// Paper-shaped op counts.
    Full,
}

impl Scale {
    /// YCSB-Load operations per data-structure run.
    pub fn ds_ops(&self) -> u64 {
        match self {
            Scale::Quick => 256,
            Scale::Full => 10_000,
        }
    }

    /// Thread counts swept in scaling figures (paper: up to 24).
    pub fn threads(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1, 4],
            Scale::Full => vec![1, 2, 4, 8, 16, 24],
        }
    }

    /// Requests per kvserver run.
    pub fn kv_ops(&self) -> u64 {
        match self {
            Scale::Quick => 256,
            Scale::Full => 8_000,
        }
    }

    /// Requests per simulated client in the networked-service figure.
    pub fn kv_net_requests(&self) -> u64 {
        match self {
            Scale::Quick => 48,
            Scale::Full => 256,
        }
    }

    /// Vacation tasks per run.
    pub fn vacation_tasks(&self) -> u64 {
        match self {
            Scale::Quick => 120,
            Scale::Full => 4_000,
        }
    }

    /// Yada input points.
    pub fn yada_points(&self) -> usize {
        match self {
            Scale::Quick => 48,
            Scale::Full => 800,
        }
    }

    /// Pool size in bytes.
    pub fn pool_bytes(&self) -> u64 {
        match self {
            Scale::Quick => 128 << 20,
            Scale::Full => 1 << 30,
        }
    }
}

/// One-shot trace capture state for `--trace-out`: armed by the repro
/// binary, attached to the next pool [`make_runtime`] creates (the
/// figure's first cell — a representative sample), drained afterwards.
enum TraceCapture {
    Off,
    Armed,
    Capturing(Arc<Tracer>),
}

static TRACE_CAPTURE: Mutex<TraceCapture> = Mutex::new(TraceCapture::Off);

/// Arms one-shot trace capture: the next pool built by [`make_runtime`]
/// records its persist-event trace until [`take_captured_trace`] drains
/// it. Tracing stays off for every other pool, so benchmark numbers are
/// unaffected unless capture was explicitly requested.
pub fn arm_trace_capture() {
    *TRACE_CAPTURE.lock().unwrap() = TraceCapture::Armed;
}

/// Takes the trace captured since [`arm_trace_capture`], if any pool was
/// created while armed, and disarms.
pub fn take_captured_trace() -> Option<Trace> {
    match std::mem::replace(&mut *TRACE_CAPTURE.lock().unwrap(), TraceCapture::Off) {
        TraceCapture::Capturing(tracer) => Some(tracer.take()),
        _ => None,
    }
}

/// Creates a performance-mode pool and runtime for the given backend.
pub fn make_runtime(backend: Backend, scale: Scale) -> (Arc<PmemPool>, Arc<Runtime>) {
    let pool =
        Arc::new(PmemPool::create(PoolOptions::performance(scale.pool_bytes())).expect("pool"));
    {
        let mut cap = TRACE_CAPTURE.lock().unwrap();
        if matches!(*cap, TraceCapture::Armed) {
            let tracer = Arc::new(Tracer::with_capacity(1 << 20));
            pool.set_tracer(Some(tracer.clone()));
            *cap = TraceCapture::Capturing(tracer);
        }
    }
    let rt =
        Arc::new(Runtime::create(pool.clone(), RuntimeOptions::new(backend)).expect("runtime"));
    (pool, rt)
}

/// The four benchmark data structures of the paper's §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsKind {
    /// 256-rwlock-bucket hash map.
    Hashmap,
    /// 32-level skiplist, global lock.
    Skiplist,
    /// Red-black tree, global rwlock.
    Rbtree,
    /// B+Tree, per-leaf locks, 32-byte keys.
    Bptree,
}

impl DsKind {
    /// All four, in the paper's figure order.
    pub fn all() -> [DsKind; 4] {
        [
            DsKind::Bptree,
            DsKind::Hashmap,
            DsKind::Skiplist,
            DsKind::Rbtree,
        ]
    }

    /// CSV label.
    pub fn label(&self) -> &'static str {
        match self {
            DsKind::Hashmap => "hashmap",
            DsKind::Skiplist => "skiplist",
            DsKind::Rbtree => "rbtree",
            DsKind::Bptree => "bptree",
        }
    }

    /// Value size per the paper (256 bytes everywhere).
    pub fn value_size(&self) -> usize {
        256
    }
}

/// A created instance of one of the benchmark structures.
#[derive(Debug, Clone, Copy)]
pub enum DsHandle {
    /// Hash map instance.
    H(HashMap),
    /// Skiplist instance.
    S(SkipList),
    /// Red-black tree instance.
    R(RbTree),
    /// B+Tree instance.
    B(BpTree),
}

impl DsHandle {
    /// Registers the structure's txfuncs and creates an instance.
    pub fn create(kind: DsKind, rt: &Runtime) -> DsHandle {
        match kind {
            DsKind::Hashmap => {
                HashMap::register(rt);
                DsHandle::H(HashMap::create(rt).expect("create"))
            }
            DsKind::Skiplist => {
                SkipList::register(rt);
                DsHandle::S(SkipList::create(rt).expect("create"))
            }
            DsKind::Rbtree => {
                RbTree::register(rt);
                DsHandle::R(RbTree::create(rt).expect("create"))
            }
            DsKind::Bptree => {
                BpTree::register(rt);
                DsHandle::B(BpTree::create(rt).expect("create"))
            }
        }
    }

    /// Executes `op` on logical-thread `slot`.
    pub fn exec(&self, rt: &Runtime, slot: usize, op: &KvOp) {
        self.try_exec(rt, slot, op).expect("structure op")
    }

    /// [`exec`](Self::exec) for the caller that crashes the pool under `op`.
    pub(crate) fn try_exec(&self, rt: &Runtime, slot: usize, op: &KvOp) -> Result<(), TxError> {
        match (self, op) {
            (DsHandle::H(h), KvOp::Insert { key, value } | KvOp::Update { key, value }) => {
                h.insert_on(rt, slot, *key, value)
            }
            (DsHandle::H(h), KvOp::Read { key }) => h.get_on(rt, slot, *key).map(drop),
            (DsHandle::S(s), KvOp::Insert { key, value } | KvOp::Update { key, value }) => {
                s.insert_on(rt, slot, *key, value)
            }
            (DsHandle::S(s), KvOp::Read { key }) => s.get_on(rt, slot, *key).map(drop),
            (DsHandle::R(t), KvOp::Insert { key, value } | KvOp::Update { key, value }) => {
                t.insert_on(rt, slot, *key, value)
            }
            (DsHandle::R(t), KvOp::Read { key }) => t.get_on(rt, slot, *key).map(drop),
            (DsHandle::B(t), KvOp::Insert { key, value } | KvOp::Update { key, value }) => {
                t.insert_on(rt, slot, &key32(*key), value)
            }
            (DsHandle::B(t), KvOp::Read { key }) => t.get_u64_on(rt, slot, *key).map(drop),
        }
    }

    /// The simulated-lock set for `op`, reflecting each structure's locking
    /// scheme (paper §5.2). Under the redo backend (Mnemosyne), code is
    /// parallelized by its transactional-memory model rather than the
    /// structure locks, so conflicts happen at key granularity.
    pub fn locks_for(&self, pool: &PmemPool, backend: Backend, op: &KvOp) -> Vec<LockRequest> {
        if backend == Backend::Redo {
            // Optimistic TM: conflicts only on the same key (plus a
            // structure-level shared lock to model commit-time arbitration).
            let key_lock = 0x7000_0000_0000_0000u64 ^ op.key().wrapping_mul(11);
            return vec![LockRequest::exclusive(key_lock)];
        }
        match self {
            DsHandle::H(h) => {
                let l = h.lock_of(op.key());
                if op.is_write() {
                    vec![LockRequest::exclusive(l)]
                } else {
                    vec![LockRequest::shared(l)]
                }
            }
            DsHandle::S(s) => vec![if op.is_write() {
                LockRequest::exclusive(s.lock())
            } else {
                LockRequest::shared(s.lock())
            }],
            DsHandle::R(t) => vec![if op.is_write() {
                LockRequest::exclusive(t.lock())
            } else {
                LockRequest::shared(t.lock())
            }],
            DsHandle::B(t) => {
                let (leaf, full, parent) = t
                    .locate_leaf_path(pool, &key32(op.key()))
                    .expect("locate leaf");
                if op.is_write() {
                    if full {
                        // Hand-over-hand split: leaf plus its parent (the
                        // tree lock only when splitting the root itself).
                        let upper = match parent {
                            Some(p) => t.leaf_lock(p),
                            None => t.smo_lock(),
                        };
                        vec![
                            LockRequest::exclusive(t.leaf_lock(leaf)),
                            LockRequest::exclusive(upper),
                        ]
                    } else {
                        vec![LockRequest::exclusive(t.leaf_lock(leaf))]
                    }
                } else {
                    vec![LockRequest::shared(t.leaf_lock(leaf))]
                }
            }
        }
    }
}

/// DES op source feeding per-thread YCSB streams into a data structure.
pub struct DsOpSource {
    handle: DsHandle,
    rt: Arc<Runtime>,
    backend: Backend,
    ops: Vec<VecDeque<KvOp>>,
    cost: CostModel,
}

impl DsOpSource {
    /// Splits a YCSB workload round-robin over `threads` logical threads.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        handle: DsHandle,
        rt: Arc<Runtime>,
        backend: Backend,
        kind: WorkloadKind,
        total_ops: u64,
        value_size: usize,
        threads: usize,
        seed: u64,
    ) -> DsOpSource {
        let mut ops: Vec<VecDeque<KvOp>> = (0..threads).map(|_| VecDeque::new()).collect();
        for (i, op) in Workload::new(kind, total_ops, value_size, seed).enumerate() {
            ops[i % threads].push_back(op);
        }
        DsOpSource {
            handle,
            rt,
            backend,
            ops,
            cost: CostModel::optane(),
        }
    }
}

impl OpSource for DsOpSource {
    fn next_op(&mut self, thread: usize) -> Option<SimOp> {
        let op = self.ops[thread].pop_front()?;
        let locks = self.handle.locks_for(self.rt.pool(), self.backend, &op);
        let handle = self.handle;
        let rt = self.rt.clone();
        let cost = self.cost;
        Some(SimOp {
            locks,
            execute: Box::new(move || {
                let before = rt.pool().stats().snapshot();
                handle.exec(&rt, thread, &op);
                let delta = rt.pool().stats().snapshot().delta(&before);
                cost.op_cost(&delta)
            }),
        })
    }
}

/// Per-transaction averages computed from a stats delta.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerTx {
    /// Log entries (clobber/undo/redo) per transaction.
    pub log_entries: f64,
    /// Log bytes per transaction.
    pub log_bytes: f64,
    /// v_log entries per transaction.
    pub vlog_entries: f64,
    /// v_log bytes per transaction.
    pub vlog_bytes: f64,
    /// Ordering fences per transaction.
    pub fences: f64,
    /// Flushes per transaction.
    pub flushes: f64,
}

impl PerTx {
    /// Averages `delta` over `n` transactions.
    pub fn from_delta(delta: &StatsSnapshot, n: u64) -> PerTx {
        let n = n.max(1) as f64;
        PerTx {
            log_entries: delta.log_entries as f64 / n,
            log_bytes: delta.log_bytes as f64 / n,
            vlog_entries: delta.vlog_entries as f64 / n,
            vlog_bytes: delta.vlog_bytes as f64 / n,
            fences: delta.fences as f64 / n,
            flushes: delta.flushes as f64 / n,
        }
    }

    /// Total log entries (log + v_log).
    pub fn total_entries(&self) -> f64 {
        self.log_entries + self.vlog_entries
    }

    /// Total log bytes (log + v_log).
    pub fn total_bytes(&self) -> f64 {
        self.log_bytes + self.vlog_bytes
    }

    /// Bytes persisted *to the log region* per transaction: payload plus
    /// the per-entry metadata every log write carries in PMDK's undo log
    /// (the paper's substrate) — the apples-to-apples quantity for
    /// cross-system byte comparisons.
    pub fn persisted_log_bytes(&self) -> f64 {
        /// PMDK's per-entry header: address, length and checksum words.
        const PMDK_ENTRY_OVERHEAD: f64 = 24.0;
        self.total_bytes() + self.log_entries * PMDK_ENTRY_OVERHEAD
    }
}

/// Writes CSV rows (with a header line) to `path`.
///
/// # Errors
///
/// Returns I/O errors from file creation or writing.
pub fn write_csv(path: &Path, header: &str, rows: &[String]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clobber_sim::run_des;

    #[test]
    fn ds_op_source_drives_every_structure() {
        for kind in DsKind::all() {
            let (pool, rt) = make_runtime(Backend::clobber(), Scale::Quick);
            let handle = DsHandle::create(kind, &rt);
            let mut src = DsOpSource::new(
                handle,
                rt.clone(),
                Backend::clobber(),
                WorkloadKind::Load,
                64,
                64,
                2,
                1,
            );
            let result = run_des(2, &mut src);
            assert_eq!(result.total_ops, 64, "{}", kind.label());
            assert!(result.makespan_ns > 0);
            let _ = pool;
        }
    }

    #[test]
    fn global_lock_structures_do_not_scale() {
        // Skiplist inserts under a global lock: 4 threads must not beat 1
        // thread by more than bookkeeping noise.
        let run = |threads: usize| {
            let (_pool, rt) = make_runtime(Backend::clobber(), Scale::Quick);
            let handle = DsHandle::create(DsKind::Skiplist, &rt);
            let mut src = DsOpSource::new(
                handle,
                rt.clone(),
                Backend::clobber(),
                WorkloadKind::Load,
                128,
                64,
                threads,
                2,
            );
            run_des(threads, &mut src).throughput_ops_per_sec()
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(t4 < t1 * 1.3, "global lock must serialize: {t1} vs {t4}");
    }

    #[test]
    fn bucketed_hashmap_scales() {
        let run = |threads: usize| {
            let (_pool, rt) = make_runtime(Backend::clobber(), Scale::Quick);
            let handle = DsHandle::create(DsKind::Hashmap, &rt);
            let mut src = DsOpSource::new(
                handle,
                rt.clone(),
                Backend::clobber(),
                WorkloadKind::Load,
                512,
                64,
                threads,
                3,
            );
            run_des(threads, &mut src).throughput_ops_per_sec()
        };
        let t1 = run(1);
        let t8 = run(8);
        assert!(
            t8 > t1 * 3.0,
            "256 buckets should let 8 threads overlap: {t1} vs {t8}"
        );
    }

    #[test]
    fn per_tx_averages() {
        let d = StatsSnapshot {
            log_entries: 10,
            log_bytes: 80,
            vlog_entries: 5,
            vlog_bytes: 100,
            fences: 20,
            flushes: 40,
            ..Default::default()
        };
        let p = PerTx::from_delta(&d, 5);
        assert_eq!(p.log_entries, 2.0);
        assert_eq!(p.total_entries(), 3.0);
        assert_eq!(p.total_bytes(), 36.0);
    }
}
