//! `ds_load`: the paper's Fig. 6/7 cell. YCSB-Load (256-byte values) via
//! `insert_on(slot 0)` into bptree, hashmap, skiplist and rbtree in turn,
//! each in a fresh performance pool. No kvnet, no lock manager.

use std::sync::Arc;
use std::time::Instant;

use clobber_nvm::{Backend, Runtime, RuntimeOptions, TxError};
use clobber_pds::{value::key32, BpTree, HashMap, RbTree, SkipList};
use clobber_pmem::{PmemPool, PoolOptions};
use clobber_sim::CostModel;
use clobber_workloads::{KvOp, Workload, WorkloadKind};

use super::{DsOut, RoundOut};
use crate::alloc_count::{counted, set_counting};
use crate::metrics::Events;
use crate::rng::{mix, SplitMix64};
use crate::spans::{self, span};
use crate::stats::percentile_nearest_rank;

/// Inserts per structure per round (80 K per round).
pub const INSERTS_PER_STRUCTURE: u64 = 20_000;
/// Value size of the paper's data-structure experiments.
pub const VALUE_SIZE: usize = 256;
/// Keys read back per structure after the timed inserts.
const READ_BACK: u64 = 1_000;
/// Pool size per structure: ~10 MiB of nodes and values at full size.
pub const POOL_BYTES: u64 = 48 << 20;

/// The four structures, in the paper's figure order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ds {
    /// B+Tree (32-byte keys).
    Bptree,
    /// 256-bucket hash map.
    Hashmap,
    /// Skiplist.
    Skiplist,
    /// Red-black tree.
    Rbtree,
}

impl Ds {
    /// All four, in figure order (= index into `RoundOut::per_ds`).
    pub const ALL: [Ds; 4] = [Ds::Bptree, Ds::Hashmap, Ds::Skiplist, Ds::Rbtree];

    /// Module name under `pds.`.
    pub fn label(self) -> &'static str {
        match self {
            Ds::Bptree => "bptree",
            Ds::Hashmap => "hashmap",
            Ds::Skiplist => "skiplist",
            Ds::Rbtree => "rbtree",
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Ds::Bptree => "pds.bptree.insert_on",
            Ds::Hashmap => "pds.hashmap.insert_on",
            Ds::Skiplist => "pds.skiplist.insert_on",
            Ds::Rbtree => "pds.rbtree.insert_on",
        }
    }
}

/// A created instance of one structure.
enum Handle {
    B(BpTree),
    H(HashMap),
    S(SkipList),
    R(RbTree),
}

impl Handle {
    fn create(ds: Ds, rt: &Runtime) -> Result<Handle, TxError> {
        Ok(match ds {
            Ds::Bptree => {
                BpTree::register(rt);
                Handle::B(BpTree::create(rt)?)
            }
            Ds::Hashmap => {
                HashMap::register(rt);
                Handle::H(HashMap::create(rt)?)
            }
            Ds::Skiplist => {
                SkipList::register(rt);
                Handle::S(SkipList::create(rt)?)
            }
            Ds::Rbtree => {
                RbTree::register(rt);
                Handle::R(RbTree::create(rt)?)
            }
        })
    }

    fn insert(&self, rt: &Runtime, key: u64, value: &[u8]) -> Result<(), TxError> {
        match self {
            Handle::B(t) => t.insert_on(rt, 0, &key32(key), value),
            Handle::H(t) => t.insert_on(rt, 0, key, value),
            Handle::S(t) => t.insert_on(rt, 0, key, value),
            Handle::R(t) => t.insert_on(rt, 0, key, value),
        }
    }

    fn get(&self, rt: &Runtime, key: u64) -> Result<Option<Vec<u8>>, TxError> {
        match self {
            Handle::B(t) => t.get_u64_on(rt, 0, key),
            Handle::H(t) => t.get_on(rt, 0, key),
            Handle::S(t) => t.get_on(rt, 0, key),
            Handle::R(t) => t.get_on(rt, 0, key),
        }
    }
}

/// The seeded insert stream: YCSB-Load's distinct keys in its scrambled
/// order. Load's key order does not depend on its seed, so a seed-derived
/// mask is XORed into every key (a bijection: keys stay distinct) and the
/// value is rebuilt for the masked key.
pub fn insert_stream(count: u64, seed: u64) -> Vec<(u64, Vec<u8>)> {
    let mask = mix(seed);
    Workload::new(WorkloadKind::Load, count, VALUE_SIZE, seed)
        .map(|op| match op {
            KvOp::Insert { key, .. } => {
                let key = key ^ mask;
                (key, Workload::value_for(key, VALUE_SIZE))
            }
            other => unreachable!("YCSB-Load only inserts, got {other:?}"),
        })
        .collect()
}

/// One round: `inserts` inserts into each structure under `backend`.
pub fn run_round(
    inserts: u64,
    pool_bytes: u64,
    seed: u64,
    traced: bool,
    backend: Backend,
) -> RoundOut {
    let mut out = RoundOut::default();
    let cost = CostModel::optane();
    let mut sim_lat: Vec<u64> = Vec::with_capacity(4 * inserts as usize);
    if traced {
        spans::enable(4 * inserts as usize + 16);
    }
    let (allocs0, bytes0) = counted();

    for (i, ds) in Ds::ALL.into_iter().enumerate() {
        let setup = Instant::now();
        let pool = Arc::new(PmemPool::create(PoolOptions::performance(pool_bytes)).expect("pool"));
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).expect("runtime");
        let handle = Handle::create(ds, &rt).expect("create structure");
        let stream = insert_stream(inserts, seed);
        out.setup_ns += setup.elapsed().as_nanos() as u64;

        let stats = pool.stats().clone();
        let first = stats.snapshot();
        let mut before = first;
        let mut per = DsOut::default();
        for (n, (key, value)) in stream.iter().enumerate() {
            spans::set_group(n as u64);
            set_counting(true);
            let t = Instant::now();
            let res = {
                let _s = span(ds.span_name());
                handle.insert(&rt, *key, value)
            };
            per.host_ns += t.elapsed().as_nanos() as u64;
            set_counting(false);
            // The snapshot is taken outside the timed span; the next op's
            // "before" is this op's "after".
            let after = stats.snapshot();
            let sim = cost.op_cost(&after.delta(&before));
            before = after;
            per.sim_ns += sim;
            per.ops += 1;
            sim_lat.push(sim);
            if let Err(e) = res {
                out.fail(|| format!("{} insert of key {key:#x}: {e}", ds.label()));
            }
        }
        out.delta.add(&Events::of(&before.delta(&first)));
        out.rss_mib = out.rss_mib.max(crate::unit::rss_mib());

        // Read back a seeded sample, outside the timed spans.
        let mut rng = SplitMix64::new(seed ^ 0xD5_10AD ^ i as u64);
        for _ in 0..READ_BACK.min(inserts) {
            let (key, value) = &stream[rng.below(inserts) as usize];
            match handle.get(&rt, *key) {
                Ok(Some(got)) if got == *value => {}
                other => out.fail(|| {
                    format!(
                        "{} read-back of key {key:#x}: {:?}",
                        ds.label(),
                        other.map(|v| v.map(|v| v.len()))
                    )
                }),
            }
        }
        if let Err(e) = pool.check_heap() {
            out.heap_check_failures += 1;
            out.heap_error.get_or_insert(format!("{}: {e}", ds.label()));
            out.fail(|| format!("{} check_heap: {e}", ds.label()));
        }
        out.per_ds[i] = per;
    }

    let (allocs1, bytes1) = counted();
    out.allocs = allocs1 - allocs0;
    out.alloc_bytes = bytes1 - bytes0;
    if traced {
        out.spans = spans::take();
    }
    out.ops = 4 * inserts;
    out.priced_calls = out.ops;
    out.server_ns = out.per_ds.iter().map(|d| d.host_ns).sum();
    out.sim_ns = out.per_ds.iter().map(|d| d.sim_ns).sum();
    sim_lat.sort_unstable();
    out.sim_p50_ns = percentile_nearest_rank(&sim_lat, 0.50);
    out.sim_p99_ns = percentile_nearest_rank(&sim_lat, 0.99);
    out.sim_samples = sim_lat.len() as u64;
    out
}
