//! The four workloads, and what one round of any of them measures.
//!
//! A *round* is one fixed amount of work on fresh state: set-up (pool,
//! preload, request generation), the timed operations, then verification.
//! Op counts are fixed, not time-boxed, so two commits do identical work.

use crate::metrics::Events;
use crate::spans::Span;

pub mod crash;
pub mod ds_load;
pub mod serve;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batched `serve()` loop, 95 % SET.
    KvWriteBatched,
    /// The same service and keys, 5 % SET.
    KvReadHeavy,
    /// YCSB-Load into the four data structures, no service layer.
    DsLoad,
    /// Crash mid-SET, timed restart, durability check.
    KvCrashRecover,
}

impl Workload {
    /// All four, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::KvWriteBatched,
        Workload::KvReadHeavy,
        Workload::DsLoad,
        Workload::KvCrashRecover,
    ];

    /// The name used on the command line and in every result file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvWriteBatched => "kv_write_batched",
            Workload::KvReadHeavy => "kv_read_heavy",
            Workload::DsLoad => "ds_load",
            Workload::KvCrashRecover => "kv_crash_recover",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line; also in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::KvWriteBatched => {
                "95% SET through serve(): lock manager, tx + clobber detection, v_log/ulog, group commit and allocator do the work; snapshot reads do almost none"
            }
            Workload::KvReadHeavy => {
                "same service and keys at 5% SET: codec, admission and snapshot_get dominate, tx/log/lock are nearly idle, so a write-path change must show no change here"
            }
            Workload::DsLoad => {
                "YCSB-Load into bptree, hashmap, skiplist, rbtree with no kvnet and no lock manager: tx body, clobber detection, allocator and ulog alone"
            }
            Workload::KvCrashRecover => {
                "crash strictly inside a SET, timed restart and durability check: the only workload on core::recovery, the cache model and the armed fault mutex"
            }
        }
    }

    /// What one op is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::KvWriteBatched | Workload::KvReadHeavy => "request",
            Workload::DsLoad => "insert",
            Workload::KvCrashRecover => "crash cycle",
        }
    }

    /// Ops in one round at full or `--smoke` size.
    pub fn round_ops(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (Workload::KvWriteBatched, false) => 16 * serve::WRITE_REQUESTS_PER_CLIENT,
            (Workload::KvReadHeavy, false) => 16 * serve::READ_REQUESTS_PER_CLIENT,
            (Workload::DsLoad, false) => 4 * ds_load::INSERTS_PER_STRUCTURE,
            (Workload::KvCrashRecover, false) => crash::CYCLES,
            (Workload::KvWriteBatched, true) => 16 * 500,
            (Workload::KvReadHeavy, true) => 16 * 1_500,
            (Workload::DsLoad, true) => 4 * 1_000,
            (Workload::KvCrashRecover, true) => 12,
        }
    }

    /// Pool size of one round. `--smoke` shrinks it because the end-of-round
    /// `check_heap` copies the whole pool.
    pub fn pool_bytes(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (Workload::KvWriteBatched | Workload::KvReadHeavy, false) => serve::POOL_BYTES,
            (Workload::DsLoad, false) => ds_load::POOL_BYTES,
            (Workload::KvCrashRecover, _) => crash::POOL_BYTES,
            (_, true) => 16 << 20,
        }
    }

    /// Runs one round.
    pub fn run_round(self, seed: u64, smoke: bool, traced: bool) -> RoundOut {
        let ops = self.round_ops(smoke);
        match self {
            Workload::KvWriteBatched => serve::run_round(
                clobber_workloads::Mix::InsertIntensive,
                ops / 16,
                self.pool_bytes(smoke),
                seed,
                traced,
            ),
            Workload::KvReadHeavy => serve::run_round(
                clobber_workloads::Mix::SearchIntensive,
                ops / 16,
                self.pool_bytes(smoke),
                seed,
                traced,
            ),
            Workload::DsLoad => ds_load::run_round(
                ops / 4,
                self.pool_bytes(smoke),
                seed,
                traced,
                clobber_nvm::Backend::clobber(),
            ),
            Workload::KvCrashRecover => crash::run_round(ops, seed, traced),
        }
    }
}

/// Host time and simulated time one data structure took in `ds_load`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsOut {
    /// Inserts executed.
    pub ops: u64,
    /// Host ns inside `insert_on`.
    pub host_ns: u64,
    /// Cost-model ns of the same inserts.
    pub sim_ns: u64,
}

/// What one round measured. Fields a workload has no use for stay zero.
#[derive(Debug, Clone, Default)]
pub struct RoundOut {
    /// Ops attempted (requests, inserts, restarts).
    pub ops: u64,
    /// Ops that failed, were shed or retried, or failed verification.
    pub failed: u64,
    /// First verification failure, for the log.
    pub first_failure: Option<String>,
    /// Host ns of set-up: pool create + preload + request generation.
    pub setup_ns: u64,
    /// Host ns inside server-side code for the timed ops.
    pub server_ns: u64,
    /// Host ns the load generator and response checking took.
    pub client_ns: u64,
    /// Heap allocations made inside server-side code.
    pub allocs: u64,
    /// Bytes of those allocations.
    pub alloc_bytes: u64,
    /// Persistence events of the timed ops.
    pub delta: Events,
    /// `CostModel::op_cost` calls behind `sim_ns` (each adds the base term).
    pub priced_calls: u64,
    /// Simulated duration of the timed ops.
    pub sim_ns: u64,
    /// Simulated per-op latency, median (nearest rank).
    pub sim_p50_ns: u64,
    /// Simulated per-op latency, 99th percentile (nearest rank).
    pub sim_p99_ns: u64,
    /// Samples behind the two percentiles.
    pub sim_samples: u64,
    /// Resident set at the end of the timed ops, MiB (the end-of-round
    /// checks copy the pool and are kept out of the figure).
    pub rss_mib: f64,
    /// 1 if `check_heap` failed at the end of the round.
    pub heap_check_failures: u64,
    /// The `check_heap` error, for the log.
    pub heap_error: Option<String>,

    /// serve: batches the service executed.
    pub batches: u64,
    /// serve: cost-model ns charged to the transport, summed over batches.
    pub batch_cost_ns: u64,
    /// serve: host ns a drained batch spent in the server, median and 99th
    /// percentile (nearest rank) over the round's batches. Only the two
    /// numbers are kept: a run holds every round's `RoundOut`, and the
    /// samples of 20 rounds would be most of `peak_rss_mib`.
    pub service_p50_ns: u64,
    /// See `service_p50_ns`.
    pub service_p99_ns: u64,

    /// ds_load: bptree, hashmap, skiplist, rbtree.
    pub per_ds: [DsOut; 4],

    /// crash: host ns in `PmemPool::crash`.
    pub crash_ns: u64,
    /// crash: host ns serving requests on the armed crash-sim pool.
    pub armed_serve_ns: u64,
    /// crash: host ns in the restarts.
    pub restart_ns: u64,
    /// crash: requests served on the armed pool.
    pub armed_reqs: u64,
    /// crash: the part of `delta` from serving on the armed pool.
    pub armed_delta: Events,
    /// crash: the part of `delta` from the restarts.
    pub restart_delta: Events,

    /// Spans of the round (traced rounds only).
    pub spans: Vec<Span>,
}

impl RoundOut {
    /// Records one failed op and keeps the first reason.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Everything that must repeat bit-for-bit for one seed: the op counts
    /// and every number on the simulated clock.
    pub fn deterministic_part(&self) -> (u64, u64, Events, [u64; 5]) {
        (
            self.ops,
            self.failed,
            self.delta,
            [
                self.priced_calls,
                self.sim_ns,
                self.sim_p50_ns,
                self.sim_p99_ns,
                self.sim_samples,
            ],
        )
    }
}
