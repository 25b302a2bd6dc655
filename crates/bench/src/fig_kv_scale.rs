//! `fig_kv_scale`: networked KV service throughput and tail latency vs
//! client count (the PR-10 deliverable, no counterpart figure in the
//! paper — the memcached port of §5.6 measured throughput only).
//!
//! A zipf-skewed set/get population of simulated closed-loop clients
//! drives the batched serve loop over the deterministic transport; the
//! DES cost model prices each batch's persistence-counter delta in
//! nanoseconds, making the simulated clock the latency oracle on a 1-CPU
//! host. Each client count runs twice — batched group commit vs
//! per-request commit — so the figure shows the commit-fence amortization
//! directly as fences/request.

use clobber_apps::{KvServer, LockScheme};
use clobber_kvnet::{
    serve, Admission, AdmissionConfig, KvService, ServeConfig, SimNet, SimNetConfig,
};
use clobber_nvm::Backend;
use clobber_sim::CostModel;
use clobber_workloads::Mix;

use crate::common::{make_runtime, Scale};

/// One service measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Simulated closed-loop clients.
    pub clients: usize,
    /// `batched` (group-committed coalesced batches) or `per-request`.
    pub mode: &'static str,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Median request latency (simulated ns).
    pub p50_ns: u64,
    /// 99th-percentile request latency (simulated ns).
    pub p99_ns: u64,
    /// 99.9th-percentile request latency (simulated ns).
    pub p999_ns: u64,
    /// Ordering fences per completed request.
    pub fences_per_req: f64,
    /// Requests shed by admission control (each retried until served).
    pub shed: u64,
}

/// CSV header.
pub const HEADER: &str = "clients,mode,throughput_rps,p50_ns,p99_ns,p999_ns,fences_per_req,shed";

impl Row {
    /// One CSV line.
    pub fn csv(&self) -> String {
        format!(
            "{},{},{:.0},{},{},{},{:.3},{}",
            self.clients,
            self.mode,
            self.throughput_rps,
            self.p50_ns,
            self.p99_ns,
            self.p999_ns,
            self.fences_per_req,
            self.shed
        )
    }
}

/// Runs one cell: `clients` clients against the serve loop with the given
/// batch ceiling.
pub fn run_cell(clients: usize, theta: f64, seed: u64, max_batch: usize, scale: Scale) -> Row {
    let (pool, rt) = make_runtime(Backend::clobber(), scale);
    let server = KvServer::create(&rt, LockScheme::BucketRw).expect("server");
    let mut svc = KvService::new(rt, server);
    let mut adm = Admission::new(AdmissionConfig {
        per_conn_window: 4,
        global_cap: 256,
    });
    let cfg = SimNetConfig {
        clients,
        requests_per_client: scale.kv_net_requests(),
        key_space: 4096,
        seed,
        mix: Mix::InsertMost,
        zipf_theta: (0.0 < theta && theta < 1.0).then_some(theta),
        window: 2,
        think_ns: 500,
        shed_backoff_ns: 20_000,
    };
    let mut net = SimNet::new(&cfg).with_window(cfg.window);
    let before = pool.stats().snapshot();
    serve(
        &mut svc,
        &mut adm,
        &mut net,
        &ServeConfig {
            max_batch,
            cost: CostModel::optane(),
        },
    )
    .expect("serve");
    let delta = pool.stats().snapshot().delta(&before);
    let report = net.report();
    Row {
        clients,
        mode: if max_batch > 1 {
            "batched"
        } else {
            "per-request"
        },
        throughput_rps: report.throughput_rps,
        p50_ns: report.p50_ns,
        p99_ns: report.p99_ns,
        p999_ns: report.p999_ns,
        fences_per_req: delta.fences as f64 / report.completed.max(1) as f64,
        shed: report.shed,
    }
}

/// Client counts swept at each scale.
pub fn client_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1, 2, 4, 8],
        Scale::Full => vec![1, 2, 4, 8, 16, 32],
    }
}

/// Runs the full figure: client counts × {batched, per-request}.
pub fn run(scale: Scale, theta: f64, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for clients in client_counts(scale) {
        for max_batch in [16, 1] {
            rows.push(run_cell(clients, theta, seed, max_batch, scale));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached_rows() -> &'static [Row] {
        static ROWS: std::sync::OnceLock<Vec<Row>> = std::sync::OnceLock::new();
        ROWS.get_or_init(|| run(Scale::Quick, 0.99, 42))
    }

    fn get<'a>(rows: &'a [Row], clients: usize, mode: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.clients == clients && r.mode == mode)
            .expect("row")
    }

    #[test]
    fn batching_amortizes_fences_at_four_plus_clients() {
        // Batched group commit spends fewer fences per request than
        // per-request commit at >= 4 clients.
        let rows = cached_rows();
        for clients in [4, 8] {
            let b = get(rows, clients, "batched");
            let p = get(rows, clients, "per-request");
            assert!(
                b.fences_per_req < p.fences_per_req,
                "{clients} clients: batched {:.3} vs per-request {:.3}",
                b.fences_per_req,
                p.fences_per_req
            );
        }
    }

    #[test]
    fn batching_raises_throughput_under_concurrency() {
        let rows = cached_rows();
        let b = get(rows, 8, "batched");
        let p = get(rows, 8, "per-request");
        assert!(
            b.throughput_rps > p.throughput_rps,
            "batched {:.0} vs per-request {:.0} rps",
            b.throughput_rps,
            p.throughput_rps
        );
    }

    #[test]
    fn percentiles_are_ordered() {
        for r in cached_rows() {
            assert!(r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns, "{r:?}");
            assert!(r.throughput_rps > 0.0, "{r:?}");
        }
    }
}
