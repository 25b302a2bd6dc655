//! The deterministic simulated transport: closed-loop clients on a
//! discrete-event clock.
//!
//! Clients, connections, and request arrival are simulated events in the
//! spirit of `clobber-sim`'s discrete-event executor: every decision is a
//! pure function of the configuration, so a service run — including a
//! crash injected mid-batch — is bit-deterministic and replayable through
//! the trace/explorer stack. Service time comes from the serve loop's cost
//! model (the per-batch persistence-counter delta priced in nanoseconds),
//! which is what makes this the tail-latency oracle on a 1-CPU host: the
//! simulated clock measures fences and log traffic, not wall time.

use std::collections::{HashMap, VecDeque};

use clobber_workloads::{Mix, RequestStream};

use crate::proto::{KvRequest, KvResponse};
use crate::transport::{ConnId, Envelope, NetEvent, Transport};

/// Simulated client population.
#[derive(Debug, Clone, Copy)]
pub struct SimNetConfig {
    /// Concurrent closed-loop clients (one connection each).
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: u64,
    /// Key-space size shared by all clients.
    pub key_space: u64,
    /// Base RNG seed; client `c` streams with `seed + c`.
    pub seed: u64,
    /// set/get mix.
    pub mix: Mix,
    /// `Some(theta)` for zipf-skewed keys, `None` for uniform.
    pub zipf_theta: Option<f64>,
    /// Most requests one client keeps in flight (its pipeline depth).
    pub window: usize,
    /// Client think time between a response and the next request.
    pub think_ns: u64,
    /// Backoff before resubmitting a shed request.
    pub shed_backoff_ns: u64,
}

impl SimNetConfig {
    /// A sensible default population of `clients` clients.
    pub fn new(clients: usize) -> SimNetConfig {
        SimNetConfig {
            clients,
            requests_per_client: 64,
            key_space: 1024,
            seed: 42,
            mix: Mix::InsertMost,
            zipf_theta: Some(0.99),
            window: 1,
            think_ns: 500,
            shed_backoff_ns: 20_000,
        }
    }
}

#[derive(Debug)]
struct Client {
    stream: RequestStream,
    remaining: u64,
    /// Earliest simulated instant this client issues its next request.
    ready_at: u64,
    /// Shed requests waiting to be resubmitted: (request, original
    /// arrival, earliest resubmit instant).
    retries: VecDeque<(KvRequest, u64, u64)>,
    outstanding: usize,
}

/// What one simulated run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Requests answered (shed resubmissions count once, at completion).
    pub completed: u64,
    /// `Overloaded` responses observed (each is later resubmitted).
    pub shed: u64,
    /// Simulated end-to-end time.
    pub elapsed_ns: u64,
    /// Median request latency.
    pub p50_ns: u64,
    /// 99th-percentile request latency.
    pub p99_ns: u64,
    /// 99.9th-percentile request latency.
    pub p999_ns: u64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
}

/// The deterministic simulated transport.
#[derive(Debug)]
pub struct SimNet {
    clients: Vec<Client>,
    now_ns: u64,
    next_opaque: u64,
    think_ns: u64,
    shed_backoff_ns: u64,
    /// In-flight bookkeeping: opaque → (conn, request, original arrival).
    inflight: HashMap<u64, (ConnId, KvRequest, u64)>,
    latencies: Vec<u64>,
    shed: u64,
}

impl SimNet {
    /// Builds the client population.
    pub fn new(cfg: &SimNetConfig) -> SimNet {
        let clients = (0..cfg.clients)
            .map(|c| {
                let seed = cfg.seed + c as u64;
                let stream = match cfg.zipf_theta {
                    Some(theta) => RequestStream::zipf(
                        cfg.mix,
                        cfg.requests_per_client,
                        cfg.key_space,
                        seed,
                        theta,
                    ),
                    None => {
                        RequestStream::new(cfg.mix, cfg.requests_per_client, cfg.key_space, seed)
                    }
                };
                Client {
                    stream,
                    remaining: cfg.requests_per_client,
                    // Stagger connection establishment so arrival order is
                    // well-defined from the first event.
                    ready_at: c as u64 * 100,
                    retries: VecDeque::new(),
                    outstanding: 0,
                }
            })
            .collect();
        SimNet {
            clients,
            now_ns: 0,
            next_opaque: 0,
            think_ns: cfg.think_ns,
            shed_backoff_ns: cfg.shed_backoff_ns,
            inflight: HashMap::new(),
            latencies: Vec::new(),
            shed: 0,
        }
    }

    /// The earliest instant client `c` could issue, or `None` if it has
    /// nothing left (or its pipeline is full).
    fn next_issue_at(&self, c: usize, window: usize) -> Option<u64> {
        let cl = &self.clients[c];
        if cl.outstanding >= window {
            return None;
        }
        let retry = cl.retries.front().map(|&(_, _, ready)| ready);
        let fresh = (cl.remaining > 0).then_some(cl.ready_at);
        match (retry, fresh) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Issues one request from client `c` (a due retry wins over fresh
    /// traffic so shed work is not starved).
    fn issue(&mut self, c: usize) -> NetEvent {
        let now = self.now_ns;
        let cl = &mut self.clients[c];
        let (req, arrival) = match cl.retries.front() {
            Some(&(_, _, ready)) if ready <= now => {
                let (req, arrival, _) = cl.retries.pop_front().expect("front exists");
                (req, arrival)
            }
            _ => {
                let req: KvRequest = cl.stream.next().expect("remaining > 0").into();
                cl.remaining -= 1;
                let arrival = cl.ready_at;
                cl.ready_at = now + 1; // pipeline spacing within the window
                (req, arrival)
            }
        };
        cl.outstanding += 1;
        let opaque = self.next_opaque;
        self.next_opaque += 1;
        self.inflight.insert(opaque, (c, req.clone(), arrival));
        NetEvent::Request(Envelope {
            conn: c,
            opaque,
            req,
        })
    }

    /// Sorted-latency percentile (nearest-rank).
    fn percentile(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Finishes the run and summarizes what it measured.
    pub fn report(mut self) -> SimReport {
        self.latencies.sort_unstable();
        let completed = self.latencies.len() as u64;
        let elapsed = self.now_ns.max(1);
        SimReport {
            completed,
            shed: self.shed,
            elapsed_ns: self.now_ns,
            p50_ns: Self::percentile(&self.latencies, 0.50),
            p99_ns: Self::percentile(&self.latencies, 0.99),
            p999_ns: Self::percentile(&self.latencies, 0.999),
            throughput_rps: completed as f64 * 1e9 / elapsed as f64,
        }
    }

    /// The simulated clock.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }
}

/// The per-run window is fixed at build time; [`SimNet::with_window`]
/// carries it through the `Transport` calls.
#[derive(Debug)]
pub struct SimNetRun {
    net: SimNet,
    window: usize,
}

impl SimNet {
    /// Binds the per-client pipeline depth for a run.
    pub fn with_window(self, window: usize) -> SimNetRun {
        SimNetRun {
            net: self,
            window: window.max(1),
        }
    }
}

impl SimNetRun {
    /// Finishes the run and summarizes what it measured.
    pub fn report(self) -> SimReport {
        self.net.report()
    }

    /// The simulated clock.
    pub fn now_ns(&self) -> u64 {
        self.net.now_ns()
    }
}

impl Transport for SimNetRun {
    fn recv(&mut self, max: usize) -> Option<Vec<NetEvent>> {
        let n = self.net.clients.len();
        loop {
            // Issue everything due now, round-robin by client index until
            // quiescent or the burst is full — a deterministic schedule.
            let mut events = Vec::new();
            loop {
                let mut issued_any = false;
                for c in 0..n {
                    if events.len() >= max {
                        break;
                    }
                    if let Some(t) = self.net.next_issue_at(c, self.window) {
                        if t <= self.net.now_ns {
                            events.push(self.net.issue(c));
                            issued_any = true;
                        }
                    }
                }
                if !issued_any || events.len() >= max {
                    break;
                }
            }
            if !events.is_empty() {
                return Some(events);
            }
            // Nothing due: advance the clock to the earliest future issue.
            match (0..n)
                .filter_map(|c| self.net.next_issue_at(c, self.window))
                .min()
            {
                Some(t) => self.net.now_ns = self.net.now_ns.max(t),
                None => return None,
            }
        }
    }

    fn send(&mut self, responses: Vec<(ConnId, u64, KvResponse)>, cost_ns: u64) {
        self.net.now_ns += cost_ns;
        let now = self.net.now_ns;
        for (conn, opaque, resp) in responses {
            let (c, req, arrival) = self
                .net
                .inflight
                .remove(&opaque)
                .expect("response to an unknown opaque");
            debug_assert_eq!(c, conn);
            let cl = &mut self.net.clients[conn];
            cl.outstanding -= 1;
            match resp {
                KvResponse::Overloaded => {
                    // Resubmit later; latency keeps accruing from the
                    // ORIGINAL arrival, so shedding shows up in the tail.
                    self.net.shed += 1;
                    cl.retries
                        .push_back((req, arrival, now + self.net.shed_backoff_ns));
                }
                _ => {
                    self.net.latencies.push(now.saturating_sub(arrival));
                    cl.ready_at = now + self.net.think_ns;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy in-test service: answers every request instantly at a fixed
    /// cost, no admission — exercises the clock and latency accounting.
    fn drain(run: &mut SimNetRun, cost_ns: u64) -> u64 {
        let mut served = 0;
        while let Some(events) = run.recv(16) {
            let responses: Vec<_> = events
                .into_iter()
                .filter_map(|e| match e {
                    NetEvent::Request(env) => {
                        served += 1;
                        Some((env.conn, env.opaque, KvResponse::Stored))
                    }
                    NetEvent::Closed { .. } => None,
                })
                .collect();
            run.send(responses, cost_ns);
        }
        served
    }

    #[test]
    fn every_request_is_served_exactly_once() {
        let cfg = SimNetConfig {
            requests_per_client: 20,
            ..SimNetConfig::new(4)
        };
        let mut run = SimNet::new(&cfg).with_window(2);
        let served = drain(&mut run, 1_000);
        assert_eq!(served, 80);
        let report = run.report();
        assert_eq!(report.completed, 80);
        assert_eq!(report.shed, 0);
        assert!(report.p50_ns > 0);
        assert!(report.p999_ns >= report.p99_ns && report.p99_ns >= report.p50_ns);
    }

    #[test]
    fn runs_are_bit_deterministic() {
        let cfg = SimNetConfig {
            requests_per_client: 30,
            ..SimNetConfig::new(3)
        };
        let reports: Vec<SimReport> = (0..2)
            .map(|_| {
                let mut run = SimNet::new(&cfg).with_window(2);
                drain(&mut run, 777);
                run.report()
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn higher_cost_means_higher_latency() {
        let cfg = SimNetConfig::new(4);
        let slow = {
            let mut run = SimNet::new(&cfg).with_window(1);
            drain(&mut run, 50_000);
            run.report()
        };
        let fast = {
            let mut run = SimNet::new(&cfg).with_window(1);
            drain(&mut run, 1_000);
            run.report()
        };
        assert!(slow.p50_ns > fast.p50_ns);
        assert!(slow.throughput_rps < fast.throughput_rps);
    }

    #[test]
    fn shed_responses_are_resubmitted_and_eventually_complete() {
        let cfg = SimNetConfig {
            requests_per_client: 10,
            ..SimNetConfig::new(2)
        };
        let mut run = SimNet::new(&cfg).with_window(1);
        // Shed every third request by hand.
        let mut seen = 0u64;
        let mut served = 0u64;
        while let Some(events) = run.recv(8) {
            let responses: Vec<_> = events
                .into_iter()
                .filter_map(|e| match e {
                    NetEvent::Request(env) => {
                        seen += 1;
                        if seen.is_multiple_of(3) {
                            Some((env.conn, env.opaque, KvResponse::Overloaded))
                        } else {
                            served += 1;
                            Some((env.conn, env.opaque, KvResponse::Stored))
                        }
                    }
                    NetEvent::Closed { .. } => None,
                })
                .collect();
            run.send(responses, 500);
        }
        let report = run.report();
        assert_eq!(report.completed, 20, "every request completes in the end");
        assert_eq!(report.completed, served);
        assert!(report.shed > 0);
    }
}
