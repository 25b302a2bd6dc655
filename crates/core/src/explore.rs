//! Bounded model checking over persist-event schedules.
//!
//! PRs 2–7 verify crash consistency by sweeping *recorded* schedules: one
//! op order, every crash point. The [`Explorer`] searches the *schedule
//! space* instead. Starting from a seed [`Schedule`] it enumerates every
//! interleaving of the per-slot op lanes (the orders a real scheduler
//! could produce, since ops on one logical slot stay program-ordered),
//! prunes interleavings that provably commute with an already-explored one
//! (DPOR-style sleep sets keyed on the persist-address footprints that
//! [`tx_footprints`] extracts from a traced baseline run), and executes
//! every surviving candidate through the [`CrashBattery`]: the checked
//! crash-free run, then a [`FaultPlan::crash_at`] trip planted at every
//! explored persist prefix (the adversarial crash-timing model of
//! *Delay-Free Concurrency on Faulty Persistent Memory*), each followed by
//! a power failure, recovery, heap walk, workload invariant, recovery
//! idempotence and recovery byte parity.
//!
//! Any violation funnels straight into [`minimize_schedule`], so the
//! explorer's output for a failure is a locally minimal culprit op list,
//! not a 3-thread interleaving dump.
//!
//! # Mutation operators and their boundaries
//!
//! * **Commutable-op reordering.** The interleaving enumeration reorders
//!   whole transactions across slots, at commit granularity.
//! * **Crash-prefix planting.** Within one interleaving, every persist
//!   event — i.e. every acquisition of the pool's fault mutex, taken
//!   before the pool's engine lock — is a preemption point for the crash
//!   adversary: `crash_at(k)` for each explored prefix `k`.
//! * **Bounded preemption.** [`ExploreOptions::preemption_bound`] caps
//!   how many times the enumeration may switch away from a slot that
//!   still has ops to run (CHESS-style iterative context bounding):
//!   bound 0 explores only run-to-completion orders, each increment adds
//!   interleavings with one more involuntary switch.
//!
//! # Pruning soundness
//!
//! Two transactions conflict when their persisted address ranges overlap,
//! when both use the allocator (reordering changes block placement), or
//! always, under [`ConflictPolicy::no_pruning`]. Swapping two *adjacent
//! non-conflicting* transactions cannot change any durable byte, so a
//! sleep set — ops whose exploration from this node is already covered by
//! an earlier sibling branch — soundly skips the swapped twin. The caveat
//! (pure reads are invisible to persist traces) is documented on
//! [`ConflictPolicy`]; workloads with read-only control dependences
//! should pass `no_pruning`.
//!
//! # Determinism, budget, and resume
//!
//! The enumeration order is a deterministic DFS (lanes in ascending slot
//! order), the power failure drops every un-fenced line (no random draw),
//! and every candidate runs on a fresh pool with slots pre-created in
//! canonical order — so the same seed schedule + budget yields the
//! identical [`ExploreReport`] (explored list, outcome hashes and counts)
//! on every run. A run that exhausts
//! [`ExploreOptions::max_schedules`] (or stops at
//! [`ExploreOptions::max_failures`]) reports the decision-vector
//! [`ExploreReport::frontier`] of its last executed candidate; passing it
//! back via [`ExploreOptions::resume_after`] seeks the DFS past every
//! already-explored subtree — replaying sleep-set bookkeeping along the
//! seek path without re-executing or re-counting — so a split run's
//! summed report counts equal an uninterrupted run's exactly.
//!
//! [`FaultPlan::crash_at`]: clobber_pmem::FaultPlan::crash_at
//! [`tx_footprints`]: clobber_trace::tx_footprints
//! [`ConflictPolicy`]: clobber_trace::ConflictPolicy
//! [`ConflictPolicy::no_pruning`]: clobber_trace::ConflictPolicy::no_pruning

use std::sync::Arc;

use clobber_pmem::{PmemPool, PoolMode, Tracer};
use clobber_trace::{tx_footprints, ConflictPolicy};

use crate::battery::{CrashBattery, Nested, SweepSummary, Violation};
use crate::replay::{minimize_schedule, Schedule};
use crate::runtime::{Runtime, RuntimeOptions};

/// Budget, adversary, and pruning knobs for one exploration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Maximum number of candidate schedules to *execute* (pruned
    /// subtrees are free). Exhausting the budget stops the run with a
    /// resumable [`ExploreReport::frontier`].
    pub max_schedules: u64,
    /// Plant a crash at every `crash_stride`-th persist event of each
    /// candidate (1 = every event).
    pub crash_stride: u64,
    /// Cap on crash points planted per candidate schedule.
    pub max_crash_points: u64,
    /// CHESS-style preemption bound: how many times the enumeration may
    /// switch away from a slot that still has runnable ops.
    /// `u32::MAX` = unbounded (full interleaving enumeration).
    pub preemption_bound: u32,
    /// What counts as a conflict for sleep-set pruning.
    pub policy: ConflictPolicy,
    /// Stop after this many failures have been minimized (minimization
    /// replays many candidates; 1 keeps a failing exploration cheap).
    pub max_failures: usize,
    /// Resume frontier from a previous run's [`ExploreReport::frontier`]:
    /// skip (without re-executing or re-counting) every candidate up to
    /// and including this decision vector.
    pub resume_after: Option<Vec<u8>>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_schedules: 256,
            crash_stride: 1,
            max_crash_points: u64::MAX,
            preemption_bound: u32::MAX,
            policy: ConflictPolicy::sound(),
            max_failures: 1,
            resume_after: None,
        }
    }
}

impl ExploreOptions {
    /// Sets the executed-schedule budget.
    pub fn with_budget(mut self, max_schedules: u64) -> Self {
        self.max_schedules = max_schedules;
        self
    }

    /// Sets the crash-point stride.
    pub fn with_crash_stride(mut self, stride: u64) -> Self {
        self.crash_stride = stride.max(1);
        self
    }

    /// Caps crash points planted per candidate.
    pub fn with_max_crash_points(mut self, cap: u64) -> Self {
        self.max_crash_points = cap;
        self
    }

    /// Sets the preemption bound.
    pub fn with_preemption_bound(mut self, bound: u32) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Sets the conflict policy used for pruning.
    pub fn with_policy(mut self, policy: ConflictPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the failure cap.
    pub fn with_max_failures(mut self, cap: usize) -> Self {
        self.max_failures = cap;
        self
    }

    /// Sets the resume frontier.
    pub fn resume_after(mut self, frontier: Vec<u8>) -> Self {
        self.resume_after = Some(frontier);
        self
    }
}

/// Factory building a fresh pool + runtime with all txfuncs registered
/// and the workload's roots initialised. Must be deterministic.
pub type BuildFn<'a> = Box<dyn Fn() -> (Arc<PmemPool>, Runtime) + 'a>;

/// Factory reopening a crashed media image as a pool + runtime ready for
/// `recover_with` (txfuncs registered, nothing else run).
pub type ReopenFn<'a> = Box<dyn Fn(Vec<u8>) -> (Arc<PmemPool>, Runtime) + 'a>;

/// The usual first half of a [`ReopenFn`]: `media` as a crash-sim pool
/// with a runtime on `opts`; the caller registers txfuncs.
///
/// # Panics
///
/// If the image does not open — it is one a pool of this workload left.
pub fn reopen_media(media: Vec<u8>, opts: RuntimeOptions) -> (Arc<PmemPool>, Runtime) {
    let pool = PmemPool::open_from_media(media, PoolMode::CrashSim);
    let pool = Arc::new(pool.expect("a crashed image reopens"));
    let rt = Runtime::open(pool.clone(), opts).expect("a runtime reopens on its own pool");
    (pool, rt)
}

/// Workload invariant check; `Err(reason)` marks the candidate as a
/// failure (e.g. counter conservation, committed-prefix shape).
pub type CheckFn<'a> = Box<dyn Fn(&PmemPool, &Runtime) -> Result<(), String> + 'a>;

/// How the [`CrashBattery`] — and through it the explorer and every crash
/// sweep — builds, reopens, and checks a workload's pools. Neither owns
/// any workload knowledge. `check` must be read-only: it runs between the
/// two recoveries whose media the battery compares.
pub struct ExploreSession<'a> {
    /// Builds the state every candidate starts from.
    pub build: BuildFn<'a>,
    /// Reopens a crashed media image for recovery.
    pub reopen: ReopenFn<'a>,
    /// The workload invariant.
    pub check: CheckFn<'a>,
}

/// Why an exploration could not even start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The traced baseline replay of the seed schedule went wrong
    /// (slot pre-creation failed, trace overflowed, or the trace's
    /// `TxBegin` count disagrees with the seed's op count).
    Baseline(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Baseline(s) => write!(f, "explore baseline: {s}"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// One invariant violation the explorer found.
#[derive(Debug, Clone)]
pub struct ExploreFailure {
    /// The full candidate schedule that failed.
    pub schedule: Schedule,
    /// The persist event the planted crash tripped at, or `None` if the
    /// clean (crash-free) run already violated an invariant.
    pub crash_at: Option<u64>,
    /// Human-readable description of the violated invariant.
    pub reason: String,
    /// The ddmin-minimized culprit schedule (still failing).
    pub minimized: Schedule,
}

/// What one [`Explorer::run`] did: the explorer's one record of its work
/// (no pool counter mirrors it).
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Candidate schedules executed under the invariant battery.
    pub schedules_run: u64,
    /// Subtrees skipped (sleep-set hits + preemption-bound rejections).
    pub schedules_pruned: u64,
    /// Crash trips planted across all executed candidates.
    pub crashes_planted: u64,
    /// Invariant violations found, each with its minimized culprit list.
    pub failures: Vec<ExploreFailure>,
    /// Every executed candidate, in deterministic DFS order.
    pub explored: Vec<Schedule>,
    /// FNV-1a hash of each executed candidate's clean-run durable media,
    /// index-aligned with [`explored`](Self::explored). Disjoint-range
    /// reorderings that were *not* pruned can be checked to land on the
    /// same outcome hash — the commutativity fact pruning relies on.
    pub outcomes: Vec<u64>,
    /// Decision vector of the last executed candidate when the run
    /// stopped early; feed to [`ExploreOptions::resume_after`] to
    /// continue. `None` when the enumeration completed (or nothing ran).
    pub frontier: Option<Vec<u8>>,
    /// `true` if the enumeration visited every non-pruned interleaving
    /// within the budget (no early stop).
    pub complete: bool,
}

/// A bounded model checker over persist-event schedules. See the module
/// docs for the exploration model.
pub struct Explorer<'a> {
    session: ExploreSession<'a>,
    seed_schedule: Schedule,
    opts: ExploreOptions,
    /// Highest slot index any seed op touches.
    max_slot: Option<usize>,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer over `seed`'s per-slot op lanes.
    pub fn new(session: ExploreSession<'a>, seed: Schedule, opts: ExploreOptions) -> Explorer<'a> {
        let max_slot = seed.ops.iter().map(|op| op.slot).max();
        // Every fresh pool pre-creates slots `0..=max_slot`, so the v_log
        // slot chain (and therefore durable media) is identical across
        // interleavings that first-touch slots in different orders. A
        // build too small for them is reported, typed, by the baseline
        // run, which asks for the slot again.
        let ExploreSession {
            build,
            reopen,
            check,
        } = session;
        let build: BuildFn<'a> = Box::new(move || {
            let (pool, rt) = build();
            if let Some(max) = max_slot {
                let _ = rt.slot_handle(max);
            }
            (pool, rt)
        });
        Explorer {
            session: ExploreSession {
                build,
                reopen,
                check,
            },
            seed_schedule: seed,
            opts,
            max_slot,
        }
    }

    /// Runs the exploration to completion, budget exhaustion, or the
    /// failure cap, whichever comes first.
    pub fn run(&self) -> Result<ExploreReport, ExploreError> {
        let conflicts = self.conflict_matrix()?;
        // Per-slot op lanes in ascending slot order: ops on one logical
        // slot stay program-ordered, so an interleaving is a merge of
        // the lanes.
        let mut slots: Vec<usize> = self.seed_schedule.ops.iter().map(|op| op.slot).collect();
        slots.sort_unstable();
        slots.dedup();
        let lanes: Vec<Vec<usize>> = slots
            .iter()
            .map(|&s| {
                self.seed_schedule
                    .ops
                    .iter()
                    .enumerate()
                    .filter(|(_, op)| op.slot == s)
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        let total = self.seed_schedule.ops.len();
        let mut dfs = Dfs {
            ex: self,
            lanes,
            conflicts,
            total,
            report: ExploreReport::default(),
            last_executed: None,
            stop: false,
        };
        let mut next = vec![0usize; dfs.lanes.len()];
        let mut chosen: Vec<usize> = Vec::with_capacity(total);
        let mut decisions: Vec<u8> = Vec::with_capacity(total);
        let seek = self.opts.resume_after.is_some();
        dfs.node(
            &mut next,
            &mut chosen,
            &mut decisions,
            Vec::new(),
            None,
            0,
            seek,
        );
        let mut report = dfs.report;
        report.complete = !dfs.stop;
        if dfs.stop {
            report.frontier = dfs.last_executed;
        }
        Ok(report)
    }

    /// Replays the seed schedule once under a tracer and turns the
    /// per-transaction persist footprints into an op × op conflict
    /// matrix.
    fn conflict_matrix(&self) -> Result<Vec<Vec<bool>>, ExploreError> {
        let n = self.seed_schedule.ops.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let (pool, rt) = (self.session.build)();
        if let Some(max) = self.max_slot {
            rt.slot_handle(max)
                .map_err(|e| ExploreError::Baseline(format!("slot pre-create: {e}")))?;
        }
        let tracer = Arc::new(Tracer::new());
        pool.set_tracer(Some(tracer.clone()));
        let _ = self.seed_schedule.replay(&rt);
        pool.set_tracer(None);
        let trace = tracer.take();
        if trace.dropped > 0 {
            return Err(ExploreError::Baseline(format!(
                "baseline trace dropped {} events",
                trace.dropped
            )));
        }
        let fps = tx_footprints(&trace);
        if fps.len() != n {
            return Err(ExploreError::Baseline(format!(
                "baseline trace has {} TxBegin events for {} seed ops",
                fps.len(),
                n
            )));
        }
        let mut matrix = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                matrix[i][j] = self
                    .opts
                    .policy
                    .conflicts(&fps[i].footprint, &fps[j].footprint);
            }
        }
        Ok(matrix)
    }

    /// Puts one candidate through the [`CrashBattery`]: the checked clean
    /// run, then a crash trip at every `crash_stride`-th persist event.
    /// Does not touch the report (so minimization probes stay invisible to
    /// its golden-pinned counts).
    fn run_candidate(&self, sched: &Schedule) -> Result<SweepSummary, Box<Violation>> {
        let drive = |rt: &Arc<Runtime>| {
            sched.replay(rt);
        };
        let battery = CrashBattery {
            session: &self.session,
            drive: &drive,
            nested: Nested::Off,
        };
        let stride = self.opts.crash_stride.max(1);
        let visited = battery.sweep(stride, self.opts.max_crash_points, |_| {})?;
        if visited.not_tripped > 0 {
            // A replayed schedule is deterministic: every planted event
            // below the counted total must trip.
            return Err(Box::new(Violation {
                crash_at: None,
                nested_at: None,
                reason: format!("{} planted crashes did not trip", visited.not_tripped),
                visited,
            }));
        }
        Ok(visited)
    }
}

/// The DFS over interleavings: sleep-set pruning, preemption bounding,
/// frontier seek on resume.
struct Dfs<'s, 'a> {
    ex: &'s Explorer<'a>,
    /// Op ids per lane (lanes in ascending slot order).
    lanes: Vec<Vec<usize>>,
    /// `conflicts[i][j]` — seed ops i and j do not commute.
    conflicts: Vec<Vec<bool>>,
    total: usize,
    report: ExploreReport,
    /// Decision vector of the most recently executed candidate.
    last_executed: Option<Vec<u8>>,
    stop: bool,
}

impl Dfs<'_, '_> {
    /// Explores one enumeration node.
    ///
    /// `next[l]` is each lane's progress, `chosen`/`decisions` the path
    /// here (op ids / lane picks), `sleep` the op ids whose subtrees an
    /// earlier sibling already covers, `cur_lane`/`preemptions` the
    /// context-bound state. `seek` means the path so far equals the
    /// resume frontier's prefix: already-explored branches are replayed
    /// for their sleep-set effects but neither executed nor counted.
    #[allow(clippy::too_many_arguments)]
    fn node(
        &mut self,
        next: &mut Vec<usize>,
        chosen: &mut Vec<usize>,
        decisions: &mut Vec<u8>,
        sleep: Vec<usize>,
        cur_lane: Option<usize>,
        preemptions: u32,
        seek: bool,
    ) {
        if self.stop {
            return;
        }
        if chosen.len() == self.total {
            self.leaf(chosen, decisions, seek);
            return;
        }
        let depth = decisions.len();
        let frontier_pick = if seek {
            self.ex
                .opts
                .resume_after
                .as_ref()
                .and_then(|f| f.get(depth).copied())
        } else {
            None
        };
        // Ops already explored from this node (by earlier sibling
        // branches); independent ones go to sleep in later children.
        let mut done: Vec<usize> = Vec::new();
        for lane in 0..self.lanes.len() {
            if self.stop {
                break;
            }
            if next[lane] >= self.lanes[lane].len() {
                continue;
            }
            let op = self.lanes[lane][next[lane]];
            // Frontier seek: branches lexicographically before the
            // frontier pick were fully handled by the interrupted run —
            // mirror their sleep-set bookkeeping without counting.
            let (pre_frontier, on_frontier) = match frontier_pick {
                Some(pick) => ((lane as u8) < pick, (lane as u8) == pick),
                None => (false, false),
            };
            if sleep.contains(&op) {
                // Covered by an earlier branch: skip the whole subtree.
                if !pre_frontier {
                    self.report.schedules_pruned += 1;
                }
                continue;
            }
            // Preemption bound: switching away from a lane that still
            // has runnable ops costs one preemption.
            let is_preemption = match cur_lane {
                Some(cl) => cl != lane && next[cl] < self.lanes[cl].len(),
                None => false,
            };
            let p = preemptions + u32::from(is_preemption);
            if p > self.ex.opts.preemption_bound {
                if !pre_frontier {
                    self.report.schedules_pruned += 1;
                }
                continue;
            }
            if pre_frontier {
                // The interrupted run explored this branch to completion.
                done.push(op);
                continue;
            }
            let child_sleep: Vec<usize> = sleep
                .iter()
                .chain(done.iter())
                .copied()
                .filter(|&b| !self.conflicts[op][b])
                .collect();
            next[lane] += 1;
            chosen.push(op);
            decisions.push(lane as u8);
            self.node(
                next,
                chosen,
                decisions,
                child_sleep,
                Some(lane),
                p,
                on_frontier,
            );
            decisions.pop();
            chosen.pop();
            next[lane] -= 1;
            done.push(op);
        }
    }

    /// A complete interleaving: execute it (unless it is the frontier
    /// candidate itself, which the interrupted run already executed).
    ///
    /// The budget stop is *eager* — the run halts the moment its
    /// budget-th candidate finishes, before any further node is visited —
    /// so every prune event is counted by exactly one run of a
    /// stop/resume chain and split-run report counts sum to an
    /// uninterrupted run's.
    fn leaf(&mut self, chosen: &[usize], decisions: &[u8], seek: bool) {
        if seek {
            return;
        }
        if self.report.schedules_run >= self.ex.opts.max_schedules {
            // Only reachable with a zero budget (or a zero-budget resume):
            // a non-zero budget stops eagerly below instead.
            self.stop = true;
            return;
        }
        let sched = Schedule {
            ops: chosen
                .iter()
                .map(|&i| self.ex.seed_schedule.ops[i].clone())
                .collect(),
        };
        self.report.schedules_run += 1;
        self.last_executed = Some(decisions.to_vec());
        let outcome = self.ex.run_candidate(&sched);
        let visited = match &outcome {
            Ok(visited) => *visited,
            Err(v) => v.visited,
        };
        self.report.crashes_planted += visited.crash_points;
        self.report.explored.push(sched.clone());
        self.report.outcomes.push(visited.clean_outcome);
        if let Err(v) = outcome {
            let minimized = minimize_schedule(&sched, |cand| self.ex.run_candidate(cand).is_err());
            self.report.failures.push(ExploreFailure {
                schedule: sched,
                crash_at: v.crash_at,
                reason: v.to_string(),
                minimized,
            });
            if self.report.failures.len() >= self.ex.opts.max_failures {
                self.stop = true;
            }
        }
        if self.report.schedules_run >= self.ex.opts.max_schedules {
            self.stop = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builders_compose() {
        let o = ExploreOptions::default()
            .with_budget(7)
            .with_crash_stride(0)
            .with_preemption_bound(2)
            .with_max_failures(3)
            .resume_after(vec![1, 0]);
        assert_eq!(o.max_schedules, 7);
        assert_eq!(o.crash_stride, 1, "stride clamps to at least 1");
        assert_eq!(o.preemption_bound, 2);
        assert_eq!(o.max_failures, 3);
        assert_eq!(o.resume_after.as_deref(), Some(&[1u8, 0][..]));
    }
}
