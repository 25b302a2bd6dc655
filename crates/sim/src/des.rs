//! Deterministic discrete-event executor.
//!
//! Reproduces the paper's thread-scaling experiments on a single physical
//! core: logical threads acquire *simulated* reader-writer locks in the
//! paper's conservative strong-strict-2PL style (all locks at transaction
//! begin, released at commit, §2.2), operations execute **for real** against
//! the runtime — one at a time on the host thread, in simulated-lock-grant
//! order, so data is never racy — and each operation's simulated duration
//! comes from the cost model applied to its counted persistence events.
//!
//! Scalability shape therefore emerges from exactly the two factors the
//! paper credits: lock granularity (a global lock serializes, per-node
//! locks overlap) and per-operation persistence cost.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use clobber_nvm::{Grant, GrantTable, LockRequest};

/// One simulated operation: the locks it holds for its duration, and a
/// closure that performs the real work and returns the simulated duration
/// in nanoseconds.
pub struct SimOp {
    /// Locks held from grant to completion (conservative 2PL).
    pub locks: Vec<LockRequest>,
    /// Executes the operation and returns its simulated duration.
    pub execute: Box<dyn FnOnce() -> u64>,
}

impl std::fmt::Debug for SimOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimOp")
            .field("locks", &self.locks)
            .finish_non_exhaustive()
    }
}

/// Supplies each logical thread's operation stream.
pub trait OpSource {
    /// The next operation for `thread`, or `None` when it is done.
    fn next_op(&mut self, thread: usize) -> Option<SimOp>;
}

/// Outcome of a simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesResult {
    /// Operations completed across all threads.
    pub total_ops: u64,
    /// Simulated wall-clock: when the last thread finished, in ns.
    pub makespan_ns: u64,
    /// Operations per logical thread.
    pub per_thread_ops: Vec<u64>,
}

impl DesResult {
    /// Aggregate throughput in operations per second.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 * 1e9 / self.makespan_ns as f64
    }
}

/// An op between arrival and grant: who asked, when, and the work to do.
struct Pending {
    thread: usize,
    arrival: u64,
    execute: Box<dyn FnOnce() -> u64>,
}

/// The product's [`GrantTable`] plus what simulated time adds to it.
#[derive(Default)]
struct Des {
    table: GrantTable,
    /// Completion events, earliest first: (time, op arrival number, thread).
    events: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Ops queued in the table, by ticket.
    waiting: HashMap<u64, Pending>,
    /// Each thread's requested (then held) lock set, normalized.
    sets: Vec<Vec<LockRequest>>,
    arrivals: u64,
}

impl Des {
    /// `thread`'s next op asks the table for its whole lock set at `now`.
    fn arrive(&mut self, thread: usize, op: SimOp, now: u64) {
        self.arrivals += 1;
        let pending = Pending {
            thread,
            arrival: self.arrivals,
            execute: op.execute,
        };
        self.sets[thread] = GrantTable::normalize(&op.locks);
        match self.table.request(&self.sets[thread]) {
            Grant::Now => self.start(pending, now),
            Grant::Queued { ticket, .. } => {
                self.waiting.insert(ticket, pending);
            }
        }
    }

    /// A granted op does its real work now and completes after its
    /// simulated duration.
    fn start(&mut self, op: Pending, now: u64) {
        let duration = (op.execute)();
        self.events
            .push(Reverse((now + duration.max(1), op.arrival, op.thread)));
    }
}

/// Runs `threads` logical threads to completion over `source`.
///
/// Lock policy: the product's [`GrantTable`], driven with simulated time —
/// an operation atomically acquires its whole normalized lock set
/// (deadlock-free conservative 2PL), contended operations queue in arrival
/// order, and each completion's release grants waiters per-lock FIFO.
pub fn run_des(threads: usize, source: &mut dyn OpSource) -> DesResult {
    let mut des = Des {
        sets: vec![Vec::new(); threads],
        ..Des::default()
    };
    let mut per_thread_ops = vec![0u64; threads];
    let mut total_ops = 0u64;
    let mut makespan = 0u64;

    // Kick off every thread at t=0.
    for t in 0..threads {
        if let Some(op) = source.next_op(t) {
            des.arrive(t, op, 0);
        }
    }

    while let Some(Reverse((now, _, thread))) = des.events.pop() {
        makespan = makespan.max(now);
        total_ops += 1;
        per_thread_ops[thread] += 1;
        // The finishing thread's next op is drawn before the waiters this
        // release grants do their work, and arrives behind them.
        let next = source.next_op(thread);
        for ticket in des.table.release(&des.sets[thread]) {
            let granted = des
                .waiting
                .remove(&ticket)
                .expect("granted ticket was queued");
            des.start(granted, now);
        }
        if let Some(op) = next {
            des.arrive(thread, op, now);
        }
    }

    debug_assert!(
        des.waiting.is_empty(),
        "deadlock: waiters left with no events"
    );
    DesResult {
        total_ops,
        makespan_ns: makespan,
        per_thread_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Source handing each thread `n` ops of fixed duration and lock set.
    struct Fixed {
        remaining: Vec<u64>,
        duration: u64,
        lock_for: fn(usize) -> Vec<LockRequest>,
    }

    impl OpSource for Fixed {
        fn next_op(&mut self, thread: usize) -> Option<SimOp> {
            if self.remaining[thread] == 0 {
                return None;
            }
            self.remaining[thread] -= 1;
            let d = self.duration;
            Some(SimOp {
                locks: (self.lock_for)(thread),
                execute: Box::new(move || d),
            })
        }
    }

    #[test]
    fn independent_threads_overlap_perfectly() {
        // Each thread has its own lock: makespan = per-thread work.
        let mut src = Fixed {
            remaining: vec![10; 4],
            duration: 100,
            lock_for: |t| vec![LockRequest::exclusive(t as u64)],
        };
        let r = run_des(4, &mut src);
        assert_eq!(r.total_ops, 40);
        assert_eq!(r.makespan_ns, 1000, "4x overlap");
        assert_eq!(r.per_thread_ops, vec![10, 10, 10, 10]);
    }

    #[test]
    fn global_exclusive_lock_serializes() {
        let mut src = Fixed {
            remaining: vec![10; 4],
            duration: 100,
            lock_for: |_| vec![LockRequest::exclusive(0)],
        };
        let r = run_des(4, &mut src);
        assert_eq!(r.total_ops, 40);
        assert_eq!(r.makespan_ns, 4000, "no overlap under a global lock");
    }

    #[test]
    fn shared_locks_overlap() {
        let mut src = Fixed {
            remaining: vec![10; 4],
            duration: 100,
            lock_for: |_| vec![LockRequest::shared(0)],
        };
        let r = run_des(4, &mut src);
        assert_eq!(r.makespan_ns, 1000, "readers run concurrently");
    }

    #[test]
    fn writer_excludes_readers() {
        // Thread 0 writes a single rwlock, threads 1 and 2 read it.
        let mut src = Fixed {
            remaining: vec![2; 3],
            duration: 100,
            lock_for: |t| match t {
                0 => vec![LockRequest::exclusive(0)],
                _ => vec![LockRequest::shared(0)],
            },
        };
        let r = run_des(3, &mut src);
        assert_eq!(r.total_ops, 6);
        // 2 writer ops serialize against the reader groups; readers overlap
        // with each other. Lower bound: writer 200 + at least 2 reader
        // rounds of 100 = 400; upper bound: fully serial 600.
        assert!((400..=600).contains(&r.makespan_ns), "{}", r.makespan_ns);
    }

    #[test]
    fn multi_lock_ops_acquire_atomically() {
        // Thread 0 takes locks {0,1}; threads 1 and 2 take {0} and {1}.
        let mut src = Fixed {
            remaining: vec![5; 3],
            duration: 100,
            lock_for: |t| match t {
                0 => vec![LockRequest::exclusive(0), LockRequest::exclusive(1)],
                1 => vec![LockRequest::exclusive(0)],
                _ => vec![LockRequest::exclusive(1)],
            },
        };
        let r = run_des(3, &mut src);
        assert_eq!(r.total_ops, 15);
        // Thread 0 conflicts with both: its 5 ops serialize against
        // everything; threads 1/2 overlap with each other.
        assert!(r.makespan_ns >= 1000);
        assert!(r.makespan_ns <= 1500);
    }

    /// Source handing each thread its scripted (lock set, duration) ops.
    struct Script(Vec<VecDeque<(Vec<LockRequest>, u64)>>);

    impl OpSource for Script {
        fn next_op(&mut self, thread: usize) -> Option<SimOp> {
            let (locks, duration) = self.0[thread].pop_front()?;
            Some(SimOp {
                locks,
                execute: Box::new(move || duration),
            })
        }
    }

    /// One op per thread, arriving in thread order at t=0.
    fn one_op_each(ops: Vec<(Vec<LockRequest>, u64)>) -> DesResult {
        let threads = ops.len();
        run_des(
            threads,
            &mut Script(ops.into_iter().map(|op| [op].into()).collect()),
        )
    }

    #[test]
    fn reader_behind_a_queued_writer_waits_for_it() {
        let (r, w) = (LockRequest::shared(0), LockRequest::exclusive(0));
        // Two readers hold (until 100 and 50); the writer queues; the late
        // reader queues behind it — it joins the readers neither on arrival
        // nor when the short reader's release runs a grant pass at 50.
        let res = one_op_each(vec![
            (vec![r], 100),
            (vec![r], 50),
            (vec![w], 10),
            (vec![r], 100),
        ]);
        assert_eq!(
            res.makespan_ns, 210,
            "writer runs 100..110, then the late reader 110..210"
        );
    }

    #[test]
    fn op_behind_a_blocked_multi_lock_op_waits_for_it() {
        let x = LockRequest::exclusive;
        // {1} held until 100, {2} until 50; {1,2} queues on lock 1; the
        // late {2} op queues behind it and stays there when lock 2 comes
        // free at 50.
        let res = one_op_each(vec![
            (vec![x(1)], 100),
            (vec![x(2)], 50),
            (vec![x(1), x(2)], 10),
            (vec![x(2)], 100),
        ]);
        assert_eq!(
            res.makespan_ns, 210,
            "{{1,2}} runs 100..110, then the late {{2}} op 110..210"
        );
    }

    #[test]
    fn a_set_listing_a_lock_twice_is_one_hold() {
        let x = LockRequest::exclusive;
        let res = one_op_each(vec![(vec![LockRequest::shared(7), x(7), x(7)], 5)]);
        assert_eq!((res.total_ops, res.makespan_ns), (1, 5));
    }

    #[test]
    fn empty_source_finishes_immediately() {
        struct Empty;
        impl OpSource for Empty {
            fn next_op(&mut self, _t: usize) -> Option<SimOp> {
                None
            }
        }
        let r = run_des(8, &mut Empty);
        assert_eq!(r.total_ops, 0);
        assert_eq!(r.makespan_ns, 0);
        assert_eq!(r.throughput_ops_per_sec(), 0.0);
    }

    #[test]
    fn zero_duration_ops_still_advance() {
        let mut src = Fixed {
            remaining: vec![3; 1],
            duration: 0,
            lock_for: |_| vec![],
        };
        let r = run_des(1, &mut src);
        assert_eq!(r.total_ops, 3);
        assert!(r.makespan_ns >= 3, "durations clamp to 1ns");
    }

    #[test]
    fn throughput_math_checks_out() {
        let r = DesResult {
            total_ops: 1000,
            makespan_ns: 1_000_000,
            per_thread_ops: vec![1000],
        };
        assert_eq!(r.throughput_ops_per_sec(), 1e6);
    }
}
