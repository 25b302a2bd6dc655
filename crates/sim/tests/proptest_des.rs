//! Property-based tests of the discrete-event executor.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use clobber_sim::{run_des, LockRequest, OpSource, SimOp};
use proptest::prelude::*;

/// One scripted operation: its lock set and duration.
#[derive(Debug, Clone)]
struct Scripted {
    locks: Vec<LockRequest>,
    duration: u64,
}

impl Scripted {
    fn exclusive(lock: u64, duration: u64) -> Scripted {
        Scripted {
            locks: vec![LockRequest::exclusive(lock)],
            duration,
        }
    }
}

/// What the `execute` closures (the grants) observed.
#[derive(Default)]
struct Log {
    /// Per op in arrival order: its lock ids, and whether it was granted yet.
    arrived: Vec<(Vec<u64>, bool)>,
    /// The first FIFO violation, if any.
    overtake: Option<String>,
}

struct ScriptSource {
    per_thread: Vec<VecDeque<Scripted>>,
    log: Rc<RefCell<Log>>,
}

impl OpSource for ScriptSource {
    fn next_op(&mut self, thread: usize) -> Option<SimOp> {
        let op = self.per_thread[thread].pop_front()?;
        let ids: Vec<u64> = op.locks.iter().map(|r| r.lock).collect();
        let me = self.log.borrow().arrived.len();
        self.log.borrow_mut().arrived.push((ids, false));
        let log = self.log.clone();
        Some(SimOp {
            locks: op.locks,
            execute: Box::new(move || {
                let log = &mut *log.borrow_mut();
                let passed = (0..me).find(|&earlier| {
                    let (ids, granted) = &log.arrived[earlier];
                    !granted && ids.iter().any(|id| log.arrived[me].0.contains(id))
                });
                if let (Some(earlier), None) = (passed, &log.overtake) {
                    log.overtake = Some(format!(
                        "op {me} {:?} granted past waiting op {earlier} {:?}",
                        log.arrived[me].0, log.arrived[earlier].0
                    ));
                }
                log.arrived[me].1 = true;
                op.duration
            }),
        })
    }
}

/// 1-3 locks out of four, shared or exclusive, possibly one listed twice.
fn script_strategy() -> impl Strategy<Value = Vec<Scripted>> {
    let lock = (0u64..4, any::<bool>()).prop_map(|(lock, exclusive)| {
        if exclusive {
            LockRequest::exclusive(lock)
        } else {
            LockRequest::shared(lock)
        }
    });
    proptest::collection::vec(
        (proptest::collection::vec(lock, 1..4), 1u64..200)
            .prop_map(|(locks, duration)| Scripted { locks, duration }),
        1..40,
    )
}

fn source(per_thread: Vec<VecDeque<Scripted>>) -> ScriptSource {
    ScriptSource {
        per_thread,
        log: Rc::default(),
    }
}

fn split(ops: &[Scripted], threads: usize) -> ScriptSource {
    let mut per_thread: Vec<VecDeque<Scripted>> = (0..threads).map(|_| VecDeque::new()).collect();
    for (i, op) in ops.iter().enumerate() {
        per_thread[i % threads].push_back(op.clone());
    }
    source(per_thread)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every submitted operation completes, exactly once.
    #[test]
    fn all_operations_complete(ops in script_strategy(), threads in 1usize..6) {
        let r = run_des(threads, &mut split(&ops, threads));
        prop_assert_eq!(r.total_ops, ops.len() as u64);
        prop_assert_eq!(r.per_thread_ops.iter().sum::<u64>(), ops.len() as u64);
    }

    /// Per-lock FIFO: no op is granted while an earlier-arrived op that
    /// wants one of its locks is still waiting.
    #[test]
    fn no_grant_overtakes_an_earlier_waiter_on_a_shared_lock(ops in script_strategy(), threads in 1usize..6) {
        let mut src = split(&ops, threads);
        run_des(threads, &mut src);
        prop_assert_eq!(src.log.borrow().overtake.clone(), None);
    }

    /// The makespan is bounded below by the longest single operation and
    /// above by fully serial execution.
    #[test]
    fn makespan_bounds(ops in script_strategy(), threads in 1usize..6) {
        let r = run_des(threads, &mut split(&ops, threads));
        let serial: u64 = ops.iter().map(|o| o.duration).sum();
        let longest: u64 = ops.iter().map(|o| o.duration).max().unwrap_or(0);
        prop_assert!(r.makespan_ns >= longest);
        prop_assert!(r.makespan_ns <= serial, "{} > serial {}", r.makespan_ns, serial);
    }

    /// One thread is exactly serial.
    #[test]
    fn single_thread_is_serial(ops in script_strategy()) {
        let r = run_des(1, &mut split(&ops, 1));
        let serial: u64 = ops.iter().map(|o| o.duration).sum();
        prop_assert_eq!(r.makespan_ns, serial);
    }

    /// Exclusive contention on one lock serializes regardless of threads.
    #[test]
    fn exclusive_single_lock_serializes(durations in proptest::collection::vec(1u64..100, 1..30), threads in 1usize..6) {
        let ops: Vec<Scripted> = durations
            .iter()
            .map(|&d| Scripted::exclusive(0, d))
            .collect();
        let r = run_des(threads, &mut split(&ops, threads));
        prop_assert_eq!(r.makespan_ns, durations.iter().sum::<u64>());
    }

    /// Runs are deterministic: same script, same result.
    #[test]
    fn deterministic(ops in script_strategy(), threads in 1usize..6) {
        let a = run_des(threads, &mut split(&ops, threads));
        let b = run_des(threads, &mut split(&ops, threads));
        prop_assert_eq!(a, b);
    }

    /// Threads with disjoint exclusive locks overlap perfectly when load is
    /// balanced.
    #[test]
    fn disjoint_locks_overlap(durations in proptest::collection::vec(1u64..100, 1..24)) {
        let threads = 3usize;
        // Give thread t ops on its own private lock (id = 100 + t).
        let mut per_thread: Vec<VecDeque<Scripted>> = (0..threads).map(|_| VecDeque::new()).collect();
        for (i, &d) in durations.iter().enumerate() {
            let t = i % threads;
            per_thread[t].push_back(Scripted::exclusive(100 + t as u64, d));
        }
        let per_thread_work: Vec<u64> = per_thread
            .iter()
            .map(|q| q.iter().map(|o| o.duration).sum())
            .collect();
        let r = run_des(threads, &mut source(per_thread));
        prop_assert_eq!(r.makespan_ns, *per_thread_work.iter().max().unwrap());
    }
}
