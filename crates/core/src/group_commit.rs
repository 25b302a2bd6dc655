//! Cross-transaction group commit: epoch/leader-based fence coalescing.
//!
//! Every ordering fence a transaction issues (begin-record persistence,
//! the log sync before the deferred stores, commit publication) only needs *an*
//! `sfence` to have been executed after its flushes — not its own private
//! one. When several transactions request ordering concurrently, a single
//! fence satisfies all of them, which is where log-based runtimes win under
//! load (*Persistent Memory Transactions*, Marathe et al.; Crafty gets the
//! same effect by deferring persistence to commit boundaries).
//!
//! [`GroupCommit`] implements the classic leader/follower protocol:
//! ordering requests join the current *epoch*; one requester is elected
//! leader, issues the pool fence on everyone's behalf, and completes the
//! epoch; followers block until their epoch completes. With
//! `min_batch == 1` (the default) a lone requester is immediately its own
//! leader — the protocol degenerates to a plain `pool.fence()` with no
//! extra persist events, so single-threaded fence pins are unchanged.
//! `min_batch = K > 1` makes the coalescing deterministic for tests: an
//! epoch only closes once `K` requesters have joined, so exactly one fence
//! is issued per `K` requests (callers must guarantee `K` threads keep
//! requesting, or the epoch would wait forever — it is a test/measurement
//! knob, not a production default).
//!
//! Epoch boundaries are recorded as [`EventKind::GroupCommitEpoch`] trace
//! events (stamped, like all app events, under the pool's fault mutex) and
//! counted in `gc_epochs` / `gc_fences_saved`, so the fence-count reduction
//! is visible in [`StatsSnapshot`] and in golden traces.
//!
//! # Crash model
//!
//! Sharing a fence never weakens durability: the leader's `pool.fence()`
//! covers every flush issued before the follower called
//! [`fence`](GroupCommit::fence) (the follower joined the epoch before the
//! leader fenced, and the pool fence orders *all* pending flushes, not a
//! thread's own). A crash that trips mid-epoch (the fence's persist event
//! is the trip point) leaves every coalesced transaction un-ordered at
//! once — exactly as if each had crashed before its own private fence — and
//! `Schedule::replay` reproduces it, since the shared fence occupies one
//! deterministic persist-event index.
//!
//! [`EventKind::GroupCommitEpoch`]: clobber_trace::EventKind::GroupCommitEpoch
//! [`StatsSnapshot`]: clobber_pmem::StatsSnapshot

use clobber_pmem::PmemPool;
use clobber_trace::EventKind;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Condvar;

#[derive(Debug)]
struct State {
    /// Epoch currently accepting requesters. Starts at 1 so `completed = 0`
    /// means "nothing completed yet".
    epoch: u64,
    /// Highest epoch whose fence has been issued.
    completed: u64,
    /// Requesters joined to the current epoch (leader excluded once
    /// elected).
    waiters: usize,
    /// A leader is currently fencing (outside the lock).
    leading: bool,
    /// Requesters blocked in `cond.wait`. Kept under the mutex, so it is
    /// exact when a leader completes its epoch: zero means nobody can miss
    /// the wake-up, and the `notify_all` — a futex syscall on std's condvar
    /// even with no waiter — is skipped.
    parked: usize,
}

/// An epoch-based fence coalescer shared by all transactions of a runtime.
#[derive(Debug)]
pub struct GroupCommit {
    min_batch: usize,
    state: Mutex<State>,
    cond: Condvar,
}

impl GroupCommit {
    /// Creates a coalescer that closes an epoch once `min_batch` requesters
    /// have joined (`0` is treated as `1`).
    pub fn new(min_batch: usize) -> GroupCommit {
        GroupCommit {
            min_batch: min_batch.max(1),
            state: Mutex::new(State {
                epoch: 1,
                completed: 0,
                waiters: 0,
                leading: false,
                parked: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// The configured epoch-close threshold.
    pub fn min_batch(&self) -> usize {
        self.min_batch
    }

    /// Requests ordering: returns once a pool fence has been issued after
    /// this call joined its epoch. With `min_batch == 1` and no concurrent
    /// requesters this issues exactly one `pool.fence()` inline.
    pub fn fence(&self, pool: &PmemPool) {
        let mut st = self.state.lock();
        let my_epoch = st.epoch;
        st.waiters += 1;
        loop {
            if st.completed >= my_epoch {
                return;
            }
            if !st.leading && st.waiters >= self.min_batch {
                // Become leader for every requester currently joined
                // (including any that joined while a previous leader was
                // fencing).
                let batch = st.waiters as u64;
                st.leading = true;
                st.waiters = 0;
                st.epoch = my_epoch + 1;
                drop(st);
                pool.trace_app_event(EventKind::GroupCommitEpoch, 0, my_epoch, batch);
                pool.fence();
                let stats = pool.stats();
                stats.gc_epochs.fetch_add(1, Ordering::Relaxed);
                if batch > 1 {
                    stats
                        .gc_fences_saved
                        .fetch_add(batch - 1, Ordering::Relaxed);
                }
                st = self.state.lock();
                st.completed = my_epoch;
                st.leading = false;
                if st.parked > 0 {
                    self.cond.notify_all();
                }
                return;
            }
            // The vendored `parking_lot` guard is a re-exported std guard, so
            // std's `Condvar` pairs with it directly.
            st.parked += 1;
            st = self.cond.wait(st).expect("group-commit mutex poisoned");
            st.parked -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clobber_pmem::PoolOptions;
    use std::sync::Arc;

    #[test]
    fn min_batch_one_is_a_plain_fence() {
        let pool = PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap();
        let gc = GroupCommit::new(1);
        let before = pool.stats().snapshot();
        gc.fence(&pool);
        gc.fence(&pool);
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(d.fences, 2, "no concurrency: one pool fence per request");
        assert_eq!(d.gc_epochs, 2);
        assert_eq!(d.gc_fences_saved, 0);
    }

    #[test]
    fn four_requesters_share_one_fence() {
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
        let gc = Arc::new(GroupCommit::new(4));
        let before = pool.stats().snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                let gc = gc.clone();
                std::thread::spawn(move || gc.fence(&pool))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(d.fences, 1, "one shared fence for the whole epoch");
        assert_eq!(d.gc_epochs, 1);
        assert_eq!(d.gc_fences_saved, 3);
    }

    #[test]
    fn free_running_requesters_leave_no_one_parked() {
        // More threads than `min_batch`: requesters join the next epoch
        // while a leader is fencing and park. When all are back, the
        // coalescer must be idle — nobody joined, leading or parked — and
        // every epoch it opened must be complete.
        let pool = PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap();
        let gc = GroupCommit::new(1);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..500 {
                        gc.fence(&pool);
                    }
                });
            }
        });
        let st = gc.state.lock();
        assert_eq!((st.waiters, st.parked, st.leading), (0, 0, false));
        assert_eq!(st.completed + 1, st.epoch);
        let d = pool.stats().snapshot();
        assert_eq!(d.gc_epochs + d.gc_fences_saved, 3 * 500);
    }

    #[test]
    fn repeated_epochs_keep_coalescing() {
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
        let gc = Arc::new(GroupCommit::new(2));
        let rounds = 8;
        let before = pool.stats().snapshot();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let pool = pool.clone();
                let gc = gc.clone();
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        gc.fence(&pool);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(d.gc_epochs + d.gc_fences_saved, 2 * rounds);
        assert!(
            d.fences <= rounds + 1,
            "at least ~2x coalescing: {} fences for {} requests",
            d.fences,
            2 * rounds
        );
    }
}
