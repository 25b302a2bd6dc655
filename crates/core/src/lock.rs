//! Per-node FIFO reader-writer lock manager for parallel transactions.
//!
//! The paper's thread-scaling results (Fig. 6) come from conservative
//! strong-strict 2PL at per-node granularity: every transaction acquires
//! its whole lock set at begin and releases it at commit (§2.2), with
//! per-bucket / per-leaf reader-writer locks letting disjoint transactions
//! overlap. The grant policy lives in one pure [`GrantTable`]:
//! [`LockManager`] wraps it in a mutex and a condvar for real threads, and
//! `clobber_sim::run_des` drives the same table with simulated time, so the
//! DES is the oracle for measured scaling shape under the shipped policy:
//!
//! * **Atomic whole-set acquisition.** [`acquire`](LockManager::acquire)
//!   grants all of a request's locks at once or none — there is no
//!   hold-and-wait, so lock-order deadlock is impossible by construction.
//!   Sets are normalized to ascending lock-id order with exclusive mode
//!   winning over shared for duplicate ids, keeping grants deterministic.
//! * **FIFO fairness.** Contended requests queue in arrival order. A later
//!   arrival is never granted a lock that an earlier queued waiter wants
//!   (even a compatible shared grant queues behind a waiting writer), so
//!   writers cannot starve behind a reader stream.
//! * **Wait-die retry.** [`try_acquire`](LockManager::try_acquire) refuses
//!   instead of waiting, returning [`TxError::LockConflict`] with the
//!   first contended lock id; since refusal happens before the transaction
//!   body runs, the caller can retry arbitrarily often with no persistent
//!   side effects.
//!
//! Lock traffic is observable: grants, releases, and conflicts emit
//! [`EventKind::LockAcquire`] / [`LockRelease`] / [`LockConflict`] trace
//! events (stamped under the pool's fault mutex like all app events, so
//! interleavings stay replayable) and count into the `lock_*` fields of
//! [`StatsSnapshot`](clobber_pmem::StatsSnapshot).
//!
//! Lock ordering with the rest of the runtime: lock manager first, then
//! the allocator mirror, then pool shards in ascending order — never
//! inverted (DESIGN.md item 14). The manager itself takes no pool or
//! allocator lock while holding its own mutex; trace/stat emission happens
//! on lock-free paths.
//!
//! [`LockRelease`]: EventKind::LockRelease
//! [`LockConflict`]: EventKind::LockConflict

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Condvar;

use clobber_pmem::PmemPool;
use clobber_trace::EventKind;
use parking_lot::Mutex;

use crate::error::TxError;

/// Identifier of a lock (e.g. a bucket index namespaced by the structure's
/// root address). The same id space `clobber_sim` models.
pub type LockId = u64;

/// Lock acquisition mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Reader-writer shared acquisition.
    Shared,
    /// Exclusive acquisition.
    Exclusive,
}

impl LockMode {
    /// The mode's trace payload word (0 shared, 1 exclusive).
    fn word(self) -> u64 {
        match self {
            LockMode::Shared => 0,
            LockMode::Exclusive => 1,
        }
    }
}

/// One lock needed by a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRequest {
    /// Which lock.
    pub lock: LockId,
    /// How it is held.
    pub mode: LockMode,
}

impl LockRequest {
    /// Exclusive request.
    pub fn exclusive(lock: LockId) -> LockRequest {
        LockRequest {
            lock,
            mode: LockMode::Exclusive,
        }
    }

    /// Shared request.
    pub fn shared(lock: LockId) -> LockRequest {
        LockRequest {
            lock,
            mode: LockMode::Shared,
        }
    }
}

/// Current holders of one lock id.
#[derive(Debug, Default)]
struct Hold {
    readers: usize,
    writer: bool,
}

impl Hold {
    fn compatible(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => !self.writer,
            LockMode::Exclusive => !self.writer && self.readers == 0,
        }
    }

    fn acquire(&mut self, mode: LockMode) {
        match mode {
            LockMode::Shared => self.readers += 1,
            LockMode::Exclusive => self.writer = true,
        }
    }

    fn release(&mut self, mode: LockMode) {
        match mode {
            LockMode::Shared => self.readers -= 1,
            LockMode::Exclusive => self.writer = false,
        }
    }

    fn is_free(&self) -> bool {
        self.readers == 0 && !self.writer
    }
}

/// A queued whole-set request.
#[derive(Debug)]
struct Waiter {
    ticket: u64,
    set: Vec<LockRequest>,
}

/// Outcome of [`GrantTable::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// The whole set is held.
    Now,
    /// Queued in arrival order; the [`GrantTable::release`] that grants the
    /// whole set returns `ticket`.
    Queued {
        /// Identifies the queued request.
        ticket: u64,
        /// The lock that refused it (see [`GrantTable::try_request`]).
        behind: LockId,
    },
}

/// The lock grant policy (see module docs): current holds plus the arrival
/// queue of whole-set requests, with no mutex, condvar, pool or clock in
/// it. Every set passed in must be [`normalize`](GrantTable::normalize)d.
#[derive(Debug, Default)]
pub struct GrantTable {
    holds: HashMap<LockId, Hold>,
    queue: VecDeque<Waiter>,
    next_ticket: u64,
}

impl GrantTable {
    /// Normalizes a lock set: ascending lock-id order, duplicates collapsed
    /// with exclusive mode winning. Deterministic acquisition order is part
    /// of the deadlock-avoidance contract (and keeps trace event order
    /// stable).
    pub fn normalize(set: &[LockRequest]) -> Vec<LockRequest> {
        let mut v: Vec<LockRequest> = set.to_vec();
        v.sort_by_key(|r| (r.lock, r.mode == LockMode::Shared));
        v.dedup_by(|later, first| {
            // After the sort, an exclusive request for an id precedes a
            // shared one, so keeping `first` keeps the stronger mode.
            later.lock == first.lock
        });
        v
    }

    /// `true` if `r` is compatible with the current holds of its lock.
    fn compatible(&self, r: &LockRequest) -> bool {
        self.holds.get(&r.lock).is_none_or(|h| h.compatible(r.mode))
    }

    /// `true` if some queued waiter wants `lock`.
    fn wanted(&self, lock: LockId) -> bool {
        self.queue
            .iter()
            .any(|w| w.set.iter().any(|r| r.lock == lock))
    }

    fn apply(&mut self, set: &[LockRequest]) {
        for r in set {
            self.holds.entry(r.lock).or_default().acquire(r.mode);
        }
    }

    /// Grants the whole `set` at once, or refuses naming the first lock in
    /// it that is incompatibly held, else the first a queued waiter wants
    /// (granting that would barge past the FIFO queue).
    ///
    /// # Errors
    ///
    /// The refusing lock id; nothing was granted or queued.
    pub fn try_request(&mut self, set: &[LockRequest]) -> Result<(), LockId> {
        let refused = set
            .iter()
            .find(|r| !self.compatible(r))
            .or_else(|| set.iter().find(|r| self.wanted(r.lock)));
        match refused {
            Some(r) => Err(r.lock),
            None => {
                self.apply(set);
                Ok(())
            }
        }
    }

    /// [`try_request`](GrantTable::try_request), queueing a refused set
    /// behind every earlier arrival.
    pub fn request(&mut self, set: &[LockRequest]) -> Grant {
        match self.try_request(set) {
            Ok(()) => Grant::Now,
            Err(behind) => {
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                self.queue.push_back(Waiter {
                    ticket,
                    set: set.to_vec(),
                });
                Grant::Queued { ticket, behind }
            }
        }
    }

    /// Releases a granted `set`, then walks the queue in arrival order,
    /// granting every waiter whose whole set is available *and* not wanted
    /// by any earlier still-blocked waiter (the `blocked` set is what makes
    /// the queue FIFO-fair per lock while still letting disjoint sets
    /// overtake). Returns the granted tickets in queue order.
    pub fn release(&mut self, set: &[LockRequest]) -> Vec<u64> {
        for r in set {
            let hold = self.holds.get_mut(&r.lock).expect("released lock is held");
            hold.release(r.mode);
            if hold.is_free() {
                self.holds.remove(&r.lock);
            }
        }
        let mut blocked: HashSet<LockId> = HashSet::new();
        let mut granted = Vec::new();
        let mut remaining: VecDeque<Waiter> = VecDeque::with_capacity(self.queue.len());
        while let Some(w) = self.queue.pop_front() {
            let ok = w
                .set
                .iter()
                .all(|r| !blocked.contains(&r.lock) && self.compatible(r));
            if ok {
                self.apply(&w.set);
                granted.push(w.ticket);
            } else {
                blocked.extend(w.set.iter().map(|r| r.lock));
                remaining.push_back(w);
            }
        }
        self.queue = remaining;
        granted
    }

    /// `true` while `ticket` waits in the queue; a ticket leaves it only by
    /// being granted.
    fn is_queued(&self, ticket: u64) -> bool {
        self.queue.iter().any(|w| w.ticket == ticket)
    }

    /// Number of queued (not yet granted) whole-set requests.
    fn queued(&self) -> usize {
        self.queue.len()
    }

    /// `true` if nothing is held and nobody waits.
    fn is_idle(&self) -> bool {
        self.holds.is_empty() && self.queue.is_empty()
    }
}

/// Per-slot/per-node FIFO reader-writer lock manager (see module docs): a
/// [`GrantTable`] behind a mutex, a condvar for its queued requesters, and
/// the stats and trace events around it.
#[derive(Debug, Default)]
pub struct LockManager {
    table: Mutex<GrantTable>,
    cond: Condvar,
}

impl LockManager {
    /// A fresh manager with no holds.
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Blocks until the whole `set` can be held, FIFO-fair with all other
    /// requesters, and returns a guard releasing it on drop. An empty set
    /// returns immediately.
    pub fn acquire<'a>(&'a self, pool: &'a PmemPool, set: &[LockRequest]) -> LockGuard<'a> {
        let set = GrantTable::normalize(set);
        let mut table = self.table.lock();
        if let Grant::Queued { ticket, behind } = table.request(&set) {
            // Contended: sleep until a release-side grant pass hands us the
            // whole set.
            pool.stats().lock_waits.fetch_add(1, Ordering::Relaxed);
            if pool.tracing_enabled() {
                pool.trace_app_event(EventKind::LockConflict, 0, behind, 0);
            }
            while table.is_queued(ticket) {
                // The vendored `parking_lot` guard is a re-exported std
                // guard, so std's `Condvar` pairs with it directly.
                table = self.cond.wait(table).expect("lock-manager mutex poisoned");
            }
        }
        drop(table);
        self.note_grant(pool, &set);
        LockGuard {
            mgr: self,
            pool,
            set,
        }
    }

    /// Grants the whole `set` immediately or refuses with
    /// [`TxError::LockConflict`] naming the first contended lock — never
    /// waits, never barges past queued waiters. The wait-die building
    /// block: refusal precedes any transaction work, so retry is always
    /// safe.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::LockConflict`] if any lock in the set is
    /// incompatibly held or wanted by an earlier queued waiter.
    pub fn try_acquire<'a>(
        &'a self,
        pool: &'a PmemPool,
        set: &[LockRequest],
    ) -> Result<LockGuard<'a>, TxError> {
        let set = GrantTable::normalize(set);
        let refused = self.table.lock().try_request(&set);
        if let Err(lock) = refused {
            pool.stats().lock_conflicts.fetch_add(1, Ordering::Relaxed);
            if pool.tracing_enabled() {
                pool.trace_app_event(EventKind::LockConflict, 0, lock, 0);
            }
            return Err(TxError::LockConflict { lock });
        }
        self.note_grant(pool, &set);
        Ok(LockGuard {
            mgr: self,
            pool,
            set,
        })
    }

    /// `true` if nothing is held and nobody waits (test/debug aid).
    pub fn is_idle(&self) -> bool {
        self.table.lock().is_idle()
    }

    /// Number of queued (not yet granted) whole-set requests.
    pub fn queued(&self) -> usize {
        self.table.lock().queued()
    }

    fn note_grant(&self, pool: &PmemPool, set: &[LockRequest]) {
        let stats = pool.stats();
        stats.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        let (mut shared, mut excl) = (0u64, 0u64);
        for r in set {
            match r.mode {
                LockMode::Shared => shared += 1,
                LockMode::Exclusive => excl += 1,
            }
        }
        stats.lock_read_holds.fetch_add(shared, Ordering::Relaxed);
        stats.lock_write_holds.fetch_add(excl, Ordering::Relaxed);
        if pool.tracing_enabled() {
            for r in set {
                pool.trace_app_event(EventKind::LockAcquire, 0, r.lock, r.mode.word());
            }
        }
    }

    fn release(&self, pool: &PmemPool, set: &[LockRequest]) {
        let granted = self.table.lock().release(set);
        if !granted.is_empty() {
            self.cond.notify_all();
        }
        if pool.tracing_enabled() {
            for r in set {
                pool.trace_app_event(EventKind::LockRelease, 0, r.lock, r.mode.word());
            }
        }
    }
}

/// Holds a granted lock set; releases it (and wakes eligible waiters) on
/// drop.
#[derive(Debug)]
pub struct LockGuard<'a> {
    mgr: &'a LockManager,
    pool: &'a PmemPool,
    set: Vec<LockRequest>,
}

impl LockGuard<'_> {
    /// The normalized lock set this guard holds.
    pub fn set(&self) -> &[LockRequest] {
        &self.set
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.mgr.release(self.pool, &self.set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clobber_pmem::{PmemPool, PoolOptions};
    use std::sync::atomic::{AtomicUsize, Ordering as AOrd};
    use std::sync::{Arc, Barrier};

    fn pool() -> Arc<PmemPool> {
        Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap())
    }

    #[test]
    fn normalize_sorts_dedups_and_keeps_exclusive() {
        let set = GrantTable::normalize(&[
            LockRequest::shared(9),
            LockRequest::exclusive(3),
            LockRequest::shared(3),
            LockRequest::shared(9),
        ]);
        assert_eq!(set, vec![LockRequest::exclusive(3), LockRequest::shared(9)]);
    }

    #[test]
    fn uncontended_acquire_is_immediate_and_counted() {
        let pool = pool();
        let mgr = LockManager::new();
        let before = pool.stats().snapshot();
        {
            let g = mgr.acquire(&pool, &[LockRequest::exclusive(1), LockRequest::shared(2)]);
            assert_eq!(g.set().len(), 2);
            assert!(!mgr.is_idle());
        }
        assert!(mgr.is_idle());
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(d.lock_acquisitions, 1);
        assert_eq!(d.lock_read_holds, 1);
        assert_eq!(d.lock_write_holds, 1);
        assert_eq!((d.lock_conflicts, d.lock_waits), (0, 0));
    }

    #[test]
    fn readers_share_writers_exclude() {
        let pool = pool();
        let mgr = LockManager::new();
        let r1 = mgr.acquire(&pool, &[LockRequest::shared(7)]);
        let _r2 = mgr.acquire(&pool, &[LockRequest::shared(7)]);
        assert!(mgr
            .try_acquire(&pool, &[LockRequest::exclusive(7)])
            .is_err());
        drop(r1);
        assert!(mgr
            .try_acquire(&pool, &[LockRequest::exclusive(7)])
            .is_err());
    }

    #[test]
    fn try_acquire_reports_the_conflicting_lock() {
        let pool = pool();
        let mgr = LockManager::new();
        let _g = mgr.acquire(&pool, &[LockRequest::exclusive(5)]);
        let err = mgr
            .try_acquire(&pool, &[LockRequest::shared(4), LockRequest::shared(5)])
            .unwrap_err();
        assert_eq!(err, TxError::LockConflict { lock: 5 });
        assert_eq!(pool.stats().snapshot().lock_conflicts, 1);
    }

    #[test]
    fn blocking_acquire_waits_and_proceeds() {
        let pool = pool();
        let mgr = Arc::new(LockManager::new());
        let order = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let g = mgr.acquire(&pool, &[LockRequest::exclusive(1)]);
            let (mgr2, pool2, order2) = (mgr.clone(), pool.clone(), order.clone());
            let waiter = s.spawn(move || {
                let _g = mgr2.acquire(&pool2, &[LockRequest::exclusive(1)]);
                order2.store(2, AOrd::SeqCst);
            });
            // Let the waiter queue, then release.
            while mgr.queued() == 0 {
                std::thread::yield_now();
            }
            order.store(1, AOrd::SeqCst);
            drop(g);
            waiter.join().unwrap();
        });
        assert_eq!(order.load(AOrd::SeqCst), 2);
        assert_eq!(pool.stats().snapshot().lock_waits, 1);
        assert!(mgr.is_idle());
    }

    fn queued(ticket: u64, behind: LockId) -> Grant {
        Grant::Queued { ticket, behind }
    }

    #[test]
    fn fifo_readers_do_not_overtake_a_queued_writer() {
        // Reader holds; writer queues; a later reader must queue behind the
        // writer instead of sharing with the current reader.
        let mut t = GrantTable::default();
        let (r, w) = ([LockRequest::shared(3)], [LockRequest::exclusive(3)]);
        assert_eq!(t.request(&r), Grant::Now);
        assert_eq!(t.request(&w), queued(0, 3));
        assert_eq!(t.try_request(&r), Err(3), "a late reader cannot barge");
        assert_eq!(t.request(&r), queued(1, 3));
        assert_eq!(t.release(&r), vec![0], "the writer goes first, alone");
        assert!(t.is_queued(1));
        assert_eq!(t.release(&w), vec![1]);
        assert!(t.release(&r).is_empty() && t.is_idle());
    }

    #[test]
    fn disjoint_sets_overtake_blocked_waiters() {
        // A waiter blocked on lock 1 must not block an independent lock-3
        // request (the `blocked` set only covers the waiter's own ids), but
        // its claim on lock 2 holds a later arrival back, at request time
        // and in every grant pass.
        let x = LockRequest::exclusive;
        let mut t = GrantTable::default();
        assert_eq!(t.request(&[x(1)]), Grant::Now);
        assert_eq!(t.request(&[x(1), x(2)]), queued(0, 1));
        assert_eq!(
            t.try_request(&[x(3)]),
            Ok(()),
            "disjoint set must not queue"
        );
        assert_eq!(t.request(&[x(2)]), queued(1, 2));
        assert!(t.release(&[x(3)]).is_empty(), "ticket 1 passed ticket 0");
        assert_eq!(t.release(&[x(1)]), vec![0]);
        assert_eq!(t.release(&[x(1), x(2)]), vec![1]);
    }

    #[test]
    fn many_threads_disjoint_locks_all_complete() {
        let pool = pool();
        let mgr = Arc::new(LockManager::new());
        let start = Arc::new(Barrier::new(4));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (m, p, b) = (mgr.clone(), pool.clone(), start.clone());
                s.spawn(move || {
                    b.wait();
                    for i in 0..50 {
                        let _g = m.acquire(
                            &p,
                            &[
                                LockRequest::exclusive(t),
                                LockRequest::shared(100 + (i % 3)),
                            ],
                        );
                    }
                });
            }
        });
        assert!(mgr.is_idle());
        let s = pool.stats().snapshot();
        assert_eq!(s.lock_acquisitions, 200);
        assert_eq!(s.lock_write_holds, 200);
        assert_eq!(s.lock_read_holds, 200);
    }

    #[test]
    fn contended_exclusive_counter_conserves() {
        // 4 threads × 100 increments on one exclusively-locked counter.
        let pool = pool();
        let mgr = LockManager::new();
        // All access happens under exclusive lock 0 — the lock discipline
        // is what makes the unsynchronized cell race-free.
        struct Counter(std::cell::UnsafeCell<u64>);
        unsafe impl Sync for Counter {}
        let counter = Counter(std::cell::UnsafeCell::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (m, p, c) = (&mgr, &pool, &counter);
                s.spawn(move || {
                    for _ in 0..100 {
                        let _g = m.acquire(p, &[LockRequest::exclusive(0)]);
                        unsafe { *c.0.get() += 1 };
                    }
                });
            }
        });
        assert_eq!(unsafe { *counter.0.get() }, 400);
        assert!(mgr.is_idle());
    }
}
