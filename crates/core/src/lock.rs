//! Per-node FIFO reader-writer lock manager for parallel transactions.
//!
//! The paper's thread-scaling results (Fig. 6) come from conservative
//! strong-strict 2PL at per-node granularity: every transaction acquires
//! its whole lock set at begin and releases it at commit (§2.2), with
//! per-bucket / per-leaf reader-writer locks letting disjoint transactions
//! overlap. [`LockManager`] is the real-thread implementation of the lock
//! model `clobber_sim::run_des` simulates, so the DES cost model can serve
//! as the oracle for measured scaling shape — except in fairness: `run_des`
//! grants any waiter whose set is free, so there a later compatible reader
//! overtakes a queued writer, which the FIFO rule below forbids:
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
//! * **Upgrade denial.** [`LockGuard::try_upgrade`] converts a shared hold
//!   to exclusive only when the guard is the lock's sole holder and no
//!   queued waiter wants it (equivalent to having acquired exclusive at
//!   begin, so 2PL is preserved); every other upgrade is denied with
//!   [`TxError::LockConflict`] — concurrent readers must release and
//!   re-acquire, never upgrade in place.
//!
//! Lock traffic is observable: grants, releases, and conflicts emit
//! [`EventKind::LockAcquire`] / [`LockRelease`] / [`LockConflict`] trace
//! events (stamped under the pool's fault mutex like all app events, so
//! interleavings stay replayable) and count into the `lock_*` fields of
//! [`StatsSnapshot`](clobber_pmem::StatsSnapshot).
//!
//! Lock ordering with the rest of the runtime: lock manager first, then
//! allocator arena mirror, then pool shards in ascending order — never
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

#[derive(Debug, Default)]
struct Inner {
    holds: HashMap<LockId, Hold>,
    queue: VecDeque<Waiter>,
    /// Tickets granted by a release-side grant pass, awaiting pickup by
    /// their sleeping requester.
    granted: HashSet<u64>,
    next_ticket: u64,
}

impl Inner {
    /// `true` if every lock in `set` is compatible with the current holds.
    fn set_compatible(&self, set: &[LockRequest]) -> bool {
        set.iter()
            .all(|r| self.holds.get(&r.lock).is_none_or(|h| h.compatible(r.mode)))
    }

    /// The first lock in `set` some queued waiter also wants, if any —
    /// granting such a set would barge past the FIFO queue.
    fn first_queued(&self, set: &[LockRequest]) -> Option<LockId> {
        set.iter().map(|r| r.lock).find(|id| {
            self.queue
                .iter()
                .any(|w| w.set.iter().any(|r| r.lock == *id))
        })
    }

    /// The first lock in `set` that is incompatible with current holds.
    fn first_incompatible(&self, set: &[LockRequest]) -> Option<LockId> {
        set.iter()
            .find(|r| {
                self.holds
                    .get(&r.lock)
                    .is_some_and(|h| !h.compatible(r.mode))
            })
            .map(|r| r.lock)
    }

    fn apply(&mut self, set: &[LockRequest]) {
        for r in set {
            self.holds.entry(r.lock).or_default().acquire(r.mode);
        }
    }

    fn unapply(&mut self, set: &[LockRequest]) {
        for r in set {
            let hold = self.holds.get_mut(&r.lock).expect("released lock is held");
            hold.release(r.mode);
            if hold.is_free() {
                self.holds.remove(&r.lock);
            }
        }
    }

    /// Walks the queue in ticket order, granting every waiter whose whole
    /// set is available *and* not wanted by any earlier still-blocked
    /// waiter (the `blocked` set is what makes the queue FIFO-fair per
    /// lock while still letting disjoint sets overtake). Returns how many
    /// waiters were granted.
    fn grant_pass(&mut self) -> usize {
        let mut blocked: HashSet<LockId> = HashSet::new();
        let mut granted = 0usize;
        let mut remaining: VecDeque<Waiter> = VecDeque::with_capacity(self.queue.len());
        while let Some(w) = self.queue.pop_front() {
            let ok =
                w.set.iter().all(|r| !blocked.contains(&r.lock)) && self.set_compatible(&w.set);
            if ok {
                self.apply(&w.set);
                self.granted.insert(w.ticket);
                granted += 1;
            } else {
                for r in &w.set {
                    blocked.insert(r.lock);
                }
                remaining.push_back(w);
            }
        }
        self.queue = remaining;
        granted
    }
}

/// Normalizes a lock set: ascending lock-id order, duplicates collapsed
/// with exclusive mode winning. Deterministic acquisition order is part of
/// the deadlock-avoidance contract (and keeps trace event order stable).
fn normalize(set: &[LockRequest]) -> Vec<LockRequest> {
    let mut v: Vec<LockRequest> = set.to_vec();
    v.sort_by_key(|r| (r.lock, r.mode == LockMode::Shared));
    v.dedup_by(|later, first| {
        // After the sort, an exclusive request for an id precedes a shared
        // one, so keeping `first` keeps the stronger mode.
        later.lock == first.lock
    });
    v
}

/// Per-slot/per-node FIFO reader-writer lock manager (see module docs).
#[derive(Debug, Default)]
pub struct LockManager {
    inner: Mutex<Inner>,
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
        let set = normalize(set);
        let mut inner = self.inner.lock();
        if inner.first_queued(&set).is_none() && inner.set_compatible(&set) {
            inner.apply(&set);
            drop(inner);
            self.note_grant(pool, &set);
            return LockGuard {
                mgr: self,
                pool,
                set,
            };
        }
        // Contended: queue in arrival order and sleep until a release-side
        // grant pass hands us the whole set.
        let blocking = inner
            .first_incompatible(&set)
            .or_else(|| inner.first_queued(&set))
            .unwrap_or_default();
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        inner.queue.push_back(Waiter {
            ticket,
            set: set.clone(),
        });
        pool.stats().lock_waits.fetch_add(1, Ordering::Relaxed);
        if pool.tracing_enabled() {
            pool.trace_app_event(EventKind::LockConflict, 0, blocking, 0);
        }
        loop {
            if inner.granted.remove(&ticket) {
                break;
            }
            // The vendored `parking_lot` guard is a re-exported std guard,
            // so std's `Condvar` pairs with it directly.
            inner = self.cond.wait(inner).expect("lock-manager mutex poisoned");
        }
        drop(inner);
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
        let set = normalize(set);
        let mut inner = self.inner.lock();
        let conflict = inner
            .first_incompatible(&set)
            .or_else(|| inner.first_queued(&set));
        if let Some(lock) = conflict {
            drop(inner);
            pool.stats().lock_conflicts.fetch_add(1, Ordering::Relaxed);
            if pool.tracing_enabled() {
                pool.trace_app_event(EventKind::LockConflict, 0, lock, 0);
            }
            return Err(TxError::LockConflict { lock });
        }
        inner.apply(&set);
        drop(inner);
        self.note_grant(pool, &set);
        Ok(LockGuard {
            mgr: self,
            pool,
            set,
        })
    }

    /// `true` if nothing is held and nobody waits (test/debug aid).
    pub fn is_idle(&self) -> bool {
        let inner = self.inner.lock();
        inner.holds.is_empty() && inner.queue.is_empty()
    }

    /// Number of queued (not yet granted) whole-set requests.
    pub fn queued(&self) -> usize {
        self.inner.lock().queue.len()
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
        let mut inner = self.inner.lock();
        inner.unapply(set);
        let granted = inner.grant_pass();
        drop(inner);
        if granted > 0 {
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

    /// Attempts a shared→exclusive upgrade of `lock`. Granted only when
    /// this guard holds `lock` shared as its *sole* holder and no queued
    /// waiter wants it — the one case indistinguishable from having
    /// acquired exclusive at begin, so conservative 2PL is preserved.
    /// Holding it exclusive already is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::LockConflict`] if the lock is not held by this
    /// guard, is shared with other readers, or is wanted by a queued
    /// waiter (upgrade denial: concurrent readers must release and
    /// re-acquire).
    pub fn try_upgrade(&mut self, lock: LockId) -> Result<(), TxError> {
        let Some(pos) = self.set.iter().position(|r| r.lock == lock) else {
            return self.deny_upgrade(lock);
        };
        if self.set[pos].mode == LockMode::Exclusive {
            return Ok(());
        }
        let mut inner = self.mgr.inner.lock();
        let sole_reader = inner
            .holds
            .get(&lock)
            .is_some_and(|h| h.readers == 1 && !h.writer);
        let wanted = inner
            .queue
            .iter()
            .any(|w| w.set.iter().any(|r| r.lock == lock));
        if !sole_reader || wanted {
            drop(inner);
            return self.deny_upgrade(lock);
        }
        let hold = inner.holds.get_mut(&lock).expect("checked above");
        hold.release(LockMode::Shared);
        hold.acquire(LockMode::Exclusive);
        drop(inner);
        self.set[pos].mode = LockMode::Exclusive;
        self.pool
            .stats()
            .lock_write_holds
            .fetch_add(1, Ordering::Relaxed);
        if self.pool.tracing_enabled() {
            self.pool
                .trace_app_event(EventKind::LockAcquire, 0, lock, LockMode::Exclusive.word());
        }
        Ok(())
    }

    fn deny_upgrade(&self, lock: LockId) -> Result<(), TxError> {
        self.pool
            .stats()
            .lock_conflicts
            .fetch_add(1, Ordering::Relaxed);
        if self.pool.tracing_enabled() {
            self.pool
                .trace_app_event(EventKind::LockConflict, 0, lock, 1);
        }
        Err(TxError::LockConflict { lock })
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
        let set = normalize(&[
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

    #[test]
    fn fifo_readers_do_not_overtake_a_queued_writer() {
        // Reader holds; writer queues; a later reader must queue behind the
        // writer instead of sharing with the current reader.
        let pool = pool();
        let mgr = Arc::new(LockManager::new());
        let writer_ran = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let r1 = mgr.acquire(&pool, &[LockRequest::shared(3)]);
            let (m, p, w) = (mgr.clone(), pool.clone(), writer_ran.clone());
            let writer = s.spawn(move || {
                let _g = m.acquire(&p, &[LockRequest::exclusive(3)]);
                w.store(1, AOrd::SeqCst);
            });
            while mgr.queued() == 0 {
                std::thread::yield_now();
            }
            // A late reader cannot barge: try_acquire refuses while the
            // writer waits.
            let err = mgr
                .try_acquire(&pool, &[LockRequest::shared(3)])
                .unwrap_err();
            assert_eq!(err, TxError::LockConflict { lock: 3 });
            assert_eq!(writer_ran.load(AOrd::SeqCst), 0);
            drop(r1);
            writer.join().unwrap();
        });
        assert_eq!(writer_ran.load(AOrd::SeqCst), 1);
    }

    #[test]
    fn disjoint_sets_overtake_blocked_waiters() {
        // Waiter blocked on lock 1 must not block an independent lock-2
        // request (the `blocked` set only covers the waiter's own ids).
        let pool = pool();
        let mgr = Arc::new(LockManager::new());
        std::thread::scope(|s| {
            let g1 = mgr.acquire(&pool, &[LockRequest::exclusive(1)]);
            let (m, p) = (mgr.clone(), pool.clone());
            let blocked = s.spawn(move || {
                let _g = m.acquire(&p, &[LockRequest::exclusive(1)]);
            });
            while mgr.queued() == 0 {
                std::thread::yield_now();
            }
            let g2 = mgr.try_acquire(&pool, &[LockRequest::exclusive(2)]);
            assert!(g2.is_ok(), "disjoint set must not queue");
            drop(g1);
            blocked.join().unwrap();
        });
    }

    #[test]
    fn sole_reader_upgrades_others_are_denied() {
        let pool = pool();
        let mgr = LockManager::new();
        {
            let mut g = mgr.acquire(&pool, &[LockRequest::shared(8)]);
            g.try_upgrade(8).expect("sole reader upgrades");
            assert_eq!(g.set()[0].mode, LockMode::Exclusive);
            g.try_upgrade(8).expect("idempotent once exclusive");
            // While upgraded, nobody else gets in.
            assert!(mgr.try_acquire(&pool, &[LockRequest::shared(8)]).is_err());
        }
        // Two concurrent readers: both upgrades must be denied.
        let mut a = mgr.acquire(&pool, &[LockRequest::shared(8)]);
        let mut b = mgr.acquire(&pool, &[LockRequest::shared(8)]);
        assert_eq!(a.try_upgrade(8), Err(TxError::LockConflict { lock: 8 }));
        assert_eq!(b.try_upgrade(8), Err(TxError::LockConflict { lock: 8 }));
        // Upgrading a lock the guard never took is a conflict too.
        assert_eq!(a.try_upgrade(99), Err(TxError::LockConflict { lock: 99 }));
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
