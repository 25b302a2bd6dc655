//! Persistent skiplist with 32 levels and a single global lock (paper
//! §5.2).
//!
//! A node's height is a deterministic function of its key (geometric with
//! p = 1/2), not of an RNG — transactions must be deterministic for
//! re-execution (paper §2.3), and a re-executed insert must rebuild the
//! node at the same height.
//!
//! Layout:
//!
//! ```text
//! root: [magic][max_level][head]          head: full-height sentinel
//! node: [key][val_ptr][val_len][level][next_0]...[next_31]
//! ```

use clobber_nvm::{ArgList, LockRequest, Runtime, TxError};
use clobber_pmem::{PAddr, PmemError, PmemPool};

use crate::value::{check_root, store_value, value_at, Load};

const MAGIC: u64 = 0xC10B_0002;
/// Bytes of the root block.
const ROOT_LEN: u64 = 24;
/// Maximum node height, as in the paper.
pub const MAX_LEVEL: u64 = 32;

const NODE_KEY: u64 = 0;
const NODE_VPTR: u64 = 8;
const NODE_VLEN: u64 = 16;
const NODE_LEVEL: u64 = 24;
/// Node offset of `next_0`, the level-0 link.
pub const NODE_NEXT0: u64 = 32;
const NODE_SIZE: u64 = NODE_NEXT0 + MAX_LEVEL * 8;

/// Handle to a persistent skiplist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipList {
    root: PAddr,
}

/// Insert txfunc name.
pub const TX_INSERT: &str = "skiplist_insert";
/// Lookup txfunc name.
pub const TX_GET: &str = "skiplist_get";
/// Removal txfunc name.
pub const TX_REMOVE: &str = "skiplist_remove";

/// Deterministic height for `key` in `1..=MAX_LEVEL` (geometric, p = 1/2).
pub fn level_of(key: u64) -> u64 {
    let h = key
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        .rotate_left(31)
        .wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    (h.trailing_ones() as u64 + 1).min(MAX_LEVEL)
}

fn next_addr(node: PAddr, level: u64) -> PAddr {
    node.add(NODE_NEXT0 + level * 8)
}

/// Where a search for a key ends: at each level `l`, the last node below
/// the key (`preds[l]`, the head if none) and its `next[l]` (`succs[l]`);
/// `hit` is `succs[0]` when that holds the key.
struct Seek {
    preds: [PAddr; MAX_LEVEL as usize],
    succs: [PAddr; MAX_LEVEL as usize],
    hit: Option<PAddr>,
}

/// The one level walk, shared by insert, get, remove and `range`. It loads
/// the head's 32 next pointers in one read and, on advancing to a node at
/// level `l`, that node's `next[0..=l]` in one read; it keeps the key of the
/// node it stopped at, so a level stopping there again reads nothing.
///
/// The read set grows only by pointers a transaction never writes: the
/// head's and an advanced node's `next` below the level where the walk
/// left it. Keys only grow along the walk, so a node stops being a
/// predecessor once the walk advances past it, and insert and remove write
/// only `preds[l].next[l]` and `hit`'s value words. The clobber log is the
/// one a word-at-a-time walk leaves. A walk of more advances than the pool
/// has room for nodes is a cycle: [`PmemError::CorruptPool`].
fn seek(l: &mut impl Load, root: PAddr, key: u64) -> Result<Seek, TxError> {
    let [head] = l.words(root.add(16))?;
    let mut cur = PAddr::new(head);
    let mut nexts = [[0u8; 8]; MAX_LEVEL as usize];
    l.load(next_addr(cur, 0), nexts.as_flattened_mut())?;
    let mut left = l.pool().capacity() / NODE_SIZE;
    let (mut stop, mut stop_key) = (PAddr::NULL, 0);
    let mut s = Seek {
        preds: [PAddr::NULL; MAX_LEVEL as usize],
        succs: [PAddr::NULL; MAX_LEVEL as usize],
        hit: None,
    };
    for lv in (0..MAX_LEVEL as usize).rev() {
        loop {
            let nxt = PAddr::new(u64::from_le_bytes(nexts[lv]));
            if nxt.is_null() {
                break;
            }
            if nxt != stop {
                let [k] = l.words(nxt.add(NODE_KEY))?;
                (stop, stop_key) = (nxt, k);
            }
            if stop_key >= key {
                break;
            }
            if left == 0 {
                return Err(PmemError::CorruptPool(format!("cycle at level {lv}")).into());
            }
            left -= 1;
            cur = nxt;
            l.load(next_addr(cur, 0), nexts[..=lv].as_flattened_mut())?;
        }
        s.preds[lv] = cur;
        s.succs[lv] = PAddr::new(u64::from_le_bytes(nexts[lv]));
    }
    // A non-null `succs[0]` is the node level 0 stopped at.
    s.hit = (!s.succs[0].is_null() && stop_key == key).then_some(s.succs[0]);
    Ok(s)
}

impl SkipList {
    /// Allocates and formats an empty skiplist.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the pool is exhausted.
    pub fn create(rt: &Runtime) -> Result<SkipList, TxError> {
        let pool = rt.pool();
        let root = pool.alloc(ROOT_LEN)?;
        let head = pool.alloc(NODE_SIZE)?;
        pool.write_u64(head.add(NODE_LEVEL), MAX_LEVEL)?;
        pool.persist(head, NODE_SIZE)?;
        pool.write_u64(root, MAGIC)?;
        pool.write_u64(root.add(8), MAX_LEVEL)?;
        pool.write_u64(root.add(16), head.offset())?;
        pool.persist(root, ROOT_LEN)?;
        Ok(SkipList { root })
    }

    /// Adopts the skiplist at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if `root` holds no skiplist header
    /// or its root block runs past the pool.
    pub fn open(pool: &PmemPool, root: PAddr) -> Result<SkipList, TxError> {
        check_root(pool, root, ROOT_LEN, MAGIC, "skiplist")?;
        Ok(SkipList { root })
    }

    /// The skiplist's root address.
    pub fn root(&self) -> PAddr {
        self.root
    }

    /// Registers the skiplist's txfuncs.
    pub fn register(rt: &Runtime) {
        rt.register(TX_INSERT, |tx, args| {
            let root = PAddr::new(args.u64(0)?);
            let key = args.u64(1)?;
            let value = args.bytes(2)?;
            let s = seek(tx, root, key)?;
            // Existing key: update value in place.
            if let Some(node) = s.hit {
                let old_ptr = tx.read_paddr(node.add(NODE_VPTR))?;
                let vbuf = store_value(tx, value)?;
                tx.write_paddr(node.add(NODE_VPTR), vbuf)?;
                tx.write_u64(node.add(NODE_VLEN), value.len() as u64)?;
                tx.pfree(old_ptr)?;
                return Ok(None);
            }
            // Fresh node, linked on `level_of(key)` levels; each pred's
            // next pointer is a clobbered input.
            let level = level_of(key);
            let vbuf = store_value(tx, value)?;
            let node = tx.pmalloc(NODE_SIZE)?;
            tx.write_u64(node.add(NODE_KEY), key)?;
            tx.write_paddr(node.add(NODE_VPTR), vbuf)?;
            tx.write_u64(node.add(NODE_VLEN), value.len() as u64)?;
            tx.write_u64(node.add(NODE_LEVEL), level)?;
            for l in 0..level as usize {
                tx.write_paddr(next_addr(node, l as u64), s.succs[l])?;
                tx.write_paddr(next_addr(s.preds[l], l as u64), node)?;
            }
            Ok(None)
        });
        rt.register(TX_GET, |tx, args| {
            let Some(node) = seek(tx, PAddr::new(args.u64(0)?), args.u64(1)?)?.hit else {
                return Ok(None);
            };
            value_at(tx, node.add(NODE_VPTR)).map(Some)
        });
        rt.register(TX_REMOVE, |tx, args| {
            let s = seek(tx, PAddr::new(args.u64(0)?), args.u64(1)?)?;
            let Some(victim) = s.hit else {
                return Ok(Some(vec![0]));
            };
            let level = tx.read_u64(victim.add(NODE_LEVEL))?;
            for l in 0..level.min(MAX_LEVEL) as usize {
                if s.succs[l] == victim {
                    let succ = tx.read_paddr(next_addr(victim, l as u64))?;
                    tx.write_paddr(next_addr(s.preds[l], l as u64), succ)?;
                }
            }
            let vptr = tx.read_paddr(victim.add(NODE_VPTR))?;
            tx.pfree(vptr)?;
            tx.pfree(victim)?;
            Ok(Some(vec![1]))
        });
    }

    fn args(&self, key: u64) -> ArgList {
        ArgList::new().with_u64(self.root.offset()).with_u64(key)
    }

    /// Inserts or updates `key`.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn insert(&self, rt: &Runtime, key: u64, value: &[u8]) -> Result<(), TxError> {
        rt.run(TX_INSERT, &self.args(key).with_bytes(value))?;
        Ok(())
    }

    /// Inserts on an explicit logical-thread slot.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn insert_on(
        &self,
        rt: &Runtime,
        slot: usize,
        key: u64,
        value: &[u8],
    ) -> Result<(), TxError> {
        rt.run_on(slot, TX_INSERT, &self.args(key).with_bytes(value))?;
        Ok(())
    }

    /// Looks `key` up.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn get(&self, rt: &Runtime, key: u64) -> Result<Option<Vec<u8>>, TxError> {
        rt.run(TX_GET, &self.args(key))
    }

    /// Looks `key` up on an explicit logical-thread slot.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn get_on(&self, rt: &Runtime, slot: usize, key: u64) -> Result<Option<Vec<u8>>, TxError> {
        rt.run_on(slot, TX_GET, &self.args(key))
    }

    /// Removes `key`; returns `true` if present.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn remove(&self, rt: &Runtime, key: u64) -> Result<bool, TxError> {
        Ok(rt.run(TX_REMOVE, &self.args(key))? == Some(vec![1]))
    }

    /// The global lock id (the paper uses a single lock for the skiplist).
    pub fn lock(&self) -> u64 {
        self.root.offset().wrapping_mul(31)
    }

    /// Thread-safe [`insert`](SkipList::insert): takes the structure's
    /// global lock exclusively through the runtime's [`LockManager`]
    /// (the paper's single-rwlock skiplist, §5.2) — writers serialize,
    /// but transactions on *other* structures proceed in parallel.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    ///
    /// [`LockManager`]: clobber_nvm::LockManager
    pub fn insert_sync(&self, rt: &Runtime, key: u64, value: &[u8]) -> Result<(), TxError> {
        rt.run_locked(
            &[LockRequest::exclusive(self.lock())],
            TX_INSERT,
            &self.args(key).with_bytes(value),
        )?;
        Ok(())
    }

    /// Thread-safe [`get`](SkipList::get): shared global lock, so
    /// readers overlap each other but not writers.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn get_sync(&self, rt: &Runtime, key: u64) -> Result<Option<Vec<u8>>, TxError> {
        rt.run_locked(&[LockRequest::shared(self.lock())], TX_GET, &self.args(key))
    }

    /// Thread-safe [`remove`](SkipList::remove): exclusive global lock.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn remove_sync(&self, rt: &Runtime, key: u64) -> Result<bool, TxError> {
        Ok(rt.run_locked(
            &[LockRequest::exclusive(self.lock())],
            TX_REMOVE,
            &self.args(key),
        )? == Some(vec![1]))
    }

    /// Range scan: up to `count` pairs with keys `>= start`, in order,
    /// walking level 0. Read-only; the caller holds the structure's shared
    /// lock.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt list.
    pub fn range(
        &self,
        pool: &PmemPool,
        start: u64,
        count: usize,
    ) -> Result<Vec<(u64, Vec<u8>)>, TxError> {
        let mut out = Vec::new();
        let mut node = seek(&mut { pool }, self.root, start)?.succs[0];
        while !node.is_null() && out.len() < count {
            let key = pool.read_u64(node.add(NODE_KEY))?;
            out.push((key, value_at(&mut { pool }, node.add(NODE_VPTR))?));
            node = PAddr::new(pool.read_u64(next_addr(node, 0))?);
        }
        Ok(out)
    }

    /// Full structural check: level-0 keys strictly ascend, every level is
    /// a subsequence of level 0, node levels are within bounds. Returns all
    /// `(key, value)` pairs in order.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the root holds no skiplist
    /// header, and [`TxError::Pmem`] on a failed read.
    pub fn dump(&self, pool: &PmemPool) -> Result<Vec<(u64, Vec<u8>)>, TxError> {
        check_root(pool, self.root, ROOT_LEN, MAGIC, "skiplist")?;
        let head = PAddr::new(pool.read_u64(self.root.add(16))?);
        // Level-0 walk.
        let mut out = Vec::new();
        let mut cur = PAddr::new(pool.read_u64(next_addr(head, 0))?);
        let mut last_key = None;
        while !cur.is_null() {
            let key = pool.read_u64(cur.add(NODE_KEY))?;
            if let Some(lk) = last_key {
                assert!(key > lk, "keys must strictly ascend at level 0");
            }
            last_key = Some(key);
            let level = pool.read_u64(cur.add(NODE_LEVEL))?;
            assert!((1..=MAX_LEVEL).contains(&level), "level out of range");
            assert_eq!(level, level_of(key), "height must match the key hash");
            out.push((key, value_at(&mut { pool }, cur.add(NODE_VPTR))?));
            cur = PAddr::new(pool.read_u64(next_addr(cur, 0))?);
            assert!(out.len() < 10_000_000, "cycle at level 0");
        }
        // Upper levels must be ordered subsequences.
        let keys: std::collections::BTreeSet<u64> = out.iter().map(|(k, _)| *k).collect();
        for l in 1..MAX_LEVEL {
            let mut cur = PAddr::new(pool.read_u64(next_addr(head, l))?);
            let mut last = None;
            while !cur.is_null() {
                let key = pool.read_u64(cur.add(NODE_KEY))?;
                assert!(keys.contains(&key), "level {l} node missing from level 0");
                if let Some(lk) = last {
                    assert!(key > lk, "keys must ascend at level {l}");
                }
                last = Some(key);
                assert!(
                    pool.read_u64(cur.add(NODE_LEVEL))? > l,
                    "node linked above its height"
                );
                cur = PAddr::new(pool.read_u64(next_addr(cur, l))?);
            }
        }
        Ok(out)
    }

    /// Number of entries (level-0 walk).
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt list.
    pub fn len(&self, pool: &PmemPool) -> Result<usize, TxError> {
        Ok(self.dump(pool)?.len())
    }

    /// `true` if the skiplist holds no entries.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt list.
    pub fn is_empty(&self, pool: &PmemPool) -> Result<bool, TxError> {
        Ok(self.len(pool)? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clobber_nvm::{Backend, RuntimeOptions};
    use clobber_pmem::{PmemPool, PoolOptions};
    use std::sync::Arc;

    fn setup(backend: Backend) -> (Arc<PmemPool>, Runtime, SkipList) {
        let pool = Arc::new(PmemPool::create(PoolOptions::performance(64 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        SkipList::register(&rt);
        let sl = SkipList::create(&rt).unwrap();
        (pool, rt, sl)
    }

    #[test]
    fn level_distribution_is_geometric() {
        let mut hist = [0u32; 33];
        for k in 0..100_000u64 {
            hist[level_of(k) as usize] += 1;
        }
        assert!(
            hist[1] > 40_000 && hist[1] < 60_000,
            "p=1/2 at level 1: {}",
            hist[1]
        );
        assert!(hist[2] > 20_000 && hist[2] < 30_000);
        assert_eq!(hist[0], 0);
    }

    #[test]
    fn sorted_iteration_after_random_inserts() {
        let (pool, rt, sl) = setup(Backend::clobber());
        let keys = [50u64, 10, 90, 30, 70, 20, 60, 1, 99, 45];
        for &k in &keys {
            sl.insert(&rt, k, &k.to_le_bytes()).unwrap();
        }
        let dumped: Vec<u64> = sl.dump(&pool).unwrap().iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.to_vec();
        sorted.sort();
        assert_eq!(dumped, sorted);
    }

    #[test]
    fn get_and_remove_work() {
        let (pool, rt, sl) = setup(Backend::clobber());
        for k in 0..100u64 {
            sl.insert(&rt, k, format!("v{k}").as_bytes()).unwrap();
        }
        assert_eq!(sl.get(&rt, 42).unwrap(), Some(b"v42".to_vec()));
        assert_eq!(sl.get(&rt, 1000).unwrap(), None);
        assert!(sl.remove(&rt, 42).unwrap());
        assert!(!sl.remove(&rt, 42).unwrap());
        assert_eq!(sl.get(&rt, 42).unwrap(), None);
        assert_eq!(sl.len(&pool).unwrap(), 99);
    }

    #[test]
    fn update_existing_key_replaces_value() {
        let (pool, rt, sl) = setup(Backend::clobber());
        sl.insert(&rt, 5, b"first").unwrap();
        sl.insert(&rt, 5, b"second").unwrap();
        assert_eq!(sl.get(&rt, 5).unwrap(), Some(b"second".to_vec()));
        assert_eq!(sl.len(&pool).unwrap(), 1);
    }

    #[test]
    fn works_under_every_backend() {
        for backend in [
            Backend::clobber(),
            Backend::Undo,
            Backend::Redo,
            Backend::Atlas,
        ] {
            let (pool, rt, sl) = setup(backend);
            for k in (0..60u64).rev() {
                sl.insert(&rt, k, &k.to_le_bytes()).unwrap();
            }
            let dumped = sl.dump(&pool).unwrap();
            assert_eq!(dumped.len(), 60, "backend {}", backend.label());
            assert!(dumped.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn range_scans_in_order() {
        let (pool, rt, sl) = setup(Backend::clobber());
        for k in 0..50u64 {
            sl.insert(&rt, k * 3, &k.to_le_bytes()).unwrap();
        }
        let got = sl.range(&pool, 30, 5).unwrap();
        let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![30, 33, 36, 39, 42]);
        assert!(sl.range(&pool, 1000, 5).unwrap().is_empty());
    }

    #[test]
    fn racing_sync_writers_keep_the_list_consistent() {
        let (pool, rt, sl) = setup(Backend::clobber());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (rt, sl) = (&rt, &sl);
                s.spawn(move || {
                    for i in 0..32u64 {
                        let key = i * 4 + t; // interleaved key ranges
                        sl.insert_sync(rt, key, &key.to_le_bytes()).unwrap();
                        assert_eq!(
                            sl.get_sync(rt, key).unwrap(),
                            Some(key.to_le_bytes().to_vec())
                        );
                    }
                    assert!(sl.remove_sync(rt, t).unwrap());
                });
            }
        });
        // dump() runs the full structural check (ascending keys, level
        // subsequences) on top of the count.
        assert_eq!(sl.dump(&pool).unwrap().len(), 4 * 32 - 4);
        assert!(rt.locks().is_idle());
    }

    #[test]
    fn insert_clobbers_one_pred_slot_per_level() {
        let (pool, rt, sl) = setup(Backend::clobber());
        sl.insert(&rt, 1, b"warm").unwrap();
        // Find a key with a known level and count its clobber entries.
        let key = (2..10_000u64).find(|&k| level_of(k) == 3).unwrap();
        let before = pool.stats().snapshot();
        sl.insert(&rt, key, &[0u8; 256]).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(
            d.log_entries, 3,
            "one clobbered pred->next per linked level"
        );
        assert_eq!(d.log_bytes, 24);
    }

    #[test]
    fn dump_reports_a_wrong_root_magic_as_a_corrupt_pool() {
        {
            let (pool, _rt, t) = setup(Backend::clobber());
            pool.write_u64(t.root, 0).unwrap();
            assert!(matches!(
                t.dump(&pool),
                Err(TxError::Pmem(PmemError::CorruptPool(_)))
            ));
        }
    }
}
