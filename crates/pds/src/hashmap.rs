//! Persistent chained hash map with reader-writer-locked buckets.
//!
//! Adapted from the PMDK `libpmemobj` hashmap example the paper uses
//! (§5.2): 256 instances treated as buckets, each protected by its own
//! reader-writer lock. An insert touches one bucket head — the single
//! clobbered input the paper reports for this structure ("its clobber_log
//! log count is one, and its log size is 8 bytes", §5.3).
//!
//! The bucket count is fixed when a map is created: a power of two from
//! [`LOCKS`] (the paper's 256, and [`HashMap::create`]'s) to
//! [`MAX_BUCKETS`]. A larger map keeps the 256 locks — bucket `b` is
//! guarded by lock `b % 256` — so only its chains get shorter.
//!
//! Layout:
//!
//! ```text
//! root:  [magic][n_buckets][head_0]...[head_{n_buckets-1}]
//! node:  [key][next][val_ptr][val_len]
//! ```
//!
//! `key` and `next` lead the node so that a hop along a chain is one
//! 16-byte load, and a match reads `(val_ptr, val_len)` as another. An
//! update of the same length overwrites the value bytes in place: they are
//! written unread and `val_len` is read unwritten, so it logs nothing. A
//! resize swaps in a fresh buffer and logs the one 16-byte `(val_ptr,
//! val_len)` entry it read and then wrote.
//!
//! Every txfunc takes the map as its first argument, [`HashMap::arg`]:
//! the root's pool offset in the low 48 bits and `log2(n_buckets / 256)`
//! above them, so a transaction learns the count without a pool load, and
//! a 256-bucket map's argument is its bare root offset.

use clobber_nvm::{ArgList, LockRequest, Runtime, Tx, TxError};
use clobber_pmem::{PAddr, PmemError, PmemPool};

use crate::value::{store_value, value_at, Load};

const MAGIC: u64 = 0xC10B_0001;
/// Number of bucket rwlocks of every map, and the paper's bucket count: the
/// fewest buckets a map has, and [`HashMap::create`]'s.
pub const LOCKS: u64 = 256;
/// The most buckets a map has (memcached's initial table, `hashpower = 16`).
pub const MAX_BUCKETS: u64 = 1 << 16;
/// Bits of [`HashMap::arg`] that hold the root's pool offset.
const ROOT_BITS: u32 = 48;

pub(crate) const NODE_KEY: u64 = 0;
/// Node offset of the next pointer, loaded with the key.
pub const NODE_NEXT: u64 = 8;
pub(crate) const NODE_VPTR: u64 = 16;
/// Node offset of the value's length.
pub const NODE_VLEN: u64 = 24;
pub(crate) const NODE_SIZE: u64 = 32;

/// Handle to a persistent hash map (all state lives in the pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashMap {
    root: PAddr,
    /// `n_buckets - 1`: a hash's bucket is its low bits.
    mask: u64,
}

/// The txfunc names this structure registers.
pub const TX_INSERT: &str = "hashmap_insert";
/// Lookup txfunc name.
pub const TX_GET: &str = "hashmap_get";
/// Removal txfunc name.
pub const TX_REMOVE: &str = "hashmap_remove";
/// Batched multi-key insert txfunc name (the KV service's coalesced write
/// path — N sets, one failure-atomic transaction, one commit fence).
pub const TX_BATCH_SET: &str = "hashmap_batch_set";

fn hash(key: u64) -> u64 {
    key.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
}

/// `true` for a bucket count a map may have.
fn valid_buckets(n: u64) -> bool {
    n.is_power_of_two() && (LOCKS..=MAX_BUCKETS).contains(&n)
}

fn corrupt(why: String) -> TxError {
    PmemError::CorruptPool(why).into()
}

/// The one walk over a bucket's chain: one 16-byte `(key, next)` load per
/// node, until `stop(l, node, key)` holds. Returns `[link, node, next]` of
/// the node it stopped at, `link` being the word that points at it. A
/// chain longer than the pool has room for nodes is a cycle:
/// [`PmemError::CorruptPool`].
fn walk<L: Load>(
    l: &mut L,
    map: HashMap,
    bucket: u64,
    mut stop: impl FnMut(&mut L, PAddr, u64) -> Result<bool, TxError>,
) -> Result<Option<[PAddr; 3]>, TxError> {
    let mut link = map.head(bucket);
    let [mut node] = l.words(link)?;
    for _ in 0..=l.pool().capacity() / NODE_SIZE {
        let at = PAddr::new(node);
        if at.is_null() {
            return Ok(None);
        }
        let [key, next] = l.words(at.add(NODE_KEY))?;
        if stop(l, at, key)? {
            return Ok(Some([link, at, PAddr::new(next)]));
        }
        (link, node) = (at.add(NODE_NEXT), next);
    }
    Err(corrupt("cycle in a hashmap chain".into()))
}

/// `[link, node, next]` of the node holding `key`, if its chain has one.
fn find(l: &mut impl Load, map: HashMap, key: u64) -> Result<Option<[PAddr; 3]>, TxError> {
    walk(l, map, map.bucket_of(key), |_, _, k| Ok(k == key))
}

/// [`TX_GET`] and [`HashMap::snapshot_get`].
fn lookup(l: &mut impl Load, map: HashMap, key: u64) -> Result<Option<Vec<u8>>, TxError> {
    let hit = find(l, map, key)?;
    hit.map(|[_, node, _]| value_at(l, node.add(NODE_VPTR)))
        .transpose()
}

/// One insert-or-update, shared by [`TX_INSERT`] and [`TX_BATCH_SET`].
fn insert_one(tx: &mut Tx<'_>, map: HashMap, key: u64, value: &[u8]) -> Result<(), TxError> {
    let Some([_, node, _]) = find(tx, map, key)? else {
        return prepend(tx, map, key, value);
    };
    let [old_ptr, old_len] = tx.words(node.add(NODE_VPTR))?;
    if old_len == value.len() as u64 {
        // Same length: overwrite the old bytes unread. They are outputs,
        // and `val_len` is read but not written, so nothing clobbers.
        return tx.write_bytes(PAddr::new(old_ptr), value);
    }
    // A resize: fresh value buffer, one `(ptr, len)` store, the old buffer
    // freed at commit. Both words were read, so both clobber.
    let vbuf = store_value(tx, value)?;
    let mut words = [0u8; 16];
    words[..8].copy_from_slice(&vbuf.offset().to_le_bytes());
    words[8..].copy_from_slice(&(value.len() as u64).to_le_bytes());
    tx.write_bytes(node.add(NODE_VPTR), &words)?;
    tx.pfree(PAddr::new(old_ptr))?;
    Ok(())
}

/// Prepends a fresh node for `key`; the bucket head is the clobbered input.
pub(crate) fn prepend(
    tx: &mut Tx<'_>,
    map: HashMap,
    key: u64,
    value: &[u8],
) -> Result<(), TxError> {
    let head = map.head(map.bucket_of(key));
    let vbuf = store_value(tx, value)?;
    let node = tx.pmalloc(NODE_SIZE)?;
    tx.write_u64(node.add(NODE_KEY), key)?;
    tx.write_paddr(node.add(NODE_VPTR), vbuf)?;
    tx.write_u64(node.add(NODE_VLEN), value.len() as u64)?;
    let old_head = tx.read_paddr(head)?;
    tx.write_paddr(node.add(NODE_NEXT), old_head)?;
    tx.write_paddr(head, node)?;
    Ok(())
}

impl HashMap {
    /// Allocates and formats an empty map of the paper's [`LOCKS`] buckets.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the pool is exhausted.
    pub fn create(rt: &Runtime) -> Result<HashMap, TxError> {
        HashMap::with_buckets(rt, LOCKS)
    }

    /// Allocates and formats an empty map of `buckets` buckets.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the pool is exhausted.
    ///
    /// # Panics
    ///
    /// If `buckets` is not a power of two in [`LOCKS`]`..=`[`MAX_BUCKETS`].
    pub fn with_buckets(rt: &Runtime, buckets: u64) -> Result<HashMap, TxError> {
        assert!(valid_buckets(buckets), "{buckets} buckets");
        let pool = rt.pool();
        let root = pool.alloc(16 + buckets * 8)?;
        pool.write_u64(root, MAGIC)?;
        pool.write_u64(root.add(8), buckets)?;
        pool.persist(root, 16 + buckets * 8)?;
        Ok(HashMap {
            root,
            mask: buckets - 1,
        })
    }

    /// Adopts the map at `root`, reading its bucket count.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if `root` holds no map header, an
    /// invalid bucket count, or bucket heads that run past the pool.
    pub fn open(pool: &PmemPool, root: PAddr) -> Result<HashMap, TxError> {
        let [magic, buckets] = (&mut { pool }).words(root)?;
        if magic != MAGIC {
            return Err(corrupt(format!("no hashmap at {:#x}", root.offset())));
        }
        if !valid_buckets(buckets) {
            return Err(corrupt(format!("hashmap of {buckets} buckets")));
        }
        // The header load succeeded, so `root` is below the capacity.
        if root.offset() + 16 + buckets * 8 > pool.capacity() {
            return Err(corrupt(format!("{buckets} bucket heads run past the pool")));
        }
        Ok(HashMap {
            root,
            mask: buckets - 1,
        })
    }

    /// The map's root address (store it in the app root to reopen).
    pub fn root(&self) -> PAddr {
        self.root
    }

    /// The map's bucket count.
    pub fn buckets(&self) -> u64 {
        self.mask + 1
    }

    /// The map as its txfuncs take it, in one word: the root's offset and,
    /// above bit 48, `log2` of the bucket count over [`LOCKS`].
    pub fn arg(&self) -> u64 {
        let shift = (self.buckets() / LOCKS).trailing_zeros() as u64;
        self.root.offset() | shift << ROOT_BITS
    }

    /// Decodes [`arg`](HashMap::arg) — the one place a txfunc learns its map.
    pub(crate) fn from_arg(arg: u64) -> Result<HashMap, TxError> {
        let buckets = LOCKS.checked_shl((arg >> ROOT_BITS) as u32).unwrap_or(0);
        if !valid_buckets(buckets) {
            return Err(corrupt(format!("hashmap argument {arg:#x}")));
        }
        Ok(HashMap {
            root: PAddr::new(arg & ((1 << ROOT_BITS) - 1)),
            mask: buckets - 1,
        })
    }

    fn bucket_of(&self, key: u64) -> u64 {
        hash(key) & self.mask
    }

    fn head(&self, bucket: u64) -> PAddr {
        self.root.add(16 + bucket * 8)
    }

    /// Registers the map's txfuncs; call once per runtime (and before
    /// recovery).
    pub fn register(rt: &Runtime) {
        rt.register(TX_INSERT, |tx, args| {
            let map = HashMap::from_arg(args.u64(0)?)?;
            let key = args.u64(1)?;
            let value = args.bytes(2)?;
            insert_one(tx, map, key, value)?;
            Ok(None)
        });
        rt.register(TX_BATCH_SET, |tx, args| {
            // args: map, n, then n × (key, value). All inputs ride in the
            // v_log by value, so a crash anywhere inside the batch re-executes
            // the whole coalesced transaction deterministically.
            let map = HashMap::from_arg(args.u64(0)?)?;
            let n = args.u64(1)?;
            for i in 0..n {
                let key = args.u64(2 + 2 * i as usize)?;
                let value = args.bytes(3 + 2 * i as usize)?;
                insert_one(tx, map, key, value)?;
            }
            Ok(None)
        });
        rt.register(TX_GET, |tx, args| {
            lookup(tx, HashMap::from_arg(args.u64(0)?)?, args.u64(1)?)
        });
        rt.register(TX_REMOVE, |tx, args| {
            let map = HashMap::from_arg(args.u64(0)?)?;
            let Some([link, node, next]) = find(tx, map, args.u64(1)?)? else {
                return Ok(Some(vec![0]));
            };
            tx.write_paddr(link, next)?; // clobber: the link to it
            let vptr = tx.read_paddr(node.add(NODE_VPTR))?;
            tx.pfree(vptr)?;
            tx.pfree(node)?;
            Ok(Some(vec![1]))
        });
    }

    fn args(&self, key: u64) -> ArgList {
        ArgList::new().with_u64(self.arg()).with_u64(key)
    }

    /// Inserts or updates `key` on the calling thread's slot.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn insert(&self, rt: &Runtime, key: u64, value: &[u8]) -> Result<(), TxError> {
        rt.run(TX_INSERT, &self.args(key).with_bytes(value))?;
        Ok(())
    }

    /// Inserts or updates on an explicit logical-thread slot (DES use).
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

    /// Looks `key` up on an explicit slot.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn get_on(&self, rt: &Runtime, slot: usize, key: u64) -> Result<Option<Vec<u8>>, TxError> {
        rt.run_on(slot, TX_GET, &self.args(key))
    }

    /// Removes `key`; returns `true` if it was present.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn remove(&self, rt: &Runtime, key: u64) -> Result<bool, TxError> {
        Ok(rt.run(TX_REMOVE, &self.args(key))? == Some(vec![1]))
    }

    /// The rwlock protecting `key`'s bucket (for the discrete-event
    /// executor); lock ids are namespaced by the root address. Bucket `b`
    /// has lock `b % LOCKS`, so keys with equal locks share a bucket only
    /// in a map of [`LOCKS`] buckets.
    pub fn lock_of(&self, key: u64) -> u64 {
        self.root.offset().wrapping_mul(31) + hash(key) % LOCKS
    }

    /// Thread-safe [`insert`](HashMap::insert): takes `key`'s bucket lock
    /// exclusively through the runtime's [`LockManager`] before running
    /// the transaction, so racing OS threads on disjoint buckets proceed
    /// in parallel while same-bucket writers serialize (the paper's
    /// per-bucket rwlocks, §5.2).
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    ///
    /// [`LockManager`]: clobber_nvm::LockManager
    pub fn insert_sync(&self, rt: &Runtime, key: u64, value: &[u8]) -> Result<(), TxError> {
        rt.run_locked(
            &[LockRequest::exclusive(self.lock_of(key))],
            TX_INSERT,
            &self.args(key).with_bytes(value),
        )?;
        Ok(())
    }

    /// The exclusive bucket-lock set covering every key in `keys`,
    /// deduplicated (keys sharing a bucket share a lock). Feed the result
    /// to [`Runtime::run_locked`] / [`Runtime::run_on_locked`] along with a
    /// [`TX_BATCH_SET`] argument list; the lock manager sorts the set, so
    /// whole-batch acquisition stays deadlock-free against other batches.
    pub fn batch_locks(&self, keys: &[u64]) -> Vec<LockRequest> {
        self.lock_set(keys.iter().copied())
    }

    /// [`batch_locks`](HashMap::batch_locks) over any key sequence: the set
    /// is built, sorted and deduplicated in one vector.
    fn lock_set(&self, keys: impl Iterator<Item = u64>) -> Vec<LockRequest> {
        let mut locks: Vec<LockRequest> = keys
            .map(|k| LockRequest::exclusive(self.lock_of(k)))
            .collect();
        locks.sort_unstable_by_key(|r| r.lock);
        locks.dedup();
        locks
    }

    /// Inserts or updates every `(key, value)` pair as ONE failure-atomic
    /// locked transaction on an explicit slot — the KV service's batched
    /// write path. All touched bucket locks are held for the duration, and
    /// the single commit fence is shared by the whole batch, so fence cost
    /// amortizes across the clients whose requests were coalesced.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure; the lock set is waited
    /// for, never refused.
    pub fn insert_batch_on<V: AsRef<[u8]>>(
        &self,
        rt: &Runtime,
        slot: usize,
        pairs: &[(u64, V)],
    ) -> Result<(), TxError> {
        let locks = self.lock_set(pairs.iter().map(|(k, _)| *k));
        let mut args = ArgList::with_capacity(2 + 2 * pairs.len())
            .with_u64(self.arg())
            .with_u64(pairs.len() as u64);
        for (k, v) in pairs {
            args = args.with_u64(*k).with_bytes(v.as_ref());
        }
        rt.run_on_locked(slot, &locks, TX_BATCH_SET, &args)?;
        Ok(())
    }

    /// Reads `key` directly off the pool without entering a transaction —
    /// the KV service's snapshot `GET` path. The walk sees whatever the
    /// volatile cache holds at the instant of each read, so call it only
    /// while no write to the map is in flight: a same-length update
    /// overwrites the value bytes in place, and a read racing it can see
    /// them torn. Callers that overlap writers use
    /// [`get_sync`](HashMap::get_sync) instead.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt chain.
    pub fn snapshot_get(&self, pool: &PmemPool, key: u64) -> Result<Option<Vec<u8>>, TxError> {
        lookup(&mut { pool }, *self, key)
    }

    /// Thread-safe [`get`](HashMap::get): shared bucket lock, so readers
    /// of one bucket overlap each other but not its writers.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn get_sync(&self, rt: &Runtime, key: u64) -> Result<Option<Vec<u8>>, TxError> {
        rt.run_locked(
            &[LockRequest::shared(self.lock_of(key))],
            TX_GET,
            &self.args(key),
        )
    }

    /// Thread-safe [`remove`](HashMap::remove): exclusive bucket lock.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn remove_sync(&self, rt: &Runtime, key: u64) -> Result<bool, TxError> {
        Ok(rt.run_locked(
            &[LockRequest::exclusive(self.lock_of(key))],
            TX_REMOVE,
            &self.args(key),
        )? == Some(vec![1]))
    }

    /// Walks all buckets, checking chain sanity, and returns every
    /// `(key, value)` (verification, outside transactions).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the root holds no map header
    /// or a chain is corrupt, and [`TxError::Pmem`] on a failed read.
    pub fn dump(&self, pool: &PmemPool) -> Result<Vec<(u64, Vec<u8>)>, TxError> {
        if pool.read_u64(self.root)? != MAGIC {
            let why = format!("no hashmap at {:#x}", self.root.offset());
            return Err(PmemError::CorruptPool(why).into());
        }
        let mut out = Vec::new();
        for b in 0..self.buckets() {
            walk(&mut { pool }, *self, b, |l, node, key| {
                if self.bucket_of(key) != b {
                    let msg = format!("key {key} in bucket {b}");
                    return Err(PmemError::CorruptPool(msg).into());
                }
                out.push((key, value_at(l, node.add(NODE_VPTR))?));
                Ok(false)
            })?;
        }
        Ok(out)
    }

    /// Number of entries (full walk).
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt chain.
    pub fn len(&self, pool: &PmemPool) -> Result<usize, TxError> {
        Ok(self.dump(pool)?.len())
    }

    /// `true` if the map holds no entries.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt chain.
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

    fn setup(backend: Backend) -> (Arc<PmemPool>, Runtime, HashMap) {
        let pool = Arc::new(PmemPool::create(PoolOptions::performance(64 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        HashMap::register(&rt);
        let map = HashMap::create(&rt).unwrap();
        (pool, rt, map)
    }

    #[test]
    fn insert_then_get_round_trips() {
        let (_p, rt, map) = setup(Backend::clobber());
        map.insert(&rt, 7, b"seven").unwrap();
        assert_eq!(map.get(&rt, 7).unwrap(), Some(b"seven".to_vec()));
        assert_eq!(map.get(&rt, 8).unwrap(), None);
    }

    #[test]
    fn update_replaces_value() {
        let (_p, rt, map) = setup(Backend::clobber());
        map.insert(&rt, 7, b"old").unwrap();
        map.insert(&rt, 7, b"new-value").unwrap();
        assert_eq!(map.get(&rt, 7).unwrap(), Some(b"new-value".to_vec()));
        assert_eq!(map.len(rt.pool()).unwrap(), 1);
    }

    #[test]
    fn remove_unlinks_and_reports() {
        let (_p, rt, map) = setup(Backend::clobber());
        for k in 0..20u64 {
            map.insert(&rt, k, &k.to_le_bytes()).unwrap();
        }
        assert!(map.remove(&rt, 11).unwrap());
        assert!(!map.remove(&rt, 11).unwrap());
        assert_eq!(map.get(&rt, 11).unwrap(), None);
        assert_eq!(map.len(rt.pool()).unwrap(), 19);
    }

    #[test]
    fn works_under_every_backend() {
        for backend in [
            Backend::NoLog,
            Backend::clobber(),
            Backend::clobber_conservative(),
            Backend::Undo,
            Backend::Redo,
            Backend::Atlas,
        ] {
            let (_p, rt, map) = setup(backend);
            for k in 0..50u64 {
                map.insert(&rt, k, format!("v{k}").as_bytes()).unwrap();
            }
            for k in 0..50u64 {
                assert_eq!(
                    map.get(&rt, k).unwrap(),
                    Some(format!("v{k}").into_bytes()),
                    "backend {}",
                    backend.label()
                );
            }
            assert_eq!(map.len(rt.pool()).unwrap(), 50);
        }
    }

    #[test]
    fn insert_clobbers_exactly_the_bucket_head() {
        let (pool, rt, map) = setup(Backend::clobber());
        map.insert(&rt, 1, &[0u8; 256]).unwrap(); // warm the slot
        let before = pool.stats().snapshot();
        map.insert(&rt, 999, &[0u8; 256]).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(d.log_entries, 1, "paper §5.3: hashmap clobber count is one");
        assert_eq!(d.log_bytes, 8, "paper §5.3: and its size is 8 bytes");
    }

    #[test]
    fn dump_returns_all_pairs() {
        let (pool, rt, map) = setup(Backend::clobber());
        for k in 0..100u64 {
            map.insert(&rt, k, &k.to_le_bytes()).unwrap();
        }
        let mut pairs = map.dump(&pool).unwrap();
        pairs.sort();
        assert_eq!(pairs.len(), 100);
        assert_eq!(pairs[5], (5, 5u64.to_le_bytes().to_vec()));
    }

    #[test]
    fn racing_sync_writers_keep_the_map_consistent() {
        let (pool, rt, map) = setup(Backend::clobber());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (rt, map) = (&rt, &map);
                s.spawn(move || {
                    for i in 0..64u64 {
                        let key = t * 1000 + i;
                        map.insert_sync(rt, key, &key.to_le_bytes()).unwrap();
                        assert_eq!(
                            map.get_sync(rt, key).unwrap(),
                            Some(key.to_le_bytes().to_vec())
                        );
                    }
                    // Every thread removes a few of its own keys again.
                    for i in 0..8u64 {
                        assert!(map.remove_sync(rt, t * 1000 + i).unwrap());
                    }
                });
            }
        });
        assert_eq!(map.len(&pool).unwrap(), 4 * (64 - 8));
        assert!(rt.locks().is_idle());
        assert!(pool.stats().snapshot().lock_acquisitions >= 4 * (64 + 64 + 8));
    }

    #[test]
    fn batch_set_inserts_all_pairs_atomically() {
        let (pool, rt, map) = setup(Backend::clobber());
        let pairs: Vec<(u64, Vec<u8>)> =
            (0..16u64).map(|k| (k, k.to_le_bytes().to_vec())).collect();
        let before = pool.stats().snapshot();
        map.insert_batch_on(&rt, 0, &pairs).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(d.publishes, 1, "a batch is ONE committing transaction");
        for (k, v) in &pairs {
            assert_eq!(map.get(&rt, *k).unwrap(), Some(v.clone()));
        }
        // Batch update path: overwrite half the keys in a second batch.
        let updates: Vec<(u64, Vec<u8>)> = (0..8u64).map(|k| (k, vec![0xAB; 32])).collect();
        map.insert_batch_on(&rt, 0, &updates).unwrap();
        assert_eq!(map.get(&rt, 3).unwrap(), Some(vec![0xAB; 32]));
        assert_eq!(map.len(&pool).unwrap(), 16);
    }

    #[test]
    fn batch_locks_dedup_shared_buckets() {
        let (_p, _rt, map) = setup(Backend::clobber());
        // Find two keys in the same bucket.
        let mut seen = std::collections::HashMap::new();
        let (mut a, mut b) = (0, 0);
        for k in 0..10_000u64 {
            if let Some(&prev) = seen.get(&map.bucket_of(k)) {
                (a, b) = (prev, k);
                break;
            }
            seen.insert(map.bucket_of(k), k);
        }
        assert_ne!(a, b);
        assert_eq!(map.batch_locks(&[a, b]).len(), 1, "same bucket, one lock");
        assert_eq!(map.batch_locks(&[a, b, a]).len(), 1);
    }

    #[test]
    fn snapshot_get_sees_committed_writes_without_a_tx() {
        let (pool, rt, map) = setup(Backend::clobber());
        map.insert(&rt, 42, b"answer").unwrap();
        let before = pool.stats().snapshot();
        assert_eq!(
            map.snapshot_get(&pool, 42).unwrap(),
            Some(b"answer".to_vec())
        );
        assert_eq!(map.snapshot_get(&pool, 43).unwrap(), None);
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(
            (d.fences, d.vlog_entries, d.log_entries),
            (0, 0, 0),
            "snapshot reads never enter a transaction"
        );
    }

    #[test]
    fn a_sized_map_reopens_with_its_count_and_keeps_256_locks() {
        let (pool, rt, small) = setup(Backend::clobber());
        let big = HashMap::with_buckets(&rt, 4096).unwrap();
        assert_eq!(
            small.arg(),
            small.root().offset(),
            "the paper's map passes its root"
        );
        for map in [small, big] {
            assert_eq!(HashMap::open(&pool, map.root()).unwrap(), map);
            assert_eq!(HashMap::from_arg(map.arg()).unwrap(), map);
        }
        assert_eq!(big.buckets(), 4096);
        assert!(HashMap::from_arg(big.root().offset() | 9 << ROOT_BITS).is_err());
        for k in 0..1000u64 {
            big.insert(&rt, k, &k.to_le_bytes()).unwrap();
        }
        assert_eq!(
            big.get(&rt, 999).unwrap(),
            Some(999u64.to_le_bytes().to_vec())
        );
        assert_eq!(big.len(&pool).unwrap(), 1000);
        let locks: std::collections::HashSet<u64> = (0..1000).map(|k| big.lock_of(k)).collect();
        assert_eq!(locks.len(), LOCKS as usize);
    }

    #[test]
    fn buckets_have_distinct_locks() {
        let (_p, _rt, map) = setup(Backend::clobber());
        // Two keys in different buckets must have different lock ids.
        let (mut a, mut b) = (None, None);
        for k in 0..1000u64 {
            match map.bucket_of(k) {
                0 => a = Some(k),
                1 => b = Some(k),
                _ => {}
            }
        }
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_ne!(map.lock_of(a), map.lock_of(b));
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
