//! Persistent AVL tree with a global lock.
//!
//! The paper swaps vacation's red-black tables for the STAMP suite's AVL
//! tree to show how the underlying structure changes logging behaviour
//! (Fig. 11). Height-balanced with the classic four rotations.
//!
//! Layout:
//!
//! ```text
//! root block: [magic][root_ptr]
//! node:       [key][val_ptr][val_len][left][right][height]
//! ```

use clobber_nvm::{ArgList, Runtime, Tx, TxError};
use clobber_pmem::{PAddr, PmemPool};

use crate::value::{check_root, store_value};

const MAGIC: u64 = 0xC10B_0004;
/// Bytes of the root block.
const ROOT_LEN: u64 = 16;

const KEY: u64 = 0;
const VPTR: u64 = 8;
const VLEN: u64 = 16;
const LEFT: u64 = 24;
const RIGHT: u64 = 32;
const HEIGHT: u64 = 40;
const NODE_SIZE: u64 = 48;

/// Inserts or updates `key` within an enclosing transaction — the building
/// block vacation's multi-table reservations use.
///
/// # Errors
///
/// Returns [`TxError::Pmem`] on substrate failure.
pub fn tx_insert(
    tx: &mut Tx<'_>,
    root_block: PAddr,
    key: u64,
    value: &[u8],
) -> Result<(), TxError> {
    let root = tx.read_paddr(root_block.add(8))?;
    let new_root = insert_rec(tx, root, key, value)?;
    if new_root != root {
        tx.write_paddr(root_block.add(8), new_root)?;
    }
    Ok(())
}

/// Looks `key` up within an enclosing transaction.
///
/// # Errors
///
/// Returns [`TxError::Pmem`] on substrate failure.
pub fn tx_get(tx: &mut Tx<'_>, root_block: PAddr, key: u64) -> Result<Option<Vec<u8>>, TxError> {
    let mut cur = tx.read_paddr(root_block.add(8))?;
    while !cur.is_null() {
        let k = tx.read_u64(cur.add(KEY))?;
        if key == k {
            let ptr = tx.read_paddr(cur.add(VPTR))?;
            let len = tx.read_u64(cur.add(VLEN))?;
            return Ok(Some(tx.read_bytes(ptr, len)?));
        }
        cur = if key < k {
            tx.read_paddr(cur.add(LEFT))?
        } else {
            tx.read_paddr(cur.add(RIGHT))?
        };
    }
    Ok(None)
}

/// Removes `key` within an enclosing transaction; returns whether it was
/// present.
///
/// # Errors
///
/// Returns [`TxError::Pmem`] on substrate failure.
pub fn tx_remove(tx: &mut Tx<'_>, root_block: PAddr, key: u64) -> Result<bool, TxError> {
    let root = tx.read_paddr(root_block.add(8))?;
    let mut removed = false;
    let new_root = remove_rec(tx, root, key, &mut removed)?;
    if new_root != root {
        tx.write_paddr(root_block.add(8), new_root)?;
    }
    Ok(removed)
}

/// Handle to a persistent AVL tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvlTree {
    root: PAddr,
}

/// Insert txfunc name.
pub const TX_INSERT: &str = "avltree_insert";
/// Lookup txfunc name.
pub const TX_GET: &str = "avltree_get";
/// Removal txfunc name.
pub const TX_REMOVE: &str = "avltree_remove";

fn height(tx: &mut Tx<'_>, n: PAddr) -> Result<u64, TxError> {
    if n.is_null() {
        Ok(0)
    } else {
        tx.read_u64(n.add(HEIGHT))
    }
}

fn fix_height(tx: &mut Tx<'_>, n: PAddr) -> Result<(), TxError> {
    let l = tx.read_paddr(n.add(LEFT))?;
    let r = tx.read_paddr(n.add(RIGHT))?;
    let h = 1 + height(tx, l)?.max(height(tx, r)?);
    if tx.read_u64(n.add(HEIGHT))? != h {
        tx.write_u64(n.add(HEIGHT), h)?;
    }
    Ok(())
}

fn balance_factor(tx: &mut Tx<'_>, n: PAddr) -> Result<i64, TxError> {
    let l = tx.read_paddr(n.add(LEFT))?;
    let r = tx.read_paddr(n.add(RIGHT))?;
    Ok(height(tx, l)? as i64 - height(tx, r)? as i64)
}

fn rotate_right(tx: &mut Tx<'_>, y: PAddr) -> Result<PAddr, TxError> {
    let x = tx.read_paddr(y.add(LEFT))?;
    let t = tx.read_paddr(x.add(RIGHT))?;
    tx.write_paddr(y.add(LEFT), t)?;
    tx.write_paddr(x.add(RIGHT), y)?;
    fix_height(tx, y)?;
    fix_height(tx, x)?;
    Ok(x)
}

fn rotate_left(tx: &mut Tx<'_>, x: PAddr) -> Result<PAddr, TxError> {
    let y = tx.read_paddr(x.add(RIGHT))?;
    let t = tx.read_paddr(y.add(LEFT))?;
    tx.write_paddr(x.add(RIGHT), t)?;
    tx.write_paddr(y.add(LEFT), x)?;
    fix_height(tx, x)?;
    fix_height(tx, y)?;
    Ok(y)
}

fn rebalance(tx: &mut Tx<'_>, n: PAddr) -> Result<PAddr, TxError> {
    fix_height(tx, n)?;
    let bf = balance_factor(tx, n)?;
    if bf > 1 {
        let l = tx.read_paddr(n.add(LEFT))?;
        if balance_factor(tx, l)? < 0 {
            let nl = rotate_left(tx, l)?;
            tx.write_paddr(n.add(LEFT), nl)?;
        }
        return rotate_right(tx, n);
    }
    if bf < -1 {
        let r = tx.read_paddr(n.add(RIGHT))?;
        if balance_factor(tx, r)? > 0 {
            let nr = rotate_right(tx, r)?;
            tx.write_paddr(n.add(RIGHT), nr)?;
        }
        return rotate_left(tx, n);
    }
    Ok(n)
}

fn insert_rec(tx: &mut Tx<'_>, n: PAddr, key: u64, value: &[u8]) -> Result<PAddr, TxError> {
    if n.is_null() {
        let vbuf = store_value(tx, value)?;
        let z = tx.pmalloc(NODE_SIZE)?;
        tx.write_u64(z.add(KEY), key)?;
        tx.write_paddr(z.add(VPTR), vbuf)?;
        tx.write_u64(z.add(VLEN), value.len() as u64)?;
        tx.write_u64(z.add(HEIGHT), 1)?;
        return Ok(z);
    }
    let k = tx.read_u64(n.add(KEY))?;
    if key == k {
        let old = tx.read_paddr(n.add(VPTR))?;
        let vbuf = store_value(tx, value)?;
        tx.write_paddr(n.add(VPTR), vbuf)?;
        tx.write_u64(n.add(VLEN), value.len() as u64)?;
        tx.pfree(old)?;
        return Ok(n);
    }
    if key < k {
        let l = tx.read_paddr(n.add(LEFT))?;
        let nl = insert_rec(tx, l, key, value)?;
        if nl != l {
            tx.write_paddr(n.add(LEFT), nl)?;
        }
    } else {
        let r = tx.read_paddr(n.add(RIGHT))?;
        let nr = insert_rec(tx, r, key, value)?;
        if nr != r {
            tx.write_paddr(n.add(RIGHT), nr)?;
        }
    }
    rebalance(tx, n)
}

fn remove_rec(tx: &mut Tx<'_>, n: PAddr, key: u64, removed: &mut bool) -> Result<PAddr, TxError> {
    if n.is_null() {
        return Ok(n);
    }
    let k = tx.read_u64(n.add(KEY))?;
    if key < k {
        let l = tx.read_paddr(n.add(LEFT))?;
        let nl = remove_rec(tx, l, key, removed)?;
        if nl != l {
            tx.write_paddr(n.add(LEFT), nl)?;
        }
    } else if key > k {
        let r = tx.read_paddr(n.add(RIGHT))?;
        let nr = remove_rec(tx, r, key, removed)?;
        if nr != r {
            tx.write_paddr(n.add(RIGHT), nr)?;
        }
    } else {
        *removed = true;
        let l = tx.read_paddr(n.add(LEFT))?;
        let r = tx.read_paddr(n.add(RIGHT))?;
        let vptr = tx.read_paddr(n.add(VPTR))?;
        if l.is_null() || r.is_null() {
            tx.pfree(vptr)?;
            tx.pfree(n)?;
            return Ok(if l.is_null() { r } else { l });
        }
        // Two children: replace payload with the in-order successor's,
        // then delete the successor from the right subtree.
        let mut succ = r;
        loop {
            let sl = tx.read_paddr(succ.add(LEFT))?;
            if sl.is_null() {
                break;
            }
            succ = sl;
        }
        let sk = tx.read_u64(succ.add(KEY))?;
        let sv = tx.read_paddr(succ.add(VPTR))?;
        let slen = tx.read_u64(succ.add(VLEN))?;
        // Copy the successor's value into a fresh buffer owned by `n` so
        // the successor node (and its buffer) can be freed normally.
        let copied = tx.read_bytes(sv, slen)?;
        let vbuf = store_value(tx, &copied)?;
        tx.pfree(vptr)?;
        tx.write_u64(n.add(KEY), sk)?;
        tx.write_paddr(n.add(VPTR), vbuf)?;
        tx.write_u64(n.add(VLEN), slen)?;
        let mut dummy = false;
        let nr = remove_rec(tx, r, sk, &mut dummy)?;
        if nr != r {
            tx.write_paddr(n.add(RIGHT), nr)?;
        }
    }
    rebalance(tx, n)
}

impl AvlTree {
    /// Allocates and formats an empty tree.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the pool is exhausted.
    pub fn create(rt: &Runtime) -> Result<AvlTree, TxError> {
        let pool = rt.pool();
        let root = pool.alloc(ROOT_LEN)?;
        pool.write_u64(root, MAGIC)?;
        pool.write_u64(root.add(8), 0)?;
        pool.persist(root, ROOT_LEN)?;
        Ok(AvlTree { root })
    }

    /// Adopts the tree at `root`.
    ///
    /// # Errors
    ///
    /// Returns a `CorruptPool` error if `root` holds no AVL tree header or
    /// its root block runs past the pool.
    pub fn open(pool: &PmemPool, root: PAddr) -> Result<AvlTree, TxError> {
        check_root(pool, root, ROOT_LEN, MAGIC, "AVL tree")?;
        Ok(AvlTree { root })
    }

    /// The tree's root-block address.
    pub fn root(&self) -> PAddr {
        self.root
    }

    /// Registers the tree's txfuncs.
    pub fn register(rt: &Runtime) {
        rt.register(TX_INSERT, |tx, args| {
            let root_block = PAddr::new(args.u64(0)?);
            let key = args.u64(1)?;
            tx_insert(tx, root_block, key, args.bytes(2)?)?;
            Ok(None)
        });
        rt.register(TX_GET, |tx, args| {
            let root_block = PAddr::new(args.u64(0)?);
            let key = args.u64(1)?;
            tx_get(tx, root_block, key)
        });
        rt.register(TX_REMOVE, |tx, args| {
            let root_block = PAddr::new(args.u64(0)?);
            let key = args.u64(1)?;
            Ok(Some(vec![tx_remove(tx, root_block, key)? as u8]))
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

    /// Looks `key` up.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn get(&self, rt: &Runtime, key: u64) -> Result<Option<Vec<u8>>, TxError> {
        rt.run(TX_GET, &self.args(key))
    }

    /// Removes `key`; returns `true` if present.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn remove(&self, rt: &Runtime, key: u64) -> Result<bool, TxError> {
        Ok(rt.run(TX_REMOVE, &self.args(key))? == Some(vec![1]))
    }

    /// The tree's global lock id.
    pub fn lock(&self) -> u64 {
        self.root.offset().wrapping_mul(31)
    }

    /// Full AVL invariant check (BST order, |balance| ≤ 1, exact heights);
    /// returns all `(key, value)` pairs in order.
    ///
    /// # Errors
    ///
    /// Returns a `CorruptPool` error if the root holds no AVL tree
    /// header, and [`TxError::Pmem`] on a failed read.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated (this is a checker).
    pub fn dump(&self, pool: &PmemPool) -> Result<Vec<(u64, Vec<u8>)>, TxError> {
        check_root(pool, self.root, ROOT_LEN, MAGIC, "AVL tree")?;
        fn walk(
            pool: &PmemPool,
            n: PAddr,
            lo: Option<u64>,
            hi: Option<u64>,
            out: &mut Vec<(u64, Vec<u8>)>,
        ) -> Result<u64, TxError> {
            if n.is_null() {
                return Ok(0);
            }
            let key = pool.read_u64(n.add(KEY))?;
            if let Some(lo) = lo {
                assert!(key > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(key < hi, "BST order violated");
            }
            let l = PAddr::new(pool.read_u64(n.add(LEFT))?);
            let r = PAddr::new(pool.read_u64(n.add(RIGHT))?);
            let lh = walk(pool, l, lo, Some(key), out)?;
            let ptr = PAddr::new(pool.read_u64(n.add(VPTR))?);
            let len = pool.read_u64(n.add(VLEN))?;
            // In-order position: after the left subtree.
            let pos = out.len();
            out.insert(pos, (key, pool.read_bytes(ptr, len)?));
            let rh = walk(pool, r, Some(key), hi, out)?;
            assert!((lh as i64 - rh as i64).abs() <= 1, "AVL balance violated");
            let h = 1 + lh.max(rh);
            assert_eq!(pool.read_u64(n.add(HEIGHT))?, h, "stored height is stale");
            Ok(h)
        }
        let root = PAddr::new(pool.read_u64(self.root.add(8))?);
        let mut out = Vec::new();
        walk(pool, root, None, None, &mut out)?;
        Ok(out)
    }

    /// Number of entries.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt tree.
    pub fn len(&self, pool: &PmemPool) -> Result<usize, TxError> {
        Ok(self.dump(pool)?.len())
    }

    /// `true` if the tree holds no entries.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt tree.
    pub fn is_empty(&self, pool: &PmemPool) -> Result<bool, TxError> {
        Ok(self.len(pool)? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clobber_nvm::{Backend, RuntimeOptions};
    use clobber_pmem::{PmemError, PmemPool, PoolOptions};
    use std::sync::Arc;

    fn setup(backend: Backend) -> (Arc<PmemPool>, Runtime, AvlTree) {
        let pool = Arc::new(PmemPool::create(PoolOptions::performance(64 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        AvlTree::register(&rt);
        let t = AvlTree::create(&rt).unwrap();
        (pool, rt, t)
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in 0..128u64 {
            t.insert(&rt, k, &k.to_le_bytes()).unwrap();
        }
        let dumped = t.dump(&pool).unwrap();
        assert_eq!(dumped.len(), 128);
        assert!(dumped.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn lookups_find_inserted_keys() {
        let (_p, rt, t) = setup(Backend::clobber());
        for k in [9u64, 3, 7, 1, 5, 8, 2, 6, 4] {
            t.insert(&rt, k, format!("v{k}").as_bytes()).unwrap();
        }
        for k in 1..=9u64 {
            assert_eq!(t.get(&rt, k).unwrap(), Some(format!("v{k}").into_bytes()));
        }
        assert_eq!(t.get(&rt, 100).unwrap(), None);
    }

    #[test]
    fn remove_rebalances() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in 0..64u64 {
            t.insert(&rt, k, &k.to_le_bytes()).unwrap();
        }
        for k in 0..32u64 {
            assert!(t.remove(&rt, k).unwrap());
            t.dump(&pool).unwrap();
        }
        assert_eq!(t.len(&pool).unwrap(), 32);
        assert!(!t.remove(&rt, 5).unwrap());
    }

    #[test]
    fn remove_node_with_two_children() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in [50u64, 25, 75, 10, 30, 60, 90] {
            t.insert(&rt, k, &k.to_le_bytes()).unwrap();
        }
        assert!(t.remove(&rt, 50).unwrap());
        let dumped = t.dump(&pool).unwrap();
        let keys: Vec<u64> = dumped.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![10, 25, 30, 60, 75, 90]);
        assert_eq!(t.get(&rt, 60).unwrap(), Some(60u64.to_le_bytes().to_vec()));
    }

    #[test]
    fn works_under_every_backend() {
        for backend in [
            Backend::clobber(),
            Backend::Undo,
            Backend::Redo,
            Backend::Atlas,
        ] {
            let (pool, rt, t) = setup(backend);
            for k in 0..50u64 {
                t.insert(&rt, (k * 17) % 50, &k.to_le_bytes()).unwrap();
            }
            assert_eq!(t.len(&pool).unwrap(), 50, "backend {}", backend.label());
        }
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
