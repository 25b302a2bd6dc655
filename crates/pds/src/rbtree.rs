//! Persistent red-black tree with a global reader-writer lock, implemented
//! "in accordance with the version in the Linux kernel" per the paper
//! (§5.2) — i.e. the classic CLRS insert/delete with recoloring and
//! rotations, here with an explicit sentinel nil node.
//!
//! Layout:
//!
//! ```text
//! root block: [magic][root_ptr][nil_ptr]
//! node:       [key][val_ptr][val_len][color][left][right][parent]
//! ```
//!
//! A descent reads `key`, then the child it takes: with `(key, left, right)`
//! in one load the other child is an input too, and `rotate_left`'s blind
//! write of `xp.right` would start to log.

use clobber_nvm::{ArgList, Runtime, Tx, TxError};
use clobber_pmem::{PAddr, PmemPool};

use crate::value::{check_root, store_value};

const MAGIC: u64 = 0xC10B_0003;
/// Bytes of the root block.
const ROOT_LEN: u64 = 24;

const KEY: u64 = 0;
const VPTR: u64 = 8;
const VLEN: u64 = 16;
const COLOR: u64 = 24;
const LEFT: u64 = 32;
const RIGHT: u64 = 40;
const PARENT: u64 = 48;
const NODE_SIZE: u64 = 56;

const RED: u64 = 1;
const BLACK: u64 = 0;

/// Handle to a persistent red-black tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbTree {
    root: PAddr,
}

/// Insert txfunc name.
pub const TX_INSERT: &str = "rbtree_insert";
/// Lookup txfunc name.
pub const TX_GET: &str = "rbtree_get";
/// Removal txfunc name.
pub const TX_REMOVE: &str = "rbtree_remove";

struct Ctx {
    root_block: PAddr,
    nil: PAddr,
}

impl Ctx {
    fn load(tx: &mut Tx<'_>, root_block: PAddr) -> Result<Ctx, TxError> {
        let nil = tx.read_paddr(root_block.add(16))?;
        Ok(Ctx { root_block, nil })
    }

    fn tree_root(&self, tx: &mut Tx<'_>) -> Result<PAddr, TxError> {
        tx.read_paddr(self.root_block.add(8))
    }

    fn set_tree_root(&self, tx: &mut Tx<'_>, n: PAddr) -> Result<(), TxError> {
        tx.write_paddr(self.root_block.add(8), n)
    }

    fn rotate_left(&self, tx: &mut Tx<'_>, x: PAddr) -> Result<(), TxError> {
        let y = tx.read_paddr(x.add(RIGHT))?;
        let yl = tx.read_paddr(y.add(LEFT))?;
        tx.write_paddr(x.add(RIGHT), yl)?;
        if yl != self.nil {
            tx.write_paddr(yl.add(PARENT), x)?;
        }
        let xp = tx.read_paddr(x.add(PARENT))?;
        tx.write_paddr(y.add(PARENT), xp)?;
        if xp == self.nil {
            self.set_tree_root(tx, y)?;
        } else if tx.read_paddr(xp.add(LEFT))? == x {
            tx.write_paddr(xp.add(LEFT), y)?;
        } else {
            tx.write_paddr(xp.add(RIGHT), y)?;
        }
        tx.write_paddr(y.add(LEFT), x)?;
        tx.write_paddr(x.add(PARENT), y)?;
        Ok(())
    }

    fn rotate_right(&self, tx: &mut Tx<'_>, x: PAddr) -> Result<(), TxError> {
        let y = tx.read_paddr(x.add(LEFT))?;
        let yr = tx.read_paddr(y.add(RIGHT))?;
        tx.write_paddr(x.add(LEFT), yr)?;
        if yr != self.nil {
            tx.write_paddr(yr.add(PARENT), x)?;
        }
        let xp = tx.read_paddr(x.add(PARENT))?;
        tx.write_paddr(y.add(PARENT), xp)?;
        if xp == self.nil {
            self.set_tree_root(tx, y)?;
        } else if tx.read_paddr(xp.add(RIGHT))? == x {
            tx.write_paddr(xp.add(RIGHT), y)?;
        } else {
            tx.write_paddr(xp.add(LEFT), y)?;
        }
        tx.write_paddr(y.add(RIGHT), x)?;
        tx.write_paddr(x.add(PARENT), y)?;
        Ok(())
    }

    fn insert_fixup(&self, tx: &mut Tx<'_>, mut z: PAddr) -> Result<(), TxError> {
        loop {
            let zp = tx.read_paddr(z.add(PARENT))?;
            if zp == self.nil || tx.read_u64(zp.add(COLOR))? != RED {
                break;
            }
            let zpp = tx.read_paddr(zp.add(PARENT))?;
            if zp == tx.read_paddr(zpp.add(LEFT))? {
                let y = tx.read_paddr(zpp.add(RIGHT))?;
                if y != self.nil && tx.read_u64(y.add(COLOR))? == RED {
                    tx.write_u64(zp.add(COLOR), BLACK)?;
                    tx.write_u64(y.add(COLOR), BLACK)?;
                    tx.write_u64(zpp.add(COLOR), RED)?;
                    z = zpp;
                } else {
                    if z == tx.read_paddr(zp.add(RIGHT))? {
                        z = zp;
                        self.rotate_left(tx, z)?;
                    }
                    let zp = tx.read_paddr(z.add(PARENT))?;
                    let zpp = tx.read_paddr(zp.add(PARENT))?;
                    tx.write_u64(zp.add(COLOR), BLACK)?;
                    tx.write_u64(zpp.add(COLOR), RED)?;
                    self.rotate_right(tx, zpp)?;
                }
            } else {
                let y = tx.read_paddr(zpp.add(LEFT))?;
                if y != self.nil && tx.read_u64(y.add(COLOR))? == RED {
                    tx.write_u64(zp.add(COLOR), BLACK)?;
                    tx.write_u64(y.add(COLOR), BLACK)?;
                    tx.write_u64(zpp.add(COLOR), RED)?;
                    z = zpp;
                } else {
                    if z == tx.read_paddr(zp.add(LEFT))? {
                        z = zp;
                        self.rotate_right(tx, z)?;
                    }
                    let zp = tx.read_paddr(z.add(PARENT))?;
                    let zpp = tx.read_paddr(zp.add(PARENT))?;
                    tx.write_u64(zp.add(COLOR), BLACK)?;
                    tx.write_u64(zpp.add(COLOR), RED)?;
                    self.rotate_left(tx, zpp)?;
                }
            }
        }
        let r = self.tree_root(tx)?;
        if tx.read_u64(r.add(COLOR))? != BLACK {
            tx.write_u64(r.add(COLOR), BLACK)?;
        }
        Ok(())
    }

    fn transplant(&self, tx: &mut Tx<'_>, u: PAddr, v: PAddr) -> Result<(), TxError> {
        let up = tx.read_paddr(u.add(PARENT))?;
        if up == self.nil {
            self.set_tree_root(tx, v)?;
        } else if u == tx.read_paddr(up.add(LEFT))? {
            tx.write_paddr(up.add(LEFT), v)?;
        } else {
            tx.write_paddr(up.add(RIGHT), v)?;
        }
        tx.write_paddr(v.add(PARENT), up)?;
        Ok(())
    }

    fn minimum(&self, tx: &mut Tx<'_>, mut n: PAddr) -> Result<PAddr, TxError> {
        loop {
            let l = tx.read_paddr(n.add(LEFT))?;
            if l == self.nil {
                return Ok(n);
            }
            n = l;
        }
    }

    fn delete_fixup(&self, tx: &mut Tx<'_>, mut x: PAddr) -> Result<(), TxError> {
        loop {
            let root = self.tree_root(tx)?;
            if x == root || tx.read_u64(x.add(COLOR))? == RED {
                break;
            }
            let xp = tx.read_paddr(x.add(PARENT))?;
            if x == tx.read_paddr(xp.add(LEFT))? {
                let mut w = tx.read_paddr(xp.add(RIGHT))?;
                if tx.read_u64(w.add(COLOR))? == RED {
                    tx.write_u64(w.add(COLOR), BLACK)?;
                    tx.write_u64(xp.add(COLOR), RED)?;
                    self.rotate_left(tx, xp)?;
                    w = tx.read_paddr(xp.add(RIGHT))?;
                }
                let wl = tx.read_paddr(w.add(LEFT))?;
                let wr = tx.read_paddr(w.add(RIGHT))?;
                let wl_black = wl == self.nil || tx.read_u64(wl.add(COLOR))? == BLACK;
                let wr_black = wr == self.nil || tx.read_u64(wr.add(COLOR))? == BLACK;
                if wl_black && wr_black {
                    tx.write_u64(w.add(COLOR), RED)?;
                    x = xp;
                } else {
                    if wr_black {
                        tx.write_u64(wl.add(COLOR), BLACK)?;
                        tx.write_u64(w.add(COLOR), RED)?;
                        self.rotate_right(tx, w)?;
                        w = tx.read_paddr(xp.add(RIGHT))?;
                    }
                    let xpc = tx.read_u64(xp.add(COLOR))?;
                    tx.write_u64(w.add(COLOR), xpc)?;
                    tx.write_u64(xp.add(COLOR), BLACK)?;
                    let wr = tx.read_paddr(w.add(RIGHT))?;
                    if wr != self.nil {
                        tx.write_u64(wr.add(COLOR), BLACK)?;
                    }
                    self.rotate_left(tx, xp)?;
                    x = self.tree_root(tx)?;
                }
            } else {
                let mut w = tx.read_paddr(xp.add(LEFT))?;
                if tx.read_u64(w.add(COLOR))? == RED {
                    tx.write_u64(w.add(COLOR), BLACK)?;
                    tx.write_u64(xp.add(COLOR), RED)?;
                    self.rotate_right(tx, xp)?;
                    w = tx.read_paddr(xp.add(LEFT))?;
                }
                let wl = tx.read_paddr(w.add(LEFT))?;
                let wr = tx.read_paddr(w.add(RIGHT))?;
                let wl_black = wl == self.nil || tx.read_u64(wl.add(COLOR))? == BLACK;
                let wr_black = wr == self.nil || tx.read_u64(wr.add(COLOR))? == BLACK;
                if wl_black && wr_black {
                    tx.write_u64(w.add(COLOR), RED)?;
                    x = xp;
                } else {
                    if wl_black {
                        tx.write_u64(wr.add(COLOR), BLACK)?;
                        tx.write_u64(w.add(COLOR), RED)?;
                        self.rotate_left(tx, w)?;
                        w = tx.read_paddr(xp.add(LEFT))?;
                    }
                    let xpc = tx.read_u64(xp.add(COLOR))?;
                    tx.write_u64(w.add(COLOR), xpc)?;
                    tx.write_u64(xp.add(COLOR), BLACK)?;
                    let wl = tx.read_paddr(w.add(LEFT))?;
                    if wl != self.nil {
                        tx.write_u64(wl.add(COLOR), BLACK)?;
                    }
                    self.rotate_right(tx, xp)?;
                    x = self.tree_root(tx)?;
                }
            }
        }
        if tx.read_u64(x.add(COLOR))? != BLACK {
            tx.write_u64(x.add(COLOR), BLACK)?;
        }
        Ok(())
    }
}

impl RbTree {
    /// Allocates and formats an empty tree.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the pool is exhausted.
    pub fn create(rt: &Runtime) -> Result<RbTree, TxError> {
        let pool = rt.pool();
        let root = pool.alloc(ROOT_LEN)?;
        let nil = pool.alloc(NODE_SIZE)?;
        pool.write_u64(nil.add(COLOR), BLACK)?;
        pool.persist(nil, NODE_SIZE)?;
        pool.write_u64(root, MAGIC)?;
        pool.write_u64(root.add(8), nil.offset())?; // empty tree: root = nil
        pool.write_u64(root.add(16), nil.offset())?;
        pool.persist(root, ROOT_LEN)?;
        Ok(RbTree { root })
    }

    /// Adopts the tree at `root`.
    ///
    /// # Errors
    ///
    /// Returns a `CorruptPool` error if `root` holds no red-black tree
    /// header or its root block runs past the pool.
    pub fn open(pool: &PmemPool, root: PAddr) -> Result<RbTree, TxError> {
        check_root(pool, root, ROOT_LEN, MAGIC, "red-black tree")?;
        Ok(RbTree { root })
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
}

/// Inserts or updates `key` within an enclosing transaction — the building
/// block composite transactions (e.g. vacation's multi-table reservations)
/// use.
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
    {
        {
            let ctx = Ctx::load(tx, root_block)?;
            // BST descent.
            let mut parent = ctx.nil;
            let mut cur = ctx.tree_root(tx)?;
            while cur != ctx.nil {
                parent = cur;
                let k = tx.read_u64(cur.add(KEY))?;
                if key == k {
                    let old_ptr = tx.read_paddr(cur.add(VPTR))?;
                    let vbuf = store_value(tx, value)?;
                    tx.write_paddr(cur.add(VPTR), vbuf)?;
                    tx.write_u64(cur.add(VLEN), value.len() as u64)?;
                    tx.pfree(old_ptr)?;
                    return Ok(());
                }
                cur = if key < k {
                    tx.read_paddr(cur.add(LEFT))?
                } else {
                    tx.read_paddr(cur.add(RIGHT))?
                };
            }
            let vbuf = store_value(tx, value)?;
            let z = tx.pmalloc(NODE_SIZE)?;
            tx.write_u64(z.add(KEY), key)?;
            tx.write_paddr(z.add(VPTR), vbuf)?;
            tx.write_u64(z.add(VLEN), value.len() as u64)?;
            tx.write_u64(z.add(COLOR), RED)?;
            tx.write_paddr(z.add(LEFT), ctx.nil)?;
            tx.write_paddr(z.add(RIGHT), ctx.nil)?;
            tx.write_paddr(z.add(PARENT), parent)?;
            if parent == ctx.nil {
                ctx.set_tree_root(tx, z)?;
            } else if key < tx.read_u64(parent.add(KEY))? {
                tx.write_paddr(parent.add(LEFT), z)?;
            } else {
                tx.write_paddr(parent.add(RIGHT), z)?;
            }
            ctx.insert_fixup(tx, z)?;
            Ok(())
        }
    }
}

/// Looks `key` up within an enclosing transaction.
///
/// # Errors
///
/// Returns [`TxError::Pmem`] on substrate failure.
pub fn tx_get(tx: &mut Tx<'_>, root_block: PAddr, key: u64) -> Result<Option<Vec<u8>>, TxError> {
    {
        {
            let ctx = Ctx::load(tx, root_block)?;
            let mut cur = ctx.tree_root(tx)?;
            while cur != ctx.nil {
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
    }
}

/// Removes `key` within an enclosing transaction; returns whether it was
/// present.
///
/// # Errors
///
/// Returns [`TxError::Pmem`] on substrate failure.
pub fn tx_remove(tx: &mut Tx<'_>, root_block: PAddr, key: u64) -> Result<bool, TxError> {
    {
        {
            let ctx = Ctx::load(tx, root_block)?;
            let mut z = ctx.tree_root(tx)?;
            while z != ctx.nil {
                let k = tx.read_u64(z.add(KEY))?;
                if key == k {
                    break;
                }
                z = if key < k {
                    tx.read_paddr(z.add(LEFT))?
                } else {
                    tx.read_paddr(z.add(RIGHT))?
                };
            }
            if z == ctx.nil {
                return Ok(false);
            }
            // CLRS delete.
            let mut y = z;
            let mut y_color = tx.read_u64(y.add(COLOR))?;
            let x;
            let zl = tx.read_paddr(z.add(LEFT))?;
            let zr = tx.read_paddr(z.add(RIGHT))?;
            if zl == ctx.nil {
                x = zr;
                ctx.transplant(tx, z, zr)?;
            } else if zr == ctx.nil {
                x = zl;
                ctx.transplant(tx, z, zl)?;
            } else {
                y = ctx.minimum(tx, zr)?;
                y_color = tx.read_u64(y.add(COLOR))?;
                x = tx.read_paddr(y.add(RIGHT))?;
                if tx.read_paddr(y.add(PARENT))? == z {
                    tx.write_paddr(x.add(PARENT), y)?;
                } else {
                    let yr = tx.read_paddr(y.add(RIGHT))?;
                    ctx.transplant(tx, y, yr)?;
                    tx.write_paddr(y.add(RIGHT), zr)?;
                    tx.write_paddr(zr.add(PARENT), y)?;
                }
                let zl = tx.read_paddr(z.add(LEFT))?;
                ctx.transplant(tx, z, y)?;
                tx.write_paddr(y.add(LEFT), zl)?;
                tx.write_paddr(zl.add(PARENT), y)?;
                let zc = tx.read_u64(z.add(COLOR))?;
                tx.write_u64(y.add(COLOR), zc)?;
            }
            if y_color == BLACK {
                ctx.delete_fixup(tx, x)?;
            }
            let vptr = tx.read_paddr(z.add(VPTR))?;
            tx.pfree(vptr)?;
            tx.pfree(z)?;
            Ok(true)
        }
    }
}

impl RbTree {
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

    /// The tree's global rwlock id.
    pub fn lock(&self) -> u64 {
        self.root.offset().wrapping_mul(31)
    }

    /// Full red-black invariant check (BST order, red nodes have black
    /// children, equal black height, consistent parent pointers); returns
    /// all `(key, value)` pairs in order.
    ///
    /// # Errors
    ///
    /// Returns a `CorruptPool` error if the root holds no red-black tree
    /// header, and [`TxError::Pmem`] on a failed read.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated (this is a checker).
    pub fn dump(&self, pool: &PmemPool) -> Result<Vec<(u64, Vec<u8>)>, TxError> {
        check_root(pool, self.root, ROOT_LEN, MAGIC, "red-black tree")?;
        let nil = PAddr::new(pool.read_u64(self.root.add(16))?);
        let root = PAddr::new(pool.read_u64(self.root.add(8))?);
        let mut out = Vec::new();
        if root == nil {
            return Ok(out);
        }
        assert_eq!(pool.read_u64(root.add(COLOR))?, BLACK, "root must be black");
        assert_eq!(
            PAddr::new(pool.read_u64(root.add(PARENT))?),
            nil,
            "root parent must be nil"
        );
        fn walk(
            pool: &PmemPool,
            nil: PAddr,
            n: PAddr,
            lo: Option<u64>,
            hi: Option<u64>,
            out: &mut Vec<(u64, Vec<u8>)>,
        ) -> Result<u64, TxError> {
            if n == nil {
                return Ok(1); // nil counts one black
            }
            let key = pool.read_u64(n.add(KEY))?;
            if let Some(lo) = lo {
                assert!(key > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(key < hi, "BST order violated");
            }
            let color = pool.read_u64(n.add(COLOR))?;
            let l = PAddr::new(pool.read_u64(n.add(LEFT))?);
            let r = PAddr::new(pool.read_u64(n.add(RIGHT))?);
            if color == RED {
                for c in [l, r] {
                    if c != nil {
                        assert_eq!(
                            pool.read_u64(c.add(COLOR))?,
                            BLACK,
                            "red node with red child"
                        );
                    }
                }
            }
            for c in [l, r] {
                if c != nil {
                    assert_eq!(
                        PAddr::new(pool.read_u64(c.add(PARENT))?),
                        n,
                        "parent pointer mismatch"
                    );
                }
            }
            let lb = walk(pool, nil, l, lo, Some(key), out)?;
            let ptr = PAddr::new(pool.read_u64(n.add(VPTR))?);
            let len = pool.read_u64(n.add(VLEN))?;
            out.push((key, pool.read_bytes(ptr, len)?));
            let rb = walk(pool, nil, r, Some(key), hi, out)?;
            assert_eq!(lb, rb, "black height mismatch");
            Ok(lb + u64::from(color == BLACK))
        }
        walk(pool, nil, root, None, None, &mut out)?;
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

    fn setup(backend: Backend) -> (Arc<PmemPool>, Runtime, RbTree) {
        let pool = Arc::new(PmemPool::create(PoolOptions::performance(64 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        RbTree::register(&rt);
        let t = RbTree::create(&rt).unwrap();
        (pool, rt, t)
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in 0..200u64 {
            t.insert(&rt, k, &k.to_le_bytes()).unwrap();
        }
        let dumped = t.dump(&pool).unwrap();
        assert_eq!(dumped.len(), 200);
        assert!(dumped.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn random_order_inserts_and_lookups() {
        let (pool, rt, t) = setup(Backend::clobber());
        let mut keys: Vec<u64> = (0..300).map(|i| (i * 2_654_435_761u64) % 10_000).collect();
        keys.sort();
        keys.dedup();
        let mut shuffled = keys.clone();
        shuffled.reverse();
        for &k in &shuffled {
            t.insert(&rt, k, &k.to_le_bytes()).unwrap();
        }
        t.dump(&pool).unwrap();
        for &k in &keys {
            assert_eq!(t.get(&rt, k).unwrap(), Some(k.to_le_bytes().to_vec()));
        }
        assert_eq!(t.get(&rt, 999_999).unwrap(), None);
    }

    #[test]
    fn update_replaces_value_without_growing() {
        let (pool, rt, t) = setup(Backend::clobber());
        t.insert(&rt, 5, b"a").unwrap();
        t.insert(&rt, 5, b"bb").unwrap();
        assert_eq!(t.get(&rt, 5).unwrap(), Some(b"bb".to_vec()));
        assert_eq!(t.len(&pool).unwrap(), 1);
    }

    #[test]
    fn deletions_keep_invariants() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in 0..100u64 {
            t.insert(&rt, k, &k.to_le_bytes()).unwrap();
        }
        // Delete every third key, checking invariants as we go.
        for k in (0..100u64).step_by(3) {
            assert!(t.remove(&rt, k).unwrap(), "key {k}");
            t.dump(&pool).unwrap();
        }
        assert_eq!(t.len(&pool).unwrap(), 100 - 34);
        assert!(!t.remove(&rt, 0).unwrap());
        for k in 0..100u64 {
            let expect = k % 3 != 0;
            assert_eq!(t.get(&rt, k).unwrap().is_some(), expect, "key {k}");
        }
    }

    #[test]
    fn delete_down_to_empty() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in [5u64, 3, 8, 1, 4, 7, 9, 2, 6] {
            t.insert(&rt, k, b"x").unwrap();
        }
        for k in 1..=9u64 {
            assert!(t.remove(&rt, k).unwrap());
            t.dump(&pool).unwrap();
        }
        assert!(t.is_empty(&pool).unwrap());
        // And it still works afterwards.
        t.insert(&rt, 42, b"back").unwrap();
        assert_eq!(t.get(&rt, 42).unwrap(), Some(b"back".to_vec()));
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
            for k in 0..80u64 {
                t.insert(&rt, (k * 37) % 80, &k.to_le_bytes()).unwrap();
            }
            assert_eq!(t.len(&pool).unwrap(), 80, "backend {}", backend.label());
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
