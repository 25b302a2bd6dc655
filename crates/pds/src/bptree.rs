//! Persistent B+Tree with 32-byte keys and per-leaf reader-writer locks.
//!
//! The paper's B+Tree "uses reader-writer locks at the granularity of
//! individual nodes, stores keys in the internal nodes, and adds both the
//! key and the value to the leaf nodes" with 32-byte keys (§5.2) — it is
//! the structure that scales best in Fig. 6 because independent inserts
//! touch disjoint leaves. Structure modifications (splits) additionally
//! take a tree-level lock in the simulated-lock model.
//!
//! Node layout (8-key nodes, 512-byte blocks):
//!
//! ```text
//! header:   [tag][nkeys]                      tag: 1 = leaf, 2 = internal
//! keys:     8 × 32 bytes at offset 16
//! leaf:     8 × [val_ptr][val_len] at 272, next-leaf pointer at 400
//! internal: 9 × child pointer at 272
//! ```
//!
//! Deletion is *lazy* (keys are removed from leaves without merging), a
//! common B+Tree simplification; the paper's workloads are insert/lookup.

use std::cmp::Ordering;

use clobber_nvm::{ArgList, Runtime, Tx, TxError};
use clobber_pmem::{PAddr, PmemPool};

use crate::value::{check_root, cmp_key32, key32, store_value};

const MAGIC: u64 = 0xC10B_0005;
/// Bytes of the root block.
const ROOT_LEN: u64 = 16;

const TAG: u64 = 0;
const NKEYS: u64 = 8;
const KEYS: u64 = 16;
/// Key capacity per node.
pub const CAP: u64 = 8;
const KEY_LEN: u64 = 32;
const LEAF_VALS: u64 = KEYS + CAP * KEY_LEN; // 272
const LEAF_NEXT: u64 = LEAF_VALS + CAP * 16; // 400
const CHILDREN: u64 = KEYS + CAP * KEY_LEN; // 272
const NODE_SIZE: u64 = 512;

const TAG_LEAF: u64 = 1;
const TAG_INTERNAL: u64 = 2;

/// Key/value byte pairs returned by scans and dumps, in key order.
pub type KvPairs = Vec<(Vec<u8>, Vec<u8>)>;

/// Handle to a persistent B+Tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpTree {
    root: PAddr,
}

/// Insert txfunc name.
pub const TX_INSERT: &str = "bptree_insert";
/// Lookup txfunc name.
pub const TX_GET: &str = "bptree_get";
/// Removal txfunc name.
pub const TX_REMOVE: &str = "bptree_remove";

fn key_addr(node: PAddr, i: u64) -> PAddr {
    node.add(KEYS + i * KEY_LEN)
}

fn val_addr(node: PAddr, i: u64) -> PAddr {
    node.add(LEAF_VALS + i * 16)
}

fn child_addr(node: PAddr, i: u64) -> PAddr {
    node.add(CHILDREN + i * 8)
}

/// Reads key `i` of `node` into a stack buffer: key reads happen on every
/// step of every search loop, so they must not allocate. One key per read:
/// a search loading all keys at once logs the same bytes, but its Fig. 6
/// t4/t1 (1.515×) sits 1 % above `bptree_scales_with_per_leaf_locks`'s 1.5×.
fn read_key(tx: &mut Tx<'_>, node: PAddr, i: u64) -> Result<[u8; KEY_LEN as usize], TxError> {
    let mut k = [0u8; KEY_LEN as usize];
    tx.read_into(key_addr(node, i), &mut k)?;
    Ok(k)
}

/// Finds the position of `key` among the node's keys: `Ok(i)` if equal to
/// key `i`, `Err(i)` for the insertion point.
fn search(tx: &mut Tx<'_>, node: PAddr, key: &[u8]) -> Result<Result<u64, u64>, TxError> {
    let n = tx.read_u64(node.add(NKEYS))?;
    for i in 0..n {
        let k = read_key(tx, node, i)?;
        match cmp_key32(key, &k) {
            Ordering::Equal => return Ok(Ok(i)),
            Ordering::Less => return Ok(Err(i)),
            Ordering::Greater => {}
        }
    }
    Ok(Err(n))
}

fn new_node(tx: &mut Tx<'_>, tag: u64) -> Result<PAddr, TxError> {
    let n = tx.pmalloc(NODE_SIZE)?;
    tx.write_u64(n.add(TAG), tag)?;
    tx.write_u64(n.add(NKEYS), 0)?;
    Ok(n)
}

/// Shifts leaf entries `[from..n)` one slot right with two bulk moves
/// (keys, then value descriptors), as a memmove-based C implementation
/// would: the destination overlaps the just-read source, producing one
/// coalesced clobber entry per region instead of one per slot.
fn leaf_shift_right(tx: &mut Tx<'_>, node: PAddr, from: u64, n: u64) -> Result<(), TxError> {
    if n == from {
        return Ok(());
    }
    let klen = ((n - from) * KEY_LEN) as usize;
    let mut keys = [0u8; (CAP * KEY_LEN) as usize];
    tx.read_into(key_addr(node, from), &mut keys[..klen])?;
    tx.write_bytes(key_addr(node, from + 1), &keys[..klen])?;
    let vlen = ((n - from) * 16) as usize;
    let mut vals = [0u8; (CAP * 16) as usize];
    tx.read_into(val_addr(node, from), &mut vals[..vlen])?;
    tx.write_bytes(val_addr(node, from + 1), &vals[..vlen])?;
    Ok(())
}

/// Shifts internal separators `[from..n)` and children `[from+1..=n]` one
/// slot right with bulk moves.
fn internal_shift_right(tx: &mut Tx<'_>, node: PAddr, from: u64, n: u64) -> Result<(), TxError> {
    if n == from {
        return Ok(());
    }
    let klen = ((n - from) * KEY_LEN) as usize;
    let mut keys = [0u8; (CAP * KEY_LEN) as usize];
    tx.read_into(key_addr(node, from), &mut keys[..klen])?;
    tx.write_bytes(key_addr(node, from + 1), &keys[..klen])?;
    let clen = ((n - from) * 8) as usize;
    let mut children = [0u8; (CAP * 8) as usize];
    tx.read_into(child_addr(node, from + 1), &mut children[..clen])?;
    tx.write_bytes(child_addr(node, from + 2), &children[..clen])?;
    Ok(())
}

fn leaf_set(
    tx: &mut Tx<'_>,
    node: PAddr,
    i: u64,
    key: &[u8],
    vptr: PAddr,
    vlen: u64,
) -> Result<(), TxError> {
    tx.write_bytes(key_addr(node, i), key)?;
    tx.write_paddr(val_addr(node, i), vptr)?;
    tx.write_u64(val_addr(node, i).add(8), vlen)?;
    Ok(())
}

/// Inserts into the subtree at `node`; on split returns the separator key
/// and the new right sibling.
fn insert_rec(
    tx: &mut Tx<'_>,
    node: PAddr,
    key: &[u8],
    value: &[u8],
) -> Result<Option<([u8; KEY_LEN as usize], PAddr)>, TxError> {
    let tag = tx.read_u64(node.add(TAG))?;
    if tag == TAG_LEAF {
        let n = tx.read_u64(node.add(NKEYS))?;
        match search(tx, node, key)? {
            Ok(i) => {
                // Update in place: fresh buffer, swap pointer, free old.
                let old = tx.read_paddr(val_addr(node, i))?;
                let vbuf = store_value(tx, value)?;
                tx.write_paddr(val_addr(node, i), vbuf)?;
                tx.write_u64(val_addr(node, i).add(8), value.len() as u64)?;
                tx.pfree(old)?;
                Ok(None)
            }
            Err(pos) => {
                let vbuf = store_value(tx, value)?;
                if n < CAP {
                    leaf_shift_right(tx, node, pos, n)?;
                    leaf_set(tx, node, pos, key, vbuf, value.len() as u64)?;
                    tx.write_u64(node.add(NKEYS), n + 1)?;
                    return Ok(None);
                }
                // Split: upper half moves to a fresh right sibling.
                let right = new_node(tx, TAG_LEAF)?;
                let half = CAP / 2;
                for i in half..CAP {
                    let k = read_key(tx, node, i)?;
                    let mut v = [0u8; 16];
                    tx.read_into(val_addr(node, i), &mut v)?;
                    tx.write_bytes(key_addr(right, i - half), &k)?;
                    tx.write_bytes(val_addr(right, i - half), &v)?;
                }
                tx.write_u64(right.add(NKEYS), CAP - half)?;
                tx.write_u64(node.add(NKEYS), half)?;
                let old_next = tx.read_paddr(node.add(LEAF_NEXT))?;
                tx.write_paddr(right.add(LEAF_NEXT), old_next)?;
                tx.write_paddr(node.add(LEAF_NEXT), right)?;
                // Insert into the correct half (both have room now).
                let (target, tpos) = if pos <= half {
                    (node, pos)
                } else {
                    (right, pos - half)
                };
                let tn = tx.read_u64(target.add(NKEYS))?;
                leaf_shift_right(tx, target, tpos, tn)?;
                leaf_set(tx, target, tpos, key, vbuf, value.len() as u64)?;
                tx.write_u64(target.add(NKEYS), tn + 1)?;
                let sep = read_key(tx, right, 0)?;
                Ok(Some((sep, right)))
            }
        }
    } else {
        let n = tx.read_u64(node.add(NKEYS))?;
        let idx = match search(tx, node, key)? {
            Ok(i) => i + 1, // equal separator: key lives in the right child
            Err(i) => i,
        };
        let child = tx.read_paddr(child_addr(node, idx))?;
        let split = insert_rec(tx, child, key, value)?;
        let (sep, right) = match split {
            None => return Ok(None),
            Some(s) => s,
        };
        if n < CAP {
            // Shift separators and children right of idx (bulk memmove).
            internal_shift_right(tx, node, idx, n)?;
            tx.write_bytes(key_addr(node, idx), &sep)?;
            tx.write_paddr(child_addr(node, idx + 1), right)?;
            tx.write_u64(node.add(NKEYS), n + 1)?;
            return Ok(None);
        }
        // Split the internal node: median separator moves up.
        let right_node = new_node(tx, TAG_INTERNAL)?;
        let mid = CAP / 2; // median index
        let median = read_key(tx, node, mid)?;
        for i in mid + 1..CAP {
            let k = read_key(tx, node, i)?;
            tx.write_bytes(key_addr(right_node, i - mid - 1), &k)?;
        }
        for i in mid + 1..=CAP {
            let c = tx.read_paddr(child_addr(node, i))?;
            tx.write_paddr(child_addr(right_node, i - mid - 1), c)?;
        }
        tx.write_u64(right_node.add(NKEYS), CAP - mid - 1)?;
        tx.write_u64(node.add(NKEYS), mid)?;
        // Now place (sep, right) into the proper half.
        let (target, tidx) = if cmp_key32(&sep, &median) == Ordering::Less {
            (node, idx)
        } else {
            (right_node, idx - mid - 1)
        };
        let tn = tx.read_u64(target.add(NKEYS))?;
        internal_shift_right(tx, target, tidx, tn)?;
        tx.write_bytes(key_addr(target, tidx), &sep)?;
        tx.write_paddr(child_addr(target, tidx + 1), right)?;
        tx.write_u64(target.add(NKEYS), tn + 1)?;
        Ok(Some((median, right_node)))
    }
}

impl BpTree {
    /// Allocates and formats an empty tree (a single empty leaf).
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the pool is exhausted.
    pub fn create(rt: &Runtime) -> Result<BpTree, TxError> {
        let pool = rt.pool();
        let root = pool.alloc(ROOT_LEN)?;
        let leaf = pool.alloc(NODE_SIZE)?;
        pool.write_u64(leaf.add(TAG), TAG_LEAF)?;
        pool.persist(leaf, NODE_SIZE)?;
        pool.write_u64(root, MAGIC)?;
        pool.write_u64(root.add(8), leaf.offset())?;
        pool.persist(root, ROOT_LEN)?;
        Ok(BpTree { root })
    }

    /// Adopts the tree at `root`.
    ///
    /// # Errors
    ///
    /// Returns a `CorruptPool` error if `root` holds no B+-tree header or
    /// its root block runs past the pool.
    pub fn open(pool: &PmemPool, root: PAddr) -> Result<BpTree, TxError> {
        check_root(pool, root, ROOT_LEN, MAGIC, "B+-tree")?;
        Ok(BpTree { root })
    }

    /// The tree's root-block address.
    pub fn root(&self) -> PAddr {
        self.root
    }

    /// Registers the tree's txfuncs.
    pub fn register(rt: &Runtime) {
        rt.register(TX_INSERT, |tx, args| {
            let root_block = PAddr::new(args.u64(0)?);
            let key = args.bytes(1)?;
            let value = args.bytes(2)?;
            let root = tx.read_paddr(root_block.add(8))?;
            if let Some((sep, right)) = insert_rec(tx, root, key, value)? {
                let new_root = new_node(tx, TAG_INTERNAL)?;
                tx.write_bytes(key_addr(new_root, 0), &sep)?;
                tx.write_paddr(child_addr(new_root, 0), root)?;
                tx.write_paddr(child_addr(new_root, 1), right)?;
                tx.write_u64(new_root.add(NKEYS), 1)?;
                tx.write_paddr(root_block.add(8), new_root)?;
            }
            Ok(None)
        });
        rt.register(TX_GET, |tx, args| {
            let root_block = PAddr::new(args.u64(0)?);
            let key = args.bytes(1)?;
            let mut node = tx.read_paddr(root_block.add(8))?;
            loop {
                let tag = tx.read_u64(node.add(TAG))?;
                if tag == TAG_LEAF {
                    return match search(tx, node, key)? {
                        Ok(i) => {
                            let ptr = tx.read_paddr(val_addr(node, i))?;
                            let len = tx.read_u64(val_addr(node, i).add(8))?;
                            Ok(Some(tx.read_bytes(ptr, len)?))
                        }
                        Err(_) => Ok(None),
                    };
                }
                let idx = match search(tx, node, key)? {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                node = tx.read_paddr(child_addr(node, idx))?;
            }
        });
        rt.register(TX_REMOVE, |tx, args| {
            let root_block = PAddr::new(args.u64(0)?);
            let key = args.bytes(1)?;
            let mut node = tx.read_paddr(root_block.add(8))?;
            loop {
                let tag = tx.read_u64(node.add(TAG))?;
                if tag == TAG_LEAF {
                    return match search(tx, node, key)? {
                        Ok(i) => {
                            let n = tx.read_u64(node.add(NKEYS))?;
                            let vptr = tx.read_paddr(val_addr(node, i))?;
                            // Shift left over the removed slot (bulk move).
                            if i + 1 < n {
                                let klen = ((n - i - 1) * KEY_LEN) as usize;
                                let mut keys = [0u8; (CAP * KEY_LEN) as usize];
                                tx.read_into(key_addr(node, i + 1), &mut keys[..klen])?;
                                tx.write_bytes(key_addr(node, i), &keys[..klen])?;
                                let vlen = ((n - i - 1) * 16) as usize;
                                let mut vals = [0u8; (CAP * 16) as usize];
                                tx.read_into(val_addr(node, i + 1), &mut vals[..vlen])?;
                                tx.write_bytes(val_addr(node, i), &vals[..vlen])?;
                            }
                            tx.write_u64(node.add(NKEYS), n - 1)?;
                            tx.pfree(vptr)?;
                            Ok(Some(vec![1]))
                        }
                        Err(_) => Ok(Some(vec![0])),
                    };
                }
                let idx = match search(tx, node, key)? {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                node = tx.read_paddr(child_addr(node, idx))?;
            }
        });
    }

    fn args_key(&self, key: &[u8]) -> ArgList {
        ArgList::new().with_u64(self.root.offset()).with_bytes(key)
    }

    /// Inserts or updates a 32-byte key.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not exactly 32 bytes.
    pub fn insert(&self, rt: &Runtime, key: &[u8], value: &[u8]) -> Result<(), TxError> {
        assert_eq!(key.len(), KEY_LEN as usize, "B+Tree keys are 32 bytes");
        rt.run(TX_INSERT, &self.args_key(key).with_bytes(value))?;
        Ok(())
    }

    /// Inserts a `u64` key id via the canonical [`key32`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn insert_u64(&self, rt: &Runtime, key: u64, value: &[u8]) -> Result<(), TxError> {
        self.insert(rt, &key32(key), value)
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
        key: &[u8],
        value: &[u8],
    ) -> Result<(), TxError> {
        rt.run_on(slot, TX_INSERT, &self.args_key(key).with_bytes(value))?;
        Ok(())
    }

    /// Looks a 32-byte key up.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn get(&self, rt: &Runtime, key: &[u8]) -> Result<Option<Vec<u8>>, TxError> {
        rt.run(TX_GET, &self.args_key(key))
    }

    /// Looks a `u64` key id up.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn get_u64(&self, rt: &Runtime, key: u64) -> Result<Option<Vec<u8>>, TxError> {
        self.get(rt, &key32(key))
    }

    /// Looks a `u64` key id up on an explicit logical-thread slot.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn get_u64_on(
        &self,
        rt: &Runtime,
        slot: usize,
        key: u64,
    ) -> Result<Option<Vec<u8>>, TxError> {
        rt.run_on(slot, TX_GET, &self.args_key(&key32(key)))
    }

    /// Removes a 32-byte key; returns `true` if present.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn remove(&self, rt: &Runtime, key: &[u8]) -> Result<bool, TxError> {
        Ok(rt.run(TX_REMOVE, &self.args_key(key))? == Some(vec![1]))
    }

    /// Finds the leaf that would hold `key` plus whether inserting would
    /// split it — the information the simulated-lock model needs to build
    /// the per-leaf lock set *before* executing (read-only, no locking
    /// needed: the discrete-event executor runs operations one at a time).
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt tree.
    pub fn locate_leaf(&self, pool: &PmemPool, key: &[u8]) -> Result<(PAddr, bool), TxError> {
        let (leaf, full, _) = self.locate_leaf_path(pool, key)?;
        Ok((leaf, full))
    }

    /// Like [`locate_leaf`](Self::locate_leaf) but also returns the leaf's
    /// parent (`None` when the leaf is the root) — the lock a hand-over-hand
    /// split acquires in addition to the leaf.
    pub fn locate_leaf_path(
        &self,
        pool: &PmemPool,
        key: &[u8],
    ) -> Result<(PAddr, bool, Option<PAddr>), TxError> {
        let mut parent = None;
        let mut node = PAddr::new(pool.read_u64(self.root.add(8))?);
        loop {
            let tag = pool.read_u64(node.add(TAG))?;
            let n = pool.read_u64(node.add(NKEYS))?;
            if tag == TAG_LEAF {
                return Ok((node, n >= CAP, parent));
            }
            let mut idx = n;
            let mut k = [0u8; KEY_LEN as usize];
            for i in 0..n {
                pool.read_into(key_addr(node, i), &mut k)?;
                match cmp_key32(key, &k) {
                    Ordering::Less => {
                        idx = i;
                        break;
                    }
                    Ordering::Equal => {
                        idx = i + 1;
                        break;
                    }
                    Ordering::Greater => {}
                }
            }
            parent = Some(node);
            node = PAddr::new(pool.read_u64(child_addr(node, idx))?);
        }
    }

    /// The tree-level structure-modification lock id.
    pub fn smo_lock(&self) -> u64 {
        self.root.offset().wrapping_mul(31)
    }

    /// The per-leaf lock id for `leaf`.
    pub fn leaf_lock(&self, leaf: PAddr) -> u64 {
        self.root.offset().wrapping_mul(31) ^ leaf.offset()
    }

    /// Range scan: up to `count` key/value pairs with keys `>= start`, in
    /// order, walking the leaf chain (the reason B+Tree leaves are linked).
    /// Read-only; the caller holds the appropriate shared locks, as with
    /// every read in the paper's locking model.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt tree.
    pub fn range(&self, pool: &PmemPool, start: &[u8], count: usize) -> Result<KvPairs, TxError> {
        let (mut leaf, _, _) = self.locate_leaf_path(pool, start)?;
        let mut out = Vec::new();
        let mut k = [0u8; KEY_LEN as usize];
        while !leaf.is_null() && out.len() < count {
            let n = pool.read_u64(leaf.add(NKEYS))?;
            for i in 0..n {
                if out.len() >= count {
                    break;
                }
                pool.read_into(key_addr(leaf, i), &mut k)?;
                if cmp_key32(&k, start) == Ordering::Less {
                    continue;
                }
                let ptr = PAddr::new(pool.read_u64(val_addr(leaf, i))?);
                let len = pool.read_u64(val_addr(leaf, i).add(8))?;
                out.push((k.to_vec(), pool.read_bytes(ptr, len)?));
            }
            leaf = PAddr::new(pool.read_u64(leaf.add(LEAF_NEXT))?);
        }
        Ok(out)
    }

    /// Full structural check: sorted keys everywhere, uniform leaf depth,
    /// correct separator bounds, and a leaf chain that matches the in-order
    /// traversal. Returns all `(key, value)` pairs in order.
    ///
    /// # Errors
    ///
    /// Returns a `CorruptPool` error if the root holds no B+-tree
    /// header, and [`TxError::Pmem`] on a failed read.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated (this is a checker).
    pub fn dump(&self, pool: &PmemPool) -> Result<KvPairs, TxError> {
        check_root(pool, self.root, ROOT_LEN, MAGIC, "B+-tree")?;
        let root = PAddr::new(pool.read_u64(self.root.add(8))?);
        let mut out = Vec::new();
        let mut leaves = Vec::new();
        fn walk(
            pool: &PmemPool,
            node: PAddr,
            depth: u64,
            leaf_depth: &mut Option<u64>,
            out: &mut KvPairs,
            leaves: &mut Vec<PAddr>,
        ) -> Result<(), TxError> {
            let tag = pool.read_u64(node.add(TAG))?;
            let n = pool.read_u64(node.add(NKEYS))?;
            assert!(n <= CAP, "node overflow");
            // Keys sorted within the node.
            for i in 1..n {
                let a = pool.read_bytes(key_addr(node, i - 1), KEY_LEN)?;
                let b = pool.read_bytes(key_addr(node, i), KEY_LEN)?;
                assert_eq!(cmp_key32(&a, &b), Ordering::Less, "unsorted node keys");
            }
            if tag == TAG_LEAF {
                match leaf_depth {
                    None => *leaf_depth = Some(depth),
                    Some(d) => assert_eq!(*d, depth, "leaves at different depths"),
                }
                leaves.push(node);
                for i in 0..n {
                    let k = pool.read_bytes(key_addr(node, i), KEY_LEN)?;
                    let ptr = PAddr::new(pool.read_u64(val_addr(node, i))?);
                    let len = pool.read_u64(val_addr(node, i).add(8))?;
                    out.push((k, pool.read_bytes(ptr, len)?));
                }
                return Ok(());
            }
            assert_eq!(tag, TAG_INTERNAL, "bad node tag");
            for i in 0..=n {
                let c = PAddr::new(pool.read_u64(child_addr(node, i))?);
                assert!(!c.is_null(), "missing child");
                walk(pool, c, depth + 1, leaf_depth, out, leaves)?;
            }
            Ok(())
        }
        let mut leaf_depth = None;
        walk(pool, root, 0, &mut leaf_depth, &mut out, &mut leaves)?;
        // Global order.
        for w in out.windows(2) {
            assert_eq!(
                cmp_key32(&w[0].0, &w[1].0),
                Ordering::Less,
                "global key order violated"
            );
        }
        // Leaf chain equals in-order leaf sequence.
        if let Some(&first) = leaves.first() {
            let mut cur = first;
            for &expect in &leaves[1..] {
                let nxt = PAddr::new(pool.read_u64(cur.add(LEAF_NEXT))?);
                assert_eq!(nxt, expect, "leaf chain out of order");
                cur = nxt;
            }
        }
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

    fn setup(backend: Backend) -> (Arc<PmemPool>, Runtime, BpTree) {
        let pool = Arc::new(PmemPool::create(PoolOptions::performance(128 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        BpTree::register(&rt);
        let t = BpTree::create(&rt).unwrap();
        (pool, rt, t)
    }

    #[test]
    fn single_leaf_inserts_and_lookups() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in [5u64, 1, 3] {
            t.insert_u64(&rt, k, &k.to_le_bytes()).unwrap();
        }
        assert_eq!(
            t.get_u64(&rt, 3).unwrap(),
            Some(3u64.to_le_bytes().to_vec())
        );
        assert_eq!(t.get_u64(&rt, 4).unwrap(), None);
        assert_eq!(t.len(&pool).unwrap(), 3);
    }

    #[test]
    fn splits_preserve_order_and_depth() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in 0..500u64 {
            t.insert_u64(&rt, (k * 2_654_435_761) % 100_000, &k.to_le_bytes())
                .unwrap();
        }
        let dumped = t.dump(&pool).unwrap();
        assert!(
            dumped.len() >= 499,
            "dup collisions aside, most keys present"
        );
    }

    #[test]
    fn ascending_and_descending_inserts() {
        for keys in [
            (0..200u64).collect::<Vec<_>>(),
            (0..200u64).rev().collect::<Vec<_>>(),
        ] {
            let (pool, rt, t) = setup(Backend::clobber());
            for &k in &keys {
                t.insert_u64(&rt, k, &k.to_le_bytes()).unwrap();
            }
            assert_eq!(t.len(&pool).unwrap(), 200);
            for &k in &keys {
                assert_eq!(
                    t.get_u64(&rt, k).unwrap(),
                    Some(k.to_le_bytes().to_vec()),
                    "key {k}"
                );
            }
        }
    }

    #[test]
    fn update_replaces_value() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in 0..50u64 {
            t.insert_u64(&rt, k, b"old").unwrap();
        }
        t.insert_u64(&rt, 25, b"new-value").unwrap();
        assert_eq!(t.get_u64(&rt, 25).unwrap(), Some(b"new-value".to_vec()));
        assert_eq!(t.len(&pool).unwrap(), 50);
    }

    #[test]
    fn remove_deletes_from_leaf() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in 0..100u64 {
            t.insert_u64(&rt, k, &k.to_le_bytes()).unwrap();
        }
        assert!(t.remove(&rt, &key32(42)).unwrap());
        assert!(!t.remove(&rt, &key32(42)).unwrap());
        assert_eq!(t.get_u64(&rt, 42).unwrap(), None);
        assert_eq!(t.len(&pool).unwrap(), 99);
        t.dump(&pool).unwrap();
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
            for k in 0..150u64 {
                t.insert_u64(&rt, (k * 37) % 1000, &k.to_le_bytes())
                    .unwrap();
            }
            assert_eq!(t.len(&pool).unwrap(), 150, "backend {}", backend.label());
        }
    }

    #[test]
    fn range_scans_walk_the_leaf_chain() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in 0..100u64 {
            t.insert_u64(&rt, k * 2, &k.to_le_bytes()).unwrap();
        }
        let got = t.range(&pool, &key32(50), 10).unwrap();
        assert_eq!(got.len(), 10);
        let keys: Vec<u64> = got
            .iter()
            .map(|(k, _)| u64::from_be_bytes(k[24..32].try_into().unwrap()))
            .collect();
        assert_eq!(keys, (25..35).map(|k| k * 2).collect::<Vec<_>>());
        // A scan past the end returns what is left.
        assert_eq!(t.range(&pool, &key32(190), 10).unwrap().len(), 5);
        assert!(t.range(&pool, &key32(500), 10).unwrap().is_empty());
    }

    #[test]
    fn locate_leaf_predicts_splits() {
        let (pool, rt, t) = setup(Backend::clobber());
        // Fill one leaf to capacity.
        for k in 0..CAP {
            t.insert_u64(&rt, k, b"x").unwrap();
        }
        let (_, full) = t.locate_leaf(&pool, &key32(100)).unwrap();
        assert!(full, "a full leaf predicts a split");
        t.insert_u64(&rt, 100, b"x").unwrap();
        let (_, full) = t.locate_leaf(&pool, &key32(101)).unwrap();
        assert!(!full, "after the split there is room");
    }

    #[test]
    fn distinct_leaves_have_distinct_locks() {
        let (pool, rt, t) = setup(Backend::clobber());
        for k in 0..100u64 {
            t.insert_u64(&rt, k, b"x").unwrap();
        }
        let (l1, _) = t.locate_leaf(&pool, &key32(0)).unwrap();
        let (l2, _) = t.locate_leaf(&pool, &key32(99)).unwrap();
        assert_ne!(l1, l2);
        assert_ne!(t.leaf_lock(l1), t.leaf_lock(l2));
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
