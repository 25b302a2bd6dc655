//! Corrupt media gives typed errors: a length read from it is checked
//! against the pool before it sizes a buffer, every structure's root is
//! checked before it is walked, and a chain that loops is reported, not
//! walked forever.

use std::sync::Arc;

use clobber_nvm::{Runtime, RuntimeOptions, TxError};
use clobber_pds::hashmap::{NODE_NEXT, NODE_VLEN};
use clobber_pds::skiplist::NODE_NEXT0;
use clobber_pds::{AvlTree, BpTree, HashMap, RbTree, SkipList};
use clobber_pmem::{PAddr, PmemError, PmemPool, PoolOptions};

/// A map holding key 7, and the address of key 7's node: the one node
/// hangs off the one non-null bucket head (the root is
/// `[magic][n_buckets][head_0]...`).
fn one_key_map() -> (Arc<PmemPool>, Runtime, HashMap, PAddr) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
    HashMap::register(&rt);
    let map = HashMap::create(&rt).unwrap();
    map.insert(&rt, 7, b"value").unwrap();
    let node = (0..map.buckets())
        .map(|b| pool.read_u64(map.root().add(16 + 8 * b)).unwrap())
        .find(|&head| head != 0)
        .unwrap();
    (pool, rt, map, PAddr::new(node))
}

/// A root that is not a map's — a wrong magic, a bucket count that is not a
/// power of two in `[256, 2^16]`, or bucket heads that run past the pool —
/// is refused when the map is opened, before anything walks it.
#[test]
fn a_corrupt_map_root_is_refused_at_open() {
    let (pool, _rt, map, _) = one_key_map();
    let root = map.root();
    assert_eq!(HashMap::open(&pool, root).unwrap(), map);
    let refused = |root: PAddr, what: &str| {
        let err = HashMap::open(&pool, root).expect_err(what);
        assert!(
            matches!(err, TxError::Pmem(PmemError::CorruptPool(_))),
            "{what}: {err}"
        );
    };
    for corrupt in [0, 3, 1 << 40, 128, 1 << 17] {
        pool.write_u64(root.add(8), corrupt).unwrap();
        refused(root, &format!("n_buckets {corrupt:#x}"));
    }
    pool.write_u64(root.add(8), 256).unwrap();
    let magic = pool.read_u64(root).unwrap();
    pool.write_u64(root, magic ^ 1).unwrap();
    refused(root, "magic");
    // A whole header, whose 256 heads end 8 bytes past the pool.
    let last = PAddr::new(pool.capacity() - 16 - 255 * 8);
    pool.write_u64(last, magic).unwrap();
    pool.write_u64(last.add(8), 256).unwrap();
    refused(last, "heads past the pool");
}

/// The root `create` made opens; a root with a wrong magic, a header whose
/// root block runs past the pool's end, and a root past the pool are each
/// refused at open as a corrupt pool.
fn corrupt_roots_are_refused(
    create: impl Fn(&Runtime) -> PAddr,
    open: impl Fn(&PmemPool, PAddr) -> Result<(), TxError>,
) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
    let root = create(&rt);
    open(&pool, root).unwrap();
    let magic = pool.read_u64(root).unwrap();
    let last = PAddr::new(pool.capacity() - 8);
    pool.write_u64(last, magic).unwrap();
    pool.write_u64(root, magic ^ 1).unwrap();
    for (at, what) in [
        (root, "magic"),
        (last, "root block past the pool's end"),
        (PAddr::new(1 << 40), "root past the pool"),
    ] {
        let err = open(&pool, at).expect_err(what);
        assert!(
            matches!(err, TxError::Pmem(PmemError::CorruptPool(_))),
            "{what}: {err}"
        );
    }
}

#[test]
fn a_corrupt_bptree_root_is_refused_at_open() {
    corrupt_roots_are_refused(
        |rt| BpTree::create(rt).unwrap().root(),
        |pool, root| BpTree::open(pool, root).map(drop),
    );
}

#[test]
fn a_corrupt_skiplist_root_is_refused_at_open() {
    corrupt_roots_are_refused(
        |rt| SkipList::create(rt).unwrap().root(),
        |pool, root| SkipList::open(pool, root).map(drop),
    );
}

#[test]
fn a_corrupt_rbtree_root_is_refused_at_open() {
    corrupt_roots_are_refused(
        |rt| RbTree::create(rt).unwrap().root(),
        |pool, root| RbTree::open(pool, root).map(drop),
    );
}

#[test]
fn a_corrupt_avltree_root_is_refused_at_open() {
    corrupt_roots_are_refused(
        |rt| AvlTree::create(rt).unwrap().root(),
        |pool, root| AvlTree::open(pool, root).map(drop),
    );
}

#[test]
fn a_corrupt_value_length_is_out_of_bounds() {
    let (pool, rt, map, node) = one_key_map();
    for corrupt in [1 << 40, u64::MAX] {
        pool.write_u64(node.add(NODE_VLEN), corrupt).unwrap();
        let err = map.get_sync(&rt, 7).unwrap_err();
        assert!(
            matches!(err, TxError::Pmem(PmemError::OutOfBounds { len, .. }) if len == corrupt),
            "length {corrupt:#x}: {err}"
        );
    }
}

/// A same-length update writes through `val_ptr` without reading the block
/// header: a pointer outside the pool is refused at the call, by every path
/// that follows it. (One inside the pool is written through; DESIGN says
/// why that is accepted.)
#[test]
fn a_value_pointer_outside_the_pool_is_out_of_bounds() {
    let (pool, rt, map, node) = one_key_map();
    // The value pointer is the word before the value's length.
    let val_ptr = node.add(NODE_VLEN - 8);
    for corrupt in [4 << 20, 1 << 40, u64::MAX - 2] {
        pool.write_u64(val_ptr, corrupt).unwrap();
        for (what, r) in [
            ("insert_sync", map.insert_sync(&rt, 7, b"VALUE").map(drop)),
            ("get_sync", map.get_sync(&rt, 7).map(drop)),
            ("snapshot_get", map.snapshot_get(&pool, 7).map(drop)),
        ] {
            let err = r.unwrap_err();
            assert!(
                matches!(err, TxError::Pmem(PmemError::OutOfBounds { .. })),
                "{what}, pointer {corrupt:#x}: {err}"
            );
        }
    }
}

#[test]
fn a_self_looped_node_is_a_corrupt_pool_not_a_hang() {
    let (pool, rt, map, node) = one_key_map();
    // The key after 7 in 7's bucket: its walk must pass 7's node.
    let other = (8..).find(|&k| map.lock_of(k) == map.lock_of(7)).unwrap();
    pool.write_u64(node.add(NODE_NEXT), node.offset()).unwrap();
    let corrupt = |r: Result<(), TxError>, what: &str| {
        let err = r.unwrap_err();
        assert!(
            matches!(err, TxError::Pmem(PmemError::CorruptPool(_))),
            "{what}: {err}"
        );
    };
    corrupt(map.snapshot_get(&pool, other).map(drop), "snapshot_get");
    corrupt(map.get_sync(&rt, other).map(drop), "get_sync");
    corrupt(map.insert_sync(&rt, other, b"x"), "insert_sync");
    corrupt(map.dump(&pool).map(drop), "dump");
}

#[test]
fn a_self_looped_skiplist_node_is_a_corrupt_pool_not_a_hang() {
    let (pool, rt, _, _) = one_key_map();
    SkipList::register(&rt);
    let list = SkipList::create(&rt).unwrap();
    list.insert(&rt, 1, b"one").unwrap();
    // The root is `[magic][max_level][head]`; the one node follows the
    // head at level 0. Its level-0 link now points at itself.
    let head = PAddr::new(pool.read_u64(list.root().add(16)).unwrap());
    let node = pool.read_u64(head.add(NODE_NEXT0)).unwrap();
    pool.write_u64(PAddr::new(node).add(NODE_NEXT0), node)
        .unwrap();
    for err in [
        list.get_sync(&rt, 5).unwrap_err(),
        list.insert_sync(&rt, 5, b"x").unwrap_err(),
    ] {
        assert!(
            matches!(err, TxError::Pmem(PmemError::CorruptPool(_))),
            "{err}"
        );
    }
}
