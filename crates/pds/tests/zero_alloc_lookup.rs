//! Proves the read-only descents and chain walks are allocation-free, with
//! a counting global allocator: the B+Tree descent, the hashmap chain walk
//! and the skiplist seek.
//!
//! PR 1 moved the pool's read hot path onto `read_into` (zero-copy), but
//! two `pds` loops kept the allocating `read_bytes` compat wrapper: the
//! separator-key comparisons in `locate_leaf_path` and the key filter in
//! `range`. Both now read into a stack buffer; this test pins that.
//!
//! This file intentionally holds a single test: the counter is global, so a
//! concurrently running test in the same binary would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clobber_nvm::{Runtime, RuntimeOptions};
use clobber_pds::value::key32;
use clobber_pds::{BpTree, HashMap, SkipList};
use clobber_pmem::{PmemPool, PoolOptions};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

#[test]
fn descents_and_chain_walks_do_not_allocate() {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(16 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
    BpTree::register(&rt);
    let tree = BpTree::create(&rt).unwrap();
    // Enough keys to force inner nodes, so the descent actually compares
    // separator keys on its way down.
    for k in 0..96u64 {
        tree.insert_u64(&rt, k, &k.to_le_bytes()).unwrap();
    }

    // Warm-up: first reads may size pooled buffers inside the pool.
    for k in [0u64, 40, 95] {
        tree.locate_leaf(&pool, &key32(k)).unwrap();
    }

    // The descent — root to leaf through separator comparisons — must not
    // touch the heap at all.
    let start = ALLOCS.load(Ordering::Relaxed);
    for k in 0..96u64 {
        tree.locate_leaf_path(&pool, &key32(k)).unwrap();
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - start;
    assert_eq!(delta, 0, "locate_leaf_path allocated {delta} time(s)");

    // `range` allocates only for the pairs it returns, not for the keys it
    // scans and filters out: the same `count` from two different starting
    // points (one forcing a long skip over smaller keys in the leaf) costs
    // the same number of allocations.
    let probe = |start_key: u64| {
        let s = ALLOCS.load(Ordering::Relaxed);
        let pairs = tree.range(&pool, &key32(start_key), 4).unwrap();
        assert_eq!(pairs.len(), 4);
        ALLOCS.load(Ordering::Relaxed) - s
    };
    let near = probe(1); // skips key 0 within its leaf
    let far = probe(61); // skips many keys across the scan
    assert_eq!(
        near, far,
        "range allocations must not scale with skipped keys"
    );
    // 4 key copies + 4 value reads + output vec growth.
    assert!(near <= 12, "range(4) allocated {near} times");

    // A hashmap miss walks a whole chain (16 nodes on average here), and
    // a skiplist `range` of nothing is its seek alone: neither allocates.
    HashMap::register(&rt);
    SkipList::register(&rt);
    let (map, list) = (
        HashMap::create(&rt).unwrap(),
        SkipList::create(&rt).unwrap(),
    );
    for k in 0..4096u64 {
        map.insert(&rt, k, &k.to_le_bytes()).unwrap();
    }
    for k in 0..256u64 {
        list.insert(&rt, k * 2, &k.to_le_bytes()).unwrap();
    }
    let start = ALLOCS.load(Ordering::Relaxed);
    for k in 4096..4352u64 {
        assert_eq!(map.snapshot_get(&pool, k).unwrap(), None);
        assert!(list.range(&pool, k - 4096, 0).unwrap().is_empty());
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - start;
    assert_eq!(delta, 0, "chain walks and seeks allocated {delta} time(s)");
}
