//! Pricing and log-identity pins for the hashmap chain walk and the
//! skiplist seek: a node visit is one tracked read, and a walk that reads
//! more than it needs cannot hide, because an update must still log exactly
//! the value words it read and then wrote.

use std::sync::Arc;

use clobber_nvm::{Backend, Runtime, RuntimeOptions};
use clobber_pds::{HashMap, SkipList};
use clobber_pmem::{PmemPool, PoolOptions};

fn runtime() -> (Arc<PmemPool>, Runtime) {
    let pool = Arc::new(PmemPool::create(PoolOptions::performance(64 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(Backend::clobber())).unwrap();
    HashMap::register(&rt);
    SkipList::register(&rt);
    (pool, rt)
}

fn reads(pool: &PmemPool, op: impl FnOnce()) -> u64 {
    let before = pool.stats().snapshot();
    op();
    pool.stats().snapshot().delta(&before).reads
}

/// `(log_entries, log_bytes)` of one operation.
fn logged(pool: &PmemPool, op: impl FnOnce()) -> (u64, u64) {
    let before = pool.stats().snapshot();
    op();
    let d = pool.stats().snapshot().delta(&before);
    (d.log_entries, d.log_bytes)
}

/// The first `n` keys that share key 0's bucket.
fn same_bucket(map: &HashMap, n: usize) -> Vec<u64> {
    (0..)
        .filter(|&k| map.lock_of(k) == map.lock_of(0))
        .take(n)
        .collect()
}

#[test]
fn a_hashmap_lookup_reads_once_per_hop() {
    let (pool, rt) = runtime();
    let map = HashMap::create(&rt).unwrap();
    let bucket = same_bucket(&map, 9);
    let (keys, absent) = bucket.split_at(8);
    for &k in keys {
        map.insert(&rt, k, b"value").unwrap();
    }
    // Inserts prepend: the last key is at depth 1, the first at depth 8.
    // A transaction that only reads adds no read of its own.
    for (depth, &k) in (1u64..).zip(keys.iter().rev()) {
        // The head, one `(key, next)` per hop, `(val_ptr, val_len)`, the bytes.
        let snapshot = reads(&pool, || drop(map.snapshot_get(&pool, k).unwrap()));
        assert_eq!(snapshot, depth + 3, "snapshot_get at depth {depth}");
        let tx = reads(&pool, || drop(map.get(&rt, k).unwrap()));
        assert_eq!(tx, depth + 3, "TX_GET at depth {depth}");
    }
    let miss = reads(&pool, || {
        assert_eq!(map.snapshot_get(&pool, absent[0]).unwrap(), None);
    });
    assert_eq!(miss, 1 + 8, "a miss walks the whole chain");
}

#[test]
fn a_hashmap_resize_logs_the_value_pointer_and_length() {
    let (pool, rt) = runtime();
    let map = HashMap::create(&rt).unwrap();
    let keys = same_bucket(&map, 4);
    for &k in &keys {
        map.insert(&rt, k, b"old").unwrap();
    }
    // The walk passes three nodes and stops at the fourth: only the
    // `(val_ptr, val_len)` pair it read and then wrote is logged, as one
    // 16-byte entry.
    let log = logged(&pool, || map.insert(&rt, keys[0], b"new value").unwrap());
    assert_eq!(log, (1, 16));
    assert_eq!(map.get(&rt, keys[0]).unwrap(), Some(b"new value".to_vec()));
}

#[test]
fn a_same_length_hashmap_update_logs_and_allocates_nothing() {
    let (pool, rt) = runtime();
    let map = HashMap::create(&rt).unwrap();
    let keys = same_bucket(&map, 4);
    for &k in &keys {
        map.insert(&rt, k, b"old value").unwrap();
    }
    // The old bytes are overwritten unread and `val_len` is read unwritten:
    // no input is clobbered, no buffer reserved, none freed.
    let before = pool.stats().snapshot();
    map.insert(&rt, keys[0], b"new value").unwrap();
    let d = pool.stats().snapshot().delta(&before);
    assert_eq!((d.log_entries, d.log_bytes), (0, 0));
    assert_eq!((d.reserves, d.frees), (0, 0));
    assert_eq!(map.get(&rt, keys[0]).unwrap(), Some(b"new value".to_vec()));
}

#[test]
fn skiplist_insert_reads_are_pinned() {
    let (pool, rt) = runtime();
    let list = SkipList::create(&rt).unwrap();
    assert_eq!(list.get(&rt, 0).unwrap(), None); // warm the slot
    let per_insert: Vec<u64> = [50u64, 10, 90, 30, 70, 20, 60, 1, 99, 45]
        .iter()
        .map(|&k| reads(&pool, || list.insert(&rt, k, &k.to_le_bytes()).unwrap()))
        .collect();
    // The seek: the head pointer, the head's 32 next pointers, one key per
    // node compared, one `next[0..=l]` per node advanced to. Then one read
    // for the allocations and one pre-image per pred slot.
    assert_eq!(per_insert, [4, 6, 8, 7, 16, 10, 18, 8, 8, 16]);
}

#[test]
fn a_skiplist_update_logs_exactly_the_value_pointer() {
    let (pool, rt) = runtime();
    let list = SkipList::create(&rt).unwrap();
    for k in 0..16u64 {
        list.insert(&rt, k, b"old").unwrap();
    }
    let log = logged(&pool, || list.insert(&rt, 9, b"new value").unwrap());
    assert_eq!(log, (1, 8));
    assert_eq!(list.get(&rt, 9).unwrap(), Some(b"new value".to_vec()));
}
