//! A length read from corrupt media is checked against the pool before it
//! sizes a buffer: the lookup fails with a typed error, and the process
//! does not abort on an allocation the length asked for.

use std::sync::Arc;

use clobber_nvm::{Runtime, RuntimeOptions, TxError};
use clobber_pds::hashmap::BUCKETS;
use clobber_pds::HashMap;
use clobber_pmem::{PAddr, PmemError, PmemPool, PoolOptions};

#[test]
fn a_corrupt_value_length_is_out_of_bounds() {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
    HashMap::register(&rt);
    let map = HashMap::create(&rt).unwrap();
    map.insert(&rt, 7, b"value").unwrap();
    // The one node hangs off the one non-null bucket head (the root is
    // `[magic][n_buckets][head_0]...`); a node is `[key][val_ptr][val_len][next]`.
    let node = (0..BUCKETS)
        .map(|b| pool.read_u64(map.root().add(16 + 8 * b)).unwrap())
        .find(|&head| head != 0)
        .unwrap();
    for corrupt in [1 << 40, u64::MAX] {
        pool.write_u64(PAddr::new(node + 16), corrupt).unwrap();
        let err = map.get_sync(&rt, 7).unwrap_err();
        assert!(
            matches!(err, TxError::Pmem(PmemError::OutOfBounds { .. })),
            "length {corrupt:#x}: {err}"
        );
    }
}
