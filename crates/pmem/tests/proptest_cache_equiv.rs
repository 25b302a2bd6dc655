//! Equivalence of the dense paged line cache against the reference
//! (map-based) model at full-pool granularity.
//!
//! The dense model replaced the original `HashMap<u64, CacheLine>` cache on
//! the hot path; the reference implementation preserves the old semantics
//! verbatim. Random store/flush/fence/crash sequences driven through a
//! reference pool, a dense pool and a dense 4-shard pool must produce
//! identical volatile reads, identical durable media after a seeded crash,
//! and bit-identical stats counters — the counter-preservation contract the
//! benchmarks rely on.
//!
//! The dense model keeps its lines in 4 KiB pages, one per 64-line word,
//! so the script leans on that geometry: stores up to three pages long,
//! stores placed around 4 KiB boundaries, a pool whose capacity is not a
//! multiple of 4 KiB, and a block that straddles a shard boundary (shard
//! bases are line-aligned, not page-aligned, so a shard's pages do not
//! line up with the pool's).

use clobber_pmem::{CrashConfig, PAddr, PmemPool, PoolOptions};
use proptest::prelude::*;

const PAGE: u64 = 4096;
/// 1 MiB and 37 lines: line-aligned, not page-aligned.
const POOL_SIZE: u64 = (1 << 20) + 37 * 64;
const BLOCK: u64 = 64 << 10;
/// Allocated first, so the block under test straddles the end of shard 0.
const PAD: u64 = 224 << 10;
const SHARDS: u64 = 4;

/// One step of the driver script. Offsets/lengths are clipped to the
/// allocated block so pool metadata stays intact and a crashed pool can
/// always be reopened.
#[derive(Clone, Debug)]
enum Op {
    Write(u64, u64, u8),
    /// A store placed relative to the `n`-th 4 KiB boundary of the pool
    /// inside the block: `(n, bytes before the boundary, len, fill)`.
    WriteAt(u64, u64, u64, u8),
    Flush(u64, u64),
    Fence,
    Crash(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..BLOCK, 1u64..256, 0u8..=255).prop_map(|(o, l, b)| Op::Write(o, l, b)),
        1 => (0u64..BLOCK, 1u64..=3 * PAGE, 0u8..=255).prop_map(|(o, l, b)| Op::Write(o, l, b)),
        2 => (0u64..BLOCK / PAGE - 1, 0u64..130, 1u64..300, 0u8..=255)
            .prop_map(|(n, before, l, b)| Op::WriteAt(n, before, l, b)),
        2 => (0u64..BLOCK, 1u64..512).prop_map(|(o, l)| Op::Flush(o, l)),
        1 => (0u64..BLOCK, 1u64..=3 * PAGE).prop_map(|(o, l)| Op::Flush(o, l)),
        2 => (0u64..4u64).prop_map(|_| Op::Fence),
        1 => (0u64..u64::MAX).prop_map(Op::Crash),
    ]
}

fn apply(pool: &mut PmemPool, base: PAddr, op: &Op) {
    let write = |off: u64, len: u64, fill: u8| {
        let len = len.min(BLOCK - off);
        pool.write_bytes(base.add(off), &vec![fill; len as usize])
            .unwrap();
    };
    match *op {
        Op::Write(off, len, fill) => write(off, len, fill),
        Op::WriteAt(n, before, len, fill) => {
            let boundary = base.offset().next_multiple_of(PAGE) + n * PAGE;
            write((boundary - base.offset()).saturating_sub(before), len, fill);
        }
        Op::Flush(off, len) => {
            let len = len.min(BLOCK - off);
            pool.flush(base.add(off), len).unwrap();
        }
        Op::Fence => pool.fence(),
        Op::Crash(seed) => *pool = pool.crash(&CrashConfig::with_seed(seed)).unwrap(),
    }
}

/// A pool with the padding and the block under test allocated.
fn pool_with_block(opts: PoolOptions) -> (PmemPool, PAddr) {
    let pool = PmemPool::create(opts).unwrap();
    pool.alloc(PAD).unwrap();
    let base = pool.alloc(BLOCK).unwrap();
    (pool, base)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn dense_and_reference_caches_are_indistinguishable(
        (ops, final_seed) in (proptest::collection::vec(op_strategy(), 1..60), 0u64..u64::MAX)
    ) {
        let opts = PoolOptions::crash_sim(POOL_SIZE);
        let (mut reference, base) = pool_with_block(opts.with_reference_cache());
        let mut dense = [
            pool_with_block(opts),
            pool_with_block(opts.with_shards(SHARDS as u32)),
        ]
        .map(|(pool, b)| {
            assert_eq!(b, base, "deterministic allocator diverged");
            pool
        });
        prop_assert_eq!(dense[1].shard_count() as u64, SHARDS);
        let shard_end = POOL_SIZE.div_ceil(SHARDS).next_multiple_of(64);
        prop_assert!(
            (base.offset()..base.offset() + BLOCK).contains(&shard_end)
                && !shard_end.is_multiple_of(PAGE),
            "the block straddles a shard boundary that is not a page boundary"
        );

        for op in &ops {
            apply(&mut reference, base, op);
            let vr = reference.read_bytes(base, BLOCK).unwrap();
            for pool in &mut dense {
                apply(pool, base, op);
                // Volatile view (media + cache overlay) must agree after
                // every step, including across mid-sequence crashes.
                let vd = pool.read_bytes(base, BLOCK).unwrap();
                prop_assert!(
                    vd == vr,
                    "volatile reads diverged after {:?} ({} shards)",
                    op,
                    pool.shard_count()
                );
            }
        }

        for pool in dense {
            // Stats counters are part of the contract: every
            // flush/fence/write accounting decision must be identical.
            // (Reads were issued in lock-step above, so read counters
            // match too.)
            prop_assert_eq!(pool.stats().snapshot(), reference.stats().snapshot());

            // The same crash seed must draw the same per-line survival
            // decisions and therefore produce identical durable media.
            let cfg = CrashConfig::with_seed(final_seed);
            prop_assert!(
                pool.crash_media(&cfg) == reference.crash_media(&cfg),
                "durable media diverged after crash ({} shards)",
                pool.shard_count()
            );
        }
    }
}
