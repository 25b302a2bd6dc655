//! Property-based tests of the persistent allocator and the crash model.

use clobber_pmem::{CrashConfig, HeapReport, PAddr, PmemPool, PoolMode, PoolOptions};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum AllocOp {
    /// Allocate a block of the given size.
    Alloc(u64),
    /// Free the i-th live block (modulo the live count).
    Free(usize),
}

fn ops_strategy() -> impl Strategy<Value = Vec<AllocOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (1u64..600).prop_map(AllocOp::Alloc),
            2 => (0usize..64).prop_map(AllocOp::Free),
        ],
        1..60,
    )
}

/// Request sizes of the transaction scripts: four small classes (two of
/// them short of their class capacity) and one huge block.
const SIZES: [u64; 5] = [24, 64, 100, 200, 5000];

/// One allocator-visible step of a transaction, as `Tx` drives the pool.
#[derive(Debug, Clone)]
enum TxOp {
    /// `pmalloc` of `SIZES[i]` plus a first store: reserve, flush `size`
    /// (not capacity), store one word.
    Reserve(usize),
    /// `pfree` of this transaction's i-th live reservation (modulo).
    Kill(usize),
    /// `pfree` of the i-th published block (modulo): freed after commit.
    Free(usize),
    /// An immediate `free_many` of published blocks (each index modulo),
    /// while this transaction's reservations are outstanding — the mirror
    /// top is not the media head.
    FreeMany(Vec<usize>),
    /// Another transaction's reservation, held open across the settles of
    /// later transactions: reserve `SIZES[i]` if none is held, otherwise
    /// commit the held one (publish, fence).
    Hold(usize),
}

/// Transactions, each a list of steps and whether it commits.
type Script = Vec<(Vec<TxOp>, bool)>;

fn script_strategy() -> impl Strategy<Value = Script> {
    let op = prop_oneof![
        4 => (0usize..SIZES.len()).prop_map(TxOp::Reserve),
        2 => (0usize..64).prop_map(TxOp::Kill),
        2 => (0usize..64).prop_map(TxOp::Free),
        1 => proptest::collection::vec(0usize..64, 0..8).prop_map(TxOp::FreeMany),
        1 => (0usize..SIZES.len()).prop_map(TxOp::Hold),
    ];
    proptest::collection::vec(
        (
            proptest::collection::vec(op, 0..12),
            (0u8..4).prop_map(|c| c != 0),
        ),
        1..16,
    )
}

/// What a script run leaves behind, for comparison across shard counts and
/// between batched and one-by-one frees.
struct Outcome {
    /// Every address handed out, then what a drain of each class's free
    /// stack yields: the mirrors' order made visible.
    handed_out: Vec<PAddr>,
    reports: Vec<HeapReport>,
    /// The media after a final fence.
    media: Vec<u8>,
}

/// Runs `script` one transaction at a time on a fresh pool, walking the
/// heap after each — live, and reopened from a `drop_all` crash image, in
/// which every published block must still be allocated — then crashes and
/// counts what survived. `batched` frees every batch with one `free_many`,
/// otherwise block by block.
fn run_script(shards: u32, batched: bool, script: &Script) -> Result<Outcome, TestCaseError> {
    let opts = PoolOptions::crash_sim(4 << 20).with_shards(shards);
    let pool = PmemPool::create(opts).unwrap();
    let free_all = |v: &[PAddr]| {
        if batched {
            pool.free_many(v).unwrap()
        } else {
            v.iter().for_each(|&b| pool.free(b).unwrap())
        }
    };
    let (mut handed_out, mut reports) = (Vec::new(), Vec::new());
    let mut published = vec![pool.alloc(8).unwrap()];
    published.extend(SIZES.map(|size| pool.alloc(size).unwrap()));
    let (mut held, mut image) = (None, Vec::new());
    for (t, (ops, commits)) in script.iter().enumerate() {
        let (mut live, mut dead, mut frees) = (Vec::new(), Vec::new(), Vec::new());
        for op in ops {
            match op {
                &TxOp::Reserve(i) => {
                    let a = pool.reserve(SIZES[i]).unwrap();
                    pool.flush(a, SIZES[i]).unwrap();
                    pool.store_flush(a.add(SIZES[i] - 8), &[0xC5; 8]).unwrap();
                    handed_out.push(a);
                    live.push(a);
                }
                &TxOp::Kill(i) if !live.is_empty() => dead.push(live.remove(i % live.len())),
                &TxOp::Free(i) if !published.is_empty() => {
                    frees.push(published.remove(i % published.len()))
                }
                TxOp::Kill(_) | TxOp::Free(_) => {}
                TxOp::FreeMany(picks) => {
                    let n = picks.len().min(published.len());
                    let batch: Vec<PAddr> = picks[..n]
                        .iter()
                        .map(|&i| published.remove(i % published.len()))
                        .collect();
                    free_all(&batch);
                }
                &TxOp::Hold(i) => match held.take() {
                    None => {
                        let a = pool.reserve(SIZES[i]).unwrap();
                        handed_out.push(a);
                        held = Some(a);
                    }
                    Some(a) => {
                        pool.publish(&[a]).unwrap();
                        pool.fence();
                        published.push(a);
                    }
                },
            }
        }
        if *commits {
            pool.publish(&live).unwrap();
            pool.cancel(&dead).unwrap();
            pool.fence();
            free_all(&frees);
            published.extend(live);
        } else {
            dead.extend(live);
            pool.cancel(&dead).unwrap();
            pool.fence();
            published.extend(frees);
        }
        // Frees write their list heads unfenced; one by one, each free's
        // fence orders the previous free's heads. From the next fence on the
        // two are indistinguishable.
        pool.fence();
        let ctx = format!("{shards} shard(s), transaction {t}");
        match pool.check_heap() {
            Ok(r) => reports.push(r),
            Err(e) => prop_assert!(false, "{ctx}: {e}"),
        }
        image = pool.crash_media_into(&CrashConfig::drop_all(t as u64), image);
        let reopened = PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap();
        match reopened.check_heap() {
            Ok(r) => prop_assert_eq!(
                r.allocated_blocks,
                published.len() as u64,
                "{}, crashed: every published block stays allocated",
                ctx
            ),
            Err(e) => prop_assert!(false, "{ctx}, crashed: {e}"),
        }
        image = reopened.into_media();
    }
    let drained: Vec<PAddr> = SIZES
        .iter()
        .flat_map(|&size| (0..12).map(move |_| size))
        .map(|size| pool.reserve(size).unwrap())
        .collect();
    pool.cancel(&drained).unwrap();
    handed_out.extend(drained);
    pool.fence();
    let media = pool.media_snapshot();
    let reopened = pool.crash(&CrashConfig::drop_all(1)).unwrap();
    let survived = reopened.check_heap().unwrap();
    prop_assert_eq!(
        survived.allocated_blocks,
        published.len() as u64,
        "{} shard(s): exactly the published blocks survive a crash",
        shards
    );
    Ok(Outcome {
        handed_out,
        reports,
        media,
    })
}

/// ROADMAP's two recipes as fixed scripts: the older of two reservations
/// ends as free and the newer as allocated — from the frontier, then, with
/// both blocks freed once, from the free list.
#[test]
fn out_of_order_cancel_recipes_keep_the_heap_walkable() {
    let recipe = vec![TxOp::Reserve(1), TxOp::Reserve(1), TxOp::Kill(0)];
    let free_survivor = vec![TxOp::Free(0)];
    let script = vec![
        (recipe.clone(), true),
        (free_survivor, true),
        (recipe, true),
    ];
    for shards in [1, 4] {
        run_script(shards, true, &script).unwrap();
    }
}

/// A reservation held open across two commits, each pinning one half of
/// the open-reservation rule: the first frees a block, so its list heads
/// are written while the held block has no header on media; the second
/// publishes a block above the held one, which a crash image must not
/// lose behind the held block's missing header.
#[test]
fn a_reservation_held_across_two_commits_keeps_the_heap_walkable() {
    let script = vec![
        (vec![TxOp::Hold(0), TxOp::Free(0)], true),
        (vec![TxOp::Reserve(0)], true),
    ];
    for shards in [1, 4] {
        run_script(shards, true, &script).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Live blocks never overlap, data written to them round-trips, and
    /// every free is accepted exactly once.
    #[test]
    fn allocations_are_disjoint_and_stable(ops in ops_strategy()) {
        let pool = PmemPool::create(PoolOptions::performance(4 << 20)).unwrap();
        let mut live: Vec<(clobber_pmem::PAddr, u64, u8)> = Vec::new();
        let mut stamp = 1u8;
        for op in ops {
            match op {
                AllocOp::Alloc(size) => {
                    let a = pool.alloc(size).unwrap();
                    // Disjointness against every live block.
                    for (b, bsize, _) in &live {
                        let (s1, e1) = (a.offset(), a.offset() + size);
                        let (s2, e2) = (b.offset(), b.offset() + bsize);
                        prop_assert!(e1 <= s2 || e2 <= s1, "overlap {a:?} and {b:?}");
                    }
                    pool.write_bytes(a, &vec![stamp; size as usize]).unwrap();
                    live.push((a, size, stamp));
                    stamp = stamp.wrapping_add(1).max(1);
                }
                AllocOp::Free(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (a, _, _) = live.remove(i % live.len());
                    pool.free(a).unwrap();
                }
            }
            // All live payloads intact after every step.
            for (a, size, s) in &live {
                let data = pool.read_bytes(*a, *size).unwrap();
                prop_assert!(data.iter().all(|b| b == s), "payload of {a:?} torn");
            }
        }
    }

    /// Persisted data survives crashes regardless of allocator traffic —
    /// each flushed, unfenced line kept with p = 1/2, seeded — and the
    /// reopened allocator still works.
    #[test]
    fn persisted_blocks_survive_crash(sizes in proptest::collection::vec(1u64..300, 1..20), seed in 0u64..1000) {
        let pool = PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap();
        let mut blocks = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let a = pool.alloc(*size).unwrap();
            pool.write_bytes(a, &vec![i as u8 ^ 0x55; *size as usize]).unwrap();
            pool.persist(a, *size).unwrap();
            blocks.push((a, *size, i as u8 ^ 0x55));
        }
        let crashed = pool.crash(&CrashConfig::new(0.5, 0.0, seed)).unwrap();
        let pool2 = PmemPool::open_from_media(crashed.media_snapshot(), PoolMode::CrashSim).unwrap();
        for (a, size, stamp) in &blocks {
            let data = pool2.read_bytes(*a, *size).unwrap();
            prop_assert!(data.iter().all(|b| b == stamp));
        }
        // The recovered allocator does not hand out any persisted block.
        let fresh = pool2.alloc(128).unwrap();
        for (a, size, _) in &blocks {
            let (s1, e1) = (fresh.offset(), fresh.offset() + 128);
            let (s2, e2) = (a.offset(), a.offset() + size);
            prop_assert!(e1 <= s2 || e2 <= s1);
        }
    }

    /// The allocator as `Tx` drives it — reservations ended as allocated or
    /// as free at each transaction's fence, in any order, with deferred and
    /// batched frees, while another transaction's reservation stays open —
    /// keeps a walkable heap after every transaction, live and crashed,
    /// loses nothing published in a crash, behaves identically at 1 and 4
    /// shards, and cannot tell `free_many(&v)` from `v` freed one by one:
    /// same addresses, same mirrors, same media.
    #[test]
    fn transaction_scripts_keep_the_heap_walkable(script in script_strategy()) {
        let one = run_script(1, true, &script)?;
        for (what, other) in [
            ("4 shards", run_script(4, true, &script)?),
            ("one-by-one frees", run_script(1, false, &script)?),
        ] {
            prop_assert_eq!(&one.handed_out, &other.handed_out, "{}", what);
            prop_assert_eq!(&one.reports, &other.reports, "{}", what);
            prop_assert!(one.media == other.media, "{what}: media differ");
        }
    }

    /// Cancelling is not a leak: after every reservation of a round is
    /// cancelled, in any order, an identical round fits where the first did.
    #[test]
    fn cancelled_round_is_reused_by_an_identical_round(
        picks in proptest::collection::vec(0usize..SIZES.len(), 1..24),
        rot in 0usize..24,
    ) {
        let pool = PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap();
        let round = |pool: &PmemPool| -> Vec<PAddr> {
            picks.iter().map(|&i| pool.reserve(SIZES[i]).unwrap()).collect()
        };
        let mut first = round(&pool);
        let used = pool.heap_used();
        first.rotate_left(rot % picks.len());
        pool.cancel(&first).unwrap();
        pool.fence();
        pool.check_heap().unwrap();
        let second = round(&pool);
        prop_assert_eq!(pool.heap_used(), used, "the second round bumped the frontier");
        pool.publish(&second).unwrap();
        pool.fence();
        prop_assert_eq!(pool.check_heap().unwrap().allocated_blocks, picks.len() as u64);
    }

    /// The crash model is monotone: anything durable under `drop_all`
    /// is also durable under any milder policy with the same seed.
    #[test]
    fn crash_policies_are_monotone(seed in 0u64..500) {
        let make = || {
            let pool = PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap();
            for i in 0..32u64 {
                pool.write_u64(clobber_pmem::PAddr::new(4096 + i * 64), i + 1).unwrap();
                if i % 3 == 0 {
                    pool.persist(clobber_pmem::PAddr::new(4096 + i * 64), 8).unwrap();
                }
            }
            pool
        };
        let hard = make().crash(&CrashConfig::drop_all(seed)).unwrap();
        let soft = make().crash(&CrashConfig::keep_all(seed)).unwrap();
        for i in 0..32u64 {
            let addr = clobber_pmem::PAddr::new(4096 + i * 64);
            let h = hard.read_u64(addr).unwrap();
            let s = soft.read_u64(addr).unwrap();
            if h != 0 {
                prop_assert_eq!(h, s, "durable data must agree across policies");
            }
        }
    }
}
