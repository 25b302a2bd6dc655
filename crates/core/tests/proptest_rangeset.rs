//! Property-based tests of the access set against a naive bitset model —
//! the range algebra is what clobber detection's correctness rests on.
//!
//! The domain spans 128 cache lines and ranges run up to 300 bytes (a few
//! up to 3 000), so runs cross line boundaries and the large ones take the
//! set's whole-line extent path; the model knows nothing of either.

use clobber_nvm::rangeset::RangeSet;
use proptest::prelude::*;

const DOMAIN: u64 = 8192;

fn model_insert(bits: &mut [bool], s: u64, e: u64) {
    for i in s..e.min(DOMAIN) {
        bits[i as usize] = true;
    }
}

/// The model's maximal runs of set bytes, ascending.
fn model_runs(bits: &[bool]) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for (i, _) in bits.iter().enumerate().filter(|(_, b)| **b) {
        let i = i as u64;
        match runs.last_mut() {
            Some(last) if last.1 == i => last.1 = i + 1,
            _ => runs.push((i, i + 1)),
        }
    }
    runs
}

/// A `[start, end)` inside the domain: mostly up to 300 bytes, one in
/// eight up to 3 000 (more than 16 lines).
fn range_strategy() -> impl Strategy<Value = (u64, u64)> {
    (0u64..DOMAIN, 0u64..300, 0u64..3000, 0u8..8).prop_map(|(s, small, large, pick)| {
        let len = if pick == 0 { large } else { small };
        (s, (s + len).min(DOMAIN))
    })
}

fn ranges_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec(range_strategy(), 0..40)
}

fn build(inserts: &[(u64, u64)]) -> (RangeSet, Vec<bool>) {
    let mut set = RangeSet::new();
    let mut bits = vec![false; DOMAIN as usize];
    for &(s, e) in inserts {
        set.insert(s, e);
        model_insert(&mut bits, s, e);
    }
    (set, bits)
}

/// Every observer of `set` agrees with the model.
fn check_against_model(set: &RangeSet, bits: &[bool]) -> Result<(), TestCaseError> {
    let runs = model_runs(bits);
    prop_assert_eq!(set.iter().collect::<Vec<_>>(), runs.clone());
    prop_assert_eq!(set.len(), runs.len());
    prop_assert_eq!(set.is_empty(), runs.is_empty());
    prop_assert_eq!(
        set.covered_bytes(),
        bits.iter().filter(|b| **b).count() as u64
    );
    // Equality is by content: a set rebuilt from the runs, in reverse,
    // compares equal although its table was filled differently.
    let rebuilt: RangeSet = runs.iter().rev().copied().collect();
    prop_assert_eq!(set, &rebuilt);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn membership_matches_bitset((inserts, query) in (ranges_strategy(), range_strategy())) {
        let (set, bits) = build(&inserts);
        let (qs, qe) = query;
        let model_contains = (qs..qe).all(|i| bits[i as usize]);
        let model_overlaps = (qs..qe).any(|i| bits[i as usize]);
        prop_assert_eq!(set.contains(qs, qe), model_contains);
        prop_assert_eq!(set.overlaps(qs, qe), model_overlaps);
    }

    #[test]
    fn intersect_and_subtract_partition_the_query((inserts, query) in (ranges_strategy(), range_strategy())) {
        let (set, bits) = build(&inserts);
        let (qs, qe) = query;
        let inside = set.intersect(qs, qe);
        let outside = set.subtract_from(qs, qe);
        // Byte-exact agreement with the model.
        let mut cover = vec![None::<bool>; (qe - qs) as usize];
        for (s, e) in &inside {
            for i in *s..*e {
                prop_assert!(cover[(i - qs) as usize].is_none(), "double-covered byte");
                cover[(i - qs) as usize] = Some(true);
            }
        }
        for (s, e) in &outside {
            for i in *s..*e {
                prop_assert!(cover[(i - qs) as usize].is_none(), "double-covered byte");
                cover[(i - qs) as usize] = Some(false);
            }
        }
        for (off, c) in cover.iter().enumerate() {
            let i = qs + off as u64;
            prop_assert_eq!(*c, Some(bits[i as usize]), "byte {} misclassified", i);
        }
        // Both results are ascending maximal runs: no two ranges touch,
        // even where a run crosses a line boundary.
        for ranges in [&inside, &outside] {
            for w in ranges.windows(2) {
                prop_assert!(w[0].1 < w[1].0, "ranges must not touch: {:?}", ranges);
            }
        }
    }

    #[test]
    fn observers_match_the_model(inserts in ranges_strategy()) {
        let (set, bits) = build(&inserts);
        check_against_model(&set, &bits)?;
    }

    #[test]
    fn into_variants_match_allocating_variants(
        (inserts, queries) in (
            ranges_strategy(),
            proptest::collection::vec(range_strategy(), 1..8),
        )
    ) {
        let (set, bits) = build(&inserts);
        // One pair of scratch buffers across all queries, as the Tx hot
        // path reuses them: the append-style variants must behave exactly
        // like their allocating wrappers after a plain clear().
        let mut isect = Vec::new();
        let mut sub = Vec::new();
        for (qs, qe) in queries {
            isect.clear();
            sub.clear();
            set.intersect_into(qs, qe, &mut isect);
            set.subtract_into(qs, qe, &mut sub);
            prop_assert_eq!(&isect, &set.intersect(qs, qe));
            prop_assert_eq!(&sub, &set.subtract_from(qs, qe));
            // And against the bitset model, byte for byte.
            for i in qs..qe {
                let in_isect = isect.iter().any(|&(a, b)| a <= i && i < b);
                prop_assert_eq!(in_isect, bits[i as usize], "byte {} misclassified", i);
            }
        }
    }

    /// `Tx` appends one store's `subtract_into` results for several input
    /// ranges onto one `to_log` buffer: a result must never be merged into
    /// what the buffer already holds, even when the two are adjacent.
    #[test]
    fn into_variants_never_merge_with_existing_output(
        (inserts, query) in (ranges_strategy(), range_strategy())
    ) {
        let (set, _) = build(&inserts);
        let (qs, qe) = query;
        for (result, into) in [
            (set.intersect(qs, qe), RangeSet::intersect_into as fn(&RangeSet, u64, u64, &mut Vec<(u64, u64)>)),
            (set.subtract_from(qs, qe), RangeSet::subtract_into),
        ] {
            // The caller's last entry ends exactly where the first result
            // begins (or at the query start when there is no result).
            let edge = result.first().map_or(qs, |r| r.0);
            let prior = (edge.saturating_sub(5), edge);
            let mut out = vec![(0, 1), prior];
            into(&set, qs, qe, &mut out);
            prop_assert_eq!(&out[..2], &[(0, 1), prior][..]);
            prop_assert_eq!(&out[2..], &result[..]);
        }
    }

    /// A pooled set is cleared and refilled transaction after
    /// transaction: each generation must see only its own inserts.
    #[test]
    fn cleared_sets_forget_earlier_generations(
        generations in proptest::collection::vec(ranges_strategy(), 3..6)
    ) {
        let mut set = RangeSet::new();
        for inserts in &generations {
            set.clear();
            prop_assert!(set.is_empty());
            let mut bits = vec![false; DOMAIN as usize];
            for &(s, e) in inserts {
                set.insert(s, e);
                model_insert(&mut bits, s, e);
            }
            check_against_model(&set, &bits)?;
        }
    }

    #[test]
    fn insertion_order_is_irrelevant(mut inserts in ranges_strategy()) {
        let (a, _) = build(&inserts);
        inserts.reverse();
        let (b, _) = build(&inserts);
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        prop_assert_eq!(a, b);
    }
}

/// The generation stamp is 16 bits wide. Fill the table, then clear
/// through one full cycle of the stamp with the stale slots left in place:
/// whichever way the counter comes back round, they must stay dead, and
/// the set must work as new afterwards.
#[test]
fn clear_is_sound_across_the_stamp_wrap() {
    let mut set = RangeSet::new();
    for clears in [u32::from(u16::MAX), 1 << 16, (1 << 16) + 1] {
        let filled: Vec<(u64, u64)> = (0..50).map(|i| (i * 150, i * 150 + 70)).collect();
        set.extend(filled.iter().copied());
        set.insert(7600, DOMAIN);
        let mut expect = filled;
        expect.push((7600, DOMAIN));
        assert_eq!(set.iter().collect::<Vec<_>>(), expect, "{clears} clears");
        for _ in 0..clears {
            set.clear();
        }
        assert!(set.is_empty(), "{clears} clears");
        assert!(
            !set.overlaps(0, DOMAIN),
            "{clears} clears: a stale slot is visible"
        );
        assert_eq!(set.subtract_from(0, DOMAIN), vec![(0, DOMAIN)]);
        assert_eq!(set.iter().count(), 0);
    }
}
