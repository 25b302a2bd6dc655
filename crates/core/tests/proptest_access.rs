//! Property-based tests of the access table against a naive model — one bit
//! vector per kind. The table's store rules are what clobber detection's
//! correctness rests on.
//!
//! The domain spans 128 cache lines and ranges run up to 300 bytes (a few
//! up to 3 000), so runs cross line boundaries and the large ones take the
//! table's whole-line extent path; the model knows nothing of either.

use clobber_nvm::access::{AccessTable, Kind, ToLog};
use proptest::prelude::*;

const DOMAIN: u64 = 8192;
const KINDS: [Kind; 3] = [Kind::Read, Kind::Written, Kind::Logged];

/// One bit vector per kind, indexed like [`KINDS`].
#[derive(Clone)]
struct Model([Vec<bool>; 3]);

impl Model {
    fn new() -> Model {
        Model(std::array::from_fn(|_| vec![false; DOMAIN as usize]))
    }

    fn bits(&self, kind: Kind) -> &[bool] {
        &self.0[kind as usize]
    }

    fn set(&mut self, kind: Kind, i: u64) {
        self.0[kind as usize][i as usize] = true;
    }

    fn insert(&mut self, kind: Kind, s: u64, e: u64) {
        (s..e).for_each(|i| self.set(kind, i));
    }

    fn load(&mut self, s: u64, e: u64, refined: bool) {
        for i in s..e {
            if !(refined && self.bits(Kind::Written)[i as usize]) {
                self.set(Kind::Read, i);
            }
        }
    }

    /// Whether byte `i` of a store goes to the log under `rule`.
    fn logs(&self, rule: ToLog, i: u64) -> bool {
        let has = |kind| self.bits(kind)[i as usize];
        match rule {
            ToLog::Nothing => false,
            ToLog::All => true,
            ToLog::Read => has(Kind::Read),
            ToLog::ReadUnlogged => has(Kind::Read) && !has(Kind::Logged),
            ToLog::Unwritten => !has(Kind::Written),
        }
    }

    /// The store's to-log runs and whether it was wholly written before.
    fn store(&mut self, s: u64, e: u64, rule: ToLog, mark: bool) -> (Vec<(u64, u64)>, bool) {
        let logged: Vec<bool> = (s..e).map(|i| self.logs(rule, i)).collect();
        let was_written = (s..e).all(|i| self.bits(Kind::Written)[i as usize]);
        if mark {
            for i in s..e {
                self.set(Kind::Written, i);
                if logged[(i - s) as usize] {
                    self.set(Kind::Logged, i);
                }
            }
        }
        (runs_of(s, &logged), was_written)
    }
}

/// Maximal runs of set bits in `bits`, the first standing for byte `base`.
fn runs_of(base: u64, bits: &[bool]) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for (i, _) in bits.iter().enumerate().filter(|(_, b)| **b) {
        let i = base + i as u64;
        match runs.last_mut() {
            Some(last) if last.1 == i => last.1 = i + 1,
            _ => runs.push((i, i + 1)),
        }
    }
    runs
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(Kind, u64, u64),
    Load(u64, u64, bool),
    Store(u64, u64, ToLog, bool),
}

/// A `[start, end)` inside the domain: mostly up to 300 bytes, one in
/// eight up to 3 000 (more than 16 lines).
fn range_strategy() -> impl Strategy<Value = (u64, u64)> {
    (0u64..DOMAIN, 0u64..300, 0u64..3000, 0u8..8).prop_map(|(s, small, large, pick)| {
        let len = if pick == 0 { large } else { small };
        (s, (s + len).min(DOMAIN))
    })
}

/// A range spanning more than 16 lines, so the table's extents take part.
fn long_range_strategy() -> impl Strategy<Value = (u64, u64)> {
    (0u64..DOMAIN - 3000, 1100u64..3000).prop_map(|(s, len)| (s, s + len))
}

fn rule_strategy() -> impl Strategy<Value = ToLog> {
    prop_oneof![
        Just(ToLog::Nothing),
        Just(ToLog::All),
        Just(ToLog::Read),
        Just(ToLog::ReadUnlogged),
        Just(ToLog::Unwritten),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![Just(Kind::Read), Just(Kind::Written), Just(Kind::Logged)];
    prop_oneof![
        (kind, range_strategy()).prop_map(|(k, (s, e))| Op::Insert(k, s, e)),
        (range_strategy(), any::<bool>()).prop_map(|((s, e), r)| Op::Load(s, e, r)),
        (range_strategy(), rule_strategy(), any::<bool>())
            .prop_map(|((s, e), rule, mark)| Op::Store(s, e, rule, mark)),
    ]
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(), 0..40)
}

/// Applies `op` to both, checking what a store reports against the model.
fn apply(table: &mut AccessTable, model: &mut Model, op: Op) -> Result<(), TestCaseError> {
    match op {
        Op::Insert(kind, s, e) => {
            table.insert(kind, s, e);
            model.insert(kind, s, e);
        }
        Op::Load(s, e, refined) => {
            table.load(s, e, refined);
            model.load(s, e, refined);
        }
        Op::Store(s, e, rule, mark) => {
            let mut out = Vec::new();
            let was_written = table.store(s, e, rule, mark, &mut out);
            prop_assert_eq!(
                (out, was_written),
                model.store(s, e, rule, mark),
                "{:?}",
                op
            );
        }
    }
    Ok(())
}

fn build(ops: &[Op]) -> Result<(AccessTable, Model), TestCaseError> {
    let (mut table, mut model) = (AccessTable::new(), Model::new());
    for &op in ops {
        apply(&mut table, &mut model, op)?;
    }
    Ok((table, model))
}

/// Every kind of `table` agrees with the model.
fn check_against_model(table: &AccessTable, model: &Model) -> Result<(), TestCaseError> {
    for kind in KINDS {
        let bits = model.bits(kind);
        prop_assert_eq!(table.runs(kind), runs_of(0, bits), "{:?}", kind);
        let covered = bits.iter().filter(|b| **b).count() as u64;
        prop_assert_eq!(table.covered_bytes(kind), covered, "{:?}", kind);
    }
    Ok(())
}

/// The to-log runs a store of `[s, e)` under `rule` reports after `ops`,
/// checked against the model; returns them.
fn store_after(
    ops: &[Op],
    (s, e): (u64, u64),
    rule: ToLog,
) -> Result<Vec<(u64, u64)>, TestCaseError> {
    prop_assert!((e - 1) / 64 - s / 64 > 16, "not a long range");
    let (mut table, mut model) = build(ops)?;
    let mut out = Vec::new();
    table.store(s, e, rule, true, &mut out);
    prop_assert_eq!(&out, &model.store(s, e, rule, true).0);
    // Ascending maximal runs: no two ranges touch, even across lines.
    for w in out.windows(2) {
        prop_assert!(w[0].1 < w[1].0, "ranges must not touch: {:?}", out);
    }
    check_against_model(&table, &model)?;
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn ops_match_the_model(ops in ops_strategy()) {
        let (table, model) = build(&ops)?;
        check_against_model(&table, &model)?;
    }

    /// Refined clobber logging: the maximal runs of read ∧ ¬logged.
    #[test]
    fn refined_logs_read_and_unlogged_bytes((ops, range) in (ops_strategy(), long_range_strategy())) {
        let (_, model) = build(&ops)?;
        let out = store_after(&ops, range, ToLog::ReadUnlogged)?;
        let want: Vec<bool> = (range.0..range.1)
            .map(|i| model.bits(Kind::Read)[i as usize] && !model.bits(Kind::Logged)[i as usize])
            .collect();
        prop_assert_eq!(out, runs_of(range.0, &want));
    }

    /// Conservative clobber logging: read ∩ [s, e).
    #[test]
    fn conservative_logs_every_read_byte((ops, range) in (ops_strategy(), long_range_strategy())) {
        let (_, model) = build(&ops)?;
        let out = store_after(&ops, range, ToLog::Read)?;
        let want = &model.bits(Kind::Read)[range.0 as usize..range.1 as usize];
        prop_assert_eq!(out, runs_of(range.0, want));
    }

    /// Undo logging: [s, e) ∖ written.
    #[test]
    fn undo_logs_unwritten_bytes((ops, range) in (ops_strategy(), long_range_strategy())) {
        let (_, model) = build(&ops)?;
        let out = store_after(&ops, range, ToLog::Unwritten)?;
        let want: Vec<bool> = (range.0..range.1)
            .map(|i| !model.bits(Kind::Written)[i as usize])
            .collect();
        prop_assert_eq!(out, runs_of(range.0, &want));
    }

    /// `Tx` clears its to-log buffer per store, but a store must never merge
    /// its runs into what the buffer already holds, even when adjacent.
    #[test]
    fn a_store_never_merges_with_existing_output(
        (ops, (s, e), rule) in (ops_strategy(), range_strategy(), rule_strategy())
    ) {
        let (mut table, mut model) = build(&ops)?;
        let (result, _) = model.store(s, e, rule, false);
        let edge = result.first().map_or(s, |r| r.0);
        let prior = (edge.saturating_sub(5), edge);
        let mut out = vec![(0, 1), prior];
        table.store(s, e, rule, false, &mut out);
        prop_assert_eq!(&out[..2], &[(0, 1), prior][..]);
        prop_assert_eq!(&out[2..], &result[..]);
    }

    /// A pooled table is cleared and refilled transaction after
    /// transaction: each generation must see only its own accesses.
    #[test]
    fn cleared_tables_forget_earlier_generations(
        generations in proptest::collection::vec(ops_strategy(), 3..6)
    ) {
        let mut table = AccessTable::new();
        for ops in &generations {
            table.clear();
            let mut model = Model::new();
            for &op in ops {
                apply(&mut table, &mut model, op)?;
            }
            check_against_model(&table, &model)?;
        }
    }

    #[test]
    fn insertion_order_is_irrelevant(
        mut inserts in proptest::collection::vec((0usize..3, range_strategy()), 0..40)
    ) {
        let fill = |inserts: &[(usize, (u64, u64))]| {
            let mut t = AccessTable::new();
            for &(k, (s, e)) in inserts {
                t.insert(KINDS[k], s, e);
            }
            KINDS.map(|kind| t.runs(kind))
        };
        let a = fill(&inserts);
        inserts.reverse();
        prop_assert_eq!(a, fill(&inserts));
    }
}

/// The generation stamp is 16 bits wide. Fill the table, then clear
/// through one full cycle of the stamp with the stale slots left in place:
/// whichever way the counter comes back round, they must stay dead, and
/// the table must work as new afterwards.
#[test]
fn clear_is_sound_across_the_stamp_wrap() {
    let mut table = AccessTable::new();
    for clears in [u32::from(u16::MAX), 1 << 16, (1 << 16) + 1] {
        let filled: Vec<(u64, u64)> = (0..50).map(|i| (i * 150, i * 150 + 70)).collect();
        for &(s, e) in &filled {
            table.load(s, e, false);
        }
        table.insert(Kind::Read, 7600, DOMAIN);
        let mut expect = filled;
        expect.push((7600, DOMAIN));
        assert_eq!(table.runs(Kind::Read), expect, "{clears} clears");
        for _ in 0..clears {
            table.clear();
        }
        let mut out = Vec::new();
        table.store(0, DOMAIN, ToLog::Read, false, &mut out);
        assert!(out.is_empty(), "{clears} clears: a stale slot is visible");
        assert!(!table.store(0, DOMAIN, ToLog::Unwritten, false, &mut out));
        assert_eq!(out, vec![(0, DOMAIN)]);
        assert!(KINDS.iter().all(|&k| table.runs(k).is_empty()));
    }
}

/// The paper's refinement (§4.4, Fig. 5) in four stores: refined logging
/// drops the *shadowed* candidate (an input clobbered again) and the
/// *unexposed* one (a read of the transaction's own write); conservative
/// logging keeps both.
#[test]
fn refined_logging_drops_shadowed_and_unexposed_candidates() {
    for (refined, rule, mark, shadowed, unexposed) in [
        (true, ToLog::ReadUnlogged, true, vec![], vec![]),
        (false, ToLog::Read, false, vec![(0, 8)], vec![(16, 24)]),
    ] {
        let mut t = AccessTable::new();
        let store = |t: &mut AccessTable, s: u64| {
            let mut out = Vec::new();
            t.store(s, s + 8, rule, mark, &mut out);
            out
        };
        t.load(0, 8, refined);
        assert_eq!(store(&mut t, 0), vec![(0, 8)], "refined: {refined}");
        assert_eq!(store(&mut t, 0), shadowed, "refined: {refined}");
        // Written before it is read: an input only to the conservative rule.
        t.insert(Kind::Written, 16, 24);
        t.load(16, 24, refined);
        assert_eq!(store(&mut t, 16), unexposed, "refined: {refined}");
    }
}
