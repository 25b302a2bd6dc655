//! Lock-step equivalence of the pool engine across shard counts, against
//! its own degenerate configuration.
//!
//! The reference is a pool of one shard: every range routes to shard 0 and
//! no access ever splits, so it is the engine with the routing taken out.
//! The contract is that the shard count is *unobservable* through the pool
//! API: random schedules of store/flush/fence/crash operations — including
//! armed [`FaultPlan`]s that kill the pool mid-schedule and torn trip-point
//! stores — must produce identical volatile reads, identical per-step error
//! results, identical persist-event numbering and fault-trip points,
//! bit-identical stats counters, and identical durable media after a seeded
//! crash, at every shard count.
//!
//! The schedules include the full allocator surface —
//! `alloc`/`free`/`reserve`/`publish`/`cancel` — so the allocator
//! is held to the same standard: identical addresses, identical error
//! results (`OutOfMemory`, `InvalidFree`, `InjectedCrash`), identical
//! `heap_used`, identical `check_heap` reports, and bit-identical durable
//! allocator metadata after a seeded crash.
//!
//! They also include the lean access paths — the fused `store_flush` and
//! the fixed-width `read_u64`/`write_u64` — plus tracer attach/detach. One
//! more candidate runs one shard with every lean primitive *spelled out* as
//! the generic calls it stands for (`write_bytes` then `flush`; 8-byte
//! `write_bytes`/`read_into`), so the primitives are held to their
//! definition armed and disarmed, traced and untraced: same results, same
//! recorded events with the same persist-event indices, same trip points,
//! counters and media. A deterministic case does the same where the random
//! block cannot reach: across a shard boundary.

use std::sync::Arc;

use clobber_pmem::{
    CrashConfig, FaultPlan, PAddr, PmemError, PmemPool, PoolOptions, StatsSnapshot, TraceEvent,
    Tracer,
};
use proptest::prelude::*;

const POOL_SIZE: u64 = 1 << 20;
const BLOCK: u64 = 16 << 10;

/// How a pool executes the lean primitives of a schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Spelling {
    /// `store_flush`, `write_u64`, `read_u64` themselves.
    Lean,
    /// The generic calls they are defined as.
    Generic,
}

/// The `(shards, spelling)` candidates checked against the one-shard
/// reference (which runs the lean primitives).
const CANDIDATES: &[(u32, Spelling)] = &[
    (1, Spelling::Generic),
    (2, Spelling::Lean),
    (4, Spelling::Lean),
    (7, Spelling::Lean),
];

/// One step of the driver script. Offsets/lengths are pre-clipped to the
/// allocated block so pool metadata stays intact and a crashed pool can
/// always be reopened.
#[derive(Clone, Debug)]
enum Op {
    Write(u64, u64, u8),
    /// Fused store + write-back of the same range.
    StoreFlush(u64, u64, u8),
    /// Fixed-width word store / load (the load's value is the outcome).
    WriteWord(u64, u64),
    ReadWord(u64),
    Flush(u64, u64),
    Fence,
    Crash(u64),
    /// Arm a plan tripping `delta` persist events from now (torn, seed).
    Arm(u64, bool, u64),
    Disarm,
    /// Attach a fresh tracer (`true`) or detach the current one.
    Trace(bool),
    /// Immediate allocation of `size` bytes.
    Alloc(u64),
    /// Free the `i % len`-th tracked allocation (no-op when none exist).
    Free(usize),
    /// Zero-fence transactional reservation of `size` bytes.
    Reserve(u64),
    /// Publish the newest `k` outstanding reservations (clamped).
    Publish(usize),
    /// Cancel the newest `k` outstanding reservations (clamped).
    Cancel(usize),
}

/// Allocation sizes that exercise every interesting classifier bucket:
/// sub-minimum, small classes, the largest small class, and huge blocks.
fn size_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => 1u64..300,
        1 => 3000u64..4097,
        1 => 4097u64..20_000,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..BLOCK, 1u64..256, 0u8..=255).prop_map(|(o, l, b)| Op::Write(o, l, b)),
        4 => (0u64..BLOCK, 0u64..256, 0u8..=255).prop_map(|(o, l, b)| Op::StoreFlush(o, l, b)),
        2 => (0u64..BLOCK - 8, 0u64..u64::MAX).prop_map(|(o, v)| Op::WriteWord(o, v)),
        2 => (0u64..BLOCK - 8).prop_map(Op::ReadWord),
        2 => (0u64..BLOCK, 1u64..512).prop_map(|(o, l)| Op::Flush(o, l)),
        2 => (0u64..4u64).prop_map(|_| Op::Fence),
        1 => (0u64..u64::MAX).prop_map(Op::Crash),
        1 => (0u64..12, 0u64..2, 0u64..u64::MAX)
            .prop_map(|(e, t, s)| Op::Arm(e, t == 1, s)),
        1 => (0u64..2u64).prop_map(|_| Op::Disarm),
        1 => (0u64..3u64).prop_map(|t| Op::Trace(t > 0)),
        3 => size_strategy().prop_map(Op::Alloc),
        2 => (0usize..64).prop_map(Op::Free),
        3 => size_strategy().prop_map(Op::Reserve),
        2 => (0usize..4).prop_map(Op::Publish),
        2 => (0usize..4).prop_map(Op::Cancel),
    ]
}

/// The observable outcome of one op: `Ok` carries the returned address for
/// allocator ops (0 when the op returns no address), so address equality
/// across shard counts is part of the per-step comparison.
type Outcome = Result<u64, PmemError>;

/// Script-level allocator bookkeeping, driven by the *reference* pool's
/// results and shared by every candidate. Tracking may go stale after a
/// crash (rolled-back reservations, dropped publishes) — that is deliberate:
/// stale addresses exercise the `InvalidFree` paths, and every pool must
/// produce the same error for the same stale address.
#[derive(Default)]
struct Tracked {
    allocated: Vec<u64>,
    reserved: Vec<u64>,
}

impl Tracked {
    /// The argument block for a `Publish`/`Cancel` of the newest `k`.
    fn newest(&self, k: usize) -> Vec<PAddr> {
        let k = k.min(self.reserved.len());
        self.reserved[self.reserved.len() - k..]
            .iter()
            .map(|&o| PAddr::new(o))
            .collect()
    }
}

/// Applies one op, returning the (possibly reopened) pool and the op's
/// observable result. Every branch of this function must be a pure function
/// of the pool API — no peeking at engine internals — so a divergence here
/// is a real contract violation.
fn apply(
    pool: PmemPool,
    base: PAddr,
    tracked: &Tracked,
    spelling: Spelling,
    op: &Op,
) -> (PmemPool, Outcome) {
    match *op {
        Op::StoreFlush(off, len, fill) => {
            let len = len.min(BLOCK - off);
            let data = vec![fill; len as usize];
            let at = base.add(off);
            let r = match spelling {
                Spelling::Lean => pool.store_flush(at, &data),
                Spelling::Generic => pool
                    .write_bytes(at, &data)
                    .and_then(|_| pool.flush(at, len)),
            };
            (pool, r.map(|_| 0))
        }
        Op::WriteWord(off, value) => {
            let r = match spelling {
                Spelling::Lean => pool.write_u64(base.add(off), value),
                Spelling::Generic => pool.write_bytes(base.add(off), &value.to_le_bytes()),
            };
            (pool, r.map(|_| 0))
        }
        Op::ReadWord(off) => {
            let r = match spelling {
                Spelling::Lean => pool.read_u64(base.add(off)),
                Spelling::Generic => {
                    let mut buf = [0u8; 8];
                    pool.read_into(base.add(off), &mut buf)
                        .map(|_| u64::from_le_bytes(buf))
                }
            };
            (pool, r)
        }
        Op::Trace(on) => {
            pool.set_tracer(on.then(|| Arc::new(Tracer::new())));
            (pool, Ok(0))
        }
        Op::Write(off, len, fill) => {
            let len = len.min(BLOCK - off);
            let data = vec![fill; len as usize];
            let r = pool.write_bytes(base.add(off), &data).map(|_| 0);
            (pool, r)
        }
        Op::Flush(off, len) => {
            let len = len.min(BLOCK - off);
            let r = pool.flush(base.add(off), len).map(|_| 0);
            (pool, r)
        }
        Op::Fence => {
            // Fences on a dead pool are silently lost; on a live pool they
            // succeed. Either way there is nothing to compare beyond the
            // event counter, checked by the caller.
            pool.fence();
            (pool, Ok(0))
        }
        Op::Crash(seed) => {
            let reopened = pool.crash(&CrashConfig::with_seed(seed)).unwrap();
            (reopened, Ok(0))
        }
        Op::Arm(delta, torn, seed) => {
            let plan = if torn {
                FaultPlan::torn_crash_at(delta, seed)
            } else {
                FaultPlan::crash_at(delta)
            };
            pool.arm_faults(plan);
            (pool, Ok(0))
        }
        Op::Disarm => {
            pool.disarm_faults();
            (pool, Ok(0))
        }
        Op::Alloc(size) => {
            let r = pool.alloc(size).map(|a| a.offset());
            (pool, r)
        }
        Op::Free(i) => {
            if tracked.allocated.is_empty() {
                return (pool, Ok(0));
            }
            let addr = tracked.allocated[i % tracked.allocated.len()];
            let r = pool.free(PAddr::new(addr)).map(|_| addr);
            (pool, r)
        }
        Op::Reserve(size) => {
            let r = pool.reserve(size).map(|a| a.offset());
            (pool, r)
        }
        Op::Publish(k) => {
            let blocks = tracked.newest(k);
            let r = pool.publish(&blocks).map(|_| 0);
            (pool, r)
        }
        Op::Cancel(k) => {
            let blocks = tracked.newest(k);
            let r = pool.cancel(&blocks).map(|_| 0);
            (pool, r)
        }
    }
}

/// Folds the reference outcome of an op back into the script's tracking, so
/// later `Free`/`Publish`/`Cancel` ops target real addresses.
fn track(tracked: &mut Tracked, op: &Op, outcome: &Outcome) {
    match (op, outcome) {
        (Op::Crash(_), _) => {
            // Unpublished reservations rolled back with the volatile mirror.
            // `allocated` is kept as-is: entries whose publish never became
            // durable are now stale and exercise `InvalidFree` on free.
            tracked.reserved.clear();
        }
        (Op::Alloc(_), Ok(addr)) => tracked.allocated.push(*addr),
        (Op::Free(_), Ok(addr)) => tracked.allocated.retain(|a| a != addr),
        (Op::Reserve(_), Ok(addr)) => tracked.reserved.push(*addr),
        (Op::Publish(k), Ok(_)) => {
            let k = (*k).min(tracked.reserved.len());
            let from = tracked.reserved.len() - k;
            let moved: Vec<u64> = tracked.reserved.drain(from..).collect();
            tracked.allocated.extend(moved);
        }
        (Op::Cancel(k), Ok(_)) => {
            let k = (*k).min(tracked.reserved.len());
            let from = tracked.reserved.len() - k;
            tracked.reserved.drain(from..);
        }
        _ => {}
    }
}

/// Drains the events the attached tracer (if any) recorded since the last
/// call: each carries its persist-event index, so equality across pools is
/// equality of the pool-wide event order.
fn drain_trace(pool: &PmemPool) -> Option<Vec<TraceEvent>> {
    pool.tracer().map(|t| t.take().events)
}

fn create(shards: u32) -> (PmemPool, PAddr) {
    let pool = PmemPool::create(PoolOptions::crash_sim(POOL_SIZE).with_shards(shards)).unwrap();
    let base = pool.alloc(BLOCK).unwrap();
    (pool, base)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The headline lock-step test: one schedule, every shard count plus
    /// the spelled-out one-shard pool, every observable compared after
    /// every step.
    #[test]
    fn every_shard_count_matches_the_one_shard_reference(
        (ops, final_seed) in (proptest::collection::vec(op_strategy(), 1..60), 0u64..u64::MAX)
    ) {
        let (mut reference, base_r) = create(1);
        let mut candidates: Vec<((u32, Spelling), Option<PmemPool>, PAddr)> = Vec::new();
        for &c in CANDIDATES {
            let (p, b) = create(c.0);
            prop_assert_eq!(b, base_r, "deterministic allocator diverged for {:?}", c);
            candidates.push((c, Some(p), b));
        }
        let mut tracked = Tracked::default();

        for op in &ops {
            let (r, res_r) = apply(reference, base_r, &tracked, Spelling::Lean, op);
            reference = r;
            let trace_r = drain_trace(&reference);
            let vol_r = reference.read_bytes(base_r, BLOCK);
            let ev_r = reference.fault_events();
            let trip_r = reference.fault_tripped();
            let used_r = reference.heap_used();

            for (c, slot, base) in &mut candidates {
                let (p, res_c) = apply(slot.take().unwrap(), *base, &tracked, c.1, op);
                let pool = slot.insert(p);
                prop_assert_eq!(
                    &res_c, &res_r,
                    "op result diverged for {:?} after {:?}", c, op
                );
                prop_assert_eq!(
                    &drain_trace(pool), &trace_r,
                    "recorded events diverged for {:?} after {:?}", c, op
                );
                // Persist-event numbering and trip points are the ordering
                // contract: the global fault mutex must observe the same
                // total order regardless of how the address space is split.
                prop_assert_eq!(pool.fault_events(), ev_r, "event count diverged for {:?}", c);
                prop_assert_eq!(pool.fault_tripped(), trip_r, "trip point diverged for {:?}", c);
                // The allocator frontier is part of the deterministic state.
                prop_assert_eq!(pool.heap_used(), used_r, "heap_used diverged for {:?}", c);
                // Volatile view (media + cache overlay, or InjectedCrash on
                // a dead pool) must agree after every step.
                let vol_c = pool.read_bytes(*base, BLOCK);
                prop_assert_eq!(&vol_c, &vol_r, "volatile reads diverged for {:?} after {:?}", c, op);
            }
            track(&mut tracked, op, &res_r);
        }

        // Counters are part of the contract. Hot counts live in per-shard
        // banks; `snapshot()` must sum them into totals bit-identical to
        // the one bank of the reference.
        let snap_r = reference.stats().snapshot();
        for (c, slot, _) in &candidates {
            let pool = slot.as_ref().unwrap();
            prop_assert_eq!(pool.stats().snapshot(), snap_r.clone(), "counters diverged for {:?}", c);
        }

        // The same crash seed must draw the same per-line survival decisions
        // at every shard count (ascending-shard × ascending-line = global
        // ascending line order) and therefore produce identical durable
        // media — even when the schedule left the pool dead (tripped).
        let crashed_r = reference.crash(&CrashConfig::with_seed(final_seed)).unwrap();
        let durable_r = crashed_r.read_bytes(base_r, BLOCK).unwrap();
        // The recovered heap structure is part of the durable contract.
        let heap_r = crashed_r.check_heap();
        for (c, slot, base) in candidates {
            let crashed = slot.unwrap().crash(&CrashConfig::with_seed(final_seed)).unwrap();
            prop_assert_eq!(
                crashed.shard_count(), c.0 as usize,
                "crash() must preserve the shard count"
            );
            let durable = crashed.read_bytes(base, BLOCK).unwrap();
            prop_assert_eq!(&durable, &durable_r, "durable media diverged for {:?}", c);
            prop_assert_eq!(
                crashed.check_heap().is_ok(), heap_r.is_ok(),
                "check_heap verdict diverged for {:?}", c
            );
            if let (Ok(hc), Ok(hr)) = (crashed.check_heap(), heap_r.clone()) {
                prop_assert_eq!(hc, hr, "heap report diverged for {:?}", c);
            }
        }
    }
}

/// What [`straddle_script`] lets one observe of a pool.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<Outcome>,
    banks: Vec<StatsSnapshot>,
    totals: StatsSnapshot,
    events: u64,
    volatile: Vec<u8>,
    crashed: Vec<u8>,
}

/// Stores, fused store+flushes and word accesses laid across the pool
/// offset `boundary`, spelled `spelling`, under a count-only plan or none.
fn straddle_script(shards: u32, boundary: u64, spelling: Spelling, armed: bool) -> Observed {
    let (mut pool, _) = create(shards);
    if armed {
        pool.arm_faults(FaultPlan::count_only());
    }
    // `apply` addresses a block: lay it with the boundary in its middle.
    let base = PAddr::new(boundary - BLOCK / 2);
    let before = |n: u64| BLOCK / 2 - n;
    let script = [
        Op::StoreFlush(before(100), 200, 0x5A),
        Op::Fence,
        // Re-dirties fenced lines on both sides, then an 8-byte store and
        // load at `boundary - 4`: half the word on each side.
        Op::StoreFlush(before(130), 260, 0xC3),
        Op::WriteWord(before(4), 0x1122_3344_5566_7788),
        Op::ReadWord(before(4)),
        Op::Write(before(64), 128, 0x0F),
    ];
    let mut results = Vec::new();
    for op in &script {
        let (p, r) = apply(pool, base, &Tracked::default(), spelling, op);
        pool = p;
        results.push(r);
    }
    assert_eq!(results[4], Ok(0x1122_3344_5566_7788));
    Observed {
        results,
        banks: pool.stats().shard_snapshots(),
        totals: pool.stats().snapshot(),
        events: pool.fault_events(),
        volatile: pool.read_bytes(base, BLOCK).unwrap(),
        crashed: pool.crash_media(&CrashConfig::with_seed(0xB0DA)),
    }
}

/// The random block sits inside shard 0 at every shard count, so the
/// straddling routes get a script of their own: a fused `store_flush` and
/// the word accesses laid across the end of shard 0 are still the generic
/// calls — per bank — and the pool still equals the one-shard pool, where
/// the same bytes straddle nothing.
#[test]
fn lean_primitives_across_a_shard_boundary_equal_the_generic_calls() {
    for shards in [2u32, 4, 7] {
        let boundary = POOL_SIZE.div_ceil(u64::from(shards)).next_multiple_of(64);
        for armed in [false, true] {
            let lean = straddle_script(shards, boundary, Spelling::Lean, armed);
            let generic = straddle_script(shards, boundary, Spelling::Generic, armed);
            assert_eq!(lean, generic, "{shards} shards, armed {armed}");
            assert!(
                lean.banks[0].flushes > 0 && lean.banks[1].flushes > 0,
                "both sides of the boundary were flushed: {:?}",
                lean.banks
            );
            assert_eq!(lean.events > 0, armed);

            let one = straddle_script(1, boundary, Spelling::Lean, armed);
            assert_eq!(
                (&lean.results, lean.totals, lean.events),
                (&one.results, one.totals, one.events),
                "{shards} shards, armed {armed}"
            );
            assert!(lean.volatile == one.volatile && lean.crashed == one.crashed);
        }
    }
}
