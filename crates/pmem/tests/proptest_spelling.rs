//! Lock-step equivalence of the pool's lean access paths and the generic
//! calls they are defined as.
//!
//! The lean paths are the fused `store_flush` and the fixed-width
//! `read_u64`/`write_u64`. The reference pool runs them; the candidate runs
//! the same schedule with every lean primitive *spelled out* (`write_bytes`
//! then `flush`; 8-byte `write_bytes`/`read_into`). Random schedules of
//! store/flush/fence/crash operations — including armed [`FaultPlan`]s that
//! kill the pool mid-schedule, torn trip-point stores, and tracer
//! attach/detach — must produce identical volatile reads, identical
//! per-step error results, identical recorded events with the same
//! persist-event indices, identical fault-trip points, bit-identical stats
//! counters, and identical durable media after a seeded crash.
//!
//! The schedules include the full allocator surface —
//! `alloc`/`free`/`reserve`/`publish`/`cancel` — so the allocator is held
//! to the same standard: identical addresses, identical error results
//! (`OutOfMemory`, `InvalidFree`, `InjectedCrash`), identical `heap_used`,
//! identical `check_heap` reports, and bit-identical durable allocator
//! metadata after a seeded crash.
//!
//! The cache keeps its lines in 4 KiB pages, so the schedules lean on that
//! geometry: stores up to three pages long, stores placed around 4 KiB
//! boundaries, and a pool whose capacity is not a multiple of 4 KiB.

use std::sync::Arc;

use clobber_pmem::{
    CrashConfig, FaultPlan, PAddr, PmemError, PmemPool, PoolOptions, TraceEvent, Tracer,
};
use proptest::prelude::*;

const PAGE: u64 = 4096;
/// 1 MiB and 37 lines: line-aligned, not page-aligned.
const POOL_SIZE: u64 = (1 << 20) + 37 * 64;
const BLOCK: u64 = 64 << 10;

/// How a pool executes the lean primitives of a schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Spelling {
    /// `store_flush`, `write_u64`, `read_u64` themselves.
    Lean,
    /// The generic calls they are defined as.
    Generic,
}

/// One step of the driver script. Offsets/lengths are pre-clipped to the
/// allocated block so pool metadata stays intact and a crashed pool can
/// always be reopened.
#[derive(Clone, Debug)]
enum Op {
    Write(u64, u64, u8),
    /// A store placed relative to the `n`-th 4 KiB boundary of the pool
    /// inside the block: `(n, bytes before the boundary, len, fill)`.
    WriteAt(u64, u64, u64, u8),
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
        1 => (0u64..BLOCK, 1u64..=3 * PAGE, 0u8..=255).prop_map(|(o, l, b)| Op::Write(o, l, b)),
        2 => (0u64..BLOCK / PAGE - 1, 0u64..130, 1u64..300, 0u8..=255)
            .prop_map(|(n, before, l, b)| Op::WriteAt(n, before, l, b)),
        4 => (0u64..BLOCK, 0u64..256, 0u8..=255).prop_map(|(o, l, b)| Op::StoreFlush(o, l, b)),
        1 => (0u64..BLOCK, 0u64..=3 * PAGE, 0u8..=255)
            .prop_map(|(o, l, b)| Op::StoreFlush(o, l, b)),
        2 => (0u64..BLOCK - 8, 0u64..u64::MAX).prop_map(|(o, v)| Op::WriteWord(o, v)),
        2 => (0u64..BLOCK - 8).prop_map(Op::ReadWord),
        2 => (0u64..BLOCK, 1u64..512).prop_map(|(o, l)| Op::Flush(o, l)),
        1 => (0u64..BLOCK, 1u64..=3 * PAGE).prop_map(|(o, l)| Op::Flush(o, l)),
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
/// across spellings is part of the per-step comparison.
type Outcome = Result<u64, PmemError>;

/// Script-level allocator bookkeeping, driven by the *reference* pool's
/// results and shared with the candidate. Tracking may go stale after a
/// crash (rolled-back reservations, dropped publishes) — that is deliberate:
/// stale addresses exercise the `InvalidFree` paths, and both pools must
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
        Op::WriteAt(n, before, len, fill) => {
            let boundary = base.offset().next_multiple_of(PAGE) + n * PAGE;
            let off = (boundary - base.offset()).saturating_sub(before);
            apply(pool, base, tracked, spelling, &Op::Write(off, len, fill))
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

fn create() -> (PmemPool, PAddr) {
    let pool = PmemPool::create(PoolOptions::crash_sim(POOL_SIZE)).unwrap();
    let base = pool.alloc(BLOCK).unwrap();
    (pool, base)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// One schedule run lean and spelled out, every observable compared
    /// after every step.
    #[test]
    fn generic_spelling_matches_the_lean_reference(
        (ops, final_seed) in (proptest::collection::vec(op_strategy(), 1..60), 0u64..u64::MAX)
    ) {
        let (mut reference, base) = create();
        let (mut candidate, base_c) = create();
        prop_assert_eq!(base_c, base, "deterministic allocator diverged");
        let mut tracked = Tracked::default();

        for op in &ops {
            let (r, res_r) = apply(reference, base, &tracked, Spelling::Lean, op);
            reference = r;
            let (c, res_c) = apply(candidate, base, &tracked, Spelling::Generic, op);
            candidate = c;
            prop_assert_eq!(&res_c, &res_r, "op result diverged after {:?}", op);
            prop_assert_eq!(
                drain_trace(&candidate), drain_trace(&reference),
                "recorded events diverged after {:?}", op
            );
            // Persist-event numbering and trip points are the ordering
            // contract: the fault mutex must observe the same total order.
            prop_assert_eq!(candidate.fault_events(), reference.fault_events());
            prop_assert_eq!(candidate.fault_tripped(), reference.fault_tripped());
            // The allocator frontier is part of the deterministic state.
            prop_assert_eq!(candidate.heap_used(), reference.heap_used());
            // Volatile view (media + cache overlay, or InjectedCrash on
            // a dead pool) must agree after every step.
            prop_assert_eq!(
                candidate.read_bytes(base, BLOCK), reference.read_bytes(base, BLOCK),
                "volatile reads diverged after {:?}", op
            );
            track(&mut tracked, op, &res_r);
        }

        // Counters are part of the contract.
        prop_assert_eq!(candidate.stats().snapshot(), reference.stats().snapshot());

        // The same crash seed must draw the same per-line survival
        // decisions and therefore produce identical durable media — even
        // when the schedule left the pool dead (tripped). The recovered
        // heap structure is part of the durable contract.
        let crashed_r = reference.crash(&CrashConfig::with_seed(final_seed)).unwrap();
        let crashed_c = candidate.crash(&CrashConfig::with_seed(final_seed)).unwrap();
        prop_assert_eq!(
            crashed_c.read_bytes(base, BLOCK).unwrap(), crashed_r.read_bytes(base, BLOCK).unwrap(),
            "durable media diverged"
        );
        prop_assert_eq!(crashed_c.check_heap(), crashed_r.check_heap());
    }
}
