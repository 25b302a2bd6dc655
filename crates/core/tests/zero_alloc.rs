//! Proves the steady-state transactional read + clobber-detect + log path
//! performs zero heap allocations, with a counting global allocator.
//!
//! The first run of the txfunc warms every pooled buffer (the recycled
//! `TxScratch`, the dense cache's pages, the clobber log staging buffer);
//! the second run measures the allocation count inside the transaction
//! body, after its first store, and must observe none.
//!
//! The same is then asked of a batch-shaped transaction — 16 SETs, each a
//! chain walk of scattered 8-byte loads, a fresh allocation and a clobbered
//! head — whose ~500-line read set is what the access sets must hold
//! without growing once warmed up (they keep their tables across `clear`).
//!
//! The batch then runs under Redo, whose whole warmed `run` is held to the
//! one allocation of its return payload.
//!
//! Last, the allocation budgets of a restart: reopening an 8 MiB image,
//! and the first transaction of a fresh runtime, are each held to a fixed
//! count.
//!
//! This file intentionally holds a single test: the counter is global, so
//! a concurrently running test in the same binary would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clobber_nvm::{ArgList, Backend, Runtime, RuntimeOptions, Tx, TxResult};
use clobber_pmem::{PAddr, PmemPool, PoolMode, PoolOptions};

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

/// Allocations of a fresh runtime's first transaction before its slots
/// carried a log mirror and its scratch a dirty set (17), plus ten since the
/// cache's page slab grows by 64 KiB chunks: creating the slot stages its
/// zeroed logs, about 200 pages, in twelve chunks and two regrowths of the
/// chunk list where a doubling slab took four reallocations (27), less one
/// since one access table and a store buffer (two `Vec`s, sized once)
/// replaced three range sets and a set-algebra buffer (26), less four since
/// the begin record is a v_log entry: creating the slot writes back a few
/// lines, not 38, so the cache's pending-flush list regrows fewer times,
/// and the begin encodes its record into the scratch's reused buffer.
const FIRST_TX: u64 = 22;

/// Allocations of a warmed Redo run of the 16-SET batch, whole `run`
/// counted. The commit streams its 160 store-buffer words into the redo log
/// (collecting them into a `Vec` first cost 7 more: 184); what remains is
/// the txfunc's return payload and `Ulog::apply_forwards` reading the log
/// back: the growth of its one stream buffer and its span list (a buffer
/// per entry cost 160 more: 177, and growing the stream a word at a time 2
/// more).
const REDO_BATCH: u64 = 16;

/// A 16-SET batch transaction — the shape of one KV-service drain — that
/// returns how often its body allocated after its first store.
fn batch(tx: &mut Tx<'_>, args: &ArgList) -> TxResult {
    let heap = PAddr::new(args.u64(0)?);
    // Scattered 8-byte cells of 32-byte nodes, as a chain walk sees them.
    let cell = |set: u64, hop: u64| {
        let node = (set * 31 + hop).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 49; // 0..32768
        heap.add(node * 32 + (hop % 4) * 8)
    };
    tx.write_u64(heap, 1)?; // begin record, outside the window
    let start = ALLOCS.load(Ordering::Relaxed);
    let value = [0xABu8; 64];
    for set in 0..16u64 {
        for hop in 0..30 {
            tx.read_u64(cell(set, hop))?;
        }
        // Update in place: fresh value buffer, clobber pointer and head.
        let vbuf = tx.pmalloc(64)?;
        tx.write_bytes(vbuf, &value)?;
        tx.write_u64(cell(set, 29), vbuf.offset())?;
        let head = tx.read_u64(cell(set, 0))?;
        tx.write_u64(cell(set, 0), head + 1)?;
        tx.pfree(vbuf)?;
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - start;
    Ok(Some(delta.to_le_bytes().to_vec()))
}

#[test]
fn steady_state_read_clobber_path_is_allocation_free() {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap());
    let rt = Runtime::create(pool, RuntimeOptions::default()).unwrap();
    let base = rt.pool().alloc(1024).unwrap();

    rt.register("hot", |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        // First store: persists the deferred begin record (which writes the
        // txfunc name and args to the v_log) before the measured window.
        tx.write_u64(base, 1)?;
        let start = ALLOCS.load(Ordering::Relaxed);
        let mut buf = [0u8; 64];
        for round in 0..64u64 {
            for cell in 0..8u64 {
                // Read-before-write makes each cell a clobbered input: the
                // first round logs its old value, later rounds hit the
                // already-logged fast path.
                let addr = base.add(64 + cell * 64);
                let v = tx.read_u64(addr)?;
                tx.write_u64(addr, v + round)?;
            }
            tx.read_into(base.add(64), &mut buf)?;
        }
        let delta = ALLOCS.load(Ordering::Relaxed) - start;
        Ok(Some(delta.to_le_bytes().to_vec()))
    });

    let args = ArgList::new().with_u64(base.offset());
    // Warm-up transaction: sizes the pooled scratch, the cache pages and
    // the log staging buffer. Its allocation count is irrelevant.
    rt.run("hot", &args).unwrap();
    // Steady state: the identical transaction must not allocate at all
    // inside its read/write loop.
    let out = rt.run("hot", &args).unwrap().unwrap();
    let delta = u64::from_le_bytes(out[..8].try_into().unwrap());
    assert_eq!(
        delta, 0,
        "steady-state read+clobber-detect path allocated {delta} time(s)"
    );

    // A warmed-up 16-SET batch: the shape of one KV-service drain.
    let heap = rt.pool().alloc(1 << 20).unwrap();
    rt.register("batch", batch);
    let args = ArgList::new().with_u64(heap.offset());
    // Two warm-ups: the first bumps the frontier sixteen times and its freed
    // blocks reach the free list only at commit, so the second is the first
    // to pop them, as every later batch does.
    rt.run("batch", &args).unwrap();
    rt.run("batch", &args).unwrap();
    let out = rt.run("batch", &args).unwrap().unwrap();
    let delta = u64::from_le_bytes(out[..8].try_into().unwrap());
    assert_eq!(
        delta, 0,
        "steady-state 16-SET batch transaction allocated {delta} time(s)"
    );

    // The same batch under Redo, warmed the same way, counted around `run`.
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap());
    let rt = Runtime::create(pool, RuntimeOptions::new(Backend::Redo)).unwrap();
    let heap = rt.pool().alloc(1 << 20).unwrap();
    rt.register("batch", batch);
    let args = ArgList::new().with_u64(heap.offset());
    rt.run("batch", &args).unwrap();
    rt.run("batch", &args).unwrap();
    let start = ALLOCS.load(Ordering::Relaxed);
    rt.run("batch", &args).unwrap();
    let delta = ALLOCS.load(Ordering::Relaxed) - start;
    println!("warmed Redo 16-SET batch run: {delta} allocations");
    assert_eq!(
        delta, REDO_BATCH,
        "warmed Redo 16-SET batch run allocated {delta} time(s)"
    );

    // A pool instance: the shard cells, their counter banks, the stats
    // handle — one allocation each (the allocator mirror is inline, and its
    // free lists and reservation map allocate on first use). The benchmark's
    // `kv_crash_recover` reopens a pool inside every timed cycle and bounds
    // `host_allocs_per_op` to 1.4 allocations, so one more here is a
    // regression there.
    let image = PmemPool::create(PoolOptions::crash_sim(8 << 20))
        .unwrap()
        .into_media();
    let start = ALLOCS.load(Ordering::Relaxed);
    let _reopened = PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap();
    let delta = ALLOCS.load(Ordering::Relaxed) - start;
    println!("open_from_media: {delta} allocations");
    assert_eq!(delta, 3, "open_from_media allocated {delta} time(s)");

    // A fresh runtime's first transaction — `kv_crash_recover` opens two
    // runtimes per cycle. The slot's log mirror lives in its slot-table
    // entry and the dirty set inside the scratch, so neither adds to what
    // creating the slot, leasing it and warming the scratch cost before.
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap());
    let rt = Runtime::create(pool, RuntimeOptions::default()).unwrap();
    let cell = rt.pool().alloc(8).unwrap();
    rt.register("first", |tx, args| {
        let cell = PAddr::new(args.u64(0)?);
        let v = tx.read_u64(cell)?;
        tx.write_u64(cell, v + 1)?;
        Ok(None)
    });
    let args = ArgList::new().with_u64(cell.offset());
    let start = ALLOCS.load(Ordering::Relaxed);
    rt.run("first", &args).unwrap();
    let delta = ALLOCS.load(Ordering::Relaxed) - start;
    println!("first transaction of a fresh runtime: {delta} allocations");
    assert!(
        delta <= FIRST_TX,
        "first transaction allocated {delta} time(s)"
    );
}
