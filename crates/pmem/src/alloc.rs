//! Crash-consistent persistent heap allocator.
//!
//! Modeled on PMDK's allocator as the paper uses it (§4.2):
//!
//! * **Immediate path**, outside transactions. [`PmemPool::alloc`] guards
//!   its update with a 64-byte write-ahead *redo record* of absolute values,
//!   persisted before and cleared after; pool open replays an in-flight one
//!   (two fences). [`PmemPool::free_many`] — `free` is a batch of one —
//!   needs no record: two fences per call per arena, headers before heads.
//!   A crash between them leaks the batch (`HeapReport::free_blocks` above
//!   `free_blocks_listed`).
//! * **Transactional path** ([`PmemPool::reserve`]/[`PmemPool::publish`]/
//!   [`PmemPool::cancel`]): a reservation mutates only the volatile mirror
//!   of the allocator metadata, costing zero fences, and ends at its
//!   transaction's ordering point, as allocated (`publish`) or as free
//!   (`cancel`). Both are one pass that writes each block's header plus the
//!   free-list heads and frontier its arena moved, with flushes only — the
//!   caller's fence orders them. Until that fence media metadata never
//!   changed, so reserved blocks roll back on a crash — PMDK's
//!   reserve/publish design. The invariant the pass keeps: *every block on
//!   a mirror free stack has its on-media `next` equal to the block below
//!   it, because every push writes it.* A crash *between* publish and the
//!   caller's commit point can leak blocks but never corrupts the heap.
//!
//! Blocks are `[24-byte header][payload]`; small payloads use power-of-two
//! size classes 16 B..4 KiB, larger payloads are "huge" blocks rounded to
//! 4 KiB with their exact capacity stored in the header. Free-list chain
//! pointers live in the *header*, never the payload: a transaction may
//! reserve a freed block and overwrite its payload before publishing, and
//! those (possibly durable) payload bytes must not be able to corrupt the
//! persistent free chain a crash recovery walks.
//!
//! **Arenas and concurrency:** the heap is partitioned into arenas (see
//! [`HeapGeometry`]), each with its own persistent frontier, free-list
//! heads, redo record and volatile [`ArenaMirror`]. Threads are assigned
//! arenas round-robin at their first allocator call (the first thread gets
//! arena 0, keeping single-threaded runs bit-identical to the single-arena
//! layout); huge blocks always use arena 0, and exhaustion spills
//! deterministically to the other arenas in index order. An allocator call
//! locks only its arena's mirror plus the shard locks covering that
//! arena's byte span, so calls on different arenas proceed in parallel.
//!
//! **Reservation magazines:** each thread keeps a small per-class magazine
//! of pre-reserved, pre-zeroed blocks per pool, refilled by batch-popping
//! the arena's free list while the arena lock is already held. A magazine
//! hit makes `reserve` completely lock-free. Magazines are volatile-only:
//! their blocks sit in the mirror's reserved set like any other unpublished
//! reservation, so a crash rolls them back unless a later `publish` in the
//! same class persisted a deeper list head first — in which case they are
//! *leaked* (unlisted free blocks — the same documented, bounded leak class
//! an unpublished pop already had), never corruption.
//!
//! Crash testing assumes at most one uncommitted transaction holds
//! unpublished reservations per size class *per arena* at the crash point —
//! which per-thread arena routing now enforces by construction for
//! transactional workloads. Still outside it: two open transactions sharing
//! an arena, where one's publish writes the frontier past the other's
//! not yet formatted block.
//!
//! [`HeapGeometry`]: crate::geometry::HeapGeometry

use std::cell::RefCell;
use std::collections::HashMap;

use crate::addr::{align_up, PAddr};
use crate::geometry::{ArenaLayout, HeapGeometry};
use crate::pool::{get_u64, put_u64, PmemError, PmemPool, PoolMode};
use crate::shard::{MediaView, RawPmem};

/// Payload capacities of the small size classes.
pub const CLASS_SIZES: [u64; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
/// Index of the huge-block free list in the heads array.
pub const HUGE_CLASS: u32 = 9;
/// Number of free-list heads (small classes + huge list).
pub const NUM_HEADS: usize = 10;

const HDR_LEN: u64 = 24;
const HDR_NEXT: u64 = 16;
const STATE_ALLOC: u32 = 0xA11C_0C8D;
const STATE_FREE: u32 = 0xF4EE_B10C;

const OP_POP: u64 = 1;
const OP_BUMP: u64 = 2;

/// How far a [`PmemPool::free_in`] round runs: the product stops at the two
/// ends, the unit tests cut the power at the stages between.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
#[cfg_attr(not(test), allow(dead_code))]
enum FreeStage {
    Validated,
    HeadersFlushed,
    HeadersFenced,
    HeadsFlushed,
    Done,
}

/// Blocks a thread-local magazine holds per size class.
const MAGAZINE_CAP: usize = 8;
/// Pools a thread keeps routing/magazine state for (oldest evicted; an
/// evicted magazine's blocks stay reserved in the mirror — a bounded
/// volatile leak until the pool is reopened).
const TLS_POOL_CAP: usize = 8;

/// Where an allocation's block came from, for the stats split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    FreeList,
    Frontier,
}

#[derive(Debug, Clone, Copy)]
struct Reservation {
    class: u32,
    /// Payload capacity in bytes.
    capacity: u64,
}

/// Volatile mirror of one arena's persistent allocator metadata.
///
/// Rebuilt from media on pool open; reservations live only here until
/// published.
pub(crate) struct ArenaMirror {
    pub(crate) layout: ArenaLayout,
    pub(crate) frontier: u64,
    /// Free payload addresses per head, top of stack last.
    free: [Vec<u64>; NUM_HEADS],
    /// Payload capacity of each free huge block (huge blocks have exact
    /// sizes, unlike the fixed small classes).
    huge_sizes: HashMap<u64, u64>,
    reserved: HashMap<u64, Reservation>,
    /// Heads whose media copy is stale relative to the mirror.
    dirty_heads: [bool; NUM_HEADS],
    frontier_dirty: bool,
}

impl ArenaMirror {
    /// Rebuilds the mirror by walking the arena's persistent free lists.
    pub(crate) fn rebuild(media: &[u8], layout: ArenaLayout) -> ArenaMirror {
        let frontier = get_u64(media, layout.frontier_off());
        let mut huge_sizes = HashMap::new();
        let free = std::array::from_fn(|head_idx| {
            let mut chain = Vec::new();
            let mut cur = get_u64(media, layout.head_off(head_idx as u32));
            // Walk head -> tail via header chain pointers, guarding against
            // cycles or torn pointers from corruption.
            let mut hops = 0u64;
            while cur >= layout.heap_lo + HDR_LEN
                && cur + 8 <= layout.heap_hi
                && hops < (media.len() as u64 / 16)
            {
                chain.push(cur);
                if head_idx == HUGE_CLASS as usize {
                    huge_sizes.insert(cur, get_u64(media, cur - HDR_LEN + 8));
                }
                cur = get_u64(media, cur - HDR_LEN + HDR_NEXT);
                hops += 1;
            }
            // Stack pop order must match list order: head is popped first.
            chain.reverse();
            chain
        });
        ArenaMirror {
            layout,
            frontier,
            free,
            huge_sizes,
            reserved: HashMap::new(),
            dirty_heads: [false; NUM_HEADS],
            frontier_dirty: false,
        }
    }
}

/// Replays in-flight allocator redo records against raw media, one per
/// arena.
///
/// Called on pool open; a record is only present if a crash interrupted an
/// immediate alloc. All stored values are absolute, so replay is
/// idempotent.
pub(crate) fn replay_redo(media: &mut [u8], geom: &HeapGeometry) {
    for arena in geom.arenas() {
        let r = arena.redo_off();
        if get_u64(media, r) != 1 {
            continue;
        }
        let op = get_u64(media, r + 8);
        let class = get_u64(media, r + 16) as u32;
        let block = get_u64(media, r + 24);
        let a = get_u64(media, r + 32);
        let size = get_u64(media, r + 40);
        let word = match op {
            OP_POP => Some(arena.head_off(class)),
            OP_BUMP => Some(arena.frontier_off()),
            _ => None, // unknown op: ignore rather than corrupt further
        };
        if let Some(word) = word {
            put_u64(media, word, a);
            write_header_media(media, block, STATE_ALLOC, class, size);
        }
        put_u64(media, r, 0);
    }
}

fn write_header_media(media: &mut [u8], payload: u64, state: u32, class: u32, size: u64) {
    let h = (payload - HDR_LEN) as usize;
    media[h..h + 4].copy_from_slice(&state.to_le_bytes());
    media[h + 4..h + 8].copy_from_slice(&class.to_le_bytes());
    media[h + 8..h + 16].copy_from_slice(&size.to_le_bytes());
}

/// Returns `(head_index, payload_capacity)` for a request of `size` bytes.
fn classify(size: u64) -> (u32, u64) {
    for (i, &cs) in CLASS_SIZES.iter().enumerate() {
        if size <= cs {
            return (i as u32, cs);
        }
    }
    (HUGE_CLASS, align_up(size, 4096))
}

/// Thread-local allocator state for one pool: the arena this thread routes
/// to plus its per-class reservation magazines.
struct PoolTls {
    pool_id: u64,
    arena: u32,
    /// Pre-reserved, pre-zeroed blocks per small size class; popping one is
    /// a lock-free `reserve`.
    mags: [Vec<u64>; CLASS_SIZES.len()],
}

#[derive(Default)]
struct AllocTls {
    pools: Vec<PoolTls>,
}

impl AllocTls {
    /// Index of (creating if absent) this pool's state. Creation claims an
    /// arena from the pool's round-robin counter and may evict the oldest
    /// entry.
    fn slot(&mut self, pool: &PmemPool) -> usize {
        if let Some(i) = self.pools.iter().position(|p| p.pool_id == pool.pool_id()) {
            return i;
        }
        if self.pools.len() >= TLS_POOL_CAP {
            self.pools.remove(0);
        }
        self.pools.push(PoolTls {
            pool_id: pool.pool_id(),
            arena: pool.claim_arena(),
            mags: Default::default(),
        });
        self.pools.len() - 1
    }
}

thread_local! {
    static ALLOC_TLS: RefCell<AllocTls> = RefCell::new(AllocTls::default());
}

/// Cache-aware persistent write helpers used while the engine's locks are
/// held (one arena mirror + the shards covering the arena's span).
struct Ops<'a, 'b> {
    raw: &'a mut RawPmem<'b>,
    mode: PoolMode,
    flushes: u64,
    fences: u64,
    write_bytes: u64,
}

impl<'a, 'b> Ops<'a, 'b> {
    fn new(raw: &'a mut RawPmem<'b>, mode: PoolMode) -> Self {
        Ops {
            raw,
            mode,
            flushes: 0,
            fences: 0,
            write_bytes: 0,
        }
    }

    fn write_u64(&mut self, offset: u64, value: u64) {
        self.raw.write_raw(offset, &value.to_le_bytes(), self.mode);
        self.write_bytes += 8;
    }

    fn write(&mut self, offset: u64, data: &[u8]) {
        self.raw.write_raw(offset, data, self.mode);
        self.write_bytes += data.len() as u64;
    }

    fn flush(&mut self, offset: u64, len: u64) {
        self.flushes += self.raw.flush_raw(offset, len, self.mode);
    }

    fn fence(&mut self) {
        self.fences += 1;
        if self.mode == PoolMode::CrashSim {
            self.raw.fence_raw();
        }
    }

    /// Credits the accumulated hot-path counters while the engine's locks
    /// are still held. Call exactly once, after the last persist op.
    fn finish(self) {
        self.raw
            .credit_hot(self.flushes, self.fences, self.write_bytes);
    }

    fn write_header(&mut self, payload: u64, state: u32, class: u32, size: u64) {
        let h = payload - HDR_LEN;
        let mut hdr = [0u8; 16];
        hdr[0..4].copy_from_slice(&state.to_le_bytes());
        hdr[4..8].copy_from_slice(&class.to_le_bytes());
        hdr[8..16].copy_from_slice(&size.to_le_bytes());
        self.write(h, &hdr);
    }

    /// `(state, class, capacity)` of the block at `payload`.
    fn read_header(&mut self, payload: u64) -> (u32, u32, u64) {
        let mut hdr = [0u8; 16];
        self.raw.read_raw(payload - HDR_LEN, &mut hdr);
        let tag = get_u64(&hdr, 0);
        (tag as u32, (tag >> 32) as u32, get_u64(&hdr, 8))
    }

    /// The one push, keeping the module's invariant: the header as
    /// `STATE_FREE`, chained onto the mirror top — whatever media says the
    /// head is — and flushed. The caller writes the head afterwards.
    fn push_free(&mut self, am: &mut ArenaMirror, payload: u64, class: u32, size: u64) {
        let list = &mut am.free[class as usize];
        self.write_header(payload, STATE_FREE, class, size);
        self.write_u64(payload - HDR_LEN + HDR_NEXT, *list.last().unwrap_or(&0));
        self.flush(payload - HDR_LEN, HDR_LEN);
        list.push(payload);
        if class == HUGE_CLASS {
            am.huge_sizes.insert(payload, size);
        }
    }

    /// Writes and flushes `class`'s list head from the mirror top, so the
    /// persistent chain stays intact.
    fn write_head(&mut self, am: &ArenaMirror, class: usize) {
        let head = am.layout.head_off(class as u32);
        self.write_u64(head, *am.free[class].last().unwrap_or(&0));
        self.flush(head, 8);
    }
}

impl PmemPool {
    /// The arena this thread's allocations route to (claiming one on the
    /// thread's first allocator call against this pool).
    fn routed_arena(&self) -> usize {
        if self.arena_count() == 1 {
            return 0;
        }
        ALLOC_TLS.with(|t| {
            let mut t = t.borrow_mut();
            let i = t.slot(self);
            t.pools[i].arena as usize
        })
    }

    /// Visits `home` first, then every other arena ascending, applying `f`
    /// until it returns something other than `OutOfMemory` — the
    /// deterministic spill order.
    fn spill<R>(
        &self,
        home: usize,
        requested: u64,
        mut f: impl FnMut(usize) -> Result<R, PmemError>,
    ) -> Result<R, PmemError> {
        let n = self.arena_count();
        for idx in std::iter::once(home).chain((0..n).filter(|&i| i != home)) {
            match f(idx) {
                Err(PmemError::OutOfMemory { .. }) => continue,
                r => return r,
            }
        }
        Err(PmemError::OutOfMemory { requested })
    }

    /// Allocates `size` bytes from the persistent heap, immediately and
    /// crash-consistently (two fences). For allocation inside a transaction
    /// use [`reserve`](Self::reserve) via the runtime's `pmalloc`.
    ///
    /// The returned payload is zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfMemory`] if the heap is exhausted and
    /// [`PmemError::OutOfBounds`] for zero-size requests beyond capacity.
    pub fn alloc(&self, size: u64) -> Result<PAddr, PmemError> {
        self.fail_if_dead()?;
        let (class, capacity) = classify(size.max(8));
        let home = if class == HUGE_CLASS {
            0
        } else {
            self.routed_arena()
        };
        let (payload, origin) =
            self.spill(home, capacity, |idx| self.alloc_in(idx, class, capacity))?;
        let stats = self.stats();
        stats.bump(&stats.allocs, 1);
        match origin {
            Origin::FreeList => stats.bump(&stats.alloc_freelist, 1),
            Origin::Frontier => stats.bump(&stats.alloc_frontier, 1),
        }
        self.trace_app_event(clobber_trace::EventKind::Alloc, 0, payload, capacity);
        Ok(PAddr::new(payload))
    }

    /// The immediate allocation path against one arena, under the arena's
    /// redo record: absolute values, durable before the update is applied
    /// and cleared after it.
    fn alloc_in(&self, idx: usize, class: u32, capacity: u64) -> Result<(u64, Origin), PmemError> {
        let mode = self.mode();
        self.engine().with_arena_raw(idx, |am, raw| {
            let l = am.layout;
            // The metadata word the block comes off, and that word's new value.
            let (payload, origin, op, word, value) = match pick_block(am, class, capacity)? {
                Picked::Pop { payload, next } => {
                    (payload, Origin::FreeList, OP_POP, l.head_off(class), next)
                }
                Picked::Bump {
                    payload,
                    new_frontier,
                } => {
                    am.frontier = new_frontier;
                    let word = l.frontier_off();
                    (payload, Origin::Frontier, OP_BUMP, word, new_frontier)
                }
            };
            let mut ops = Ops::new(raw, mode);
            let r = l.redo_off();
            ops.write_u64(r + 8, op);
            ops.write_u64(r + 16, class as u64);
            ops.write_u64(r + 24, payload);
            ops.write_u64(r + 32, value);
            ops.write_u64(r + 40, capacity);
            ops.write_u64(r, 1);
            ops.flush(r, 48);
            ops.fence();
            ops.write_u64(word, value);
            ops.write_header(payload, STATE_ALLOC, class, capacity);
            ops.flush(word, 8);
            ops.flush(payload - HDR_LEN, HDR_LEN);
            ops.write_u64(r, 0);
            ops.flush(r, 8);
            ops.fence();
            zero_payload(&mut ops, payload, capacity);
            ops.finish();
            Ok((payload, origin))
        })
    }

    /// Returns `addr` (from [`alloc`](Self::alloc) or a published
    /// reservation) to the heap: [`free_many`](Self::free_many) of one block.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::InvalidFree`] if `addr` does not point at an
    /// allocated block.
    pub fn free(&self, addr: PAddr) -> Result<(), PmemError> {
        self.free_many(&[addr])
    }

    /// Returns `blocks` to their owning arenas' free lists, whichever thread
    /// frees them, at two fences per owning arena: every header `STATE_FREE`
    /// and chained, fence, every touched list head, fence. A head is one
    /// 8-byte store onto a chain already durable, so no redo record guards
    /// it; a crash between the fences leaks the batch, never corrupts.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::InvalidFree`], before anything is written, if an
    /// address is not an allocated block or appears twice.
    pub fn free_many(&self, blocks: &[PAddr]) -> Result<(), PmemError> {
        self.fail_if_dead()?;
        if blocks.is_empty() {
            return Ok(()); // most commits: not even the shared counter is touched
        }
        let owns = |idx: usize, b: &PAddr| self.geom().arena_of(b.offset()) == idx;
        let owners = || (0..self.arena_count()).filter(|&idx| blocks.iter().any(|b| owns(idx, b)));
        // One arena checks and writes under one lock round. A batch spanning
        // arenas has them all checked first: no thread holds two mirrors.
        if owners().nth(1).is_some() {
            for idx in owners() {
                self.free_in(idx, blocks, FreeStage::Validated)?;
            }
        }
        for idx in owners() {
            self.free_in(idx, blocks, FreeStage::Done)?;
        }
        let stats = self.stats();
        stats.bump(&stats.frees, blocks.len() as u64);
        for b in blocks {
            self.trace_app_event(clobber_trace::EventKind::Free, 0, b.offset(), 0);
        }
        Ok(())
    }

    /// Arena `idx`'s share of a [`free_many`](Self::free_many), one lock
    /// round, run as far as `stop`.
    fn free_in(&self, idx: usize, blocks: &[PAddr], stop: FreeStage) -> Result<(), PmemError> {
        let mode = self.mode();
        let mine = || {
            let all = blocks.iter().map(|b| b.offset()).enumerate();
            all.filter(|&(_, p)| self.geom().arena_of(p) == idx)
        };
        self.engine().with_arena_raw(idx, |am, raw| {
            let mut ops = Ops::new(raw, mode);
            let l = am.layout;
            for (i, payload) in mine() {
                // In the heap, not named twice (a scan quadratic in the
                // batch: a transaction's handful of frees), and allocated.
                let in_heap = l.heap_lo + HDR_LEN <= payload && payload < l.heap_hi;
                let valid = in_heap && !blocks[..i].contains(&blocks[i]) && {
                    let (state, class, _) = ops.read_header(payload);
                    state == STATE_ALLOC && (class as usize) < NUM_HEADS
                };
                if !valid {
                    return Err(PmemError::InvalidFree { addr: payload });
                }
            }
            if stop == FreeStage::Validated {
                return Ok(());
            }
            let mut touched = [false; NUM_HEADS];
            for (_, payload) in mine() {
                let (_, class, size) = ops.read_header(payload);
                ops.push_free(am, payload, class, size);
                touched[class as usize] = true;
            }
            // The header a head will name is durable before the head is.
            if stop >= FreeStage::HeadersFenced {
                ops.fence();
            }
            if stop >= FreeStage::HeadsFlushed {
                for class in (0..NUM_HEADS).filter(|&c| touched[c]) {
                    ops.write_head(am, class);
                }
            }
            if stop == FreeStage::Done {
                ops.fence();
            }
            ops.finish();
            Ok(())
        })
    }

    /// Reserves `size` bytes without touching persistent metadata (zero
    /// fences — and zero locks when the thread's magazine has a block). The
    /// block becomes durable only when [`publish`](Self::publish)ed; until
    /// then a crash rolls it back automatically.
    ///
    /// The payload is zeroed (volatile until flushed by the caller).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfMemory`] if the heap is exhausted.
    pub fn reserve(&self, size: u64) -> Result<PAddr, PmemError> {
        self.fail_if_dead()?;
        let (class, capacity) = classify(size.max(8));
        let stats = self.stats();
        let mut home = 0usize;
        // The thread's drained magazine for this class, taken out of TLS on a
        // miss so a refill fills it in place instead of allocating.
        let mut mag = Vec::new();
        if class != HUGE_CLASS {
            // Magazine fast path: no lock at all.
            let hit = ALLOC_TLS.with(|t| {
                let mut t = t.borrow_mut();
                let i = t.slot(self);
                let e = &mut t.pools[i];
                home = e.arena as usize;
                let hit = e.mags[class as usize].pop();
                if hit.is_none() {
                    mag = std::mem::take(&mut e.mags[class as usize]);
                }
                hit
            });
            if let Some(payload) = hit {
                stats.bump(&stats.allocs, 1);
                stats.bump(&stats.reserves, 1);
                stats.bump(&stats.alloc_freelist, 1);
                stats.bump(&stats.magazine_hits, 1);
                self.trace_app_event(clobber_trace::EventKind::Reserve, 0, payload, capacity);
                return Ok(PAddr::new(payload));
            }
        }
        let picked = self.spill(home, capacity, |idx| {
            let refill = (idx == home && class != HUGE_CLASS).then_some(&mut mag);
            self.reserve_in(idx, class, capacity, refill)
        });
        if class != HUGE_CLASS {
            ALLOC_TLS.with(|t| {
                let mut t = t.borrow_mut();
                let i = t.slot(self);
                t.pools[i].mags[class as usize] = mag;
            });
        }
        let (payload, origin) = picked?;
        stats.bump(&stats.allocs, 1);
        stats.bump(&stats.reserves, 1);
        match origin {
            Origin::FreeList => stats.bump(&stats.alloc_freelist, 1),
            Origin::Frontier => stats.bump(&stats.alloc_frontier, 1),
        }
        self.trace_app_event(clobber_trace::EventKind::Reserve, 0, payload, capacity);
        Ok(PAddr::new(payload))
    }

    /// The locked reservation path against one arena. With a `refill`
    /// magazine (empty), batch-pops the free list: the first block is served
    /// and up to [`MAGAZINE_CAP`] more are reserved+zeroed into the
    /// magazine, ordered so magazine pops yield the exact sequence unbatched
    /// pops would have.
    fn reserve_in(
        &self,
        idx: usize,
        class: u32,
        capacity: u64,
        refill: Option<&mut Vec<u64>>,
    ) -> Result<(u64, Origin), PmemError> {
        let mode = self.mode();
        self.engine().with_arena_raw(idx, |am, raw| {
            let mut ops = Ops::new(raw, mode);
            let res = Reservation { class, capacity };
            if let Some(mag) = refill.filter(|_| !am.free[class as usize].is_empty()) {
                let list = &mut am.free[class as usize];
                let served = list.pop().expect("non-empty checked above");
                // `drain` yields bottom-to-top, so `Vec::pop` on the magazine
                // yields original list order.
                mag.extend(list.drain(list.len().saturating_sub(MAGAZINE_CAP)..));
                for &payload in std::iter::once(&served).chain(mag.iter().rev()) {
                    am.reserved.insert(payload, res);
                    zero_payload(&mut ops, payload, capacity);
                }
                am.dirty_heads[class as usize] = true;
                ops.finish();
                return Ok((served, Origin::FreeList));
            }
            let (payload, origin) = match pick_block(am, class, capacity)? {
                Picked::Pop { payload, .. } => {
                    am.dirty_heads[class as usize] = true;
                    (payload, Origin::FreeList)
                }
                Picked::Bump {
                    payload,
                    new_frontier,
                } => {
                    am.frontier = new_frontier;
                    am.frontier_dirty = true;
                    (payload, Origin::Frontier)
                }
            };
            am.reserved.insert(payload, res);
            zero_payload(&mut ops, payload, capacity);
            ops.finish();
            Ok((payload, origin))
        })
    }

    /// Ends reservations as allocated: persists their block headers plus any
    /// free-list heads and frontier the owning arenas moved. Issues flushes
    /// only — the caller's commit fence orders them. Arenas are visited in
    /// ascending index order; arenas with no blocks in `blocks` are left
    /// untouched (their moved heads persist with a later publish there).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::InvalidFree`] if an address was not reserved.
    pub fn publish(&self, blocks: &[PAddr]) -> Result<(), PmemError> {
        self.fail_if_dead()?;
        let stats = self.stats();
        stats.bump(&stats.publishes, 1);
        self.trace_app_event(clobber_trace::EventKind::Publish, 0, blocks.len() as u64, 0);
        self.settle(blocks, STATE_ALLOC)
    }

    /// Ends reservations as free (clean abort, or a block its own
    /// transaction freed): [`publish`](Self::publish) with the other header
    /// state. Each block is pushed on its class's free list, chained to the
    /// block below it. Flushes only, like `publish` — fence afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::InvalidFree`] if an address was not reserved.
    pub fn cancel(&self, blocks: &[PAddr]) -> Result<(), PmemError> {
        self.fail_if_dead()?;
        let stats = self.stats();
        stats.bump(&stats.cancels, 1);
        self.trace_app_event(clobber_trace::EventKind::Cancel, 0, blocks.len() as u64, 0);
        self.settle(blocks, STATE_FREE)
    }

    /// The one way a reservation ends: each owning arena, once, in ascending
    /// index order, takes its blocks out of `reserved`, writes and flushes
    /// their headers in `state`, then writes back every head and the
    /// frontier its reservations moved.
    fn settle(&self, blocks: &[PAddr], state: u32) -> Result<(), PmemError> {
        let mode = self.mode();
        let arena_of = |b: &PAddr| self.geom().arena_of(b.offset());
        for idx in 0..self.arena_count() {
            if !blocks.iter().any(|b| arena_of(b) == idx) {
                continue;
            }
            self.engine().with_arena_raw(idx, |am, raw| {
                let mut ops = Ops::new(raw, mode);
                for b in blocks.iter().filter(|&b| arena_of(b) == idx) {
                    let payload = b.offset();
                    let res = am
                        .reserved
                        .remove(&payload)
                        .ok_or(PmemError::InvalidFree { addr: payload })?;
                    if state == STATE_FREE {
                        ops.push_free(am, payload, res.class, res.capacity);
                        am.dirty_heads[res.class as usize] = true;
                    } else {
                        ops.write_header(payload, state, res.class, res.capacity);
                        ops.flush(payload - HDR_LEN, HDR_LEN);
                    }
                }
                let l = am.layout;
                for class in 0..NUM_HEADS {
                    if am.dirty_heads[class] {
                        ops.write_head(am, class);
                        am.dirty_heads[class] = false;
                    }
                }
                if am.frontier_dirty {
                    let f = am.frontier;
                    ops.write_u64(l.frontier_off(), f);
                    ops.flush(l.frontier_off(), 8);
                    am.frontier_dirty = false;
                }
                ops.finish();
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Bytes of heap consumed by the allocation frontiers, over all arenas.
    pub fn heap_used(&self) -> u64 {
        (0..self.arena_count())
            .map(|i| {
                self.engine()
                    .with_arena_mirror(i, |am| am.frontier - am.layout.heap_lo)
            })
            .sum()
    }
}

/// Result of [`PmemPool::check_heap`]: a media-level walk of every block
/// between each arena's heap base and its durable frontier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapReport {
    /// Blocks in the allocated state.
    pub allocated_blocks: u64,
    /// Bytes of allocated payload.
    pub allocated_bytes: u64,
    /// Blocks in the free state.
    pub free_blocks: u64,
    /// Free blocks reachable from a free-list head (the rest are leaks —
    /// possible after crashes in documented windows, never corruption).
    pub free_blocks_listed: u64,
}

impl PmemPool {
    /// Walks the durable heap of every arena (every block header between
    /// the arena's heap base and its media frontier), validating block
    /// states, class/capacity consistency and free-list membership. Call on
    /// a quiescent or freshly-recovered pool: volatile reservations are
    /// intentionally invisible to this media-level view.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] describing the first structural
    /// violation found.
    pub fn check_heap(&self) -> Result<HeapReport, PmemError> {
        // A diagnostic walk over the durable image, in place: the view
        // hides how it is split into shards and holds their locks meanwhile.
        self.engine().with_media_view(|media| {
            let mut report = HeapReport::default();
            for (idx, arena) in self.geom().arenas().iter().enumerate() {
                check_arena(media, idx, arena, &mut report)?;
            }
            Ok(report)
        })
    }
}

fn check_arena(
    media: &MediaView<'_>,
    idx: usize,
    arena: &ArenaLayout,
    report: &mut HeapReport,
) -> Result<(), PmemError> {
    let frontier = media.get_u64(arena.frontier_off());
    if frontier < arena.heap_lo || frontier > arena.heap_hi {
        return Err(PmemError::CorruptPool(format!(
            "arena {idx} frontier {frontier:#x} outside its heap"
        )));
    }
    // Free blocks reachable from the arena's persistent lists.
    let mut listed = std::collections::HashSet::new();
    for head_idx in 0..NUM_HEADS {
        let mut cur = media.get_u64(arena.head_off(head_idx as u32));
        let mut hops = 0u64;
        while cur != 0 {
            if cur < arena.heap_lo + HDR_LEN || cur + 8 > frontier + HDR_LEN + 4096 {
                return Err(PmemError::CorruptPool(format!(
                    "arena {idx} free list {head_idx} points at {cur:#x}"
                )));
            }
            if !listed.insert(cur) {
                return Err(PmemError::CorruptPool(format!(
                    "free block {cur:#x} linked twice"
                )));
            }
            cur = media.get_u64(cur - HDR_LEN + HDR_NEXT);
            hops += 1;
            if hops > media.len() / 16 {
                return Err(PmemError::CorruptPool("free-list cycle".into()));
            }
        }
    }
    // Contiguous block walk.
    let mut at = align_up(arena.heap_lo, 16);
    while at + HDR_LEN < frontier {
        let payload = at + HDR_LEN;
        let state = media.get_u32(at);
        let class = media.get_u32(at + 4);
        let size = media.get_u64(at + 8);
        match state {
            STATE_ALLOC => {
                report.allocated_blocks += 1;
                report.allocated_bytes += size;
                if listed.contains(&payload) {
                    return Err(PmemError::CorruptPool(format!(
                        "allocated block {payload:#x} is on a free list"
                    )));
                }
            }
            STATE_FREE => {
                report.free_blocks += 1;
                if listed.contains(&payload) {
                    report.free_blocks_listed += 1;
                }
            }
            _ => {
                return Err(PmemError::CorruptPool(format!(
                    "block {payload:#x} has unknown state {state:#x}"
                )))
            }
        }
        let expected = if (class as usize) < CLASS_SIZES.len() {
            CLASS_SIZES[class as usize]
        } else if class == HUGE_CLASS {
            size
        } else {
            return Err(PmemError::CorruptPool(format!(
                "block {payload:#x} has bad class {class}"
            )));
        };
        if size != expected || size == 0 || payload + size > arena.heap_hi {
            return Err(PmemError::CorruptPool(format!(
                "block {payload:#x} class {class} capacity {size} inconsistent"
            )));
        }
        at = align_up(payload + size, 16);
    }
    Ok(())
}

enum Picked {
    Pop { payload: u64, next: u64 },
    Bump { payload: u64, new_frontier: u64 },
}

fn pick_block(am: &mut ArenaMirror, class: u32, capacity: u64) -> Result<Picked, PmemError> {
    if class != HUGE_CLASS {
        if let Some(payload) = am.free[class as usize].pop() {
            let next = *am.free[class as usize].last().unwrap_or(&0);
            return Ok(Picked::Pop { payload, next });
        }
    } else {
        // Huge blocks have exact capacities. Only the list head can be
        // popped without relinking the persistent chain, so it is reused
        // only on an exact capacity match; otherwise the frontier grows.
        let top = am.free[HUGE_CLASS as usize].last().copied();
        if let Some(payload) = top {
            if am.huge_sizes.get(&payload) == Some(&capacity) {
                let list = &mut am.free[HUGE_CLASS as usize];
                let p = list.pop().expect("non-empty checked above");
                let next = *list.last().unwrap_or(&0);
                am.huge_sizes.remove(&p);
                return Ok(Picked::Pop { payload: p, next });
            }
        }
    }
    let block_start = align_up(am.frontier, 16);
    let payload = block_start + HDR_LEN;
    let new_frontier = payload + capacity;
    if new_frontier > am.layout.heap_hi {
        return Err(PmemError::OutOfMemory {
            requested: capacity,
        });
    }
    Ok(Picked::Bump {
        payload,
        new_frontier,
    })
}

fn zero_payload(ops: &mut Ops<'_, '_>, payload: u64, capacity: u64) {
    const ZEROS: [u8; 4096] = [0u8; 4096];
    let mut off = payload;
    let mut left = capacity;
    while left > 0 {
        let n = left.min(4096);
        ops.write(off, &ZEROS[..n as usize]);
        off += n;
        left -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashConfig;
    use crate::geometry::layout;
    use crate::pool::PoolOptions;

    fn pool() -> PmemPool {
        PmemPool::create(PoolOptions::crash_sim(1 << 20)).expect("create")
    }

    #[test]
    fn classify_picks_smallest_fitting_class() {
        assert_eq!(classify(1), (0, 16));
        assert_eq!(classify(16), (0, 16));
        assert_eq!(classify(17), (1, 32));
        assert_eq!(classify(4096), (8, 4096));
        assert_eq!(classify(4097), (HUGE_CLASS, 8192));
        assert_eq!(classify(10000), (HUGE_CLASS, 12288));
    }

    #[test]
    fn alloc_returns_distinct_zeroed_blocks() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let b = p.alloc(64).unwrap();
        assert_ne!(a, b);
        assert_eq!(p.read_bytes(a, 64).unwrap(), vec![0u8; 64]);
        p.write_u64(a, 7).unwrap();
        assert_eq!(p.read_u64(b).unwrap(), 0, "blocks do not overlap");
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let p = pool();
        let a = p.alloc(100).unwrap(); // class 128
        p.free(a).unwrap();
        let b = p.alloc(100).unwrap();
        assert_eq!(a, b, "LIFO reuse from the free list");
    }

    #[test]
    fn freed_block_is_zeroed_on_realloc() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_bytes(a, &[0xAB; 64]).unwrap();
        p.free(a).unwrap();
        let b = p.alloc(64).unwrap();
        assert_eq!(p.read_bytes(b, 64).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn double_free_is_rejected() {
        let p = pool();
        let a = p.alloc(32).unwrap();
        p.free(a).unwrap();
        assert!(matches!(p.free(a), Err(PmemError::InvalidFree { .. })));
    }

    #[test]
    fn free_of_garbage_address_is_rejected() {
        let p = pool();
        assert!(matches!(
            p.free(PAddr::new(0)),
            Err(PmemError::InvalidFree { .. })
        ));
        assert!(matches!(
            p.free(PAddr::new(999_999_999)),
            Err(PmemError::InvalidFree { .. })
        ));
    }

    #[test]
    fn out_of_memory_is_reported() {
        let p = PmemPool::create(PoolOptions::performance(8192)).unwrap();
        let mut got = 0;
        loop {
            match p.alloc(1024) {
                Ok(_) => got += 1,
                Err(PmemError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(got < 100, "should exhaust an 8 KiB pool quickly");
        }
        assert!(got >= 1);
    }

    #[test]
    fn alloc_metadata_survives_adversarial_crash() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_u64(a, 42).unwrap();
        p.persist(a, 8).unwrap();
        let p2 = p.crash(&CrashConfig::drop_all(1)).unwrap();
        assert_eq!(p2.read_u64(a).unwrap(), 42);
        // The recovered allocator must not hand the same block out again.
        let b = p2.alloc(64).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn redo_replay_is_idempotent() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.free(a).unwrap();
        let mut media = p.media_snapshot();
        let geom = HeapGeometry::read(&media).unwrap();
        // Arm a fake in-flight pop of `a` and replay twice.
        let next = get_u64(&media, a.offset());
        put_u64(&mut media, layout::ALLOC_REDO + 8, OP_POP);
        put_u64(&mut media, layout::ALLOC_REDO + 16, 2); // class 64 -> idx 2
        put_u64(&mut media, layout::ALLOC_REDO + 24, a.offset());
        put_u64(&mut media, layout::ALLOC_REDO + 32, next);
        put_u64(&mut media, layout::ALLOC_REDO + 40, 64);
        put_u64(&mut media, layout::ALLOC_REDO, 1);
        let mut twice = media.clone();
        replay_redo(&mut media, &geom);
        replay_redo(&mut twice, &geom);
        replay_redo(&mut twice, &geom);
        assert_eq!(media, twice);
        let p2 = PmemPool::open_from_media(media, PoolMode::CrashSim).unwrap();
        let b = p2.alloc(64).unwrap();
        assert_ne!(a, b, "replayed pop removed the block from the free list");
    }

    #[test]
    fn unpublished_reservation_rolls_back_on_crash() {
        let p = pool();
        let r = p.reserve(64).unwrap();
        p.write_u64(r, 9).unwrap();
        p.persist(r, 8).unwrap(); // data persisted, metadata not
        let p2 = p.crash(&CrashConfig::drop_all(2)).unwrap();
        // The block was never allocated as far as the media is concerned.
        let again = p2.alloc(64).unwrap();
        assert_eq!(again, r, "rolled-back reservation is handed out afresh");
    }

    #[test]
    fn published_reservation_survives_crash() {
        let p = pool();
        let r = p.reserve(64).unwrap();
        p.write_u64(r, 9).unwrap();
        p.flush(r, 8).unwrap();
        p.publish(&[r]).unwrap();
        p.fence(); // commit point
        let p2 = p.crash(&CrashConfig::drop_all(3)).unwrap();
        assert_eq!(p2.read_u64(r).unwrap(), 9);
        let b = p2.alloc(64).unwrap();
        assert_ne!(b, r, "published block is off the free structures");
        // And it can be freed normally after recovery.
        p2.free(r).unwrap();
    }

    #[test]
    fn reserve_from_free_list_then_crash_restores_list() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.free(a).unwrap();
        let r = p.reserve(64).unwrap();
        assert_eq!(r, a, "reservation pops the freed block");
        let p2 = p.crash(&CrashConfig::drop_all(4)).unwrap();
        let again = p2.alloc(64).unwrap();
        assert_eq!(again, a, "free list head restored after crash");
    }

    #[test]
    fn cancel_returns_block_to_mirror() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.free(a).unwrap();
        let r = p.reserve(64).unwrap();
        p.cancel(&[r]).unwrap();
        let again = p.reserve(64).unwrap();
        assert_eq!(again, r);
    }

    #[test]
    fn free_while_a_reservation_is_outstanding_chains_onto_the_mirror_top() {
        // The media head of the class still names the reserved block until
        // its publish; a free in between must not chain onto it.
        let p = pool();
        let blocks: Vec<PAddr> = (0..4).map(|_| p.alloc(64).unwrap()).collect();
        for &b in &blocks[..3] {
            p.free(b).unwrap();
        }
        let r = p.reserve(64).unwrap();
        p.free(blocks[3]).unwrap();
        p.publish(&[r]).unwrap();
        p.fence();
        p.check_heap().unwrap();
        let p2 = p.crash(&CrashConfig::drop_all(5)).unwrap();
        p2.check_heap().unwrap();
    }

    #[test]
    fn free_many_rejects_a_bad_batch_before_writing_anything() {
        let p = std::sync::Arc::new(pool());
        let a = p.alloc(64).unwrap();
        let b = p.alloc(256).unwrap();
        // A block of another arena, already freed: a batch naming it spans
        // two arenas, and the bad address sits in the second.
        let side = {
            let p = p.clone();
            std::thread::spawn(move || p.alloc(64).unwrap())
                .join()
                .unwrap()
        };
        assert_ne!(p.geom().arena_of(side.offset()), 0);
        p.free(side).unwrap();
        let before = (p.check_heap().unwrap(), p.stats().snapshot().frees);
        for bad in [
            vec![a, a],
            vec![a, b, PAddr::new(999_999_999)],
            vec![a, PAddr::new(a.offset() + 8)],
            vec![b, a, side],
        ] {
            assert!(
                matches!(p.free_many(&bad), Err(PmemError::InvalidFree { .. })),
                "{bad:?}"
            );
            assert_eq!(
                (p.check_heap().unwrap(), p.stats().snapshot().frees),
                before
            );
            // Not even an unflushed store: every line survives this crash.
            let lucky = p.crash(&CrashConfig::keep_all(1)).unwrap();
            assert_eq!(lucky.check_heap().unwrap(), before.0, "{bad:?}");
        }
        p.free_many(&[b, a]).unwrap();
        p.free_many(&[]).unwrap();
        assert_eq!(p.stats().snapshot().frees, before.1 + 2);
    }

    /// No trip point lands inside an allocator call (`fail_if_dead`), so the
    /// batched free's two windows are cut here: a five-block, two-class
    /// batch stopped after each of its four stages, under power failures in
    /// which each flushed, unfenced line survives with p = 1/2.
    #[test]
    fn free_many_cut_at_every_stage_leaves_a_walkable_heap() {
        use FreeStage::*;
        let draws = (0..32)
            .map(|seed| CrashConfig::new(0.5, 0.0, seed))
            .chain([CrashConfig::drop_all(0), CrashConfig::keep_all(0)]);
        for stop in [HeadersFlushed, HeadersFenced, HeadsFlushed, Done] {
            for cfg in draws.clone() {
                let ctx = format!("stopped at {stop:?}, {cfg:?}");
                let p = pool();
                let small: Vec<PAddr> = (0..5).map(|_| p.alloc(64).unwrap()).collect();
                let large: Vec<PAddr> = (0..4).map(|_| p.alloc(256).unwrap()).collect();
                // Both lists start non-empty, and a block of each class
                // stays allocated next to the batch.
                p.free_many(&[small[0], large[0]]).unwrap();
                let batch = [small[1], large[1], small[2], large[2], small[3]];
                p.free_in(0, &batch, stop).unwrap();

                let p2 = p.crash(&cfg).unwrap();
                let rep = p2.check_heap().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_eq!(rep.allocated_blocks + rep.free_blocks, 9, "{ctx}");
                let leaked = rep.free_blocks - rep.free_blocks_listed;
                assert!(leaked <= 5, "{ctx}: {leaked} blocks leaked");
                if stop == Done {
                    assert_eq!((rep.free_blocks, leaked), (7, 0), "{ctx}");
                }
                let state =
                    |payload: u64| p2.read_u64(PAddr::new(payload - HDR_LEN)).unwrap() as u32;
                for idx in 0..p2.arena_count() {
                    let listed = p2.engine().with_arena_mirror(idx, |am| am.free.concat());
                    for payload in listed {
                        assert_eq!(
                            state(payload),
                            STATE_FREE,
                            "{ctx}: the rebuilt mirror lists {payload:#x}, which is not free"
                        );
                    }
                }
                for b in batch {
                    let s = state(b.offset());
                    assert!(s == STATE_ALLOC || s == STATE_FREE, "{ctx}: {b:?} {s:#x}");
                }
                // The reopened allocator works in both classes.
                let again = [p2.alloc(64).unwrap(), p2.alloc(256).unwrap()];
                p2.free_many(&again).unwrap();
                let rep = p2
                    .check_heap()
                    .unwrap_or_else(|e| panic!("{ctx}, reuse: {e}"));
                assert_eq!(rep.free_blocks - rep.free_blocks_listed, leaked, "{ctx}");
            }
        }
    }

    #[test]
    fn magazine_serves_repeat_reservations_without_locks() {
        let p = pool();
        // Stock the free list with several blocks of one class.
        let mut blocks = Vec::new();
        for _ in 0..6 {
            blocks.push(p.alloc(64).unwrap());
        }
        for &b in &blocks {
            p.free(b).unwrap();
        }
        let before = p.stats().snapshot();
        // First reserve refills the magazine; the rest hit it.
        let mut got = Vec::new();
        for _ in 0..6 {
            got.push(p.reserve(64).unwrap());
        }
        let d = p.stats().snapshot().delta(&before);
        assert_eq!(d.reserves, 6);
        assert_eq!(d.alloc_freelist, 6);
        assert_eq!(d.magazine_hits, 5, "all but the refill pop are hits");
        assert_eq!(d.fences, 0);
        assert_eq!(d.flushes, 0);
        // Magazine pops preserve the exact unbatched LIFO order.
        let mut expect = blocks.clone();
        expect.reverse();
        assert_eq!(got, expect);
        // Magazine blocks are real reservations: they publish fine.
        p.publish(&got).unwrap();
        p.fence();
        for &g in &got {
            p.free(g).unwrap();
        }
    }

    #[test]
    fn magazine_blocks_roll_back_on_crash_like_any_reservation() {
        let p = pool();
        let mut blocks = Vec::new();
        for _ in 0..4 {
            blocks.push(p.alloc(32).unwrap());
        }
        for &b in &blocks {
            p.free(b).unwrap();
        }
        let _r = p.reserve(32).unwrap(); // refills the magazine
        let p2 = p.crash(&CrashConfig::drop_all(12)).unwrap();
        // Nothing was published: the whole free list is intact on media.
        let rep = p2.check_heap().unwrap();
        assert_eq!(rep.free_blocks, 4);
        assert_eq!(rep.free_blocks_listed, 4);
    }

    #[test]
    fn publish_rejects_unreserved_address() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        assert!(matches!(
            p.publish(&[a]),
            Err(PmemError::InvalidFree { .. })
        ));
    }

    #[test]
    fn reserve_costs_no_fences() {
        let p = pool();
        let before = p.stats().snapshot();
        let _ = p.reserve(64).unwrap();
        let d = p.stats().snapshot().delta(&before);
        assert_eq!(d.fences, 0);
        assert_eq!(d.flushes, 0);
    }

    #[test]
    fn huge_alloc_round_trips() {
        let p = pool();
        let a = p.alloc(10_000).unwrap();
        p.write_bytes(a, &[0x7F; 10_000]).unwrap();
        assert_eq!(p.read_bytes(a, 10_000).unwrap(), vec![0x7F; 10_000]);
        p.free(a).unwrap();
        let b = p.alloc(10_000).unwrap();
        assert_eq!(a, b, "huge block reused");
    }

    #[test]
    fn huge_blocks_reuse_only_exact_capacities() {
        let p = pool();
        let small_huge = p.alloc(8_000).unwrap(); // rounds to 8 KiB
        p.free(small_huge).unwrap();
        // A larger request must NOT reuse the freed 8 KiB block.
        let bigger = p.alloc(12_000).unwrap();
        p.write_bytes(bigger, &[0xEE; 12_000]).unwrap();
        assert_ne!(
            bigger, small_huge,
            "capacity-mismatched reuse would overlap"
        );
        // An exact-capacity request does reuse it.
        let again = p.alloc(8_000).unwrap();
        assert_eq!(again, small_huge);
        // And the larger block's payload is intact.
        assert_eq!(p.read_bytes(bigger, 12_000).unwrap(), vec![0xEE; 12_000]);
    }

    #[test]
    fn growing_reallocation_pattern_stays_disjoint() {
        // The vacation customer-list pattern: free an N-byte buffer, then
        // allocate N+delta — repeatedly, across the huge threshold.
        let p = PmemPool::create(PoolOptions::performance(8 << 20)).unwrap();
        let mut cur = p.alloc(64).unwrap();
        let mut size = 64u64;
        let sentinel = p.alloc(64).unwrap();
        p.write_bytes(sentinel, &[0xAA; 64]).unwrap();
        for step in 0..40u64 {
            let bigger = size + 512;
            let next = p.alloc(bigger).unwrap();
            p.write_bytes(next, &vec![step as u8; bigger as usize])
                .unwrap();
            p.free(cur).unwrap();
            cur = next;
            size = bigger;
            assert_eq!(
                p.read_bytes(sentinel, 64).unwrap(),
                vec![0xAA; 64],
                "step {step} corrupted an unrelated block"
            );
        }
        assert_eq!(p.read_bytes(cur, size).unwrap(), vec![39u8; size as usize]);
    }

    #[test]
    fn allocation_spills_into_side_arenas_when_the_main_arena_fills() {
        let p = PmemPool::create(PoolOptions::performance(1 << 20)).unwrap();
        assert!(p.arena_count() > 1, "1 MiB pool gets side arenas");
        let mut addrs = Vec::new();
        loop {
            match p.alloc(60_000) {
                Ok(a) => addrs.push(a),
                Err(PmemError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(addrs.len() < 64, "1 MiB cannot hold this many");
        }
        assert!(
            addrs.iter().any(|a| p.geom().arena_of(a.offset()) != 0),
            "exhausting arena 0 spills into side arenas"
        );
        // Spilled blocks are real blocks: disjoint, writable, freeable.
        for (i, &a) in addrs.iter().enumerate() {
            p.write_u64(a, i as u64 + 1).unwrap();
        }
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(p.read_u64(a).unwrap(), i as u64 + 1);
        }
        p.check_heap().unwrap();
        for &a in &addrs {
            p.free(a).unwrap();
        }
    }

    #[test]
    fn threads_route_to_distinct_arenas() {
        let p = std::sync::Arc::new(
            PmemPool::create(PoolOptions::crash_sim(1 << 20).with_shards(4)).unwrap(),
        );
        assert!(p.arena_count() >= 3);
        // This thread claims arena 0 first (single-thread determinism).
        let mine = p.alloc(64).unwrap();
        assert_eq!(p.geom().arena_of(mine.offset()), 0);
        let mut handles = Vec::new();
        for _ in 0..2 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                let a = p.reserve(64).unwrap();
                p.publish(&[a]).unwrap();
                p.fence();
                p.geom().arena_of(a.offset())
            }));
        }
        let mut arenas: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        arenas.sort_unstable();
        arenas.dedup();
        assert_eq!(arenas.len(), 2, "two threads claimed two distinct arenas");
        assert!(!arenas.contains(&0), "arena 0 stays with the first thread");
        p.check_heap().unwrap();
    }

    #[test]
    fn multi_arena_heap_survives_crash_and_check() {
        let p = pool();
        assert!(p.arena_count() > 1);
        // Fill arena 0 enough that small allocations spill is not needed,
        // then force activity in a side arena from another thread.
        let a = p.alloc(128).unwrap();
        let p = std::sync::Arc::new(p);
        {
            let p = p.clone();
            std::thread::spawn(move || {
                let r = p.reserve(256).unwrap();
                p.write_u64(r, 7).unwrap();
                p.flush(r, 8).unwrap();
                p.publish(&[r]).unwrap();
                p.fence();
            })
            .join()
            .unwrap();
        }
        p.free(a).unwrap();
        let p2 = p.crash(&CrashConfig::drop_all(9)).unwrap();
        let rep = p2.check_heap().unwrap();
        assert_eq!(rep.allocated_blocks, 1, "published side-arena block");
        assert_eq!(rep.free_blocks, 1);
    }

    #[test]
    fn check_heap_accounts_for_allocs_and_frees() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let b = p.alloc(500).unwrap();
        let c = p.alloc(10_000).unwrap();
        p.free(b).unwrap();
        let r = p.check_heap().unwrap();
        assert_eq!(r.allocated_blocks, 2);
        assert_eq!(r.free_blocks, 1);
        assert_eq!(r.free_blocks_listed, 1, "freed block must be listed");
        let _ = (a, c);
    }

    #[test]
    fn check_heap_passes_after_adversarial_crash() {
        let p = pool();
        let a = p.alloc(128).unwrap();
        p.free(a).unwrap();
        let _r1 = p.reserve(128).unwrap(); // unpublished at crash
        let _r2 = p.reserve(5000).unwrap();
        let crashed = p.crash(&CrashConfig::drop_all(77)).unwrap();
        let p2 = PmemPool::open_from_media(crashed.media_snapshot(), PoolMode::CrashSim).unwrap();
        let r = p2.check_heap().unwrap();
        // The reservation rolled back: the freed block is free and listed.
        assert_eq!(r.free_blocks, r.free_blocks_listed);
    }

    #[test]
    fn many_allocs_do_not_overlap() {
        let p = PmemPool::create(PoolOptions::performance(1 << 22)).unwrap();
        let mut addrs = Vec::new();
        for i in 0..200u64 {
            let size = 16 + (i % 300);
            let a = p.alloc(size).unwrap();
            addrs.push((a, size.max(8)));
        }
        for (i, &(a, _)) in addrs.iter().enumerate() {
            p.write_u64(a, i as u64 + 1).unwrap();
        }
        for (i, &(a, _)) in addrs.iter().enumerate() {
            assert_eq!(p.read_u64(a).unwrap(), i as u64 + 1);
        }
    }
}
