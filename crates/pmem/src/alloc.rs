//! Crash-consistent persistent heap allocator.
//!
//! Modeled on PMDK's allocator as the paper uses it (§4.2). Blocks are
//! `[24-byte header][payload]`; small payloads use power-of-two size
//! classes 16 B..4 KiB, larger payloads are "huge" blocks rounded to 4 KiB
//! with their exact capacity stored in the header. Free-list chain pointers
//! live in the *header*, never the payload: a transaction may reserve a
//! freed block and overwrite its payload before publishing, and those
//! (possibly durable) payload bytes must not be able to corrupt the chain a
//! crash recovery walks.
//!
//! **One heap.** The heap runs from `HEAP_BASE` to the pool's end, with one
//! volatile `ArenaMirror` behind one mutex. A call locks the mirror, then
//! every shard, ascending; a reservation is one pop under that lock. A
//! crash rolls an open reservation back, or leaks it if a later call
//! persisted a head below it.
//!
//! **One ordering rule.** Block headers are the only allocator state whose
//! persist order matters. The free-list heads and frontier are *hints*,
//! written only after a fence that already orders every header they name,
//! so on media they may lag the heap but never lead it:
//!
//! * [`PmemPool::publish`] and [`PmemPool::cancel`] end reservations at the
//!   caller's fence (PMDK's reserve/publish: a reservation changes only the
//!   volatile mirror, so a crash before that fence rolls it back). They
//!   write and flush the block headers, plus the hints the heap had at its
//!   previous settle once a pool fence has followed it: zero fences.
//! * [`PmemPool::free_many`] (`free` is a batch of one) and the immediate
//!   [`PmemPool::alloc`] fence their headers once, then write the current
//!   hints unfenced.
//!
//! **Open reservations.** Any number of transactions may hold reservations
//! at once. A block carved from the frontier has no header on media until
//! it settles, so its reservation records the frontier it was carved at,
//! and no hint names a frontier above the lowest such record still
//! outstanding. A block published or allocated above one would sit past a
//! hole that a reopen cannot walk, so that call first formats the open
//! block's header as free (and unlisted: a crash leaks it), which ends its
//! record.
//!
//! Pool open repairs the hints in time proportional to one window
//! (`ArenaMirror::rebuild`). The frontier walks on from its durable value
//! while headers are valid. Each list is followed from its durable head,
//! skipping blocks now allocated (pops are LIFO, so a lagging head names
//! the popped blocks first), up to an invalid or repeated block. The
//! repaired heads, links and frontier are written back. A crash can leak
//! blocks — a push whose head never persisted, a publish whose transaction
//! never committed — but every block a list names is free.

use std::collections::{HashMap, HashSet};

use clobber_trace::EventKind;

use crate::addr::{align_up, PAddr};
use crate::geometry::layout::{FREE_HEADS, FRONTIER as FRONTIER_OFF, HEAP_BASE};
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

/// The heap's hints in one array: the list heads by class, then the
/// frontier at index [`FRONTIER`].
type Hints = [u64; NUM_HEADS + 1];
const FRONTIER: usize = NUM_HEADS;

/// Media offset of hint `i`.
fn hint_off(i: usize) -> u64 {
    match i {
        FRONTIER => FRONTIER_OFF,
        class => FREE_HEADS + class as u64 * 8,
    }
}

/// How far an allocator call runs: the product runs every call to `Done`
/// (hints written), the unit tests cut the power at the stages between. A
/// settle has no fence of its own.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
#[cfg_attr(not(test), allow(dead_code))]
enum Stage {
    HeadersFlushed,
    HeadersFenced,
    Done,
}

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
    /// The frontier the block was carved at, while its header is not on
    /// media: `None` for a list pop, or once formatted.
    carved_at: Option<u64>,
}

/// Volatile mirror of the heap's persistent allocator metadata.
///
/// Rebuilt from media on pool open; reservations live only here until
/// settled.
pub(crate) struct ArenaMirror {
    /// One past the last heap byte: the pool's capacity.
    heap_hi: u64,
    frontier: u64,
    /// Free payload addresses per head, top of stack last.
    free: [Vec<u64>; NUM_HEADS],
    /// Payload capacity of each free huge block (huge blocks have exact
    /// sizes, unlike the fixed small classes).
    huge_sizes: HashMap<u64, u64>,
    reserved: HashMap<u64, Reservation>,
    /// The hints as last written to the header.
    written: Hints,
    /// The hints at the last settle, and the fence ticket begun after its
    /// flushes: safe to write once a fence past it is done.
    settled: (Hints, u64),
}

impl ArenaMirror {
    /// Rebuilds the mirror at pool open from the heap's durable metadata,
    /// repairing lagging hints in `media` by the module doc's rule.
    pub(crate) fn rebuild(media: &mut [u8]) -> ArenaMirror {
        let heap_hi = media.len() as u64;
        let word = |off| get_u64(media, off);
        let durable = word(FRONTIER_OFF);
        // A frontier outside the heap is corruption, left for `check_heap`.
        let frontier = match (HEAP_BASE..=heap_hi).contains(&durable) {
            true => blocks_from(durable, heap_hi, &word).fold(durable, |_, (p, _, n)| p + n),
            false => durable,
        };
        let mut huge_sizes = HashMap::new();
        let free: [Vec<u64>; NUM_HEADS] = std::array::from_fn(|class| {
            let mut list = Vec::new();
            for (payload, state, size) in list_walk(class, frontier, &word) {
                if state == STATE_FREE {
                    list.push(payload);
                    if class == HUGE_CLASS as usize {
                        huge_sizes.insert(payload, size);
                    }
                }
            }
            list.reverse(); // the head is popped first
            list
        });
        let mut am = ArenaMirror {
            heap_hi,
            frontier,
            free,
            huge_sizes,
            reserved: HashMap::new(),
            written: [0; NUM_HEADS + 1],
            settled: ([0; NUM_HEADS + 1], 0),
        };
        for list in &am.free {
            // Each block links to the one below it; the head names the top.
            list.iter().fold(0, |below, &payload| {
                put_u64(media, payload - HDR_LEN + HDR_NEXT, below);
                payload
            });
        }
        am.written = am.hints();
        am.settled.0 = am.written;
        for (i, &hint) in am.written.iter().enumerate() {
            put_u64(media, hint_off(i), hint);
        }
        am
    }

    /// The heads of the free lists, and the frontier capped at the lowest
    /// frontier an outstanding reservation was carved at: the hints a call
    /// may name.
    fn hints(&self) -> Hints {
        let carved = self.reserved.values().filter_map(|r| r.carved_at).min();
        let mut h = [carved.unwrap_or(self.frontier); NUM_HEADS + 1];
        for (head, list) in h.iter_mut().zip(&self.free) {
            *head = list.last().copied().unwrap_or(0);
        }
        h
    }
}

/// The block whose payload starts at `payload`, decoded from its header's
/// words as `word` reads them: `(state, class, capacity)` when they
/// describe a block that ends by `limit`.
fn block(payload: u64, limit: u64, word: &impl Fn(u64) -> u64) -> Option<(u32, u32, u64)> {
    if payload < HDR_LEN || payload >= limit {
        return None;
    }
    let tag = word(payload - HDR_LEN);
    let size = word(payload - HDR_LEN + 8);
    let (state, class) = (tag as u32, (tag >> 32) as u32);
    let expected = match CLASS_SIZES.get(class as usize) {
        Some(&capacity) => capacity,
        None if class == HUGE_CLASS => size,
        None => return None,
    };
    let known = state == STATE_ALLOC || state == STATE_FREE;
    let fits = payload.checked_add(size).is_some_and(|end| end <= limit);
    (known && size == expected && size != 0 && fits).then_some((state, class, size))
}

/// The blocks laid out from `at` on, as `(payload, state, capacity)`, while
/// their headers are valid.
fn blocks_from<'a>(
    at: u64,
    heap_hi: u64,
    word: &'a impl Fn(u64) -> u64,
) -> impl Iterator<Item = (u64, u32, u64)> + 'a {
    let after = move |end: u64| {
        let payload = align_up(end, 16) + HDR_LEN;
        block(payload, heap_hi, word).map(|(state, _, size)| (payload, state, size))
    };
    std::iter::successors(after(at), move |&(payload, _, size)| after(payload + size))
}

/// The list rule of the module doc: the blocks `class`'s list reaches from
/// its durable head, in order, as `(payload, state, capacity)` — through
/// valid blocks of the class that end by `end`, up to the first link that
/// names anything else or a block already passed. Allocated blocks are the
/// caller's to skip.
fn list_walk<'a>(
    class: usize,
    end: u64,
    word: &'a impl Fn(u64) -> u64,
) -> impl Iterator<Item = (u64, u32, u64)> + 'a {
    // `(state, capacity, next link)` of a block the list may hold.
    let member = move |p: u64| {
        if p < HEAP_BASE + HDR_LEN || !(p - HDR_LEN).is_multiple_of(16) {
            return None;
        }
        let (state, c, size) = block(p, end, word)?;
        (c as usize == class).then(|| (state, size, word(p - HDR_LEN + HDR_NEXT)))
    };
    let head = word(hint_off(class));
    let len = list_len(head, |p| member(p).map(|m| m.2));
    std::iter::successors(Some(head), move |&p| member(p).map(|m| m.2))
        .take(len)
        .filter_map(move |p| member(p).map(|(state, size, _)| (p, state, size)))
}
/// How many nodes the chain `head, next(head), …` has before its first
/// invalid node (`next` is `None` there) or first repeat — a crash can tear
/// the links of a window's pushes into a loop — by Brent's cycle search, in
/// constant space.
fn list_len(head: u64, next: impl Fn(u64) -> Option<u64>) -> usize {
    let (mut tortoise, mut hare, mut taken) = (head, next(head), 1);
    let (mut power, mut lam) = (1, 1);
    while let Some(h) = hare {
        if h == tortoise {
            // A loop of `lam` nodes: the first repeat is `lam` past the
            // first node two walkers `lam` apart meet on.
            let step = |p| next(p).expect("nodes before a repeat are valid");
            let mut ahead = (0..lam).fold(head, |p, _| step(p));
            let mut behind = head;
            let mut mu = 0;
            while behind != ahead {
                (behind, ahead) = (step(behind), step(ahead));
                mu += 1;
            }
            return mu + lam;
        }
        if power == lam {
            (tortoise, power, lam) = (h, power * 2, 0);
        }
        (hare, taken, lam) = (next(h), taken + 1, lam + 1);
    }
    taken - 1
}

/// Returns `(head_index, payload_capacity)` for a request of `size` bytes.
fn classify(size: u64) -> (u32, u64) {
    match CLASS_SIZES.iter().position(|&cs| size <= cs) {
        Some(i) => (i as u32, CLASS_SIZES[i]),
        None => (HUGE_CLASS, align_up(size, 4096)),
    }
}

/// Cache-aware persistent write helpers used while the engine's locks are
/// held (the mirror + every shard).
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
        self.write_u64(payload - HDR_LEN, u64::from(class) << 32 | u64::from(state));
        self.write_u64(payload - HDR_LEN + 8, size);
    }

    /// `(state, class, capacity)` of the block at `payload`.
    fn read_header(&mut self, payload: u64) -> (u32, u32, u64) {
        let mut hdr = [0u8; 16];
        self.raw.read_raw(payload - HDR_LEN, &mut hdr);
        let tag = get_u64(&hdr, 0);
        (tag as u32, (tag >> 32) as u32, get_u64(&hdr, 8))
    }

    /// The one push: the header as `STATE_FREE`, chained onto the mirror
    /// top, and flushed — so every block on a mirror list has the block
    /// below it as its media link.
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

    /// Before a block at `payload` is allocated on media: formats each
    /// outstanding reservation carved below it as free (unlisted) and
    /// flushes its header, so no hole sits under an allocated block.
    fn format_below(&mut self, am: &mut ArenaMirror, payload: u64) {
        for (&p, r) in am.reserved.iter_mut() {
            if p < payload && r.carved_at.take().is_some() {
                self.write_header(p, STATE_FREE, r.class, r.capacity);
                self.flush(p - HDR_LEN, HDR_LEN);
            }
        }
    }

    /// Writes and flushes each hint that differs from the header's.
    fn write_hints(&mut self, am: &mut ArenaMirror, hints: Hints) {
        for (i, (&new, old)) in hints.iter().zip(am.written.iter_mut()).enumerate() {
            if new != *old {
                self.write_u64(hint_off(i), new);
                self.flush(hint_off(i), 8);
                *old = new;
            }
        }
    }

    /// The end of `free_many` and `alloc`, after their fence: the current
    /// hints, written and already ordered.
    fn fenced_hints(&mut self, am: &mut ArenaMirror) {
        let hints = am.hints();
        self.write_hints(am, hints);
        am.settled.0 = hints;
    }
}

impl PmemPool {
    /// Allocates `size` bytes from the persistent heap, immediately and
    /// crash-consistently (one fence). For allocation inside a transaction
    /// use [`reserve`](Self::reserve) via the runtime's `pmalloc`.
    ///
    /// The returned payload is zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfMemory`] if the heap is exhausted and
    /// [`PmemError::OutOfBounds`] for zero-size requests beyond capacity.
    pub fn alloc(&self, size: u64) -> Result<PAddr, PmemError> {
        self.take_block(size, EventKind::Alloc, |class, capacity| {
            self.alloc_in(class, capacity, Stage::Done)
        })
    }

    /// The front end `alloc` and `reserve` share: the size class, then the
    /// stats and the trace event. `in_heap` takes the block.
    fn take_block(
        &self,
        size: u64,
        kind: EventKind,
        in_heap: impl FnOnce(u32, u64) -> Result<(u64, Origin), PmemError>,
    ) -> Result<PAddr, PmemError> {
        self.fail_if_dead()?;
        let (class, capacity) = classify(size.max(8));
        let (payload, origin) = in_heap(class, capacity)?;
        let stats = self.stats();
        stats.bump(&stats.allocs, 1);
        match origin {
            Origin::FreeList => stats.bump(&stats.alloc_freelist, 1),
            Origin::Frontier => stats.bump(&stats.alloc_frontier, 1),
        }
        self.trace_app_event(kind, 0, payload, capacity);
        Ok(PAddr::new(payload))
    }

    /// The immediate allocation path, run as far as `stop`: the header,
    /// one fence, then the current hints.
    fn alloc_in(&self, class: u32, capacity: u64, stop: Stage) -> Result<(u64, Origin), PmemError> {
        let mode = self.mode();
        self.engine().with_heap_raw(|am, raw| {
            let (payload, origin) = pick_block(am, class, capacity)?;
            let mut ops = Ops::new(raw, mode);
            ops.format_below(am, payload);
            ops.write_header(payload, STATE_ALLOC, class, capacity);
            ops.flush(payload - HDR_LEN, HDR_LEN);
            if stop >= Stage::HeadersFenced {
                ops.fence();
            }
            if stop == Stage::Done {
                ops.fenced_hints(am);
                zero_payload(&mut ops, payload, capacity);
            }
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

    /// Returns `blocks` to the heap's free lists, whichever thread frees
    /// them, at one fence: every header `STATE_FREE` and chained, fence,
    /// then the touched list heads, unfenced. The next fence orders the
    /// heads; a crash before it leaks the batch, never corrupts.
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
        self.free_in(blocks, Stage::Done)?;
        let stats = self.stats();
        stats.bump(&stats.frees, blocks.len() as u64);
        for b in blocks {
            self.trace_app_event(EventKind::Free, 0, b.offset(), 0);
        }
        Ok(())
    }

    /// A [`free_many`](Self::free_many) in one lock round, run as far as
    /// `stop`.
    fn free_in(&self, blocks: &[PAddr], stop: Stage) -> Result<(), PmemError> {
        let mode = self.mode();
        self.engine().with_heap_raw(|am, raw| {
            let mut ops = Ops::new(raw, mode);
            for (i, b) in blocks.iter().enumerate() {
                // In the heap, not named twice (a scan quadratic in the
                // batch: a transaction's handful of frees), and allocated.
                let payload = b.offset();
                let in_heap = HEAP_BASE + HDR_LEN <= payload && payload < am.heap_hi;
                let valid = in_heap && !blocks[..i].contains(b) && {
                    let (state, class, _) = ops.read_header(payload);
                    state == STATE_ALLOC && (class as usize) < NUM_HEADS
                };
                if !valid {
                    return Err(PmemError::InvalidFree { addr: payload });
                }
            }
            for b in blocks {
                let (_, class, size) = ops.read_header(b.offset());
                ops.push_free(am, b.offset(), class, size);
            }
            if stop >= Stage::HeadersFenced {
                ops.fence();
            }
            if stop == Stage::Done {
                ops.fenced_hints(am);
            }
            ops.finish();
            Ok(())
        })
    }

    /// Reserves `size` bytes without touching persistent metadata (zero
    /// fences). The block becomes durable only when
    /// [`publish`](Self::publish)ed; until then a crash rolls it back
    /// automatically.
    ///
    /// The payload is zeroed (volatile until flushed by the caller).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfMemory`] if the heap is exhausted.
    pub fn reserve(&self, size: u64) -> Result<PAddr, PmemError> {
        let payload = self.take_block(size, EventKind::Reserve, |class, capacity| {
            self.reserve_in(class, capacity)
        })?;
        let stats = self.stats();
        stats.bump(&stats.reserves, 1);
        Ok(payload)
    }

    /// The locked reservation path: a block off the mirror, recorded as
    /// reserved (with the frontier it was carved at) and zeroed.
    fn reserve_in(&self, class: u32, capacity: u64) -> Result<(u64, Origin), PmemError> {
        let mode = self.mode();
        self.engine().with_heap_raw(|am, raw| {
            let at = am.frontier;
            let (payload, origin) = pick_block(am, class, capacity)?;
            let carved_at = (origin == Origin::Frontier).then_some(at);
            let res = Reservation {
                class,
                capacity,
                carved_at,
            };
            am.reserved.insert(payload, res);
            let mut ops = Ops::new(raw, mode);
            zero_payload(&mut ops, payload, capacity);
            ops.finish();
            Ok((payload, origin))
        })
    }

    /// Ends reservations as allocated: writes their block headers, plus the
    /// hints from the previous settle once a fence ordered it, with flushes
    /// only — the caller's commit fence orders them.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::InvalidFree`] if an address was not reserved.
    pub fn publish(&self, blocks: &[PAddr]) -> Result<(), PmemError> {
        self.fail_if_dead()?;
        let stats = self.stats();
        stats.bump(&stats.publishes, 1);
        self.trace_app_event(EventKind::Publish, 0, blocks.len() as u64, 0);
        self.settle(blocks, STATE_ALLOC, Stage::Done)
    }

    /// Ends reservations as free (clean abort, or a block its own
    /// transaction freed): [`publish`](Self::publish) that pushes each block
    /// on its class's free list. Flushes only — fence afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::InvalidFree`] if an address was not reserved.
    pub fn cancel(&self, blocks: &[PAddr]) -> Result<(), PmemError> {
        self.fail_if_dead()?;
        let stats = self.stats();
        stats.bump(&stats.cancels, 1);
        self.trace_app_event(EventKind::Cancel, 0, blocks.len() as u64, 0);
        self.settle(blocks, STATE_FREE, Stage::Done)
    }

    /// The one way a reservation ends, run as far as `stop`: takes the
    /// blocks (if any) out of `reserved` and writes and flushes their headers in
    /// `state`. Then, if a pool fence has passed the previous settle, it
    /// writes the hints that settle left; this settle's own wait for the
    /// next one.
    fn settle(&self, blocks: &[PAddr], state: u32, stop: Stage) -> Result<(), PmemError> {
        if blocks.is_empty() {
            return Ok(()); // a transaction that allocated nothing
        }
        let mode = self.mode();
        let engine = self.engine();
        engine.with_heap_raw(|am, raw| {
            let mut ops = Ops::new(raw, mode);
            for b in blocks {
                let payload = b.offset();
                let res = am
                    .reserved
                    .remove(&payload)
                    .ok_or(PmemError::InvalidFree { addr: payload })?;
                if state == STATE_FREE {
                    ops.push_free(am, payload, res.class, res.capacity);
                } else {
                    ops.write_header(payload, state, res.class, res.capacity);
                    ops.flush(payload - HDR_LEN, HDR_LEN);
                }
            }
            if state == STATE_ALLOC {
                let top = blocks.iter().map(|b| b.offset()).max().unwrap_or(0);
                ops.format_below(am, top);
            }
            if stop == Stage::Done {
                let (begun, done) = engine.fence_tickets();
                if done > am.settled.1 {
                    ops.write_hints(am, am.settled.0);
                }
                am.settled = (am.hints(), begun);
            }
            ops.finish();
            Ok(())
        })
    }

    /// Bytes of heap consumed by the allocation frontier.
    pub fn heap_used(&self) -> u64 {
        self.engine().with_mirror(|am| am.frontier - HEAP_BASE)
    }
}

/// Result of [`PmemPool::check_heap`]: a media-level walk of every block of
/// the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapReport {
    /// Blocks in the allocated state.
    pub allocated_blocks: u64,
    /// Bytes of allocated payload.
    pub allocated_bytes: u64,
    /// Blocks in the free state.
    pub free_blocks: u64,
    /// Free blocks a durable list head reaches (the rest are leaks —
    /// possible after crashes, never corruption — or pushes whose head a
    /// fence has not ordered yet).
    pub free_blocks_listed: u64,
}

impl PmemPool {
    /// Walks the durable heap — each block header from the heap base
    /// through the durable frontier, and on while headers stay valid — then
    /// follows each free list by the rule a reopen applies. Call on a
    /// quiescent or freshly-recovered pool: volatile reservations are
    /// invisible to this media-level view.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] describing the first structural
    /// violation found: a frontier outside the heap, or a block below the
    /// durable frontier with an invalid header.
    pub fn check_heap(&self) -> Result<HeapReport, PmemError> {
        // A diagnostic walk over the durable image, in place: the view
        // hides how it is split into shards and holds their locks meanwhile.
        self.engine()
            .with_media_view(|media| check_media(media, self.capacity()))
    }
}

fn check_media(media: &MediaView<'_>, heap_hi: u64) -> Result<HeapReport, PmemError> {
    let word = |off| media.get_u64(off);
    let durable = word(FRONTIER_OFF);
    if durable < HEAP_BASE || durable > heap_hi {
        return Err(PmemError::CorruptPool(format!(
            "frontier {durable:#x} outside the heap"
        )));
    }
    let mut report = HeapReport::default();
    let (mut free, mut end) = (Vec::new(), HEAP_BASE);
    for (payload, state, size) in blocks_from(HEAP_BASE, heap_hi, &word) {
        if state == STATE_ALLOC {
            report.allocated_blocks += 1;
            report.allocated_bytes += size;
        } else {
            free.push(payload);
        }
        end = payload + size;
    }
    if end < durable {
        let payload = align_up(end, 16) + HDR_LEN;
        return Err(PmemError::CorruptPool(format!(
            "block {payload:#x} below the durable frontier {durable:#x} has an invalid header"
        )));
    }
    let listed: HashSet<u64> = (0..NUM_HEADS)
        .flat_map(|class| list_walk(class, end, &word))
        .filter_map(|(payload, state, _)| (state == STATE_FREE).then_some(payload))
        .collect();
    report.free_blocks = free.len() as u64;
    report.free_blocks_listed = free.iter().filter(|p| listed.contains(p)).count() as u64;
    Ok(report)
}

/// Takes a block of `class` off the mirror: its list's top, or a fresh one
/// past the frontier, which moves.
fn pick_block(am: &mut ArenaMirror, class: u32, capacity: u64) -> Result<(u64, Origin), PmemError> {
    let list = &mut am.free[class as usize];
    // Huge blocks have exact capacities. Only the list top can be popped
    // without relinking the persistent chain, so it is reused only on an
    // exact capacity match; otherwise the frontier grows.
    let huge = class == HUGE_CLASS;
    if list
        .last()
        .is_some_and(|top| !huge || am.huge_sizes.get(top) == Some(&capacity))
    {
        let payload = list.pop().expect("non-empty checked above");
        if huge {
            am.huge_sizes.remove(&payload);
        }
        return Ok((payload, Origin::FreeList));
    }
    let payload = align_up(am.frontier, 16) + HDR_LEN;
    let new_frontier = payload + capacity;
    if new_frontier > am.heap_hi {
        return Err(PmemError::OutOfMemory {
            requested: capacity,
        });
    }
    am.frontier = new_frontier;
    Ok((payload, Origin::Frontier))
}

fn zero_payload(ops: &mut Ops<'_, '_>, payload: u64, capacity: u64) {
    const ZEROS: [u8; 4096] = [0u8; 4096];
    let end = payload + capacity;
    for off in (payload..end).step_by(ZEROS.len()) {
        ops.write(off, &ZEROS[..(end - off).min(4096) as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashConfig;
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
        for bad in [0, 999_999_999] {
            let freed = p.free(PAddr::new(bad));
            assert!(matches!(freed, Err(PmemError::InvalidFree { .. })));
        }
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
        for n in [1, 4] {
            let p = pool();
            let blocks: Vec<PAddr> = (0..n).map(|_| p.alloc(64).unwrap()).collect();
            p.free_many(&blocks).unwrap();
            p.fence(); // orders the head the free wrote
            let r = p.reserve(64).unwrap();
            assert_eq!(r, blocks[n - 1], "reservation pops the last freed block");
            let _bumped = p.reserve(5000).unwrap();
            let p2 = p.crash(&CrashConfig::drop_all(4)).unwrap();
            // Nothing was published: the whole free list is intact on media.
            let rep = p2.check_heap().unwrap();
            assert_eq!(
                (rep.free_blocks, rep.free_blocks_listed),
                (n as u64, n as u64)
            );
            let again = p2.alloc(64).unwrap();
            assert_eq!(again, r, "free list head restored after crash");
        }
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
    fn free_many_rejects_a_bad_batch_before_writing_anything() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let b = p.alloc(256).unwrap();
        p.fence(); // every line durable, so keep_all adds nothing below
        let before = (p.check_heap().unwrap(), p.stats().snapshot().frees);
        for bad in [
            vec![a, a],
            vec![a, b, PAddr::new(999_999_999)],
            vec![a, PAddr::new(a.offset() + 8)],
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

    /// No trip point lands inside an allocator call (`fail_if_dead`), so
    /// the calls that write are cut here, at each stage, under power
    /// failures in which each flushed, unfenced line survives with p = 1/2
    /// (plus `drop_all` and `keep_all`). Whatever survives, the reopened
    /// heap walks, its mirror lists each free block at most once and
    /// nothing else, blocks no call touched stay allocated, and the reopened
    /// allocator works in both classes. Once a later fence has ordered a
    /// free's or an alloc's hints, only rolled-back reservations leak.
    #[test]
    fn allocator_calls_cut_at_every_stage_leave_a_walkable_heap() {
        use Stage::*;
        let draws = (0..32)
            .map(|seed| CrashConfig::new(0.5, 0.0, seed))
            .chain([CrashConfig::drop_all(0), CrashConfig::keep_all(0)]);
        let cuts = [
            (HeadersFlushed, false),
            (HeadersFenced, false),
            (Done, false),
            (Done, true),
        ];
        for call in ["free", "publish", "cancel", "alloc pop", "alloc bump"] {
            for (stop, fenced) in cuts {
                for cfg in draws.clone() {
                    cut_and_crash(call, stop, fenced, &cfg);
                }
            }
        }
    }

    fn cut_and_crash(call: &str, stop: Stage, fenced: bool, cfg: &CrashConfig) {
        let ctx = format!("{call} stopped at {stop:?}, fenced {fenced}, {cfg:?}");
        let p = pool();
        let small: Vec<PAddr> = (0..5).map(|_| p.alloc(64).unwrap()).collect();
        let large: Vec<PAddr> = (0..4).map(|_| p.alloc(256).unwrap()).collect();
        // Both lists start non-empty; small[4] and large[3] stay allocated.
        p.free_many(&[small[0], large[0], small[1], large[1]])
            .unwrap();
        // An earlier transaction, fenced: a cut settle writes its hints.
        let earlier = p.reserve(64).unwrap();
        p.publish(&[earlier]).unwrap();
        p.fence();
        // Reservations off the lists and the frontier.
        let res = || [64, 64, 256, 256, 256].map(|size| p.reserve(size).unwrap());
        match call {
            "free" => {
                res(); // still open while the free runs
                p.free_in(&[small[2], large[2], small[3]], stop).unwrap()
            }
            "publish" => {
                let r = res();
                p.cancel(&[r[1], r[3]]).unwrap(); // a commit ends its dead first
                p.settle(&[r[0], r[2], r[4]], STATE_ALLOC, stop).unwrap()
            }
            "cancel" => p.settle(&res(), STATE_FREE, stop).unwrap(),
            "alloc pop" => drop(p.alloc_in(4, 256, stop).unwrap()),
            _ => drop(p.alloc_in(5, 512, stop).unwrap()),
        }
        if fenced {
            p.fence();
        }
        let p2 = p.crash(cfg).unwrap();
        let state = |payload: u64| p2.read_u64(PAddr::new(payload - HDR_LEN)).unwrap() as u32;
        // The walk passes; the mirror lists free blocks only, each once,
        // just as the walk counts them. Returns the leak and the listed.
        let check = || {
            let rep = p2.check_heap().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let mut listed = p2.engine().with_mirror(|am| am.free.concat());
            assert!(
                listed.iter().all(|&b| state(b) == STATE_FREE),
                "{ctx}: {listed:x?}"
            );
            let n = listed.len();
            listed.sort_unstable();
            listed.dedup();
            assert_eq!(
                (n, n as u64),
                (listed.len(), rep.free_blocks_listed),
                "{ctx}"
            );
            (rep.free_blocks - rep.free_blocks_listed, listed)
        };
        let (leaked, _) = check();
        assert!([small[4], large[3]]
            .iter()
            .all(|b| state(b.offset()) == STATE_ALLOC));
        // Fenced, the leaks are exact. The free's heads name its own
        // pushes, above lists its open reservations emptied: the three
        // blocks they popped are lost. The cancel persists the heads the
        // earlier publish left, the list bottoms: the three blocks it
        // pushed above them are lost. An alloc's heads name the lists as
        // they are: nothing is lost.
        let exact = match (fenced, call) {
            (true, "free") => Some(3),
            (true, "cancel") => Some(3),
            (true, "alloc pop" | "alloc bump") => Some(0),
            _ => None,
        };
        assert!(
            leaked <= 5 && exact.is_none_or(|e| e == leaked),
            "{ctx}: {leaked} leaked"
        );
        // The reopened allocator works in both classes. (A header the crash
        // kept past the repaired frontier may now count as a leaked block.)
        let again = [p2.alloc(64).unwrap(), p2.alloc(256).unwrap()];
        p2.free_many(&again).unwrap();
        p2.fence();
        let (_, listed) = check();
        assert!(again.iter().all(|b| listed.contains(&b.offset())), "{ctx}");
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
    fn threads_sharing_the_heap_survive_crash_and_check() {
        let p = std::sync::Arc::new(
            PmemPool::create(PoolOptions::crash_sim(1 << 20).with_shards(4)).unwrap(),
        );
        let a = p.alloc(128).unwrap();
        // Two threads, each a transaction that reserves, publishes and
        // fences, against the one heap this thread allocated from.
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let r = p.reserve(256).unwrap();
                    p.write_u64(r, 7).unwrap();
                    p.flush(r, 8).unwrap();
                    p.publish(&[r]).unwrap();
                    p.fence();
                    r
                })
            })
            .collect();
        let published: Vec<PAddr> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_ne!(published[0], published[1]);
        p.free(a).unwrap();
        let p2 = p.crash(&CrashConfig::drop_all(9)).unwrap();
        let rep = p2.check_heap().unwrap();
        assert_eq!(rep.allocated_blocks, 2, "both threads' published blocks");
        assert_eq!(rep.free_blocks, 1);
        for r in published {
            assert_eq!(p2.read_u64(r).unwrap(), 7);
        }
    }

    /// Reservations held open while other calls persist headers and hints
    /// above them: however many are open at the crash, the durable heap
    /// walks, and every block allocated or published before it stays
    /// allocated (a reopen must not hand it out again).
    #[test]
    fn open_reservations_leave_no_hole_under_a_crash() {
        type Case = fn(&PmemPool) -> Vec<PAddr>;
        let cases: [(&str, Case); 3] = [
            ("an immediate alloc above an open reservation", |p| {
                let _open = p.reserve(64).unwrap();
                let b = p.alloc(64).unwrap();
                p.fence();
                vec![b]
            }),
            (
                "two transactions published above an open reservation",
                |p| {
                    let _open = p.reserve(64).unwrap();
                    let y = p.reserve(64).unwrap();
                    p.publish(&[y]).unwrap();
                    p.fence();
                    let w = p.reserve(64).unwrap();
                    p.publish(&[w]).unwrap();
                    p.fence();
                    vec![y, w]
                },
            ),
            ("a free's hints while a reservation is open", |p| {
                let x = p.alloc(64).unwrap();
                let _open = p.reserve(64).unwrap();
                p.free(x).unwrap();
                p.fence();
                vec![]
            }),
        ];
        for (what, case) in cases {
            let p = pool();
            let kept = case(&p);
            let p2 = p.crash(&CrashConfig::drop_all(5)).unwrap();
            let rep = p2.check_heap().unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(rep.allocated_blocks, kept.len() as u64, "{what}");
            let fresh = p2.alloc(64).unwrap();
            assert!(!kept.contains(&fresh), "{what}: {fresh:?} handed out twice");
        }
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
        assert_eq!(r.free_blocks_listed, 0, "its head waits for a fence");
        p.fence();
        let r = p.check_heap().unwrap();
        assert_eq!(r.free_blocks_listed, 1, "freed block must be listed");
        let _ = (a, c);
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
