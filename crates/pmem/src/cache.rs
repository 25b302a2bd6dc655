//! The simulated volatile cache of [`PoolMode::CrashSim`].
//!
//! [`LineCache`] is a dense table with one entry per 64 lines (the slot of
//! their page) over a slab of pages — 4 KiB of line data with its 64 dirty
//! bits and 64 flush-pending bits. An entry takes a page when one of its
//! lines is dirtied and gives it back to a free list when a fence cleans
//! the last, so a pool instance costs the pages its run keeps dirty at
//! once, not its capacity (beyond four table bytes per 4 KiB); the table
//! and the slab's first chunk of pages are allocated by the first store
//! and no hashing ever happens. The unit tests hold it in lock step
//! with `RefCache`, the original `HashMap<line, CacheLine>` model, kept
//! under `#[cfg(test)]` as the executable specification.
//!
//! The durability contract:
//!
//! * A store marks its lines dirty and voids a pending flush on them that
//!   only the storing thread issued (a flush only guarantees the bytes
//!   present when it was issued). A flush another thread issued stays
//!   pending — on hardware that thread's write-back still completes at its
//!   fence — and the fence writes the line back as it then is, which an
//!   eviction may do at any time. One thread's run is never affected.
//! * A flush marks dirty lines write-back-initiated (`flush_pending`);
//!   durability still requires a fence.
//! * A fence writes back exactly the lines whose flush is still pending and
//!   marks them clean.
//! * On a crash, every modified line draws one survival decision, in
//!   ascending line order: `p_flushed_unfenced` if its flush was pending,
//!   else `p_dirty`. Clean lines equal media and draw nothing. The draw
//!   order and count are what make seeded crashes reproducible.
//!
//! [`PoolMode::CrashSim`]: crate::PoolMode::CrashSim

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::addr::CACHE_LINE;

const LINE: usize = CACHE_LINE as usize;

/// The flusher tag of a cache with no flush pending.
const NO_FLUSH: u32 = 0;
/// The flusher tag of a flush that more than one thread issued.
const MIXED: u32 = u32::MAX;

/// The calling thread's flusher tag: nonzero, drawn once per thread.
fn thread_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TAG: Cell<u32> = const { Cell::new(NO_FLUSH) };
    }
    TAG.with(|tag| {
        if tag.get() == NO_FLUSH {
            tag.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        tag.get()
    })
}

/// A flush of a line already pending under tag `owner`, issued by `me`.
fn joined(owner: u32, me: u32) -> u32 {
    match owner {
        NO_FLUSH => me,
        o if o == me => me,
        _ => MIXED,
    }
}

/// Number of cache lines covered by `[offset, offset+len)` without
/// materializing the range (same geometry as
/// [`lines_for_range`](crate::addr::lines_for_range)).
#[inline]
pub(crate) fn line_count(offset: u64, len: u64) -> u64 {
    if len == 0 {
        0
    } else {
        (offset + len - 1) / CACHE_LINE - offset / CACHE_LINE + 1
    }
}

/// Lines per word: `WORD_LINES * LINE` bytes are one [`Page`], so a line
/// never spans pages.
const WORD_LINES: u64 = 64;
/// Bytes of line data in one [`Page`]: the span of one word.
const PAGE: usize = WORD_LINES as usize * LINE;
/// Pages per slab chunk. The slab grows a chunk at a time and never moves a
/// page, so it copies nothing and its blocks are all 64 KiB: a doubling slab
/// freed 128 KiB … 1 MiB holes that later pool-sized buffers landed around.
const CHUNK_PAGES: usize = 16;

/// The cached state of one word — 64 consecutive lines, 4 KiB of the span.
struct Page {
    /// One bit per line: modified since last write-back.
    dirty: u64,
    /// One bit per line: write-back initiated, not yet fenced. On a free
    /// page, which no word reaches, the slot of the next free page (0 ends
    /// the list).
    flush_pending: u64,
    /// The volatile contents of the dirty lines, laid out like the span;
    /// the bytes of clean lines are meaningless and never read.
    bytes: [u8; PAGE],
}

/// Dense paged cache: a table with one entry per 64-line word over a slab
/// of [`Page`]s, a word holding one while a line of it is dirty, so the
/// cache costs memory and time in proportion to the pages a run keeps
/// dirty, not to the pool.
///
/// Invariants:
/// * `flush_pending ⊆ dirty` (a line's flush is voided by a later store and
///   cleared by the fence that writes it back, so it can never outlive
///   dirtiness).
/// * The newest entry of a pending line in `pending_flushes` carries its
///   flusher tag, and `flusher` is the tag every pending line carries.
/// * `dirty_pages` equals the number of pages with a dirty line.
/// * A word holds a page only while a line is dirty: the fence cleaning
///   its last frees it, so the slab never exceeds the peak dirty pages.
///
/// Nothing is allocated until the first store, which allocates the table
/// (zeroed, four bytes per 4 KiB of the span) and the slab's first chunk;
/// after that stores, flushes and fences are allocation-free until a run
/// keeps more pages dirty than its chunks hold (the slab then gains a
/// chunk, and the pending-flush list retains its capacity across fences).
#[derive(Default)]
pub(crate) struct LineCache {
    /// Per word of the span: the slot of its page in `pages` plus one, 0
    /// while no line of the word is dirty. Sized by the first store.
    slots: Vec<u32>,
    /// The slab, in chunks of [`CHUNK_PAGES`] (slot `s` is page `s - 1` of
    /// the concatenation): the pages of dirty words and the free pages.
    pages: Vec<Vec<Page>>,
    /// The slot of the first free page, 0 when none is; the list is linked
    /// through the free pages' `flush_pending`.
    free: u32,
    /// Lines pushed by flushes, each with its flusher tag, drained by the
    /// next fence.
    pending_flushes: Vec<(u64, u32)>,
    /// The tag of every pending flush: `NO_FLUSH` when none is pending,
    /// `MIXED` once they differ (or one line's does).
    flusher: u32,
    /// Number of pages with a dirty line: 0 means reads need no overlay.
    dirty_pages: usize,
}

/// Bits `[lo, hi]` (inclusive, `hi < 64`) of a word mask.
#[inline]
fn bits(lo: u64, hi: u64) -> u64 {
    (u64::MAX >> (63 - hi)) & (u64::MAX << lo)
}

/// Visits `[offset, offset+len)` word by word, ascending, as `(word,
/// first_byte, end_byte, line_mask)`.
#[inline]
fn for_each_word(offset: u64, len: u64, mut f: impl FnMut(usize, u64, u64, u64)) {
    let end = offset + len;
    let mut at = offset;
    while at < end {
        let w = at / PAGE as u64;
        let stop = ((w + 1) * PAGE as u64).min(end);
        let mask = bits(
            at / CACHE_LINE % WORD_LINES,
            (stop - 1) / CACHE_LINE % WORD_LINES,
        );
        f(w as usize, at, stop, mask);
        at = stop;
    }
}

/// Calls `f` with each set bit's index, ascending.
#[inline]
fn for_each_bit(mut mask: u64, mut f: impl FnMut(u64)) {
    while mask != 0 {
        f(mask.trailing_zeros() as u64);
        mask &= mask - 1;
    }
}

impl LineCache {
    pub(crate) fn new() -> LineCache {
        LineCache::default()
    }

    /// The page of word `w`, if one of its lines is dirty.
    #[inline]
    fn page(&self, w: usize) -> Option<&Page> {
        let i = (self.slots[w] as usize).checked_sub(1)?;
        Some(&self.pages[i / CHUNK_PAGES][i % CHUNK_PAGES])
    }

    /// Gives word `w` a clean page — the first free one, else a new one at
    /// the slab's end — and returns its table entry. Out of line: a `Page`
    /// built on the stack would put a 4 KiB frame (and its stack probe) on
    /// every store.
    #[cold]
    #[inline(never)]
    fn add_page(&mut self, w: usize) -> u32 {
        if let Some(i) = (self.free as usize).checked_sub(1) {
            let page = &mut self.pages[i / CHUNK_PAGES][i % CHUNK_PAGES];
            self.slots[w] = self.free;
            self.free = page.flush_pending as u32;
            page.flush_pending = 0;
            return self.slots[w];
        }
        if self.pages.last().is_none_or(|c| c.len() == CHUNK_PAGES) {
            self.pages.push(Vec::with_capacity(CHUNK_PAGES));
        }
        let full_chunks = self.pages.len() - 1;
        let chunk = self.pages.last_mut().expect("a chunk with room");
        chunk.push(Page {
            dirty: 0,
            flush_pending: 0,
            bytes: [0; PAGE],
        });
        self.slots[w] = (full_chunks * CHUNK_PAGES + chunk.len()) as u32;
        self.slots[w]
    }

    /// `true` when an overlay cannot change any read.
    #[inline]
    pub(crate) fn is_clean(&self) -> bool {
        self.dirty_pages == 0
    }

    /// Applies a store to the cached image of `[offset, offset+len)`,
    /// seeding the lines it only partly covers from `media`.
    pub(crate) fn write(&mut self, offset: u64, data: &[u8], media: &[u8]) {
        if self.slots.is_empty() {
            self.slots = vec![0; media.len().div_ceil(PAGE)];
        }
        for_each_word(offset, data.len() as u64, |w, at, stop, mask| {
            let slot = match self.slots[w] {
                0 => self.add_page(w),
                slot => slot,
            };
            let i = slot as usize - 1;
            let page = &mut self.pages[i / CHUNK_PAGES][i % CHUNK_PAGES];
            let fresh = mask & !page.dirty;
            self.dirty_pages += usize::from(page.dirty == 0);
            page.dirty |= mask;
            // A store after a flush re-dirties the line; the earlier flush
            // no longer guarantees this data's durability, unless another
            // thread issued it.
            let pending = mask & page.flush_pending;
            if pending != 0 {
                page.flush_pending &= !voided(&self.pending_flushes, self.flusher, w, pending);
            }
            let base = w * PAGE;
            if fresh != 0 {
                // Seed partially covered boundary lines from media; fully
                // covered lines are about to be overwritten below. Only the
                // first and the last line of a piece can be partial.
                let mut seed = |start: u64| {
                    if fresh & (1 << (start / CACHE_LINE % WORD_LINES)) != 0 {
                        let s = start as usize;
                        page.bytes[s - base..s - base + LINE].copy_from_slice(&media[s..s + LINE]);
                    }
                };
                let first = at - at % CACHE_LINE;
                let last = (stop - 1) - (stop - 1) % CACHE_LINE;
                if first < at || first + CACHE_LINE > stop {
                    seed(first);
                }
                if last != first && last + CACHE_LINE > stop {
                    seed(last);
                }
            }
            page.bytes[at as usize - base..stop as usize - base]
                .copy_from_slice(&data[(at - offset) as usize..(stop - offset) as usize]);
        });
    }

    /// Marks the dirty lines in the range as write-back initiated.
    pub(crate) fn flush_range(&mut self, offset: u64, len: u64) {
        if self.dirty_pages == 0 {
            return;
        }
        let me = thread_tag();
        for_each_word(offset, len, |w, _, _, mask| {
            let Some(i) = (self.slots[w] as usize).checked_sub(1) else {
                return;
            };
            let page = &mut self.pages[i / CHUNK_PAGES][i % CHUNK_PAGES];
            let newly = mask & page.dirty & !page.flush_pending;
            let again = mask & page.flush_pending;
            page.flush_pending |= newly;
            if again != 0 && self.flusher != me {
                for_each_bit(again, |bit| {
                    let line = w as u64 * WORD_LINES + bit;
                    let entry = self.pending_flushes.iter_mut().rev().find(|e| e.0 == line);
                    let entry = entry.expect("a pending line has an entry");
                    entry.1 = joined(entry.1, me);
                });
            }
            for_each_bit(newly, |bit| {
                self.pending_flushes.push((w as u64 * WORD_LINES + bit, me));
            });
            if newly | again != 0 {
                self.flusher = joined(self.flusher, me);
            }
        });
    }

    /// Writes `line` back to `media` if its flush is still pending, and
    /// frees its page if that was the page's last dirty line.
    #[inline]
    fn write_back(&mut self, media: &mut [u8], line: u64) {
        let (w, bit) = ((line / WORD_LINES) as usize, line % WORD_LINES);
        // A line is only ever pushed by a flush that found it dirty, so its
        // word had a page; none if an earlier line of this fence freed it.
        let Some(i) = (self.slots[w] as usize).checked_sub(1) else {
            return;
        };
        let page = &mut self.pages[i / CHUNK_PAGES][i % CHUNK_PAGES];
        if page.flush_pending & (1 << bit) != 0 {
            let (s, d) = ((line * CACHE_LINE) as usize, bit as usize * LINE);
            media[s..s + LINE].copy_from_slice(&page.bytes[d..d + LINE]);
            page.flush_pending &= !(1 << bit);
            page.dirty &= !(1 << bit);
            if page.dirty == 0 {
                self.dirty_pages -= 1;
                page.flush_pending = u64::from(self.free);
                self.free = self.slots[w];
                self.slots[w] = 0;
            }
        }
    }

    /// Completes all pending write-backs into `media`.
    pub(crate) fn fence(&mut self, media: &mut [u8]) {
        let mut pending = std::mem::take(&mut self.pending_flushes);
        for (line, _) in pending.drain(..) {
            self.write_back(media, line);
        }
        // Hand the drained (empty) vector back so its capacity is reused.
        self.pending_flushes = pending;
        self.flusher = NO_FLUSH;
    }

    /// Overlays the dirty lines' bytes onto `buf`, which holds media at
    /// `offset`.
    pub(crate) fn overlay(&self, offset: u64, buf: &mut [u8]) {
        if self.dirty_pages == 0 {
            return;
        }
        for_each_word(offset, buf.len() as u64, |w, at, stop, mask| {
            let Some(page) = self.page(w) else { return };
            let base = (w * PAGE) as u64;
            for_each_bit(mask & page.dirty, |bit| {
                let line_start = base + bit * CACHE_LINE;
                let copy_start = line_start.max(at);
                let copy_end = (line_start + CACHE_LINE).min(stop);
                buf[(copy_start - offset) as usize..(copy_end - offset) as usize].copy_from_slice(
                    &page.bytes[(copy_start - base) as usize..(copy_end - base) as usize],
                );
            });
        });
    }

    /// Visits every modified line in ascending order as
    /// `(line, flush_pending, line_bytes)` — the crash-survival draw order.
    pub(crate) fn for_each_modified(&self, mut f: impl FnMut(u64, bool, &[u8])) {
        for w in 0..self.slots.len() {
            let Some(page) = self.page(w) else { continue };
            for_each_bit(page.dirty, |bit| {
                let d = bit as usize * LINE;
                f(
                    w as u64 * WORD_LINES + bit,
                    page.flush_pending & (1 << bit) != 0,
                    &page.bytes[d..d + LINE],
                );
            });
        }
    }
}

/// The bits of `pending` (word `w`'s flush-pending lines a store hits)
/// whose flush only the storing thread issued: the flushes it voids.
fn voided(pending_flushes: &[(u64, u32)], flusher: u32, w: usize, pending: u64) -> u64 {
    let me = thread_tag();
    match flusher {
        f if f == me => pending,
        MIXED => {
            let mut voided = 0;
            for_each_bit(pending, |bit| {
                let line = w as u64 * WORD_LINES + bit;
                let entry = pending_flushes.iter().rev().find(|e| e.0 == line);
                if entry.is_some_and(|e| e.1 == me) {
                    voided |= 1 << bit;
                }
            });
            voided
        }
        _ => 0,
    }
}

/// The original hash-map cache model, the executable specification that
/// [`LineCache`] is held to.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::{joined, thread_tag, LINE, NO_FLUSH};
    use crate::addr::{lines_for_range, CACHE_LINE};

    /// State of one simulated cache line.
    struct RefLine {
        data: Vec<u8>,
        /// Modified since last write-back.
        dirty: bool,
        /// A flush was issued but no fence has ordered it yet.
        flush_pending: bool,
        /// The flusher tag of the pending flush.
        flusher: u32,
    }

    /// Lines written back by a fence stay in the map as clean entries whose
    /// bytes equal media (they overlay reads as no-ops and draw nothing on
    /// crash), exactly as the seed implementation behaved.
    #[derive(Default)]
    pub(super) struct RefCache {
        lines: HashMap<u64, RefLine>,
        pending_flushes: Vec<u64>,
    }

    impl RefCache {
        pub(super) fn write(&mut self, offset: u64, data: &[u8], media: &[u8]) {
            let len = data.len() as u64;
            let me = thread_tag();
            for line in lines_for_range(offset, len) {
                let line_start = line * CACHE_LINE;
                let cl = self.lines.entry(line).or_insert_with(|| {
                    let s = line_start as usize;
                    RefLine {
                        data: media[s..s + LINE].to_vec(),
                        dirty: false,
                        flush_pending: false,
                        flusher: NO_FLUSH,
                    }
                });
                let copy_start = line_start.max(offset);
                let copy_end = (line_start + CACHE_LINE).min(offset + len);
                cl.data[(copy_start - line_start) as usize..(copy_end - line_start) as usize]
                    .copy_from_slice(
                        &data[(copy_start - offset) as usize..(copy_end - offset) as usize],
                    );
                cl.dirty = true;
                cl.flush_pending &= cl.flusher != me;
            }
        }

        pub(super) fn flush_range(&mut self, offset: u64, len: u64) {
            let me = thread_tag();
            for line in lines_for_range(offset, len) {
                if let Some(cl) = self.lines.get_mut(&line) {
                    if cl.flush_pending {
                        cl.flusher = joined(cl.flusher, me);
                    } else if cl.dirty {
                        cl.flush_pending = true;
                        cl.flusher = me;
                        self.pending_flushes.push(line);
                    }
                }
            }
        }

        pub(super) fn fence(&mut self, media: &mut [u8]) {
            for line in self.pending_flushes.drain(..) {
                if let Some(cl) = self.lines.get_mut(&line) {
                    if cl.flush_pending {
                        let s = (line * CACHE_LINE) as usize;
                        media[s..s + LINE].copy_from_slice(&cl.data);
                        cl.dirty = false;
                        cl.flush_pending = false;
                    }
                }
            }
        }

        pub(super) fn overlay(&self, offset: u64, buf: &mut [u8]) {
            let len = buf.len() as u64;
            for line in lines_for_range(offset, len) {
                if let Some(cl) = self.lines.get(&line) {
                    let line_start = line * CACHE_LINE;
                    let copy_start = line_start.max(offset);
                    let copy_end = (line_start + CACHE_LINE).min(offset + len);
                    let src = &cl.data
                        [(copy_start - line_start) as usize..(copy_end - line_start) as usize];
                    buf[(copy_start - offset) as usize..(copy_end - offset) as usize]
                        .copy_from_slice(src);
                }
            }
        }

        pub(super) fn for_each_modified(&self, mut f: impl FnMut(u64, bool, &[u8])) {
            // Deterministic iteration order: sort lines. Clean entries draw
            // nothing, matching the dense model where they simply don't
            // exist.
            let mut lines: Vec<_> = self.lines.iter().collect();
            lines.sort_by_key(|(line, _)| **line);
            for (line, cl) in lines {
                if cl.flush_pending || cl.dirty {
                    f(*line, cl.flush_pending, &cl.data);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::reference::RefCache;
    use super::*;
    use crate::addr::lines_for_range;

    /// The two models driven in lock step, each over its own copy of the
    /// media.
    struct Pair {
        dense: LineCache,
        dense_media: Vec<u8>,
        reference: RefCache,
        ref_media: Vec<u8>,
    }

    impl Pair {
        fn new(media_len: usize) -> Pair {
            let media: Vec<u8> = (0..media_len).map(|i| i as u8).collect();
            Pair {
                dense: LineCache::new(),
                dense_media: media.clone(),
                reference: RefCache::default(),
                ref_media: media,
            }
        }

        fn write(&mut self, offset: u64, data: &[u8]) {
            self.dense.write(offset, data, &self.dense_media);
            self.reference.write(offset, data, &self.ref_media);
        }

        fn flush(&mut self, offset: u64, len: u64) {
            self.dense.flush_range(offset, len);
            self.reference.flush_range(offset, len);
        }

        fn fence(&mut self) {
            self.dense.fence(&mut self.dense_media);
            self.reference.fence(&mut self.ref_media);
        }

        /// The first of the outputs a pool reads of its cache model — the
        /// bytes a read sees, the durable media, and the modified lines as
        /// the crash draws consume them — on which the models differ.
        fn diverged(&self) -> Option<&'static str> {
            let mut dense_view = self.dense_media.clone();
            // A pool skips the overlay of a clean cache.
            if !self.dense.is_clean() {
                self.dense.overlay(0, &mut dense_view);
            }
            let mut ref_view = self.ref_media.clone();
            self.reference.overlay(0, &mut ref_view);
            let (mut dense_lines, mut ref_lines) = (Vec::new(), Vec::new());
            self.dense
                .for_each_modified(|l, fp, bytes| dense_lines.push((l, fp, bytes.to_vec())));
            self.reference
                .for_each_modified(|l, fp, bytes| ref_lines.push((l, fp, bytes.to_vec())));
            if dense_view != ref_view {
                Some("visible bytes")
            } else if self.dense_media != self.ref_media {
                Some("durable media")
            } else if dense_lines != ref_lines {
                Some("modified lines (crash draws)")
            } else if self.dense.is_clean() != dense_lines.is_empty() {
                Some("the clean fast path")
            } else {
                None
            }
        }
    }

    /// Runs `f` on another thread — one flusher tag for both models — and
    /// waits for it.
    fn on_other_thread(pair: &mut Pair, f: impl FnOnce(&mut Pair) + Send) {
        std::thread::scope(|s| s.spawn(|| f(pair)).join().unwrap());
    }

    #[test]
    fn line_count_matches_lines_for_range() {
        for offset in [0u64, 1, 63, 64, 65, 127, 4096] {
            for len in [0u64, 1, 63, 64, 65, 128, 130, 1000] {
                assert_eq!(
                    line_count(offset, len),
                    lines_for_range(offset, len).count() as u64,
                    "offset={offset} len={len}"
                );
            }
        }
    }

    #[test]
    fn models_agree_on_write_flush_fence_sequences() {
        let mut pair = Pair::new(64 * 64);
        let script: &[(&str, u64, u64)] = &[
            ("w", 10, 30),
            ("w", 60, 10),
            ("f", 0, 128),
            ("w", 70, 4),
            ("s", 0, 0),
            ("w", 640, 64),
            ("f", 640, 64),
            ("s", 0, 0),
            ("w", 100, 200),
            ("f", 100, 200),
        ];
        for &(op, a, b) in script {
            match op {
                "w" => pair.write(a, &(0..b).map(|i| (a + i) as u8).collect::<Vec<u8>>()),
                "f" => pair.flush(a, b),
                "s" => pair.fence(),
                _ => unreachable!(),
            }
            assert_eq!(pair.diverged(), None, "after {op}({a},{b})");
        }
    }

    #[test]
    fn fence_only_writes_back_still_pending_lines() {
        let mut media = vec![0u8; 64 * 4];
        let mut cache = LineCache::new();
        cache.write(0, &[0xAA; 8], &media);
        cache.flush_range(0, 8);
        cache.write(0, &[0xBB; 8], &media); // voids the pending flush
        cache.fence(&mut media);
        assert_ne!(&media[0..8], &[0xBB; 8], "voided flush must not persist");
        let mut read = media[0..8].to_vec();
        cache.overlay(0, &mut read);
        assert_eq!(read, vec![0xBB; 8]);
    }

    /// A store voids only the flushes its own thread issued: another
    /// thread's store to the line keeps them pending, so their fence still
    /// writes the line back — with the other thread's bytes, as an eviction
    /// could. A line both threads flushed stays pending under either's
    /// store.
    #[test]
    fn only_the_flushing_threads_store_voids_its_flush() {
        let mut pair = Pair::new(64 * 4);
        // Line 0: flushed here, stored to by another thread.
        pair.write(0, &[0xAA; 8]);
        pair.flush(0, 8);
        on_other_thread(&mut pair, |p| p.write(8, &[0xBB; 8]));
        // Line 1: flushed by both threads, then stored to here.
        pair.write(64, &[0xCC; 8]);
        pair.flush(64, 8);
        on_other_thread(&mut pair, |p| p.flush(64, 8));
        pair.write(72, &[0xDD; 8]);
        // Line 2: flushed and stored to here: voided.
        pair.write(128, &[0xEE; 8]);
        pair.flush(128, 8);
        pair.write(136, &[0xFF; 8]);
        pair.fence();
        let media = &pair.dense_media;
        assert_eq!(&media[..16], &[[0xAA; 8], [0xBB; 8]].concat()[..]);
        assert_eq!(&media[64..80], &[[0xCC; 8], [0xDD; 8]].concat()[..]);
        assert_ne!(
            &media[128..136],
            &[0xEE; 8],
            "voided flush must not persist"
        );
        assert_eq!(pair.diverged(), None, "models agree across threads");
    }

    #[test]
    fn a_fresh_cache_allocates_nothing_before_its_first_store() {
        let mut media: Vec<u8> = (0..PAGE * 8).map(|i| i as u8).collect();
        let mut cache = LineCache::new();
        cache.flush_range(0, 4096);
        cache.fence(&mut media);
        let mut read = media[100..300].to_vec();
        cache.overlay(100, &mut read);
        assert_eq!(read, media[100..300]);
        assert_eq!(
            (
                cache.slots.capacity(),
                cache.pages.capacity(),
                cache.pending_flushes.capacity()
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn the_slab_holds_only_the_pages_stored_to() {
        // 1 MiB + 5 lines of media: the last word covers a partial page.
        let mut pair = Pair::new((1 << 20) + 5 * LINE);
        // (offset, len): scattered, two of them straddling a page boundary,
        // one three pages long (over four), one in the partial last page,
        // one back on a page already stored to, one over 41 pages (into the
        // slab's fourth chunk).
        let script = [
            (7 * PAGE + 100, 8),
            (200 * PAGE - 3, 6),
            (31 * PAGE + 4000, 200),
            (90 * PAGE + 17, 3 * PAGE),
            ((1 << 20) + 2 * LINE, 2 * LINE),
            (7 * PAGE + 3000, 64),
            (120 * PAGE + 9, 40 * PAGE),
        ];
        let mut touched = std::collections::BTreeSet::new();
        for (i, &(off, len)) in script.iter().enumerate() {
            pair.write(off as u64, &vec![i as u8 + 1; len]);
            touched.extend(off / PAGE..=(off + len - 1) / PAGE);
        }
        assert_eq!(touched.len(), 51);
        let chunks: Vec<usize> = pair.dense.pages.iter().map(Vec::len).collect();
        assert_eq!(chunks, [16, 16, 16, 3]);
        assert_eq!(pair.diverged(), None);
        for (off, len) in script {
            pair.flush(off as u64, len as u64);
        }
        pair.fence();
        assert!(pair.dense.is_clean());
        assert_eq!(pair.diverged(), None);
    }

    #[test]
    fn a_page_fenced_clean_is_reused_when_its_word_is_dirtied_again() {
        let mut media = vec![0u8; PAGE * 8];
        let mut cache = LineCache::new();
        for round in 0..3u8 {
            // A different line of the same two words every round.
            for off in [PAGE as u64 + 64 * round as u64, 5 * PAGE as u64 + 8] {
                cache.write(off, &[round + 1; 8], &media);
                cache.flush_range(off, 8);
            }
            cache.fence(&mut media);
            assert!(cache.is_clean());
            assert_eq!(cache.pages[0].len(), 2, "round {round}");
        }
        assert_eq!(&media[PAGE + 128..PAGE + 136], &[3; 8]);
        assert_eq!(&media[5 * PAGE + 8..5 * PAGE + 16], &[3; 8]);
    }

    /// A run that keeps one page dirty at a time holds one chunk, however
    /// many pages it stores to.
    #[test]
    fn the_slab_holds_only_the_pages_dirty_at_once() {
        let mut media = vec![0u8; PAGE * 1000];
        let mut cache = LineCache::new();
        for page in 0..1000 {
            let at = (page * PAGE + 100) as u64;
            cache.write(at, &[page as u8 | 1; 8], &media);
            cache.flush_range(at, 8);
            cache.fence(&mut media);
        }
        assert!(cache.is_clean());
        let chunks: Vec<(usize, usize)> = cache
            .pages
            .iter()
            .map(|c| (c.len(), c.capacity()))
            .collect();
        assert_eq!(chunks, [(1, CHUNK_PAGES)], "one 16-page chunk");
        assert_eq!(
            &media[999 * PAGE + 100..999 * PAGE + 108],
            &[999u16 as u8 | 1; 8]
        );
    }

    #[test]
    fn dense_clean_lines_are_dropped_from_membership() {
        let mut media = vec![0u8; 64 * 4];
        let mut cache = LineCache::new();
        cache.write(64, &[1; 64], &media);
        cache.flush_range(64, 64);
        cache.fence(&mut media);
        assert!(cache.is_clean(), "fenced line must leave the cache");
    }

    /// Pages of the lock-step media: more than one slab chunk.
    const PAGES: u64 = 20;
    /// Line-aligned, not page-aligned: the last word is a partial page.
    const MEDIA: u64 = PAGES * PAGE as u64 + 37 * CACHE_LINE;

    /// One step of a lock-step script; `other` runs it on a spawned thread,
    /// a new flusher tag each time.
    #[derive(Clone, Debug)]
    enum Op {
        Write {
            at: u64,
            len: u64,
            fill: u8,
            other: bool,
        },
        Flush {
            at: u64,
            len: u64,
            other: bool,
        },
        Fence,
    }

    /// A start offset: anywhere, or `before` bytes ahead of the `n`-th
    /// 4 KiB boundary.
    fn at_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            1 => 0..MEDIA,
            2 => (1..=PAGES, 0u64..130).prop_map(|(n, before)| n * PAGE as u64 - before),
        ]
    }

    /// A length: a few lines, or up to three pages.
    fn len_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![3 => 1u64..256, 1 => 1..=3 * PAGE as u64]
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let other = || (0u8..10).prop_map(|d| d < 3);
        prop_oneof![
            4 => (at_strategy(), len_strategy(), any::<u8>(), other())
                .prop_map(|(at, len, fill, other)| Op::Write { at, len, fill, other }),
            3 => (at_strategy(), len_strategy(), other())
                .prop_map(|(at, len, other)| Op::Flush { at, len, other }),
            1 => Just(Op::Fence),
        ]
    }

    fn apply(pair: &mut Pair, op: &Op) {
        match *op {
            Op::Write { at, len, fill, .. } => {
                pair.write(at, &vec![fill; len.min(MEDIA - at) as usize]);
            }
            Op::Flush { at, len, .. } => pair.flush(at, len.min(MEDIA - at)),
            Op::Fence => pair.fence(),
        }
    }

    /// Rounds of write → flush → fence, each on one of the `PAGES` pages
    /// and some left unflushed, so that more than a chunk's pages are freed
    /// and handed to other words, whose partly written lines are seeded
    /// from media over the previous word's bytes.
    fn cycle_strategy() -> impl Strategy<Value = Vec<Op>> {
        let round = (0..PAGES, 0..PAGE as u64, 1u64..200, any::<u8>(), 0u8..4).prop_map(
            |(page, off, len, fill, flushed)| {
                let at = page * PAGE as u64 + off;
                let mut ops = vec![Op::Write {
                    at,
                    len,
                    fill,
                    other: false,
                }];
                if flushed != 0 {
                    ops.push(Op::Flush {
                        at,
                        len,
                        other: false,
                    });
                }
                ops.push(Op::Fence);
                ops
            },
        );
        proptest::collection::vec(round, 17..48).prop_map(|rounds| rounds.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The contract: after every step of a random write/flush/fence
        /// script, some of its stores and flushes issued on a spawned
        /// thread, or of a script cycling pages through the free list, the
        /// dense model shows the reference's visible bytes, durable media
        /// and crash-draw sequence.
        #[test]
        fn line_cache_matches_the_reference_model(
            ops in prop_oneof![
                proptest::collection::vec(op_strategy(), 1..60),
                cycle_strategy(),
            ]
        ) {
            let mut pair = Pair::new(MEDIA as usize);
            for op in &ops {
                match op {
                    Op::Write { other: true, .. } | Op::Flush { other: true, .. } => {
                        on_other_thread(&mut pair, |p| apply(p, op));
                    }
                    _ => apply(&mut pair, op),
                }
                prop_assert_eq!(pair.diverged(), None, "after {:?}", op);
            }
        }
    }
}
