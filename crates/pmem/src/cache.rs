//! Simulated volatile cache models for [`PoolMode::CrashSim`].
//!
//! Two implementations share the same observable behavior:
//!
//! * [`LineCache`] — the production model: a dense table with one entry
//!   per 64 lines (the slot of their page) over a slab of pages — 4 KiB of
//!   line data with its 64 dirty bits and 64 flush-pending bits — that
//!   grows by a page the first time a line of that entry is stored to. A
//!   pool instance therefore costs what its run stores to, not its
//!   capacity (beyond four table bytes per 4 KiB); the table and the
//!   slab's first chunk of pages are allocated by the first store and no
//!   hashing ever happens.
//! * [`RefCache`] — the original `HashMap<line, CacheLine>` model, kept as
//!   the executable specification for equivalence tests (select it with
//!   [`PoolOptions::with_reference_cache`]).
//!
//! Shared semantics (the durability contract both must implement):
//!
//! * A store marks its lines dirty and voids any pending flush on them (a
//!   flush only guarantees the bytes present when it was issued).
//! * A flush marks dirty lines write-back-initiated (`flush_pending`);
//!   durability still requires a fence.
//! * A fence writes back exactly the lines whose flush is still pending and
//!   marks them clean.
//! * On a crash, every modified line draws one survival decision, in
//!   ascending line order: `p_flushed_unfenced` if its flush was pending,
//!   else `p_dirty`. Clean lines equal media and draw nothing. Keeping the
//!   draw order and count identical across implementations is what makes
//!   seeded crashes reproducible regardless of the model in use.
//!
//! [`PoolMode::CrashSim`]: crate::PoolMode::CrashSim
//! [`PoolOptions::with_reference_cache`]: crate::PoolOptions::with_reference_cache

use std::collections::HashMap;

use crate::addr::{lines_for_range, CACHE_LINE};

const LINE: usize = CACHE_LINE as usize;

/// Number of cache lines covered by `[offset, offset+len)` without
/// materializing the range (same geometry as [`lines_for_range`]).
#[inline]
pub(crate) fn line_count(offset: u64, len: u64) -> u64 {
    if len == 0 {
        0
    } else {
        (offset + len - 1) / CACHE_LINE - offset / CACHE_LINE + 1
    }
}

/// The cache implementation selected for a pool.
pub(crate) enum Cache {
    /// Dense paged model (default).
    Dense(LineCache),
    /// Original hash-map model (reference/testing).
    Reference(RefCache),
}

impl Cache {
    /// `true` when an overlay pass cannot change any read (fast-path check).
    #[inline]
    pub(crate) fn is_clean(&self) -> bool {
        match self {
            Cache::Dense(c) => c.dirty_pages == 0,
            Cache::Reference(c) => c.lines.is_empty(),
        }
    }

    /// Applies a store to the cached image of `[offset, offset+len)`.
    pub(crate) fn write(&mut self, offset: u64, data: &[u8], media: &[u8]) {
        match self {
            Cache::Dense(c) => c.write(offset, data, media),
            Cache::Reference(c) => c.write(offset, data, media),
        }
    }

    /// Marks dirty lines in the range as write-back initiated.
    pub(crate) fn flush_range(&mut self, offset: u64, len: u64) {
        match self {
            Cache::Dense(c) => c.flush_range(offset, len),
            Cache::Reference(c) => c.flush_range(offset, len),
        }
    }

    /// Completes all pending write-backs into `media`.
    pub(crate) fn fence(&mut self, media: &mut [u8]) {
        match self {
            Cache::Dense(c) => c.fence(media),
            Cache::Reference(c) => c.fence(media),
        }
    }

    /// Completes pending write-backs for lines starting in `[lo, hi)` byte
    /// offsets; flushes pending outside the range stay pending. Used by the
    /// allocator so its internal fences order only the owning arena's
    /// metadata — a semantics that is identical across shard counts
    /// because it depends only on the (shard-count-independent) arena
    /// geometry.
    pub(crate) fn fence_range(&mut self, media: &mut [u8], lo: u64, hi: u64) {
        let lo_line = lo / CACHE_LINE;
        let hi_line = hi.div_ceil(CACHE_LINE);
        match self {
            Cache::Dense(c) => c.fence_lines(media, lo_line, hi_line),
            Cache::Reference(c) => c.fence_lines(media, lo_line, hi_line),
        }
    }

    /// Overlays cached line contents onto `buf` (already filled from media).
    pub(crate) fn overlay(&self, offset: u64, buf: &mut [u8]) {
        match self {
            Cache::Dense(c) => c.overlay(offset, buf),
            Cache::Reference(c) => c.overlay(offset, buf),
        }
    }

    /// Visits every modified line in ascending order as
    /// `(line, flush_pending, line_bytes)` — the crash-survival draw order.
    pub(crate) fn for_each_modified(&self, f: impl FnMut(u64, bool, &[u8])) {
        match self {
            Cache::Dense(c) => c.for_each_modified(f),
            Cache::Reference(c) => c.for_each_modified(f),
        }
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
    /// One bit per line: write-back initiated, not yet fenced.
    flush_pending: u64,
    /// The volatile contents of the dirty lines, laid out like the span;
    /// the bytes of clean lines are meaningless and never read.
    bytes: [u8; PAGE],
}

/// Dense paged cache: a table with one entry per 64-line word over a slab
/// of [`Page`]s that grows by one page the first time a word is stored to,
/// so the cache costs memory and time in proportion to the pages a run
/// stores to, not to the pool.
///
/// Invariants:
/// * `flush_pending ⊆ dirty` (a line's flush is voided by a later store and
///   cleared by the fence that writes it back, so it can never outlive
///   dirtiness).
/// * `dirty_pages` equals the number of pages with a dirty line.
/// * A page stays with its word for good: one fenced clean is reused when
///   the word is dirtied again, so the slab never exceeds the pages ever
///   stored to.
///
/// Nothing is allocated until the first store, which allocates the table
/// (zeroed, four bytes per 4 KiB of the span) and the slab's first chunk;
/// after that stores, flushes and fences are allocation-free until a run
/// stores to more pages than its chunks hold (the slab then gains a chunk,
/// and the pending-flush list retains its capacity across fences).
#[derive(Default)]
pub(crate) struct LineCache {
    /// Per word of the span: the slot of its page in `pages` plus one, 0
    /// while no line of the word was ever stored to. Sized by the first
    /// store.
    slots: Vec<u32>,
    /// The slab: the pages stored to, in first-touch order, in chunks of
    /// [`CHUNK_PAGES`] (slot `s` is page `s - 1` of the concatenation).
    pages: Vec<Vec<Page>>,
    /// Lines pushed by flushes, drained by the next fence.
    pending_flushes: Vec<u64>,
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

    /// The page of word `w`, if one of its lines was ever stored to.
    #[inline]
    fn page(&self, w: usize) -> Option<&Page> {
        let i = (self.slots[w] as usize).checked_sub(1)?;
        Some(&self.pages[i / CHUNK_PAGES][i % CHUNK_PAGES])
    }

    /// Appends word `w`'s page to the slab and returns its table entry. Out
    /// of line: a `Page` built on the stack would put a 4 KiB frame (and
    /// its stack probe) on every store.
    #[cold]
    #[inline(never)]
    fn add_page(&mut self, w: usize) -> u32 {
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

    fn write(&mut self, offset: u64, data: &[u8], media: &[u8]) {
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
            // no longer guarantees this data's durability.
            page.flush_pending &= !mask;
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

    fn flush_range(&mut self, offset: u64, len: u64) {
        if self.dirty_pages == 0 {
            return;
        }
        for_each_word(offset, len, |w, _, _, mask| {
            let Some(i) = (self.slots[w] as usize).checked_sub(1) else {
                return;
            };
            let page = &mut self.pages[i / CHUNK_PAGES][i % CHUNK_PAGES];
            let newly = mask & page.dirty & !page.flush_pending;
            page.flush_pending |= newly;
            for_each_bit(newly, |bit| {
                self.pending_flushes.push(w as u64 * WORD_LINES + bit);
            });
        });
    }

    /// Writes `line` back to `media` if its flush is still pending.
    #[inline]
    fn write_back(&mut self, media: &mut [u8], line: u64) {
        let (w, bit) = ((line / WORD_LINES) as usize, line % WORD_LINES);
        // A line is only ever pushed by a flush that found it dirty, so
        // its word has a page.
        let i = self.slots[w] as usize - 1;
        let page = &mut self.pages[i / CHUNK_PAGES][i % CHUNK_PAGES];
        if page.flush_pending & (1 << bit) != 0 {
            let (s, d) = ((line * CACHE_LINE) as usize, bit as usize * LINE);
            media[s..s + LINE].copy_from_slice(&page.bytes[d..d + LINE]);
            page.flush_pending &= !(1 << bit);
            page.dirty &= !(1 << bit);
            self.dirty_pages -= usize::from(page.dirty == 0);
        }
    }

    fn fence(&mut self, media: &mut [u8]) {
        let mut pending = std::mem::take(&mut self.pending_flushes);
        for line in pending.drain(..) {
            self.write_back(media, line);
        }
        // Hand the drained (empty) vector back so its capacity is reused.
        self.pending_flushes = pending;
    }

    fn fence_lines(&mut self, media: &mut [u8], lo_line: u64, hi_line: u64) {
        let mut pending = std::mem::take(&mut self.pending_flushes);
        pending.retain(|&line| {
            if line < lo_line || line >= hi_line {
                return true; // outside the fence's range: stays pending
            }
            self.write_back(media, line);
            false
        });
        self.pending_flushes = pending;
    }

    fn overlay(&self, offset: u64, buf: &mut [u8]) {
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

    fn for_each_modified(&self, mut f: impl FnMut(u64, bool, &[u8])) {
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

/// State of one simulated cache line in the reference model.
struct RefLine {
    data: Vec<u8>,
    /// Modified since last write-back.
    dirty: bool,
    /// A flush was issued but no fence has ordered it yet.
    flush_pending: bool,
}

/// The original hash-map cache model, preserved as the executable
/// specification for [`LineCache`]. Lines written back by a fence stay in
/// the map as clean entries whose bytes equal media (they overlay reads as
/// no-ops and draw nothing on crash), exactly as the seed implementation
/// behaved.
#[derive(Default)]
pub(crate) struct RefCache {
    lines: HashMap<u64, RefLine>,
    pending_flushes: Vec<u64>,
}

impl RefCache {
    pub(crate) fn new() -> RefCache {
        RefCache::default()
    }

    fn write(&mut self, offset: u64, data: &[u8], media: &[u8]) {
        let len = data.len() as u64;
        for line in lines_for_range(offset, len) {
            let line_start = line * CACHE_LINE;
            let cl = self.lines.entry(line).or_insert_with(|| {
                let s = line_start as usize;
                RefLine {
                    data: media[s..s + LINE].to_vec(),
                    dirty: false,
                    flush_pending: false,
                }
            });
            let copy_start = line_start.max(offset);
            let copy_end = (line_start + CACHE_LINE).min(offset + len);
            cl.data[(copy_start - line_start) as usize..(copy_end - line_start) as usize]
                .copy_from_slice(
                    &data[(copy_start - offset) as usize..(copy_end - offset) as usize],
                );
            cl.dirty = true;
            cl.flush_pending = false;
        }
    }

    fn flush_range(&mut self, offset: u64, len: u64) {
        for line in lines_for_range(offset, len) {
            if let Some(cl) = self.lines.get_mut(&line) {
                if cl.dirty && !cl.flush_pending {
                    cl.flush_pending = true;
                    self.pending_flushes.push(line);
                }
            }
        }
    }

    fn fence(&mut self, media: &mut [u8]) {
        self.fence_lines(media, 0, u64::MAX);
    }

    fn fence_lines(&mut self, media: &mut [u8], lo_line: u64, hi_line: u64) {
        let mut pending = std::mem::take(&mut self.pending_flushes);
        pending.retain(|&line| {
            if line < lo_line || line >= hi_line {
                return true;
            }
            if let Some(cl) = self.lines.get_mut(&line) {
                if cl.flush_pending {
                    let s = (line * CACHE_LINE) as usize;
                    media[s..s + LINE].copy_from_slice(&cl.data);
                    cl.dirty = false;
                    cl.flush_pending = false;
                }
            }
            false
        });
        self.pending_flushes = pending;
    }

    fn overlay(&self, offset: u64, buf: &mut [u8]) {
        let len = buf.len() as u64;
        for line in lines_for_range(offset, len) {
            if let Some(cl) = self.lines.get(&line) {
                let line_start = line * CACHE_LINE;
                let copy_start = line_start.max(offset);
                let copy_end = (line_start + CACHE_LINE).min(offset + len);
                let src =
                    &cl.data[(copy_start - line_start) as usize..(copy_end - line_start) as usize];
                buf[(copy_start - offset) as usize..(copy_end - offset) as usize]
                    .copy_from_slice(src);
            }
        }
    }

    fn for_each_modified(&self, mut f: impl FnMut(u64, bool, &[u8])) {
        // Deterministic iteration order: sort lines. Clean entries draw
        // nothing, matching the dense model where they simply don't exist.
        let mut lines: Vec<_> = self.lines.iter().collect();
        lines.sort_by_key(|(line, _)| **line);
        for (line, cl) in lines {
            if cl.flush_pending || cl.dirty {
                f(*line, cl.flush_pending, &cl.data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(media_len: usize) -> (Vec<u8>, Cache, Vec<u8>, Cache) {
        let media: Vec<u8> = (0..media_len).map(|i| i as u8).collect();
        (
            media.clone(),
            Cache::Dense(LineCache::new()),
            media,
            Cache::Reference(RefCache::new()),
        )
    }

    fn read(media: &[u8], cache: &Cache, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = media[offset as usize..offset as usize + len].to_vec();
        cache.overlay(offset, &mut buf);
        buf
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
        let (mut m1, mut dense, mut m2, mut reference) = both(64 * 64);
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
                "w" => {
                    let data: Vec<u8> = (0..b).map(|i| (a + i) as u8).collect();
                    dense.write(a, &data, &m1);
                    reference.write(a, &data, &m2);
                }
                "f" => {
                    dense.flush_range(a, b);
                    reference.flush_range(a, b);
                }
                "s" => {
                    dense.fence(&mut m1);
                    reference.fence(&mut m2);
                }
                _ => unreachable!(),
            }
            assert_eq!(m1, m2, "durable media diverged after {op}({a},{b})");
            assert_eq!(
                read(&m1, &dense, 0, m1.len()),
                read(&m2, &reference, 0, m2.len()),
                "visible bytes diverged after {op}({a},{b})"
            );
        }
        // Crash draw order and flags must agree too.
        let mut d: Vec<(u64, bool, Vec<u8>)> = Vec::new();
        let mut r: Vec<(u64, bool, Vec<u8>)> = Vec::new();
        dense.for_each_modified(|l, fp, bytes| d.push((l, fp, bytes.to_vec())));
        reference.for_each_modified(|l, fp, bytes| r.push((l, fp, bytes.to_vec())));
        assert_eq!(d, r);
    }

    #[test]
    fn fence_only_writes_back_still_pending_lines() {
        let (mut media, mut dense, ..) = both(64 * 4);
        dense.write(0, &[0xAA; 8], &media);
        dense.flush_range(0, 8);
        dense.write(0, &[0xBB; 8], &media); // voids the pending flush
        dense.fence(&mut media);
        assert_ne!(&media[0..8], &[0xBB; 8], "voided flush must not persist");
        assert_eq!(read(&media, &dense, 0, 8), vec![0xBB; 8]);
    }

    #[test]
    fn fence_range_leaves_out_of_range_flushes_pending() {
        let (mut m1, mut dense, mut m2, mut reference) = both(64 * 8);
        for cache_media in [(&mut dense, &mut m1), (&mut reference, &mut m2)] {
            let (cache, media) = cache_media;
            cache.write(0, &[0x11; 8], media);
            cache.write(256, &[0x22; 8], media);
            cache.flush_range(0, 8);
            cache.flush_range(256, 8);
            // Fence only the first line's range.
            cache.fence_range(media, 0, 64);
            assert_eq!(&media[0..8], &[0x11; 8], "in-range flush persisted");
            let untouched: Vec<u8> = (0u8..8).collect();
            assert_eq!(
                &media[256..264],
                &untouched[..],
                "out-of-range stays pending"
            );
            // A later full fence completes the survivor.
            cache.fence(media);
            assert_eq!(&media[256..264], &[0x22; 8]);
        }
        assert_eq!(m1, m2, "models agree on range-fence semantics");
    }

    fn dense(cache: &Cache) -> &LineCache {
        match cache {
            Cache::Dense(c) => c,
            Cache::Reference(_) => unreachable!("the dense half of `both`"),
        }
    }

    #[test]
    fn a_fresh_cache_allocates_nothing_before_its_first_store() {
        let (mut media, mut cache, ..) = both(PAGE * 8);
        cache.flush_range(0, 4096);
        cache.fence(&mut media);
        assert_eq!(read(&media, &cache, 100, 200), media[100..300]);
        let c = dense(&cache);
        assert_eq!(
            (
                c.slots.capacity(),
                c.pages.capacity(),
                c.pending_flushes.capacity()
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn the_slab_holds_only_the_pages_stored_to() {
        // 1 MiB + 5 lines of media: the last word covers a partial page.
        let (mut m1, mut cache, mut m2, mut reference) = both((1 << 20) + 5 * LINE);
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
            let data = vec![i as u8 + 1; len];
            cache.write(off as u64, &data, &m1);
            reference.write(off as u64, &data, &m2);
            touched.extend(off / PAGE..=(off + len - 1) / PAGE);
        }
        assert_eq!(touched.len(), 51);
        let chunks: Vec<usize> = dense(&cache).pages.iter().map(Vec::len).collect();
        assert_eq!(chunks, [16, 16, 16, 3]);
        assert_eq!(
            read(&m1, &cache, 0, m1.len()),
            read(&m2, &reference, 0, m2.len())
        );
        for (off, len) in script {
            cache.flush_range(off as u64, len as u64);
            reference.flush_range(off as u64, len as u64);
        }
        cache.fence(&mut m1);
        reference.fence(&mut m2);
        assert!(cache.is_clean());
        assert_eq!(m1, m2);
    }

    #[test]
    fn a_page_fenced_clean_is_reused_when_its_word_is_dirtied_again() {
        let (mut media, mut cache, ..) = both(PAGE * 8);
        for round in 0..3u8 {
            // A different line of the same two words every round.
            for off in [PAGE as u64 + 64 * round as u64, 5 * PAGE as u64 + 8] {
                cache.write(off, &[round + 1; 8], &media);
                cache.flush_range(off, 8);
            }
            cache.fence(&mut media);
            assert!(cache.is_clean());
            assert_eq!(dense(&cache).pages[0].len(), 2, "round {round}");
        }
        assert_eq!(&media[PAGE + 128..PAGE + 136], &[3; 8]);
        assert_eq!(&media[5 * PAGE + 8..5 * PAGE + 16], &[3; 8]);
    }

    #[test]
    fn dense_clean_lines_are_dropped_from_membership() {
        let (mut media, mut dense, ..) = both(64 * 4);
        dense.write(64, &[1; 64], &media);
        dense.flush_range(64, 64);
        dense.fence(&mut media);
        assert!(dense.is_clean(), "fenced line must leave the cache");
    }
}
