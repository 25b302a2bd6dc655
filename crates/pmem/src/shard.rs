//! The pool engine: address-range shards, each behind its own lock.
//!
//! The pool's media and simulated cache are partitioned into contiguous,
//! cache-line-aligned byte ranges — one, covering the whole pool, by
//! default. An access that one shard holds entirely (every access of a
//! one-shard pool; nearly every access of any pool) takes that shard's lock
//! once; one spanning a boundary visits the overlapping shards in ascending
//! address order. The route is chosen from the byte range alone. Because
//! shard bases are line-aligned, a line never spans shards, and the
//! ascending-shard × ascending-local-line walk used by
//! [`ShardedPool::crash_media`] is the pool's ascending line order — which
//! is what keeps seeded crash outcomes bit-identical across shard counts.
//!
//! Ordering model (documented on [`PmemPool`]): fault injection,
//! persist-event numbering, and event tracing live *outside* the shards, on
//! the pool's single fault mutex, consulted before any shard is touched.
//! Shards therefore never need to agree on an event order among themselves —
//! and a trace recorded under that mutex is the same pool-wide total order
//! at every shard count, which is what makes golden traces
//! shard-count-invariant.
//!
//! The allocator's volatile [`ArenaMirror`] sits behind one mutex, and an
//! allocator operation locks it and then every shard, ascending: the heap
//! spans the pool, so its fence is a fence of every shard.
//!
//! The per-access counters live in per-shard [`PmemStats`] banks written
//! by the shard lock holder and nowhere else; [`PmemStats::snapshot`] sums
//! them into pool totals. Operation counts attribute to the shard holding
//! the first byte; flush line counts attribute per shard (pure geometry, so
//! their sum does not depend on the shard count); fences and allocator
//! hot-path credits attribute to shard 0.
//!
//! [`PmemPool`]: crate::PmemPool
//! [`PmemStats`]: crate::PmemStats
//! [`PmemStats::snapshot`]: crate::PmemStats::snapshot

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::addr::{align_up, CACHE_LINE};
use crate::alloc::ArenaMirror;
use crate::cache::{line_count, LineCache};
use crate::pool::{get_u64, put_u64, PoolMode};
use crate::stats::PmemStats;

/// The durable media as the engine holds it, borrowed under its locks: one
/// piece per shard, ascending. Every in-place inspection of durable bytes — the heap
/// walk, [`PmemPool::visit_media`] — reads through this instead of copying
/// the pool.
pub(crate) struct MediaView<'a> {
    /// Shard 0's piece; the only one when `rest` is empty.
    head: &'a [u8],
    /// The further pieces, ascending. With `head` they are contiguous, and
    /// all but the last hold `piece_bytes` bytes.
    rest: &'a [&'a [u8]],
    piece_bytes: u64,
}

impl<'a> MediaView<'a> {
    /// The pieces, ascending.
    pub(crate) fn pieces(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        std::iter::once(self.head).chain(self.rest.iter().copied())
    }

    /// The `N` durable bytes at `offset` (which may straddle pieces).
    fn read<const N: usize>(&self, offset: u64) -> [u8; N] {
        let mut buf = [0u8; N];
        let mut at = offset;
        let mut done = 0;
        while done < N {
            let piece = match (at / self.piece_bytes) as usize {
                0 => self.head,
                n => self.rest[n - 1],
            };
            let local = (at % self.piece_bytes) as usize;
            let n = (piece.len() - local).min(N - done);
            buf[done..done + n].copy_from_slice(&piece[local..local + n]);
            done += n;
            at += n as u64;
        }
        buf
    }

    pub(crate) fn get_u64(&self, offset: u64) -> u64 {
        u64::from_le_bytes(self.read(offset))
    }
}

/// One address-range shard: a contiguous span of media plus its simulated
/// cache. Its methods take pool-global offsets (the caller guarantees
/// containment); the cache and media are indexed locally.
pub(crate) struct Shard {
    /// Pool-global byte offset where this shard's range starts (multiple of
    /// [`CACHE_LINE`]).
    base: u64,
    media: Vec<u8>,
    /// Simulated cache. Stays clean (and unallocated) in performance mode.
    cache: LineCache,
}

impl Shard {
    /// Reads `buf.len()` bytes at `offset`, overlaying cached lines on media.
    fn read(&self, offset: u64, buf: &mut [u8]) {
        let local = offset - self.base;
        buf.copy_from_slice(&self.media[local as usize..local as usize + buf.len()]);
        if !self.cache.is_clean() {
            self.cache.overlay(local, buf);
        }
    }

    /// [`read`](Self::read) of one little-endian word: a fixed-width load,
    /// no variable-length copy.
    fn read_word(&self, offset: u64) -> u64 {
        let local = offset - self.base;
        let word = get_u64(&self.media, local);
        if self.cache.is_clean() {
            return word;
        }
        let mut buf = word.to_le_bytes();
        self.cache.overlay(local, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes `data` at `offset` into the cache (crash-sim) or media
    /// (performance).
    fn write(&mut self, offset: u64, data: &[u8], mode: PoolMode) {
        let local = offset - self.base;
        match mode {
            PoolMode::Performance => {
                self.media[local as usize..local as usize + data.len()].copy_from_slice(data);
            }
            PoolMode::CrashSim => self.cache.write(local, data, &self.media),
        }
    }

    /// [`write`](Self::write) of one little-endian word: a fixed-width
    /// store in performance mode.
    fn write_word(&mut self, offset: u64, value: u64, mode: PoolMode) {
        let local = offset - self.base;
        match mode {
            PoolMode::Performance => put_u64(&mut self.media, local, value),
            PoolMode::CrashSim => self.cache.write(local, &value.to_le_bytes(), &self.media),
        }
    }

    /// Marks the lines covering `[offset, offset+len)` as write-back
    /// initiated. Returns the number of lines touched (for flush
    /// accounting): pure geometry — identical in both modes, independent of
    /// cache state, and translation-invariant because `base` is
    /// line-aligned — so performance mode only does the arithmetic.
    fn flush(&mut self, offset: u64, len: u64, mode: PoolMode) -> u64 {
        if mode == PoolMode::CrashSim {
            self.cache.flush_range(offset - self.base, len);
        }
        line_count(offset, len)
    }

    /// Orders all pending flushes: their lines become durable on media.
    fn fence(&mut self) {
        self.cache.fence(&mut self.media);
    }
}

/// Cuts `[offset, offset+len)` at the multiples of `shard_bytes` and visits
/// each `(shard_index, piece_start, piece_len)` in ascending address order.
fn for_each_piece(shard_bytes: u64, offset: u64, len: u64, mut f: impl FnMut(usize, u64, u64)) {
    let end = offset + len;
    let mut at = offset;
    while at < end {
        let idx = (at / shard_bytes) as usize;
        let stop = ((idx as u64 + 1) * shard_bytes).min(end);
        f(idx, at, stop - at);
        at = stop;
    }
}

/// The pool engine: contiguous address-range shards plus the allocator
/// mirror's lock.
///
/// Lock order, where multiple locks are held: the allocator mirror → the
/// shards, ascending. The pool-level fault mutex is never held across a
/// shard acquisition.
pub(crate) struct ShardedPool {
    cells: Box<[Mutex<Shard>]>,
    /// Shard `i`'s per-access counters, written under `cells[i]`'s lock
    /// (fences excepted, see [`PmemStats`]); the pool's shared bank holds
    /// the same banks to sum them.
    banks: Arc<[PmemStats]>,
    /// Bytes per shard (multiple of [`CACHE_LINE`]); the last shard holds
    /// the remainder.
    shard_bytes: u64,
    capacity: u64,
    /// The volatile allocator mirror — allocator paths lock it first, then
    /// every shard, so the heap's metadata updates are atomic.
    mirror: Mutex<ArenaMirror>,
    /// Pool-wide fences as tickets, taken when one begins and retired when
    /// it ends ([`fence_tickets`](Self::fence_tickets)).
    fences_begun: AtomicU64,
    fences_done: AtomicU64,
}

impl ShardedPool {
    pub(crate) fn new(mut media: Vec<u8>, shards: u32) -> ShardedPool {
        let capacity = media.len() as u64;
        let mirror = Mutex::new(ArenaMirror::rebuild(&mut media));
        let want = u64::from(shards.clamp(1, 4096));
        let shard_bytes = align_up(capacity.div_ceil(want).max(1), CACHE_LINE);
        // Shard 0 keeps the original buffer — and its capacity, which
        // `into_media` grows back into; the other shards copy their piece.
        // At one shard nothing is copied.
        let tails: Vec<Vec<u8>> = media
            .chunks(shard_bytes as usize)
            .skip(1)
            .map(<[u8]>::to_vec)
            .collect();
        media.truncate(shard_bytes as usize);
        let mut base = 0u64;
        let cells: Vec<Mutex<Shard>> = std::iter::once(media)
            .chain(tails)
            .map(|piece| {
                let shard_base = base;
                base += piece.len() as u64;
                Mutex::new(Shard {
                    base: shard_base,
                    media: piece,
                    cache: LineCache::new(),
                })
            })
            .collect();
        ShardedPool {
            banks: cells.iter().map(|_| PmemStats::default()).collect(),
            cells: cells.into_boxed_slice(),
            shard_bytes,
            capacity,
            mirror,
            fences_begun: AtomicU64::new(0),
            fences_done: AtomicU64::new(0),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// The per-shard counter banks, for the pool's shared bank.
    pub(crate) fn banks(&self) -> &Arc<[PmemStats]> {
        &self.banks
    }

    /// Shard index containing `offset`, clamped so a zero-length access at
    /// `offset == capacity` still lands on the last shard. An offset inside
    /// shard 0 — every offset of a one-shard pool — costs a compare, not a
    /// division.
    #[inline]
    fn shard_index(&self, offset: u64) -> usize {
        if offset < self.shard_bytes {
            return 0;
        }
        ((offset / self.shard_bytes) as usize).min(self.cells.len() - 1)
    }

    /// The shard holding all of `[offset, offset+len)`, when one does: the
    /// access then takes that shard's lock once and never splits. Chosen
    /// from the byte range alone, at every shard count; a range ending
    /// inside shard 0 — every range of a one-shard pool — is found by one
    /// compare.
    #[inline]
    fn sole_shard(&self, offset: u64, len: u64) -> Option<usize> {
        let end = offset + len;
        if end <= self.shard_bytes {
            return Some(0);
        }
        let idx = self.shard_index(offset);
        (end <= (idx as u64 + 1) * self.shard_bytes).then_some(idx)
    }

    /// Counts one load of `len` bytes against shard `idx`, whose lock the
    /// caller holds — `_held`, borrowed from its guard, is the witness.
    #[inline]
    fn add_load(&self, idx: usize, _held: &Shard, len: u64) {
        let b = &self.banks[idx];
        b.add(&b.reads, 1);
        b.add(&b.read_bytes, len);
    }

    /// Counts one store of `len` bytes, under the same rule.
    #[inline]
    fn add_store(&self, idx: usize, _held: &Shard, len: u64) {
        let b = &self.banks[idx];
        b.add(&b.writes, 1);
        b.add(&b.write_bytes, len);
    }

    /// Counts `lines` flushed lines, under the same rule.
    #[inline]
    fn add_flushes(&self, idx: usize, _held: &Shard, lines: u64) {
        let b = &self.banks[idx];
        b.add(&b.flushes, lines);
    }

    #[inline]
    pub(crate) fn read(&self, offset: u64, buf: &mut [u8]) {
        let len = buf.len() as u64;
        let Some(idx) = self.sole_shard(offset, len) else {
            return self.read_split(offset, buf);
        };
        let sh = self.cells[idx].lock();
        self.add_load(idx, &sh, len);
        sh.read(offset, buf);
    }

    /// [`read`](Self::read) of a range that straddles shards.
    #[cold]
    fn read_split(&self, offset: u64, buf: &mut [u8]) {
        let len = buf.len() as u64;
        for_each_piece(self.shard_bytes, offset, len, |idx, at, n| {
            let sh = self.cells[idx].lock();
            if at == offset {
                self.add_load(idx, &sh, len);
            }
            let s = (at - offset) as usize;
            sh.read(at, &mut buf[s..s + n as usize]);
        });
    }

    /// [`read`](Self::read) of one little-endian word: a fixed-width load
    /// unless the word straddles shards.
    #[inline]
    pub(crate) fn read_word(&self, offset: u64) -> u64 {
        let Some(idx) = self.sole_shard(offset, 8) else {
            let mut buf = [0u8; 8];
            self.read_split(offset, &mut buf);
            return u64::from_le_bytes(buf);
        };
        let sh = self.cells[idx].lock();
        self.add_load(idx, &sh, 8);
        sh.read_word(offset)
    }

    #[inline]
    pub(crate) fn write(&self, offset: u64, data: &[u8], mode: PoolMode) {
        let len = data.len() as u64;
        let Some(idx) = self.sole_shard(offset, len) else {
            return self.write_split(offset, data, mode);
        };
        let mut sh = self.cells[idx].lock();
        self.add_store(idx, &sh, len);
        sh.write(offset, data, mode);
    }

    /// [`write`](Self::write) of a range that straddles shards.
    #[cold]
    fn write_split(&self, offset: u64, data: &[u8], mode: PoolMode) {
        let len = data.len() as u64;
        for_each_piece(self.shard_bytes, offset, len, |idx, at, n| {
            let mut sh = self.cells[idx].lock();
            if at == offset {
                self.add_store(idx, &sh, len);
            }
            let s = (at - offset) as usize;
            sh.write(at, &data[s..s + n as usize], mode);
        });
    }

    /// [`write`](Self::write) of one little-endian word: a fixed-width
    /// store unless the word straddles shards.
    #[inline]
    pub(crate) fn write_word(&self, offset: u64, value: u64, mode: PoolMode) {
        let Some(idx) = self.sole_shard(offset, 8) else {
            return self.write_split(offset, &value.to_le_bytes(), mode);
        };
        let mut sh = self.cells[idx].lock();
        self.add_store(idx, &sh, 8);
        sh.write_word(offset, value, mode);
    }

    #[inline]
    pub(crate) fn flush(&self, offset: u64, len: u64, mode: PoolMode) {
        let Some(idx) = self.sole_shard(offset, len) else {
            return self.flush_split(offset, len, mode);
        };
        let mut sh = self.cells[idx].lock();
        let n = sh.flush(offset, len, mode);
        self.add_flushes(idx, &sh, n);
    }

    /// [`flush`](Self::flush) of a range that straddles shards.
    #[cold]
    fn flush_split(&self, offset: u64, len: u64, mode: PoolMode) {
        for_each_piece(self.shard_bytes, offset, len, |idx, at, l| {
            let mut sh = self.cells[idx].lock();
            let n = sh.flush(at, l, mode);
            self.add_flushes(idx, &sh, n);
        });
    }

    /// [`write`](Self::write) then [`flush`](Self::flush) of the same range
    /// — under one round of its shard's lock when one shard holds it all,
    /// the two calls when it straddles. Counters and cache state end up the
    /// same either way.
    #[inline]
    pub(crate) fn store_flush(&self, offset: u64, data: &[u8], mode: PoolMode) {
        let len = data.len() as u64;
        let Some(idx) = self.sole_shard(offset, len) else {
            self.write_split(offset, data, mode);
            return self.flush_split(offset, len, mode);
        };
        let mut sh = self.cells[idx].lock();
        self.add_store(idx, &sh, len);
        sh.write(offset, data, mode);
        let n = sh.flush(offset, len, mode);
        self.add_flushes(idx, &sh, n);
    }

    pub(crate) fn fence(&self, mode: PoolMode) {
        // Counted in shard 0's bank without its lock: in performance mode
        // there is nothing to write back, so a fence takes no lock at all.
        let b = &self.banks[0];
        b.bump(&b.fences, 1);
        let ticket = self.fences_begun.fetch_add(1, Ordering::SeqCst);
        if mode == PoolMode::CrashSim {
            for cell in self.cells.iter() {
                cell.lock().fence();
            }
        }
        self.fences_done.fetch_max(ticket + 1, Ordering::SeqCst);
    }

    /// `(begun, done)`: flushes made under a shard lock held while `begun`
    /// is read are ordered once `done` exceeds it.
    pub(crate) fn fence_tickets(&self) -> (u64, u64) {
        let begun = self.fences_begun.load(Ordering::SeqCst);
        (begun, self.fences_done.load(Ordering::SeqCst))
    }

    /// Writes straight to durable media, bypassing the cache (torn-store
    /// injection).
    pub(crate) fn media_write(&self, offset: u64, data: &[u8]) {
        for_each_piece(
            self.shard_bytes,
            offset,
            data.len() as u64,
            |idx, at, len| {
                let mut sh = self.cells[idx].lock();
                let local = (at - sh.base) as usize;
                let s = (at - offset) as usize;
                sh.media[local..local + len as usize].copy_from_slice(&data[s..s + len as usize]);
            },
        );
    }

    /// XORs one durable media byte (bit-corruption injection).
    pub(crate) fn media_xor(&self, byte: u64, mask: u8) {
        let mut sh = self.cells[self.shard_index(byte)].lock();
        let local = (byte - sh.base) as usize;
        sh.media[local] ^= mask;
    }

    /// Runs `f` on the durable media of every shard, all shard locks held
    /// (ascending).
    pub(crate) fn with_media_view<R>(&self, f: impl FnOnce(&MediaView<'_>) -> R) -> R {
        let head = self.cells[0].lock();
        // Both empty — and so unallocated — at one shard.
        let rest: Vec<_> = self.cells[1..].iter().map(Mutex::lock).collect();
        let rest: Vec<&[u8]> = rest.iter().map(|sh| &sh.media[..]).collect();
        f(&MediaView {
            head: &head.media,
            rest: &rest,
            piece_bytes: self.shard_bytes,
        })
    }

    /// Concatenated durable media, consuming the engine. Shard 0 kept the
    /// original buffer's capacity when [`new`](Self::new) split it, so the
    /// other shards are appended back onto it without a pool-sized
    /// allocation (at one shard it *is* the buffer `new` was given).
    pub(crate) fn into_media(self) -> Vec<u8> {
        let mut shards = self.cells.into_vec().into_iter().map(Mutex::into_inner);
        let mut media = shards.next().map(|sh| sh.media).unwrap_or_default();
        for sh in shards {
            media.extend_from_slice(&sh.media);
        }
        media
    }

    /// Post-crash media image: durable bytes plus every modified line that
    /// `draw` lets survive. Shard bases are line-aligned, so ascending
    /// shard order × ascending local line order is the pool's ascending
    /// line order: `draw` sees the same sequence at every shard count.
    pub(crate) fn crash_media(
        &self,
        mut media: Vec<u8>,
        draw: &mut dyn FnMut(bool) -> bool,
    ) -> Vec<u8> {
        media.clear();
        media.reserve_exact(self.capacity as usize);
        for cell in self.cells.iter() {
            let sh = cell.lock();
            let start = media.len();
            media.extend_from_slice(&sh.media);
            sh.cache.for_each_modified(|line, flush_pending, bytes| {
                if draw(flush_pending) {
                    let s = start + (line * CACHE_LINE) as usize;
                    media[s..s + CACHE_LINE as usize].copy_from_slice(bytes);
                }
            });
        }
        media
    }

    /// Runs `f` with the allocator mirror locked (no shards).
    pub(crate) fn with_mirror<R>(&self, f: impl FnOnce(&mut ArenaMirror) -> R) -> R {
        f(&mut self.mirror.lock())
    }

    /// Runs `f` with the allocator mirror plus every shard held (mirror
    /// first, then shards ascending — the documented lock order), exposing
    /// the shards as one [`RawPmem`]: the allocator path.
    pub(crate) fn with_heap_raw<R>(
        &self,
        f: impl FnOnce(&mut ArenaMirror, &mut RawPmem<'_>) -> R,
    ) -> R {
        let mut mirror = self.mirror.lock();
        let mut raw = RawPmem {
            head: self.cells[0].lock(),
            // Empty — and so unallocated — at one shard.
            rest: self.cells[1..].iter().map(Mutex::lock).collect(),
            shard_bytes: self.shard_bytes,
            bank: &self.banks[0],
        };
        f(&mut mirror, &mut raw)
    }
}

/// Raw persist operations over pool-global offsets, with bounds already
/// checked by the caller: every shard, their locks held for the duration of
/// an allocator operation, which is what makes the heap's metadata updates
/// atomic.
pub(crate) struct RawPmem<'a> {
    /// Shard 0; the only one when `rest` is empty.
    head: MutexGuard<'a, Shard>,
    /// The further shards, ascending.
    rest: Vec<MutexGuard<'a, Shard>>,
    shard_bytes: u64,
    /// Shard 0's bank, which the held lock makes safe to write: the
    /// operation's hot counts are credited here.
    bank: &'a PmemStats,
}

impl RawPmem<'_> {
    fn for_each_range(&mut self, offset: u64, len: u64, mut f: impl FnMut(&mut Shard, u64, u64)) {
        for_each_piece(self.shard_bytes, offset, len, |idx, at, n| {
            let sh = match idx {
                0 => &mut *self.head,
                k => &mut *self.rest[k - 1],
            };
            f(sh, at, n);
        });
    }

    #[inline]
    pub(crate) fn read_raw(&mut self, offset: u64, buf: &mut [u8]) {
        if self.rest.is_empty() {
            return self.head.read(offset, buf);
        }
        self.read_split(offset, buf);
    }

    #[cold]
    fn read_split(&mut self, offset: u64, buf: &mut [u8]) {
        self.for_each_range(offset, buf.len() as u64, |sh, at, len| {
            let s = (at - offset) as usize;
            sh.read(at, &mut buf[s..s + len as usize]);
        });
    }

    #[inline]
    pub(crate) fn write_raw(&mut self, offset: u64, data: &[u8], mode: PoolMode) {
        if self.rest.is_empty() {
            return self.head.write(offset, data, mode);
        }
        self.write_split(offset, data, mode);
    }

    #[cold]
    fn write_split(&mut self, offset: u64, data: &[u8], mode: PoolMode) {
        self.for_each_range(offset, data.len() as u64, |sh, at, len| {
            let s = (at - offset) as usize;
            sh.write(at, &data[s..s + len as usize], mode);
        });
    }

    #[inline]
    pub(crate) fn flush_raw(&mut self, offset: u64, len: u64, mode: PoolMode) -> u64 {
        if self.rest.is_empty() {
            return self.head.flush(offset, len, mode);
        }
        self.flush_split(offset, len, mode)
    }

    #[cold]
    fn flush_split(&mut self, offset: u64, len: u64, mode: PoolMode) -> u64 {
        let mut n = 0;
        self.for_each_range(offset, len, |sh, at, l| {
            n += sh.flush(at, l, mode);
        });
        n
    }

    /// Orders every previously flushed line, shard by shard.
    pub(crate) fn fence_raw(&mut self) {
        for sh in std::iter::once(&mut self.head).chain(&mut self.rest) {
            sh.fence();
        }
    }

    /// Credits hot-path counters accumulated over an allocator operation.
    pub(crate) fn credit_hot(&mut self, flushes: u64, fences: u64, write_bytes: u64) {
        let b = self.bank;
        b.add(&b.flushes, flushes);
        b.bump(&b.fences, fences);
        b.add(&b.write_bytes, write_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_geometry_is_line_aligned_and_covers_capacity() {
        let s = ShardedPool::new(vec![0u8; 1 << 20], 4);
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.shard_bytes % CACHE_LINE, 0);
        let len = s.with_media_view(|v| v.pieces().map(<[u8]>::len).sum::<usize>());
        assert_eq!(len, 1 << 20);
    }

    #[test]
    fn tiny_pool_gets_fewer_shards_than_requested() {
        // 8 KiB across 4096 requested shards: at least one line per shard.
        let s = ShardedPool::new(vec![0u8; 8192], 4096);
        assert_eq!(s.shard_count(), 8192 / CACHE_LINE as usize);
        assert_eq!(s.shard_bytes, CACHE_LINE);
    }

    #[test]
    fn cross_shard_write_and_read_round_trip() {
        let s = ShardedPool::new(vec![0u8; 8192], 2);
        let boundary = s.shard_bytes - 32;
        let data: Vec<u8> = (0..64u8).collect();
        s.write(boundary, &data, PoolMode::Performance);
        let mut back = vec![0u8; 64];
        s.read(boundary, &mut back);
        assert_eq!(back, data);
        // Op attributed to the first shard only; bytes are the full store.
        let shards = PmemStats::with_banks(s.banks.clone()).shard_snapshots();
        assert_eq!(shards[0].writes, 1);
        assert_eq!(shards[0].write_bytes, 64);
        assert_eq!(shards[1].writes, 0);
    }
}
