//! The sharded pool engine: address-range shards, each behind its own lock.
//!
//! The pool's media and simulated cache are partitioned into contiguous,
//! cache-line-aligned byte ranges. Operations touching one range take one
//! shard lock; operations spanning a boundary visit the overlapping shards
//! in ascending address order. Because shard bases are line-aligned, a line
//! never spans shards, and the ascending-shard × ascending-local-line walk
//! used by [`ShardedPool::crash_media`] reproduces exactly the global
//! ascending line order of the single-lock engine — which is what keeps
//! seeded crash outcomes bit-identical across engines and shard counts.
//!
//! Ordering model (documented on [`PoolConcurrency`]): fault injection,
//! persist-event numbering, and event tracing live *outside* the shards, on
//! the pool's single fault mutex, consulted before any shard is touched.
//! Shards therefore never need to agree on an event order among themselves —
//! and a trace recorded under that mutex is the same pool-wide total order
//! at every shard count, which is what makes golden traces engine-invariant.
//!
//! Allocator state is per-arena: each arena's volatile [`ArenaMirror`] sits
//! behind its own mutex, and an allocator operation locks that mirror plus
//! only the shards overlapping the arena's byte span (mirror first, then
//! shards ascending — at most one mirror per thread, so threads working
//! disjoint arenas never contend and the global acquisition order stays
//! acyclic even when arena boundaries share a shard).
//!
//! Hot-path statistics go to per-shard [`ShardCounters`] banks owned by the
//! shard lock holder; [`PmemStats::snapshot`] folds them back into pool
//! totals. Operation counts attribute to the shard holding the first byte;
//! flush line counts attribute per shard (they sum to the same geometry the
//! global engine reports); fences attribute to shard 0, and allocator
//! hot-path credits to the first shard of the owning arena's span.
//!
//! [`PoolConcurrency`]: crate::PoolConcurrency
//! [`ShardCounters`]: crate::stats::ShardCounters
//! [`PmemStats::snapshot`]: crate::PmemStats::snapshot

use parking_lot::{Mutex, MutexGuard};

use crate::addr::{align_up, CACHE_LINE};
use crate::alloc::ArenaMirror;
use crate::pool::{CacheImpl, HeapGeometry, MediaCache, MediaView, PoolMode, RawPmem};
use crate::stats::PmemStats;

/// One address-range shard: a base offset plus its media/cache span.
pub(crate) struct Shard {
    /// Pool-global byte offset where this shard's range starts (multiple of
    /// [`CACHE_LINE`]).
    base: u64,
    mc: MediaCache,
}

impl Shard {
    /// One past this shard's last pool-global byte.
    fn end(&self) -> u64 {
        self.base + self.mc.media.len() as u64
    }

    /// Reads from pool-global `offset` (caller guarantees containment).
    fn read(&self, offset: u64, buf: &mut [u8]) {
        self.mc.read_raw(offset - self.base, buf);
    }

    fn write(&mut self, offset: u64, data: &[u8], mode: PoolMode) {
        self.mc.write_raw(offset - self.base, data, mode);
    }

    /// Flush line accounting is translation-invariant because `base` is
    /// line-aligned, so the local count equals the global geometry.
    fn flush(&mut self, offset: u64, len: u64, mode: PoolMode) -> u64 {
        self.mc.flush_raw(offset - self.base, len, mode)
    }

    fn fence(&mut self) {
        self.mc.fence_raw();
    }

    /// Orders pending flushes within pool-global `[lo, hi)` (clipped to
    /// this shard by the caller).
    fn fence_range(&mut self, lo: u64, hi: u64) {
        self.mc.fence_range_raw(lo - self.base, hi - self.base);
    }
}

/// The sharded engine: contiguous address-range shards plus one allocator
/// mirror lock per arena.
///
/// Lock order, where multiple locks are held: one arena mirror → the shards
/// overlapping that arena's span, ascending. The pool-level fault mutex is
/// never held across a shard acquisition.
pub(crate) struct ShardedPool {
    cells: Box<[Mutex<Shard>]>,
    /// Bytes per shard (multiple of [`CACHE_LINE`]); the last shard holds
    /// the remainder.
    shard_bytes: u64,
    capacity: u64,
    /// Volatile allocator mirrors, one per arena — allocator paths lock the
    /// owning arena's mirror first, then the shards its span overlaps,
    /// giving that arena's metadata updates global-lock atomicity.
    mirrors: Box<[Mutex<ArenaMirror>]>,
    /// `[lo, hi)` byte span of each arena (metadata + heap).
    arena_spans: Vec<(u64, u64)>,
}

impl ShardedPool {
    pub(crate) fn new(
        mut media: Vec<u8>,
        cache_impl: CacheImpl,
        shards: usize,
        geom: &HeapGeometry,
    ) -> ShardedPool {
        let capacity = media.len() as u64;
        let mirrors: Vec<Mutex<ArenaMirror>> = geom
            .arenas()
            .iter()
            .map(|&l| Mutex::new(ArenaMirror::rebuild(&media, l)))
            .collect();
        let arena_spans = geom.arenas().iter().map(|l| l.span()).collect();
        let want = shards.clamp(1, 4096) as u64;
        let shard_bytes = align_up(capacity.div_ceil(want).max(1), CACHE_LINE);
        // Shard 0 keeps the original buffer — and its capacity, which
        // `into_media` grows back into; the other shards copy their piece.
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
                    mc: MediaCache::new(piece, cache_impl),
                })
            })
            .collect();
        ShardedPool {
            cells: cells.into_boxed_slice(),
            shard_bytes,
            capacity,
            mirrors: mirrors.into_boxed_slice(),
            arena_spans,
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Runs `f` with exclusive access to shard `idx`.
    fn with_shard<R>(&self, idx: usize, f: impl FnOnce(&mut Shard) -> R) -> R {
        f(&mut self.cells[idx].lock())
    }

    /// Shard index containing `offset`, clamped so a zero-length access at
    /// `offset == capacity` still lands on the last shard.
    fn shard_index(&self, offset: u64) -> usize {
        ((offset / self.shard_bytes) as usize).min(self.cells.len() - 1)
    }

    /// Visits each `(shard_index, range_start, range_len)` piece of
    /// `[offset, offset+len)` in ascending address order.
    fn for_each_range(&self, offset: u64, len: u64, mut f: impl FnMut(usize, u64, u64)) {
        let end = offset + len;
        let mut at = offset;
        while at < end {
            let idx = (at / self.shard_bytes) as usize;
            let stop = ((idx as u64 + 1) * self.shard_bytes).min(end);
            f(idx, at, stop - at);
            at = stop;
        }
    }

    pub(crate) fn read(&self, offset: u64, buf: &mut [u8], stats: &PmemStats) {
        if buf.is_empty() {
            let idx = self.shard_index(offset);
            self.with_shard(idx, |_| {
                let b = stats.bank(idx);
                b.add(&b.reads, 1);
            });
            return;
        }
        let mut first = true;
        self.for_each_range(offset, buf.len() as u64, |idx, at, len| {
            self.with_shard(idx, |sh| {
                if first {
                    let b = stats.bank(idx);
                    b.add(&b.reads, 1);
                    b.add(&b.read_bytes, buf.len() as u64);
                }
                let s = (at - offset) as usize;
                sh.read(at, &mut buf[s..s + len as usize]);
            });
            first = false;
        });
    }

    pub(crate) fn write(&self, offset: u64, data: &[u8], mode: PoolMode, stats: &PmemStats) {
        if data.is_empty() {
            let idx = self.shard_index(offset);
            self.with_shard(idx, |_| {
                let b = stats.bank(idx);
                b.add(&b.writes, 1);
            });
            return;
        }
        let mut first = true;
        self.for_each_range(offset, data.len() as u64, |idx, at, len| {
            self.with_shard(idx, |sh| {
                if first {
                    let b = stats.bank(idx);
                    b.add(&b.writes, 1);
                    b.add(&b.write_bytes, data.len() as u64);
                }
                let s = (at - offset) as usize;
                sh.write(at, &data[s..s + len as usize], mode);
            });
            first = false;
        });
    }

    pub(crate) fn flush(&self, offset: u64, len: u64, mode: PoolMode, stats: &PmemStats) {
        self.for_each_range(offset, len, |idx, at, l| {
            self.with_shard(idx, |sh| {
                let n = sh.flush(at, l, mode);
                let b = stats.bank(idx);
                b.add(&b.flushes, n);
            });
        });
    }

    pub(crate) fn fence(&self, mode: PoolMode, stats: &PmemStats) {
        if mode != PoolMode::CrashSim {
            // Nothing to write back; only the counter moves.
            self.with_shard(0, |_| {
                let b = stats.bank(0);
                b.add(&b.fences, 1);
            });
            return;
        }
        for idx in 0..self.cells.len() {
            self.with_shard(idx, |sh| {
                if idx == 0 {
                    let b = stats.bank(0);
                    b.add(&b.fences, 1);
                }
                sh.fence();
            });
        }
    }

    /// Writes straight to durable media, bypassing the cache (torn-store
    /// injection).
    pub(crate) fn media_write(&self, offset: u64, data: &[u8]) {
        self.for_each_range(offset, data.len() as u64, |idx, at, len| {
            self.with_shard(idx, |sh| {
                let local = (at - sh.base) as usize;
                let s = (at - offset) as usize;
                sh.mc.media[local..local + len as usize]
                    .copy_from_slice(&data[s..s + len as usize]);
            });
        });
    }

    /// XORs one durable media byte (bit-corruption injection).
    pub(crate) fn media_xor(&self, byte: u64, mask: u8) {
        let idx = self.shard_index(byte);
        self.with_shard(idx, |sh| {
            sh.mc.media[(byte - sh.base) as usize] ^= mask;
        });
    }

    /// Runs `f` on the durable media of every shard, all shard locks held
    /// (ascending).
    pub(crate) fn with_media_view<R>(&self, f: impl FnOnce(&MediaView<'_>) -> R) -> R {
        let guards: Vec<_> = self.cells.iter().map(Mutex::lock).collect();
        let pieces: Vec<&[u8]> = guards.iter().map(|sh| &sh.mc.media[..]).collect();
        f(&MediaView {
            pieces: &pieces,
            piece_bytes: self.shard_bytes,
        })
    }

    /// Concatenated durable media, consuming the engine. Shard 0 kept the
    /// original buffer's capacity when [`new`](Self::new) split it, so the
    /// other shards are appended back onto it without a pool-sized
    /// allocation.
    pub(crate) fn into_media(self) -> Vec<u8> {
        let mut shards = self.cells.into_vec().into_iter().map(Mutex::into_inner);
        let mut media = shards.next().map(|sh| sh.mc.media).unwrap_or_default();
        for sh in shards {
            media.extend_from_slice(&sh.mc.media);
        }
        media
    }

    /// Post-crash media image: durable bytes plus every modified line that
    /// `draw` lets survive. Ascending shard order × ascending local line
    /// order equals the global ascending line order, so `draw` sees the
    /// same sequence the single-lock engine produces.
    pub(crate) fn crash_media(
        &self,
        mut media: Vec<u8>,
        draw: &mut dyn FnMut(bool) -> bool,
    ) -> Vec<u8> {
        media.clear();
        media.reserve_exact(self.capacity as usize);
        for idx in 0..self.cells.len() {
            self.with_shard(idx, |sh| {
                let start = media.len();
                media.extend_from_slice(&sh.mc.media);
                sh.mc.cache.for_each_modified(|line, flush_pending, bytes| {
                    if draw(flush_pending) {
                        let s = start + (line * CACHE_LINE) as usize;
                        media[s..s + CACHE_LINE as usize].copy_from_slice(bytes);
                    }
                });
            });
        }
        media
    }

    /// Runs `f` with arena `idx`'s mirror locked (no shards).
    pub(crate) fn with_arena_mirror<R>(
        &self,
        idx: usize,
        f: impl FnOnce(&mut ArenaMirror) -> R,
    ) -> R {
        f(&mut self.mirrors[idx].lock())
    }

    /// Runs `f` with arena `idx`'s mirror plus the shards overlapping the
    /// arena's byte span held (mirror first, then shards ascending),
    /// exposing those shards as one [`RawPmem`] — the allocator path.
    /// Allocator operations on arenas with disjoint shard coverage run
    /// fully in parallel.
    pub(crate) fn with_arena_raw<R>(
        &self,
        idx: usize,
        stats: &PmemStats,
        f: impl FnOnce(&mut ArenaMirror, &mut dyn RawPmem) -> R,
    ) -> R {
        let mut mirror = self.mirrors[idx].lock();
        let (lo, hi) = self.arena_spans[idx];
        let first = self.shard_index(lo);
        let last = self.shard_index(hi - 1);
        let guards = self.cells[first..=last].iter().map(Mutex::lock).collect();
        let mut raw = ShardedRaw {
            guards,
            first_shard: first,
            span: (lo, hi),
            shard_bytes: self.shard_bytes,
            stats,
        };
        f(&mut mirror, &mut raw)
    }
}

/// [`RawPmem`] over the shards covering one arena's span (those locks
/// held). Offsets stay pool-global; `first_shard` translates them to guard
/// indices. Hot-path credits go to the first covered shard's bank, which
/// the held locks make safe to write.
struct ShardedRaw<'a> {
    guards: Vec<MutexGuard<'a, Shard>>,
    /// Global index of `guards[0]`.
    first_shard: usize,
    /// The owning arena's `[lo, hi)` span — the fence scope.
    span: (u64, u64),
    shard_bytes: u64,
    stats: &'a PmemStats,
}

impl ShardedRaw<'_> {
    fn for_each_range(&mut self, offset: u64, len: u64, mut f: impl FnMut(&mut Shard, u64, u64)) {
        let end = offset + len;
        let mut at = offset;
        while at < end {
            let idx = (at / self.shard_bytes) as usize;
            let stop = ((idx as u64 + 1) * self.shard_bytes).min(end);
            let sh = &mut *self.guards[idx - self.first_shard];
            f(sh, at, stop - at);
            at = stop;
        }
    }
}

impl RawPmem for ShardedRaw<'_> {
    fn read_raw(&mut self, offset: u64, buf: &mut [u8]) {
        let start = offset;
        self.for_each_range(offset, buf.len() as u64, |sh, at, len| {
            let s = (at - start) as usize;
            sh.read(at, &mut buf[s..s + len as usize]);
        });
    }

    fn write_raw(&mut self, offset: u64, data: &[u8], mode: PoolMode) {
        let start = offset;
        self.for_each_range(offset, data.len() as u64, |sh, at, len| {
            let s = (at - start) as usize;
            sh.write(at, &data[s..s + len as usize], mode);
        });
    }

    fn flush_raw(&mut self, offset: u64, len: u64, mode: PoolMode) -> u64 {
        let mut n = 0;
        self.for_each_range(offset, len, |sh, at, l| {
            n += sh.flush(at, l, mode);
        });
        n
    }

    /// Arena-scoped fence: orders pending flushes within the span, shard by
    /// shard (each clipped to its own range). Identical durable effect to
    /// the global engine's `fence_range` over the same span.
    fn fence_raw(&mut self) {
        let (lo, hi) = self.span;
        for sh in &mut self.guards {
            let clip_lo = lo.max(sh.base);
            let clip_hi = hi.min(sh.end());
            if clip_lo < clip_hi {
                sh.fence_range(clip_lo, clip_hi);
            }
        }
    }

    fn credit_hot(&mut self, flushes: u64, fences: u64, write_bytes: u64) {
        let b = self.stats.bank(self.first_shard);
        b.add(&b.flushes, flushes);
        b.add(&b.fences, fences);
        b.add(&b.write_bytes, write_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_geometry_is_line_aligned_and_covers_capacity() {
        let media = vec![0u8; 1 << 20];
        let geom = HeapGeometry::single(media.len() as u64);
        let s = ShardedPool::new(media, CacheImpl::Dense, 4, &geom);
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.shard_bytes % CACHE_LINE, 0);
        assert_eq!(s.with_media_view(|v| v.len()), 1 << 20);
    }

    #[test]
    fn tiny_pool_gets_fewer_shards_than_requested() {
        // 8 KiB across 4096 requested shards: at least one line per shard.
        let media = vec![0u8; 8192];
        let geom = HeapGeometry::single(media.len() as u64);
        let s = ShardedPool::new(media, CacheImpl::Dense, 4096, &geom);
        assert_eq!(s.shard_count(), 8192 / CACHE_LINE as usize);
        assert_eq!(s.shard_bytes, CACHE_LINE);
    }

    #[test]
    fn cross_shard_write_and_read_round_trip() {
        let media = vec![0u8; 8192];
        let geom = HeapGeometry::single(media.len() as u64);
        let s = ShardedPool::new(media, CacheImpl::Dense, 2, &geom);
        let stats = PmemStats::with_banks(s.shard_count());
        let boundary = s.shard_bytes - 32;
        let data: Vec<u8> = (0..64u8).collect();
        s.write(boundary, &data, PoolMode::Performance, &stats);
        let mut back = vec![0u8; 64];
        s.read(boundary, &mut back, &stats);
        assert_eq!(back, data);
        // Op attributed to the first shard only; bytes are the full store.
        let shards = stats.shard_snapshots();
        assert_eq!(shards[0].writes, 1);
        assert_eq!(shards[0].write_bytes, 64);
        assert_eq!(shards[1].writes, 0);
    }

    #[test]
    fn arena_raw_covers_only_the_arena_span() {
        // A multi-arena geometry over a sharded pool: the raw handle for a
        // side arena must read/write its own span correctly even though the
        // guard slice does not start at shard 0.
        let capacity = 1u64 << 20;
        let geom = crate::pool::HeapGeometry::plan(capacity, 4);
        assert!(geom.arenas().len() > 1, "1 MiB plans side arenas");
        let media = vec![0u8; capacity as usize];
        let s = ShardedPool::new(media, CacheImpl::Dense, 8, &geom);
        let stats = PmemStats::with_banks(s.shard_count());
        let last = geom.arenas().len() - 1;
        let (lo, hi) = geom.arenas()[last].span();
        s.with_arena_raw(last, &stats, |_mirror, raw| {
            raw.write_raw(lo + 8, &[0xAB; 16], PoolMode::CrashSim);
            raw.flush_raw(lo + 8, 16, PoolMode::CrashSim);
            raw.fence_raw();
            let mut back = [0u8; 16];
            raw.read_raw(lo + 8, &mut back);
            assert_eq!(back, [0xAB; 16]);
        });
        // The write is durable on media after the arena-scoped fence.
        let snap = s.into_media();
        assert_eq!(&snap[(lo + 8) as usize..(lo + 24) as usize], &[0xAB; 16]);
        assert!(hi <= capacity);
    }
}
