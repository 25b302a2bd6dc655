//! The pool engine: the media and simulated cache behind one lock.
//!
//! Every access takes the engine lock once, for the whole byte range.
//!
//! Ordering model (documented on [`PmemPool`]): fault injection,
//! persist-event numbering, and event tracing live *outside* the engine, on
//! the pool's single fault mutex, consulted before the engine lock is
//! taken. A trace recorded under that mutex is the pool-wide total order of
//! persist events.
//!
//! The allocator's volatile [`ArenaMirror`] sits behind its own mutex, and
//! an allocator operation locks it and then the engine: the heap's metadata
//! updates are atomic.
//!
//! The per-access counters live in the engine's own [`PmemStats`] bank,
//! written by the engine lock holder and nowhere else; fences and
//! allocator hot-path credits count there too. [`PmemStats::snapshot`] of
//! the pool's shared bank adds it in.
//!
//! [`PmemPool`]: crate::PmemPool
//! [`PmemStats`]: crate::PmemStats
//! [`PmemStats::snapshot`]: crate::PmemStats::snapshot

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::addr::CACHE_LINE;
use crate::alloc::ArenaMirror;
use crate::cache::{line_count, LineCache};
use crate::pool::{get_u64, put_u64, PoolMode};
use crate::stats::PmemStats;

/// What the engine lock guards: the durable media plus its simulated cache.
pub(crate) struct Media {
    bytes: Vec<u8>,
    /// Simulated cache. Stays clean (and unallocated) in performance mode.
    cache: LineCache,
}

impl Media {
    /// Reads `buf.len()` bytes at `offset`, overlaying cached lines on media.
    fn read(&self, offset: u64, buf: &mut [u8]) {
        buf.copy_from_slice(&self.bytes[offset as usize..offset as usize + buf.len()]);
        if !self.cache.is_clean() {
            self.cache.overlay(offset, buf);
        }
    }

    /// [`read`](Self::read) of one little-endian word: a fixed-width load,
    /// no variable-length copy.
    fn read_word(&self, offset: u64) -> u64 {
        let word = get_u64(&self.bytes, offset);
        if self.cache.is_clean() {
            return word;
        }
        let mut buf = word.to_le_bytes();
        self.cache.overlay(offset, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes `data` at `offset` into the cache (crash-sim) or media
    /// (performance).
    fn write(&mut self, offset: u64, data: &[u8], mode: PoolMode) {
        match mode {
            PoolMode::Performance => {
                self.bytes[offset as usize..offset as usize + data.len()].copy_from_slice(data);
            }
            PoolMode::CrashSim => self.cache.write(offset, data, &self.bytes),
        }
    }

    /// [`write`](Self::write) of one little-endian word: a fixed-width
    /// store in performance mode.
    fn write_word(&mut self, offset: u64, value: u64, mode: PoolMode) {
        match mode {
            PoolMode::Performance => put_u64(&mut self.bytes, offset, value),
            PoolMode::CrashSim => self.cache.write(offset, &value.to_le_bytes(), &self.bytes),
        }
    }

    /// Marks the lines covering `[offset, offset+len)` as write-back
    /// initiated. Returns the number of lines touched (for flush
    /// accounting): pure geometry — identical in both modes and independent
    /// of cache state — so performance mode only does the arithmetic.
    fn flush(&mut self, offset: u64, len: u64, mode: PoolMode) -> u64 {
        if mode == PoolMode::CrashSim {
            self.cache.flush_range(offset, len);
        }
        line_count(offset, len)
    }

    /// Orders all pending flushes: their lines become durable on media.
    fn fence(&mut self) {
        self.cache.fence(&mut self.bytes);
    }
}

/// The pool engine: the media behind one lock, plus the allocator mirror's
/// lock.
///
/// Lock order, where both are held: the allocator mirror → the engine. The
/// pool-level fault mutex is never held across the engine lock's
/// acquisition.
pub(crate) struct Engine {
    media: Mutex<Media>,
    /// The per-access counters, written under `media`'s lock (fences
    /// excepted, see [`PmemStats`]); the pool's shared bank holds the same
    /// bank to sum it.
    bank: Arc<PmemStats>,
    /// The volatile allocator mirror — allocator paths lock it first, then
    /// the engine, so the heap's metadata updates are atomic.
    mirror: Mutex<ArenaMirror>,
    /// Pool-wide fences as tickets, taken when one begins and retired when
    /// it ends ([`fence_tickets`](Self::fence_tickets)).
    fences_begun: AtomicU64,
    fences_done: AtomicU64,
}

impl Engine {
    pub(crate) fn new(mut media: Vec<u8>) -> Engine {
        let mirror = Mutex::new(ArenaMirror::rebuild(&mut media));
        Engine {
            media: Mutex::new(Media {
                bytes: media,
                cache: LineCache::new(),
            }),
            bank: Arc::new(PmemStats::default()),
            mirror,
            fences_begun: AtomicU64::new(0),
            fences_done: AtomicU64::new(0),
        }
    }

    /// The engine's counter bank, for the pool's shared bank.
    pub(crate) fn bank(&self) -> &Arc<PmemStats> {
        &self.bank
    }

    /// Counts one load of `len` bytes, under the engine lock — `_held`,
    /// borrowed from its guard, is the witness.
    #[inline]
    fn add_load(&self, _held: &Media, len: u64) {
        let b = &*self.bank;
        b.add(&b.reads, 1);
        b.add(&b.read_bytes, len);
    }

    /// Counts one store of `len` bytes, under the same rule.
    #[inline]
    fn add_store(&self, _held: &Media, len: u64) {
        let b = &*self.bank;
        b.add(&b.writes, 1);
        b.add(&b.write_bytes, len);
    }

    /// Counts `lines` flushed lines, under the same rule.
    #[inline]
    fn add_flushes(&self, _held: &Media, lines: u64) {
        let b = &*self.bank;
        b.add(&b.flushes, lines);
    }

    #[inline]
    pub(crate) fn read(&self, offset: u64, buf: &mut [u8]) {
        let m = self.media.lock();
        self.add_load(&m, buf.len() as u64);
        m.read(offset, buf);
    }

    /// [`read`](Self::read) of one little-endian word: a fixed-width load.
    #[inline]
    pub(crate) fn read_word(&self, offset: u64) -> u64 {
        let m = self.media.lock();
        self.add_load(&m, 8);
        m.read_word(offset)
    }

    #[inline]
    pub(crate) fn write(&self, offset: u64, data: &[u8], mode: PoolMode) {
        let mut m = self.media.lock();
        self.add_store(&m, data.len() as u64);
        m.write(offset, data, mode);
    }

    /// [`write`](Self::write) of one little-endian word: a fixed-width
    /// store.
    #[inline]
    pub(crate) fn write_word(&self, offset: u64, value: u64, mode: PoolMode) {
        let mut m = self.media.lock();
        self.add_store(&m, 8);
        m.write_word(offset, value, mode);
    }

    #[inline]
    pub(crate) fn flush(&self, offset: u64, len: u64, mode: PoolMode) {
        let mut m = self.media.lock();
        let n = m.flush(offset, len, mode);
        self.add_flushes(&m, n);
    }

    /// [`write`](Self::write) then [`flush`](Self::flush) of the same range
    /// under one round of the engine lock. Counters and cache state end up
    /// as after the two calls.
    #[inline]
    pub(crate) fn store_flush(&self, offset: u64, data: &[u8], mode: PoolMode) {
        let len = data.len() as u64;
        let mut m = self.media.lock();
        self.add_store(&m, len);
        m.write(offset, data, mode);
        let n = m.flush(offset, len, mode);
        self.add_flushes(&m, n);
    }

    pub(crate) fn fence(&self, mode: PoolMode) {
        // Counted without the engine lock: in performance mode there is
        // nothing to write back, so a fence takes no lock at all.
        let b = &*self.bank;
        b.bump(&b.fences, 1);
        let ticket = self.fences_begun.fetch_add(1, Ordering::SeqCst);
        if mode == PoolMode::CrashSim {
            self.media.lock().fence();
        }
        self.fences_done.fetch_max(ticket + 1, Ordering::SeqCst);
    }

    /// `(begun, done)`: flushes made under the engine lock held while
    /// `begun` is read are ordered once `done` exceeds it.
    pub(crate) fn fence_tickets(&self) -> (u64, u64) {
        let begun = self.fences_begun.load(Ordering::SeqCst);
        (begun, self.fences_done.load(Ordering::SeqCst))
    }

    /// Writes straight to durable media, bypassing the cache (torn-store
    /// injection).
    pub(crate) fn media_write(&self, offset: u64, data: &[u8]) {
        let at = offset as usize;
        self.media.lock().bytes[at..at + data.len()].copy_from_slice(data);
    }

    /// XORs one durable media byte (bit-corruption injection).
    pub(crate) fn media_xor(&self, byte: u64, mask: u8) {
        self.media.lock().bytes[byte as usize] ^= mask;
    }

    /// Runs `f` on the durable media, the engine lock held.
    pub(crate) fn with_media<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.media.lock().bytes)
    }

    /// The durable media, consuming the engine: the buffer
    /// [`new`](Self::new) was given.
    pub(crate) fn into_media(self) -> Vec<u8> {
        self.media.into_inner().bytes
    }

    /// Post-crash media image: durable bytes plus every modified line that
    /// `draw` lets survive, drawn in ascending line order.
    pub(crate) fn crash_media(
        &self,
        mut image: Vec<u8>,
        draw: &mut dyn FnMut(bool) -> bool,
    ) -> Vec<u8> {
        let m = self.media.lock();
        image.clear();
        image.reserve_exact(m.bytes.len());
        image.extend_from_slice(&m.bytes);
        m.cache.for_each_modified(|line, flush_pending, bytes| {
            if draw(flush_pending) {
                let s = (line * CACHE_LINE) as usize;
                image[s..s + CACHE_LINE as usize].copy_from_slice(bytes);
            }
        });
        image
    }

    /// Runs `f` with the allocator mirror locked (not the engine).
    pub(crate) fn with_mirror<R>(&self, f: impl FnOnce(&mut ArenaMirror) -> R) -> R {
        f(&mut self.mirror.lock())
    }

    /// Runs `f` with the allocator mirror and then the engine locked — the
    /// documented lock order — exposing the media as a [`RawPmem`]: the
    /// allocator path.
    pub(crate) fn with_heap_raw<R>(
        &self,
        f: impl FnOnce(&mut ArenaMirror, &mut RawPmem<'_>) -> R,
    ) -> R {
        let mut mirror = self.mirror.lock();
        let mut raw = RawPmem {
            media: self.media.lock(),
            bank: &self.bank,
        };
        f(&mut mirror, &mut raw)
    }
}

/// Raw persist operations with bounds already checked by the caller, the
/// engine lock held for the duration of an allocator operation — which is
/// what makes the heap's metadata updates atomic.
pub(crate) struct RawPmem<'a> {
    media: MutexGuard<'a, Media>,
    /// The engine's bank, which the held lock makes safe to write: the
    /// operation's hot counts are credited here.
    bank: &'a PmemStats,
}

impl RawPmem<'_> {
    #[inline]
    pub(crate) fn read_raw(&mut self, offset: u64, buf: &mut [u8]) {
        self.media.read(offset, buf);
    }

    #[inline]
    pub(crate) fn write_raw(&mut self, offset: u64, data: &[u8], mode: PoolMode) {
        self.media.write(offset, data, mode);
    }

    #[inline]
    pub(crate) fn flush_raw(&mut self, offset: u64, len: u64, mode: PoolMode) -> u64 {
        self.media.flush(offset, len, mode)
    }

    /// Orders every previously flushed line.
    pub(crate) fn fence_raw(&mut self) {
        self.media.fence();
    }

    /// Credits hot-path counters accumulated over an allocator operation.
    pub(crate) fn credit_hot(&mut self, flushes: u64, fences: u64, write_bytes: u64) {
        let b = self.bank;
        b.add(&b.flushes, flushes);
        b.bump(&b.fences, fences);
        b.add(&b.write_bytes, write_bytes);
    }
}
