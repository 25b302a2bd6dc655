//! PMDK-style undo-log buffer: line-buffered and self-validating.
//!
//! Clobber-NVM's `clobber_log` is "built over PMDK's undo log API" (paper
//! §4.2); the classical-undo baseline uses the very same primitive, which is
//! what makes the paper's log-count/log-size comparison apples-to-apples.
//!
//! A [`Ulog`] is a pre-allocated persistent buffer with no tail word.
//! Entries are serialized into a stream of 64-bit words packed into 64-byte
//! cache lines, each line carrying a **marker word** that binds the log's
//! generation number to the popcount of the line's payload words:
//!
//! ```text
//! [magic: u64][generation: u64][pad to 64-byte line boundary]
//! line = [w0..w6: payload words][marker = (generation << 9) | popcount(w0..w6)]
//! entry (in the word stream) = [(len << 1) | 1][addr][len bytes, 8 per word]
//! ```
//!
//! Recovery scans lines in order and stops at the first line whose marker
//! does not validate — a torn or never-written tail line — so no separate
//! tail+checksum persist is needed. [`Ulog::clear`] simply bumps the
//! generation (one flush + one fence), invalidating every line at once.
//! Appends go through a [`LogWriter`], which stages words in a volatile
//! line buffer, stores every line an append touches with **one store** and
//! writes back the lines it filled with one flush, deferring the ordering
//! fence to [`LogWriter::sync`] — the pmembench `LogWriterZeroCached`
//! discipline: ~1 line flushed per *line* plus one fence per ordering point.
//!
//! The first word is [`V2_MAGIC`] in every log this crate formats. Each
//! entry point reads it before trusting the rest of the image, and anything
//! else is [`PmemError::CorruptPool`]: a decayed header must never parse as
//! an empty log, because the pre-images behind it would be silently
//! discarded.

use std::cell::RefCell;
use std::ops::Range;

use crate::addr::PAddr;
use crate::pool::{get_u64, put_u64, PmemError, PmemPool};

/// Per-entry metadata: the header word and the address word.
const V2_ENTRY_OVERHEAD: u64 = 16;

/// First word of every formatted log.
pub const V2_MAGIC: u64 = 0xC10B_B002_0000_0001;

const LINE: u64 = crate::addr::CACHE_LINE;
/// Payload words per line (word 7 is the marker).
const PAYLOAD_WORDS: usize = 7;
/// Lines one append stages before storing them.
const RUN_LINES: usize = 32;

thread_local! {
    /// The lines an append stages, reused: an append neither allocates nor
    /// clears a buffer.
    static RUN: RefCell<[u8; RUN_LINES * LINE as usize]> =
        const { RefCell::new([0; RUN_LINES * LINE as usize]) };
}

/// Which log a handle feeds — used to attribute flush/fence costs to the
/// clobber/undo log, the redo log or the v_log in [`StatsSnapshot`].
///
/// [`StatsSnapshot`]: crate::stats::StatsSnapshot
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogKind {
    /// Clobber/undo log (per-store old values).
    Clobber,
    /// Redo log (buffered new values, batch-persisted at commit).
    Redo,
    /// A transaction slot's v_log (txfunc name, arguments and preserved
    /// volatile data). Its entries name no pool address, so appends to it
    /// record no `UlogAppend` footprint.
    Vlog,
    /// Unattributed (tests, ad-hoc buffers).
    #[default]
    Other,
}

/// A persistent undo-log buffer at a fixed pool location.
///
/// The handle itself is a plain descriptor (base + capacity + attribution
/// kind) and can be freely copied; all state lives in the pool.
///
/// # Example
///
/// ```
/// use clobber_pmem::{PmemPool, PoolOptions, Ulog};
///
/// # fn main() -> Result<(), clobber_pmem::PmemError> {
/// let pool = PmemPool::create(PoolOptions::crash_sim(1 << 20))?;
/// let buf = pool.alloc(4096)?;
/// let log = Ulog::format_v2(&pool, buf, 4096)?;
///
/// let x = pool.alloc(8)?;
/// pool.write_u64(x, 1)?;
/// pool.persist(x, 8)?;
///
/// log.append(&pool, x, &1u64.to_le_bytes())?; // record old value
/// pool.write_u64(x, 2)?; // overwrite
/// log.apply_backwards(&pool)?; // roll back
/// assert_eq!(pool.read_u64(x)?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ulog {
    base: PAddr,
    capacity: u64,
    kind: LogKind,
}

impl Ulog {
    /// Adopts an existing formatted log at `base`.
    pub fn new(base: PAddr, capacity: u64) -> Ulog {
        Ulog {
            base,
            capacity,
            kind: LogKind::Other,
        }
    }

    /// Tags the handle with an attribution kind (see [`LogKind`]).
    pub fn with_kind(mut self, kind: LogKind) -> Ulog {
        self.kind = kind;
        self
    }

    /// Formats a fresh, empty log in `capacity` bytes at `base` and persists
    /// the header (magic + generation 1).
    ///
    /// The data region starts at the first 64-byte pool line boundary past
    /// the header, so line stores never straddle cache lines wherever
    /// `base` sits.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the buffer exceeds the pool.
    pub fn format_v2(pool: &PmemPool, base: PAddr, capacity: u64) -> Result<Ulog, PmemError> {
        let log = Ulog::new(base, capacity);
        pool.write_u64(base, V2_MAGIC)?;
        pool.write_u64(base.add(8), 1)?;
        pool.persist(base, 16)?;
        Ok(log)
    }

    /// The log's base address in the pool.
    pub fn base(&self) -> PAddr {
        self.base
    }

    /// The log's capacity in bytes (including header words).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The attribution kind of this handle.
    pub fn kind(&self) -> LogKind {
        self.kind
    }

    /// Reads the header (magic + generation, one 16-byte pool read), rejects
    /// anything but [`V2_MAGIC`] and returns the current generation: only
    /// lines sealed with it hold entries.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the header is not a log header
    /// and [`PmemError::OutOfBounds`] if the log descriptor is corrupt.
    pub fn generation(&self, pool: &PmemPool) -> Result<u64, PmemError> {
        let mut hdr = [0u8; 16];
        pool.read_into(self.base, &mut hdr)?;
        let w0 = get_u64(&hdr, 0);
        if w0 != V2_MAGIC {
            return Err(PmemError::CorruptPool(format!(
                "log header at {:#x} holds {w0:#018x}, not the log magic",
                self.base.offset()
            )));
        }
        Ok(get_u64(&hdr, 8))
    }

    /// Reads data line `line_idx` as its eight words (one pool read).
    fn read_line(&self, pool: &PmemPool, line_idx: u64) -> Result<[u64; 8], PmemError> {
        let mut raw = [0u8; LINE as usize];
        pool.read_into(self.line_addr(line_idx), &mut raw)?;
        let mut w = [0u64; 8];
        for (i, c) in raw.chunks_exact(8).enumerate() {
            w[i] = u64::from_le_bytes(c.try_into().unwrap());
        }
        Ok(w)
    }

    /// Pool address of data line `line_idx`.
    fn line_addr(&self, line_idx: u64) -> PAddr {
        PAddr::new(self.v2_data_base() + line_idx * LINE)
    }

    /// First pool offset of the data-line region (64-byte aligned).
    fn v2_data_base(&self) -> u64 {
        (self.base.offset() + 16).div_ceil(LINE) * LINE
    }

    /// Pool address of data line `line_idx`'s marker word (the last
    /// word of the 64-byte line). Exposed for corruption-injection
    /// harnesses that tear a specific line on purpose; normal code never
    /// addresses markers directly.
    pub fn v2_marker_addr(&self, line_idx: u64) -> PAddr {
        self.line_addr(line_idx).add(LINE - 8)
    }

    /// Number of whole 64-byte data lines the buffer holds.
    fn v2_line_count(&self) -> u64 {
        let end = self.base.offset() + self.capacity;
        let data = self.v2_data_base();
        if end <= data {
            0
        } else {
            (end - data) / LINE
        }
    }

    /// Payload bytes the largest entry an empty log holds can carry.
    pub fn entry_capacity(&self) -> u64 {
        (self.v2_line_count() * PAYLOAD_WORDS as u64).saturating_sub(2) * 8
    }

    pub(crate) fn bump_kind_flush(&self, pool: &PmemPool, lines: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        let s = pool.stats();
        match self.kind {
            LogKind::Clobber => s.clog_flushes.fetch_add(lines, Relaxed),
            LogKind::Redo => s.rlog_flushes.fetch_add(lines, Relaxed),
            LogKind::Vlog => s.vlog_flushes.fetch_add(lines, Relaxed),
            LogKind::Other => return,
        };
    }

    pub(crate) fn bump_kind_fence(&self, pool: &PmemPool) {
        use std::sync::atomic::Ordering::Relaxed;
        let s = pool.stats();
        match self.kind {
            LogKind::Clobber => s.clog_fences.fetch_add(1, Relaxed),
            LogKind::Redo => s.rlog_fences.fetch_add(1, Relaxed),
            LogKind::Vlog => s.vlog_fences.fetch_add(1, Relaxed),
            LogKind::Other => return,
        };
    }

    /// Appends an entry recording that `addr` held `old`, durable when the
    /// call returns (exactly one fence). The caller may then safely
    /// overwrite `addr`.
    ///
    /// This is the stateless path: it adopts the log, appends
    /// and syncs. Hot paths should hold a [`LogWriter`] instead, which
    /// caches the position and amortizes flushes and fences across appends.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::LogFull`] if the entry does not fit and
    /// [`PmemError::OutOfBounds`] on a corrupt descriptor.
    pub fn append(&self, pool: &PmemPool, addr: PAddr, old: &[u8]) -> Result<(), PmemError> {
        let mut w = LogWriter::attach(pool, *self)?;
        w.append(pool, addr, old)?;
        w.sync(pool)
    }

    /// Writes all logged values in append order (redo replay), flushing each
    /// range. The caller fences.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the log descriptor is corrupt.
    pub fn apply_forwards(&self, pool: &PmemPool) -> Result<(), PmemError> {
        for (addr, data) in self.scan(pool)?.iter() {
            pool.store_flush(addr, data)?;
        }
        Ok(())
    }

    /// Returns all valid entries in append order as `(addr, old_data)`, one
    /// buffer each — [`scan`](Self::scan) without the copies is what
    /// recovery uses.
    ///
    /// # Errors
    ///
    /// As [`scan`](Self::scan).
    pub fn entries(&self, pool: &PmemPool) -> Result<Vec<(PAddr, Vec<u8>)>, PmemError> {
        let scan = self.scan(pool)?;
        Ok(scan.iter().map(|(a, d)| (a, d.to_vec())).collect())
    }

    /// Validates the header and scans the line region: keeps the valid
    /// word stream (stopping at the first marker mismatch) and parses the
    /// entries out of it as spans.
    ///
    /// Line scanning stops at the first line whose marker does not validate
    /// against the current generation, and a final entry that runs past the
    /// valid region (it spanned into a torn line) is dropped — the surviving
    /// entries are always a durable prefix of what was appended.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the header is not a log header
    /// and [`PmemError::OutOfBounds`] if the log descriptor is corrupt.
    pub fn scan(&self, pool: &PmemPool) -> Result<LogScan, PmemError> {
        let gen = self.generation(pool)?;
        let mut stream: Vec<u8> = Vec::new();
        for li in 0..self.v2_line_count() {
            let w = self.read_line(pool, li)?;
            if w[7] != v2_marker(gen, &w) {
                break;
            }
            stream.reserve(PAYLOAD_WORDS * 8); // one growth step per line, not per word
            for word in &w[..PAYLOAD_WORDS] {
                stream.extend_from_slice(&word.to_le_bytes());
            }
        }
        let words = stream.len() / 8;
        let word = |i: usize| get_u64(&stream, i as u64 * 8);
        let mut spans = Vec::new();
        let mut i = 0usize;
        while i < words {
            let h = word(i);
            if h & 1 == 0 {
                break; // zero terminator (or malformed header): end of stream
            }
            let len = h >> 1;
            if len > self.capacity {
                break; // garbage header: cannot be a real entry
            }
            let dw = (len.div_ceil(8)) as usize;
            if i + 2 + dw > words {
                break; // entry spans into a torn/invalid line: dropped
            }
            let start = (i + 2) * 8;
            spans.push((PAddr::new(word(i + 1)), start..start + len as usize));
            i += 2 + dw;
        }
        Ok(LogScan {
            gen,
            stream,
            spans,
            stream_end: i as u64,
        })
    }

    /// Restores all logged old values, most recent first (classical undo
    /// rollback order), flushing each restored range. The caller fences.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the log descriptor is corrupt.
    pub fn apply_backwards(&self, pool: &PmemPool) -> Result<(), PmemError> {
        for (addr, data) in self.scan(pool)?.iter().rev() {
            pool.store_flush(addr, data)?;
        }
        Ok(())
    }

    /// Number of valid entries currently in the log.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the log descriptor is corrupt.
    pub fn len(&self, pool: &PmemPool) -> Result<usize, PmemError> {
        Ok(self.scan(pool)?.len())
    }

    /// Returns `true` if the log holds no entries: probes the first data
    /// line (a valid first line always starts with an entry header, which is
    /// odd and nonzero).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the header is not a log header
    /// and [`PmemError::OutOfBounds`] if the log descriptor is corrupt.
    pub fn is_empty(&self, pool: &PmemPool) -> Result<bool, PmemError> {
        let gen = self.generation(pool)?;
        if self.v2_line_count() == 0 {
            return Ok(true);
        }
        let w = self.read_line(pool, 0)?;
        Ok(w[7] != v2_marker(gen, &w) || w[0] & 1 == 0)
    }

    /// Truncates the log (persistently, one fence): bumps the generation,
    /// invalidating every line's marker at once without touching the data
    /// region.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the header is not a log header
    /// and [`PmemError::OutOfBounds`] if the log descriptor is corrupt.
    pub fn clear(&self, pool: &PmemPool) -> Result<(), PmemError> {
        self.clear_above(pool, 0)
    }

    /// [`clear`](Self::clear) to a generation above `floor` as well as above
    /// the current one, so no line sealed with either validates. Fails as
    /// [`clear`](Self::clear) does.
    pub fn clear_above(&self, pool: &PmemPool, floor: u64) -> Result<(), PmemError> {
        let gen = self.generation(pool)?.max(floor) + 1;
        pool.store_flush(self.base.add(8), &gen.to_le_bytes())?;
        pool.fence();
        Ok(())
    }

    /// Truncates the log without fencing — the caller's next fence orders
    /// the truncation (a clobber begin truncates its slot's log this way,
    /// and the new generation numbers the begin). Returns the new
    /// generation.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the header is not a log header
    /// and [`PmemError::OutOfBounds`] if the log descriptor is corrupt.
    pub fn reset_unfenced(&self, pool: &PmemPool) -> Result<u64, PmemError> {
        let gen = self.generation(pool)? + 1;
        pool.store_flush(self.base.add(8), &gen.to_le_bytes())?;
        Ok(gen)
    }
}

/// The valid entries of a log, as one [`Ulog::scan`] found them: the
/// payload words of every valid line in one buffer, each entry a span of it.
#[derive(Debug, Default)]
pub struct LogScan {
    /// Generation the lines were validated against.
    gen: u64,
    /// Payload words of the valid lines, little-endian.
    stream: Vec<u8>,
    /// Each entry's address and the range of its bytes in `stream`.
    spans: Vec<(PAddr, Range<usize>)>,
    /// Word-stream position one past the last complete entry.
    stream_end: u64,
}

impl LogScan {
    /// The generation the log's lines were validated against.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` if the log holds no valid entry.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The entries in append order as `(addr, old_data)`; `.rev()` gives
    /// rollback order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (PAddr, &[u8])> + '_ {
        self.spans
            .iter()
            .map(|(addr, r)| (*addr, &self.stream[r.clone()]))
    }
}

/// Line marker: binds the log generation to the popcount of the payload
/// words, so a line from an earlier generation, a never-written (zero) line
/// and a line whose payload words were lost all fail validation. Lines are
/// single-cache-line stores, which are failure-atomic in the media model
/// (and on real hardware at 8-byte granularity the per-word popcount
/// contribution makes a mixed old/new line astronomically unlikely to
/// validate).
fn v2_marker(gen: u64, words: &[u64; 8]) -> u64 {
    let pop: u32 = words[..PAYLOAD_WORDS].iter().map(|w| w.count_ones()).sum();
    (gen << 9) | pop as u64
}

/// Volatile cursor state of a [`LogWriter`].
#[derive(Debug, Clone)]
struct V2Pos {
    generation: u64,
    /// Data line the staged buffer maps to.
    line_idx: u64,
    /// Next free payload word within the staged line (0..7).
    word_idx: usize,
    /// The staged line (word 7 recomputed on every store).
    line: [u64; 8],
    /// Staged line holds content not yet covered by a flush.
    dirty: bool,
    /// Flushes were issued since the last fence.
    unfenced: bool,
}

impl V2Pos {
    /// The cursor of an empty log at `generation`.
    fn empty(generation: u64) -> V2Pos {
        V2Pos {
            generation,
            line_idx: 0,
            word_idx: 0,
            line: [0; 8],
            dirty: false,
            unfenced: false,
        }
    }

    fn line_addr(&self, log: &Ulog) -> PAddr {
        log.line_addr(self.line_idx)
    }

    /// Seals the staged line with its marker and serializes it into `out`.
    fn serialize_into(&mut self, out: &mut [u8]) {
        self.line[7] = v2_marker(self.generation, &self.line);
        for (b, w) in out.chunks_exact_mut(8).zip(&self.line) {
            b.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Stores the staged `run` of lines from line `first` with one store
    /// and writes back the first `full` of them, the lines it filled.
    fn store_run(
        &mut self,
        pool: &PmemPool,
        log: &Ulog,
        first: u64,
        run: &[u8],
        full: u64,
    ) -> Result<(), PmemError> {
        pool.write_bytes(log.line_addr(first), run)?;
        if full > 0 {
            pool.flush(log.line_addr(first), full * LINE)?;
            log.bump_kind_flush(pool, full);
            self.unfenced = true;
        }
        Ok(())
    }
}

/// A volatile append cursor over a [`Ulog`] — the hot-path handle.
///
/// The writer caches everything an append needs (generation, line position
/// and the staged line buffer), so appends never re-read persistent log
/// state. Appends stage words in the 64-byte line buffer and flush once per
/// *full* line; durability is deferred to [`sync`](Self::sync), the
/// ordering point.
///
/// Dropping a writer without syncing loses no data that was already synced;
/// unsynced appends are staged in the pool but not yet guaranteed durable —
/// exactly the window the marker discipline makes recoverable as a clean
/// prefix.
#[derive(Debug)]
pub struct LogWriter {
    log: Ulog,
    pos: Option<V2Pos>,
}

impl LogWriter {
    /// Creates a lazy writer; the log image is adopted (header validated,
    /// position read) on first use.
    pub fn new(log: Ulog) -> LogWriter {
        LogWriter { log, pos: None }
    }

    /// Creates a writer and adopts the log image immediately: validates the
    /// header and scans to the end of the valid entry stream.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the header is not a log header
    /// and [`PmemError::OutOfBounds`] on a corrupt descriptor.
    pub fn attach(pool: &PmemPool, log: Ulog) -> Result<LogWriter, PmemError> {
        let mut w = LogWriter::new(log);
        w.ensure_attached(pool)?;
        Ok(w)
    }

    /// The underlying log descriptor.
    pub fn log(&self) -> Ulog {
        self.log
    }

    fn ensure_attached(&mut self, pool: &PmemPool) -> Result<&mut V2Pos, PmemError> {
        if self.pos.is_none() {
            let scan = self.log.scan(pool)?;
            let mut pos = V2Pos::empty(scan.gen);
            pos.line_idx = scan.stream_end / PAYLOAD_WORDS as u64;
            pos.word_idx = (scan.stream_end % PAYLOAD_WORDS as u64) as usize;
            if pos.word_idx > 0 {
                pos.line = self.log.read_line(pool, pos.line_idx)?;
                // Words past the resume point are stale stream bytes
                // (e.g. a dropped trailing entry); zero them so the
                // terminator and marker discipline start clean.
                for w in pos.line.iter_mut().skip(pos.word_idx) {
                    *w = 0;
                }
                pos.dirty = true;
            }
            self.pos = Some(pos);
        }
        Ok(self.pos.as_mut().unwrap())
    }

    /// Returns `true` if the adopted log holds no entries (adopting if
    /// necessary).
    ///
    /// # Errors
    ///
    /// Propagates adoption errors.
    pub fn is_empty(&mut self, pool: &PmemPool) -> Result<bool, PmemError> {
        let p = self.ensure_attached(pool)?;
        Ok(p.line_idx == 0 && p.word_idx == 0)
    }

    /// Appends an entry recording that `addr` held `old`.
    ///
    /// Every line the entry touches is stored with one store (an entry
    /// spanning more than 32 lines, with one per 32) and the lines it fills
    /// are written back with one flush; **no fence is issued** — the entry
    /// is guaranteed durable only after [`sync`](Self::sync) returns.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::LogFull`] if the entry does not fit,
    /// [`PmemError::CorruptPool`] if the header is not a log header and
    /// [`PmemError::OutOfBounds`] on a corrupt descriptor.
    pub fn append(&mut self, pool: &PmemPool, addr: PAddr, old: &[u8]) -> Result<(), PmemError> {
        let log = self.log;
        let p = self.ensure_attached(pool)?;
        let len = old.len() as u64;
        let need_words = 2 + len.div_ceil(8);
        let total_words = log.v2_line_count() * PAYLOAD_WORDS as u64;
        let used_words = p.line_idx * PAYLOAD_WORDS as u64 + p.word_idx as u64;
        if used_words + need_words > total_words {
            return Err(PmemError::LogFull {
                needed: V2_ENTRY_OVERHEAD + len,
                capacity: total_words * 8,
            });
        }
        let data = old.chunks(8).map(|chunk| {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(b)
        });
        RUN.with_borrow_mut(|run| {
            let (mut first, mut full) = (p.line_idx, 0);
            for w in [(len << 1) | 1, addr.offset()].into_iter().chain(data) {
                p.line[p.word_idx] = w;
                p.word_idx += 1;
                if p.word_idx < PAYLOAD_WORDS {
                    continue;
                }
                p.serialize_into(&mut run[full * LINE as usize..][..LINE as usize]);
                (p.line, p.line_idx, p.word_idx) = ([0; 8], p.line_idx + 1, 0);
                full += 1;
                if full == RUN_LINES {
                    p.store_run(pool, &log, first, &run[..], full as u64)?;
                    (first, full) = (p.line_idx, 0);
                }
            }
            // The partial line is stored too, so readers (and the crash
            // model) see the current state; its flush is deferred.
            p.dirty = p.word_idx > 0;
            if p.dirty {
                p.serialize_into(&mut run[full * LINE as usize..][..LINE as usize]);
            }
            let staged = (full + p.dirty as usize) * LINE as usize;
            match staged {
                0 => Ok(()),
                _ => p.store_run(pool, &log, first, &run[..staged], full as u64),
            }
        })?;
        if log.kind != LogKind::Vlog {
            pool.trace_app_event(
                clobber_trace::EventKind::UlogAppend,
                0,
                addr.offset(),
                old.len() as u64,
            );
        }
        Ok(())
    }

    /// Makes every appended entry durable: flushes the staged partial line
    /// (if any) and issues one pool fence covering all line flushes since
    /// the last sync. No-op if nothing is pending.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] on a corrupt descriptor.
    pub fn sync(&mut self, pool: &PmemPool) -> Result<(), PmemError> {
        self.write_back(pool)?;
        if let Some(p) = self.pos.as_mut().filter(|p| p.unfenced) {
            pool.fence();
            self.log.bump_kind_fence(pool);
            p.unfenced = false;
        }
        Ok(())
    }

    /// Writes back the staged partial line, if any, without fencing: the
    /// caller's next fence, or this writer's next sync, makes every entry
    /// appended so far durable.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] on a corrupt descriptor.
    pub fn write_back(&mut self, pool: &PmemPool) -> Result<(), PmemError> {
        let log = self.log;
        if let Some(p) = self.pos.as_mut().filter(|p| p.dirty) {
            pool.flush(p.line_addr(&log), LINE)?;
            log.bump_kind_flush(pool, 1);
            p.dirty = false;
            p.unfenced = true;
        }
        Ok(())
    }

    /// Starts the log over at generation `gen` without reading it: one
    /// store of the header (magic, `gen`), written back but not fenced, and
    /// an empty cursor. A v_log begin numbers its log this way.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] on a corrupt descriptor.
    pub fn reset_to(&mut self, pool: &PmemPool, gen: u64) -> Result<(), PmemError> {
        let mut hdr = [0u8; 16];
        put_u64(&mut hdr, 0, V2_MAGIC);
        put_u64(&mut hdr, 8, gen);
        pool.store_flush(self.log.base, &hdr)?;
        self.log.bump_kind_flush(pool, 1);
        let mut pos = V2Pos::empty(gen);
        pos.unfenced = true; // the header awaits a fence
        self.pos = Some(pos);
        Ok(())
    }

    /// Truncates the log without fencing and resets the cursor to the
    /// start; the caller's next fence — or this writer's next sync — orders
    /// the truncation. Returns the new generation.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the header is not a log header
    /// and [`PmemError::OutOfBounds`] on a corrupt descriptor.
    pub fn reset_unfenced(&mut self, pool: &PmemPool) -> Result<u64, PmemError> {
        let gen = self.log.reset_unfenced(pool)?;
        let mut pos = V2Pos::empty(gen);
        pos.unfenced = true; // the truncation awaits a fence
        self.pos = Some(pos);
        Ok(gen)
    }

    /// Adopts the log and, if it holds stale entries, truncates it without
    /// fencing (the caller's next fence orders the truncation) — the
    /// runtime's per-transaction fast path: one header probe, no stream
    /// scan, and a known-empty cursor afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the header is not a log header
    /// and [`PmemError::OutOfBounds`] on a corrupt descriptor.
    pub fn ensure_empty_unfenced(&mut self, pool: &PmemPool) -> Result<(), PmemError> {
        if self.log.is_empty(pool)? {
            self.pos = Some(V2Pos::empty(self.log.generation(pool)?));
            Ok(())
        } else {
            self.reset_unfenced(pool).map(drop)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashConfig;
    use crate::pool::PoolOptions;

    fn setup() -> (PmemPool, Ulog) {
        let pool = PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap();
        let base = pool.alloc(4096).unwrap();
        let log = Ulog::format_v2(&pool, base, 4096).unwrap();
        (pool, log)
    }

    #[test]
    fn empty_log_has_no_entries() {
        let (pool, log) = setup();
        assert!(log.is_empty(&pool).unwrap());
        assert_eq!(log.len(&pool).unwrap(), 0);
        assert!(log.entries(&pool).unwrap().is_empty());
    }

    #[test]
    fn append_records_old_values_in_order() {
        let (pool, log) = setup();
        log.append(&pool, PAddr::new(1000), b"aaaa").unwrap();
        log.append(&pool, PAddr::new(2000), b"bb").unwrap();
        let es = log.entries(&pool).unwrap();
        assert_eq!(es.len(), 2);
        assert_eq!(es[0], (PAddr::new(1000), b"aaaa".to_vec()));
        assert_eq!(es[1], (PAddr::new(2000), b"bb".to_vec()));
    }

    #[test]
    fn apply_backwards_rolls_back_overwrites() {
        let (pool, log) = setup();
        let x = pool.alloc(16).unwrap();
        pool.write_bytes(x, b"old-old-").unwrap();
        pool.persist(x, 8).unwrap();
        log.append(&pool, x, b"old-old-").unwrap();
        pool.write_bytes(x, b"new-new-").unwrap();
        // Same address logged twice: rollback must restore the *first* old.
        log.append(&pool, x, b"new-new-").unwrap();
        pool.write_bytes(x, b"newest!!").unwrap();
        log.apply_backwards(&pool).unwrap();
        pool.fence();
        assert_eq!(pool.read_bytes(x, 8).unwrap(), b"old-old-");
    }

    #[test]
    fn appended_entry_survives_adversarial_crash() {
        let (pool, log) = setup();
        log.append(&pool, PAddr::new(1234), b"payload!").unwrap();
        let p2 = pool.crash(&CrashConfig::drop_all(1)).unwrap();
        let es = log.entries(&p2).unwrap();
        assert_eq!(es, vec![(PAddr::new(1234), b"payload!".to_vec())]);
    }

    #[test]
    fn v2_round_trips_entries_of_all_sizes() {
        let (pool, log) = setup();
        assert!(log.is_empty(&pool).unwrap());
        let payloads: Vec<Vec<u8>> = vec![
            b"x".to_vec(),
            b"eight__b".to_vec(),
            vec![7u8; 100],
            vec![],
            vec![0u8; 24], // all-zero payload must survive the popcount marker
        ];
        for (i, p) in payloads.iter().enumerate() {
            log.append(&pool, PAddr::new(1000 + i as u64), p).unwrap();
        }
        let es = log.entries(&pool).unwrap();
        assert_eq!(es.len(), payloads.len());
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(es[i], (PAddr::new(1000 + i as u64), p.clone()));
        }
        assert!(!log.is_empty(&pool).unwrap());
    }

    #[test]
    fn v2_synced_entries_survive_adversarial_crash() {
        let (pool, log) = setup();
        let mut w = LogWriter::attach(&pool, log).unwrap();
        for i in 0..10u64 {
            w.append(&pool, PAddr::new(512 + i * 8), &i.to_le_bytes())
                .unwrap();
        }
        w.sync(&pool).unwrap();
        let p2 = pool.crash(&CrashConfig::drop_all(99)).unwrap();
        let es = log.entries(&p2).unwrap();
        assert_eq!(es.len(), 10, "all synced entries survive drop_all");
        for (i, e) in es.iter().enumerate() {
            assert_eq!(e.1, (i as u64).to_le_bytes().to_vec());
        }
    }

    #[test]
    fn v2_unsynced_tail_recovers_as_clean_prefix() {
        // Append without ever syncing, crash with every unfenced line
        // dropped: the durable image must parse as a (possibly empty)
        // prefix of the appended entries — never garbage.
        for seed in 0..16u64 {
            let (pool, log) = setup();
            let mut w = LogWriter::attach(&pool, log).unwrap();
            for i in 0..9u64 {
                w.append(&pool, PAddr::new(4096 + i * 16), &[i as u8; 12])
                    .unwrap();
            }
            let p2 = pool
                .crash(&CrashConfig {
                    p_dirty: 0.5,
                    p_flushed_unfenced: 0.5,
                    seed,
                })
                .unwrap();
            let es = log.entries(&p2).unwrap();
            assert!(es.len() <= 9, "seed {seed}: more entries than appended");
            for (i, e) in es.iter().enumerate() {
                assert_eq!(
                    *e,
                    (PAddr::new(4096 + i as u64 * 16), vec![i as u8; 12]),
                    "seed {seed}: prefix mismatch at {i}"
                );
            }
        }
    }

    #[test]
    fn v2_amortizes_flushes_to_one_per_line_and_defers_the_fence() {
        let (pool, log) = setup();
        let mut w = LogWriter::attach(&pool, log).unwrap();
        let before = pool.stats().snapshot();
        // 8-byte payloads: 3 words per entry; 21 appends = 63 words = 9
        // exactly-full lines.
        for i in 0..21u64 {
            w.append(&pool, PAddr::new(2048 + i * 8), &i.to_le_bytes())
                .unwrap();
        }
        let mid = pool.stats().snapshot().delta(&before);
        assert_eq!(mid.flushes, 9, "one streaming flush per full line");
        assert_eq!(mid.fences, 0, "no fence until the ordering point");
        w.sync(&pool).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(d.fences, 1, "sync is the single ordering point");
        assert_eq!(d.flushes, 9, "nothing left to flush: lines were full");
        assert!(
            d.flushes * 2 <= 21,
            "amortized flushes-per-append must be well under one per entry"
        );
        // And the appended data is all there.
        assert_eq!(log.len(&pool).unwrap(), 21);
    }

    #[test]
    fn v2_compat_append_uses_exactly_one_fence() {
        let (pool, log) = setup();
        let before = pool.stats().snapshot();
        log.append(&pool, PAddr::new(1000), &[1u8; 32]).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(d.fences, 1);
    }

    #[test]
    fn v2_clear_bumps_generation_and_survives_crash() {
        let (pool, log) = setup();
        log.append(&pool, PAddr::new(8), b"stale").unwrap();
        assert!(!log.is_empty(&pool).unwrap());
        let before = pool.stats().snapshot();
        log.clear(&pool).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(d.fences, 1, "clear is one generation-bump fence");
        assert!(log.is_empty(&pool).unwrap());
        assert!(log.entries(&pool).unwrap().is_empty());
        let p2 = pool.crash(&CrashConfig::drop_all(3)).unwrap();
        assert!(log.is_empty(&p2).unwrap());
        // New appends after the bump are isolated from the old generation.
        log.append(&p2, PAddr::new(16), b"fresh").unwrap();
        assert_eq!(
            log.entries(&p2).unwrap(),
            vec![(PAddr::new(16), b"fresh".to_vec())]
        );
    }

    #[test]
    fn v2_torn_marker_word_drops_the_line_and_its_suffix() {
        let (pool, log) = setup();
        // 28 single-word-payload entries = 84 words = 12 lines.
        for i in 0..28u64 {
            log.append(&pool, PAddr::new(512 + i * 8), &i.to_le_bytes())
                .unwrap();
        }
        assert_eq!(log.len(&pool).unwrap(), 28);
        // Corrupt the marker word of data line 3 at rest (a decayed or torn
        // line): every entry from that line on must vanish, and the entries
        // before it must be exactly the prefix.
        let data = log.v2_data_base();
        let p2 = pool.crash(&CrashConfig::drop_all(7)).unwrap();
        p2.inject_bit_corruption(PAddr::new(data + 3 * 64 + 56), 8, 42, 3)
            .unwrap();
        let es = log.entries(&p2).unwrap();
        // 7 payload words/line: line 3 starts at word 21 = entry 7.
        assert_eq!(es.len(), 7, "entries from the torn line on are dropped");
        for (i, e) in es.iter().enumerate() {
            assert_eq!(e.0, PAddr::new(512 + i as u64 * 8));
        }
    }

    #[test]
    fn v2_writer_adopts_mid_stream_and_continues() {
        let (pool, log) = setup();
        log.append(&pool, PAddr::new(100), b"first").unwrap();
        log.append(&pool, PAddr::new(200), b"second-entry").unwrap();
        // A fresh writer (no shared volatile state) must resume after the
        // existing entries, not clobber them.
        let mut w = LogWriter::attach(&pool, log).unwrap();
        assert!(!w.is_empty(&pool).unwrap());
        w.append(&pool, PAddr::new(300), b"third").unwrap();
        w.sync(&pool).unwrap();
        let es = log.entries(&pool).unwrap();
        assert_eq!(es.len(), 3);
        assert_eq!(es[2], (PAddr::new(300), b"third".to_vec()));
    }

    #[test]
    fn v2_log_full_is_reported() {
        let pool = PmemPool::create(PoolOptions::performance(1 << 20)).unwrap();
        let base = pool.alloc(256).unwrap();
        let log = Ulog::format_v2(&pool, base, 256).unwrap();
        // At most 3 data lines = 21 payload words once the header line is
        // carved out; a 160-byte entry needs 22.
        assert!(matches!(
            log.append(&pool, PAddr::new(8), &[0u8; 160]),
            Err(PmemError::LogFull { .. })
        ));
        // Small entries fit until the words run out.
        let mut w = LogWriter::attach(&pool, log).unwrap();
        let mut appended = 0;
        while w.append(&pool, PAddr::new(8), &[1u8; 8]).is_ok() {
            appended += 1;
        }
        assert_eq!(appended, 7, "21 payload words / 3 words per entry");
    }

    #[test]
    fn corrupt_header_is_rejected_by_every_entry_point() {
        // One flipped magic bit must never parse as an empty log: the
        // synced pre-image behind it would be silently discarded.
        let (pool, log) = setup();
        log.append(&pool, PAddr::new(700), b"pre-image").unwrap();
        pool.write_u64(log.base(), V2_MAGIC ^ 1).unwrap();
        let corrupt = |r: Result<(), PmemError>| matches!(r, Err(PmemError::CorruptPool(_)));
        assert!(corrupt(log.entries(&pool).map(drop)));
        assert!(corrupt(log.is_empty(&pool).map(drop)));
        assert!(corrupt(log.clear(&pool)));
        assert!(corrupt(log.append(&pool, PAddr::new(8), b"x")));
        assert!(corrupt(LogWriter::attach(&pool, log).map(drop)));
        assert!(corrupt(LogWriter::new(log).ensure_empty_unfenced(&pool)));
        assert!(corrupt(LogWriter::new(log).reset_unfenced(&pool).map(drop)));
        // Nothing above touched the image: restoring the bit restores the log.
        pool.write_u64(log.base(), V2_MAGIC).unwrap();
        assert_eq!(log.len(&pool).unwrap(), 1);
    }

    #[test]
    fn kind_counters_attribute_flushes_and_fences() {
        let (pool, log) = setup();
        let clog = log.with_kind(LogKind::Clobber);
        let before = pool.stats().snapshot();
        let mut w = LogWriter::attach(&pool, clog).unwrap();
        for i in 0..21u64 {
            w.append(&pool, PAddr::new(2048 + i * 8), &i.to_le_bytes())
                .unwrap();
        }
        w.sync(&pool).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(d.clog_flushes, 9);
        assert_eq!(d.clog_fences, 1);
        assert_eq!(d.rlog_flushes, 0);
        assert_eq!((d.flushes, d.fences), (9, 1), "attribution matches totals");
    }

    #[test]
    fn an_append_stores_its_lines_once_and_flushes_the_full_ones_once() {
        let pool = PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap();
        let base = pool.alloc(8192).unwrap();
        let log = Ulog::format_v2(&pool, base, 8192).unwrap();
        let mut w = LogWriter::attach(&pool, log).unwrap();
        // Three words, then 300 bytes: 40 words from word 3, lines 0..=6,
        // the last partial.
        w.append(&pool, PAddr::new(8), b"x").unwrap();
        let long: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let before = pool.stats().snapshot();
        w.append(&pool, PAddr::new(16), &long).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!((d.writes, d.write_bytes), (1, 7 * 64), "one store");
        assert_eq!(d.flushes, 6, "one flush, of the six full lines");
        // 3,000 bytes: 377 words from word 1 of line 6, two runs of lines.
        let longer = vec![0x5Au8; 3000];
        let before = pool.stats().snapshot();
        w.append(&pool, PAddr::new(24), &longer).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!((d.writes, d.flushes), (2, 54));
        w.sync(&pool).unwrap();
        let p2 = pool.crash(&CrashConfig::drop_all(5)).unwrap();
        assert_eq!(
            log.entries(&p2).unwrap(),
            vec![
                (PAddr::new(8), b"x".to_vec()),
                (PAddr::new(16), long),
                (PAddr::new(24), longer)
            ],
            "every line of a synced multi-line entry is durable"
        );
    }

    #[test]
    fn reset_to_starts_over_at_a_chosen_generation_without_reading() {
        let (pool, log) = setup();
        log.append(&pool, PAddr::new(8), b"stale").unwrap();
        let mut w = LogWriter::new(log);
        let before = pool.stats().snapshot();
        w.reset_to(&pool, 9).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!((d.reads, d.writes, d.flushes, d.fences), (0, 1, 1, 0));
        assert!(log.is_empty(&pool).unwrap());
        w.append(&pool, PAddr::new(16), b"fresh").unwrap();
        w.sync(&pool).unwrap();
        let p2 = pool.crash(&CrashConfig::drop_all(6)).unwrap();
        let scan = log.scan(&p2).unwrap();
        assert_eq!(scan.generation(), 9);
        assert_eq!(
            scan.iter().collect::<Vec<_>>(),
            vec![(PAddr::new(16), &b"fresh"[..])]
        );
    }

    #[test]
    fn v2_reset_unfenced_then_fence_is_clear() {
        let (pool, log) = setup();
        log.append(&pool, PAddr::new(8), b"stale").unwrap();
        let mut w = LogWriter::attach(&pool, log).unwrap();
        w.reset_unfenced(&pool).unwrap();
        pool.fence();
        assert!(log.is_empty(&pool).unwrap());
        // The writer's cursor is reset too: new appends land at the start.
        w.append(&pool, PAddr::new(16), b"fresh").unwrap();
        w.sync(&pool).unwrap();
        assert_eq!(
            log.entries(&pool).unwrap(),
            vec![(PAddr::new(16), b"fresh".to_vec())]
        );
    }

    #[test]
    fn marker_binds_generation_and_popcount() {
        let mut words = [0u64; 8];
        words[0] = (8 << 1) | 1;
        words[1] = 4096;
        words[2] = 0xFF;
        let m1 = v2_marker(1, &words);
        let m2 = v2_marker(2, &words);
        assert_ne!(m1, m2, "generation is bound");
        let mut tampered = words;
        tampered[2] = 0xFE;
        assert_ne!(m1, v2_marker(1, &tampered), "payload bits are bound");
        assert_ne!(m1, 0, "a valid marker is never the zero word");
    }
}
