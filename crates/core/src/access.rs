//! The transaction's access table: which bytes it read, wrote and logged.
//!
//! Clobber detection is set algebra over these three kinds (paper §3.3): a
//! store's *to-log* bytes are its read, not yet logged bytes. Every
//! transactional load and store consults the table, and one batched
//! transaction holds hundreds of scattered 8-byte ranges, so the cost of an
//! access must not depend on how much the table already holds. The table is
//! therefore keyed by cache line: an open-addressing table maps a line index
//! (`offset >> 6`) to one 64-bit byte mask per kind, so a load or store of
//! up to 64 bytes is one or two probes plus mask arithmetic, and one probe
//! per line answers every kind at once. (Keys are pool offsets the allocator
//! chose, never client-supplied values, so a fixed multiplicative hash is
//! enough.) Slots carry a generation stamp, so [`AccessTable::clear`] is a
//! counter bump that keeps the table — decisive for the allocation-free hot
//! path: a pooled table reaches a steady state where accesses allocate
//! nothing.
//!
//! A range spanning more than 16 lines (`EXTENT_MIN_LINES`: a large
//! `pmalloc`, a multi-KiB value) does not enter the table line by line: its
//! whole lines become entries of a short sorted list of line extents kept
//! per kind, consulted beside the masks. A megabyte allocation costs one
//! list entry, not sixteen thousand slots that a pooled table would then
//! hold forever.
//!
//! Reported ranges are ascending and *maximal*: a run that crosses a line
//! boundary is one range.

const LINE_SHIFT: u32 = 6;
const LINE_BYTES: u64 = 1 << LINE_SHIFT;

/// Ranges spanning more lines than this keep their whole lines as extents
/// instead of one table slot per line.
const EXTENT_MIN_LINES: u64 = 16;

/// Initial table size; the table doubles when half full.
const MIN_SLOTS: usize = 64;

/// A kind of access the table records: one byte mask per kind and line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Bytes the transaction read (before writing them, under the refined
    /// rule).
    Read,
    /// Bytes the transaction wrote.
    Written,
    /// Bytes whose old value the transaction logged.
    Logged,
}

const READ: usize = Kind::Read as usize;
const WRITTEN: usize = Kind::Written as usize;
const LOGGED: usize = Kind::Logged as usize;

/// A line's byte masks, indexed by [`Kind`].
type Masks = [u64; 3];

/// Which bytes of a store go to the log: one rule per logging discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToLog {
    /// None of them (a store the compiler proved clobbers nothing).
    Nothing,
    /// All of them (a store site the compiler found to be a clobber write).
    All,
    /// Conservative clobber logging: every read byte, every time.
    Read,
    /// Refined clobber logging: read bytes not logged yet.
    ReadUnlogged,
    /// Undo logging: bytes not written yet.
    Unwritten,
}

impl ToLog {
    #[inline]
    fn mask(self, w: u64, have: &Masks) -> u64 {
        match self {
            ToLog::Nothing => 0,
            ToLog::All => w,
            ToLog::Read => w & have[READ],
            ToLog::ReadUnlogged => w & have[READ] & !have[LOGGED],
            ToLog::Unwritten => w & !have[WRITTEN],
        }
    }
}

/// One table slot, live iff `stamp` equals the table's current generation.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    line: u64,
    masks: Masks,
    stamp: u16,
}

/// Mask with bits `lo..hi` set (`lo < hi <= 64`).
#[inline]
fn bits(lo: u64, hi: u64) -> u64 {
    (!0u64 >> (LINE_BYTES - (hi - lo))) << lo
}

/// Mask of the bytes of `line` that lie inside the non-empty `[start, end)`.
#[inline]
fn window(start: u64, end: u64, line: u64) -> u64 {
    let lo = if line == start >> LINE_SHIFT {
        start % LINE_BYTES
    } else {
        0
    };
    let hi = if line == (end - 1) >> LINE_SHIFT {
        (end - 1) % LINE_BYTES + 1
    } else {
        LINE_BYTES
    };
    bits(lo, hi)
}

/// `mask` as kind `k`'s, the other kinds empty.
#[inline]
fn only(k: usize, mask: u64) -> Masks {
    let mut m = [0; 3];
    m[k] = mask;
    m
}

/// Appends `[start, end)` to `out`, extending the last range instead when
/// it ends at `start` and lies at or past index `floor` (ranges below
/// `floor` belong to the caller and are never touched).
#[inline]
fn push_run(out: &mut Vec<(u64, u64)>, floor: usize, start: u64, end: u64) {
    let ours = out.len() > floor;
    match out.last_mut() {
        Some(last) if ours && last.1 == start => last.1 = end,
        _ => out.push((start, end)),
    }
}

/// Appends the runs of set bits in `mask` — bytes of the line at `base` —
/// to `out` via [`push_run`].
#[inline]
fn push_mask_runs(out: &mut Vec<(u64, u64)>, floor: usize, base: u64, mut mask: u64) {
    while mask != 0 {
        let lo = u64::from(mask.trailing_zeros());
        let hi = lo + u64::from((mask >> lo).trailing_ones());
        push_run(out, floor, base + lo, base + hi);
        mask = if hi == LINE_BYTES {
            0
        } else {
            mask & (!0u64 << hi)
        };
    }
}

/// A transaction's read, written and logged bytes over pool offsets.
///
/// # Example
///
/// ```
/// use clobber_nvm::access::{AccessTable, Kind, ToLog};
///
/// let mut t = AccessTable::new();
/// t.insert(Kind::Written, 0, 8); // a fresh allocation's payload
/// t.load(0, 16, true); // refined: only the unwritten bytes are inputs
/// assert_eq!(t.runs(Kind::Read), vec![(8, 16)]);
/// let mut to_log = Vec::new();
/// let was_written = t.store(4, 12, ToLog::ReadUnlogged, true, &mut to_log);
/// assert_eq!((to_log, was_written), (vec![(8, 12)], false));
/// assert_eq!(t.runs(Kind::Written), vec![(0, 12)]);
/// ```
#[derive(Debug, Clone)]
pub struct AccessTable {
    /// Open-addressing (linear probing) table of per-line byte masks;
    /// empty until the first insert, then a power of two.
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the multiplicative hash keeps the top bits.
    shift: u32,
    /// Live slots in the current generation.
    live: usize,
    /// Current generation, never zero (zero marks a never-used slot).
    gen: u16,
    /// Per kind: sorted, disjoint, non-adjacent runs of whole lines
    /// `[first_line, end_line)`.
    extents: [Vec<(u64, u64)>; 3],
}

impl Default for AccessTable {
    fn default() -> Self {
        AccessTable {
            slots: Vec::new(),
            shift: 0,
            live: 0,
            gen: 1,
            extents: Default::default(),
        }
    }
}

impl AccessTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        AccessTable::default()
    }

    /// Forgets every access in O(1), retaining allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.extents.iter_mut().for_each(Vec::clear);
        self.live = 0;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // The stamp wrapped: slots last used 65 535 generations ago
            // would read as live again. Retire every stamp once.
            for slot in &mut self.slots {
                slot.stamp = 0;
            }
            self.gen = 1;
        }
    }

    #[inline]
    fn home(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The probe: `Ok` with `line`'s live slot, or `Err` with the vacant
    /// slot it would claim.
    #[inline]
    fn find(&self, line: u64) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let wrap = self.slots.len() - 1;
        let mut i = self.home(line);
        // Terminates: the table is never more than half full.
        loop {
            let slot = &self.slots[i];
            if slot.stamp != self.gen {
                return Err(i);
            }
            if slot.line == line {
                return Ok(i);
            }
            i = (i + 1) & wrap;
        }
    }

    #[inline]
    fn extent_covers(&self, k: usize, line: u64) -> bool {
        let extents = &self.extents[k];
        let i = extents.partition_point(|&(_, xe)| xe <= line);
        extents.get(i).is_some_and(|&(xs, _)| xs <= line)
    }

    /// `line`'s masks: its slot's, with every kind an extent covers full.
    #[inline]
    fn have(&self, at: Result<usize, usize>, line: u64) -> Masks {
        let mut have = at.map_or([0; 3], |i| self.slots[i].masks);
        for (k, mask) in have.iter_mut().enumerate() {
            if !self.extents[k].is_empty() && self.extent_covers(k, line) {
                *mask = !0;
            }
        }
        have
    }

    /// Adds `add` to `line`'s slot, found at `at`, claiming it if vacant.
    #[inline]
    fn or_at(&mut self, at: Result<usize, usize>, line: u64, add: Masks) {
        match at {
            Ok(i) => {
                let masks = &mut self.slots[i].masks;
                for k in 0..3 {
                    masks[k] |= add[k];
                }
            }
            Err(mut i) => {
                if (self.live + 1) * 2 > self.slots.len() {
                    self.grow();
                    i = self.find(line).unwrap_err();
                }
                self.slots[i] = Slot {
                    line,
                    masks: add,
                    stamp: self.gen,
                };
                self.live += 1;
            }
        }
    }

    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); len]);
        self.shift = u64::BITS - len.trailing_zeros();
        self.live = 0;
        let gen = self.gen;
        for slot in old.into_iter().filter(|slot| slot.stamp == gen) {
            let at = self.find(slot.line);
            self.or_at(at, slot.line, slot.masks);
        }
    }

    /// Adds the whole lines `[first, end)` to kind `k`'s extents, merging
    /// overlapping and adjacent ones.
    fn insert_extent(&mut self, k: usize, first: u64, end: u64) {
        let extents = &mut self.extents[k];
        let lo = extents.partition_point(|&(_, xe)| xe < first);
        let hi = lo + extents[lo..].partition_point(|&(xs, _)| xs <= end);
        if lo == hi {
            extents.insert(lo, (first, end));
            return;
        }
        extents[lo] = (first.min(extents[lo].0), end.max(extents[hi - 1].1));
        extents.drain(lo + 1..hi);
    }

    /// Walks the lines of the non-empty `[start, end)`, one probe each:
    /// `f(base, w, have)` gets the line's first byte offset, the mask of its
    /// bytes inside the range and its masks before this access, and returns
    /// the bytes to add. A range longer than 16 lines sends the lines it
    /// adds whole to the extents.
    #[inline]
    fn walk(&mut self, start: u64, end: u64, mut f: impl FnMut(u64, u64, &Masks) -> Masks) {
        let (first, last) = (start >> LINE_SHIFT, (end - 1) >> LINE_SHIFT);
        let long = last - first > EXTENT_MIN_LINES;
        // Per kind, the run of whole lines added so far and not yet an extent.
        let mut whole: [Option<u64>; 3] = [None; 3];
        for line in first..=last {
            let at = self.find(line);
            let have = self.have(at, line);
            let mut add = f(line << LINE_SHIFT, window(start, end, line), &have);
            if long {
                for k in 0..3 {
                    if add[k] == !0 {
                        whole[k] = whole[k].or(Some(line));
                        add[k] = 0;
                    } else if let Some(from) = whole[k].take() {
                        self.insert_extent(k, from, line);
                    }
                }
            }
            for k in 0..3 {
                add[k] &= !have[k];
            }
            if add != [0; 3] {
                self.or_at(at, line, add);
            }
        }
        for (k, from) in whole.into_iter().enumerate() {
            if let Some(from) = from {
                self.insert_extent(k, from, last + 1);
            }
        }
    }

    /// Adds `[start, end)` to `kind`'s bytes.
    ///
    /// Empty ranges (`start >= end`) are ignored. A range of up to 16
    /// lines costs one probe per line; a longer one costs two probes and
    /// one extent, whatever its length.
    pub fn insert(&mut self, kind: Kind, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let k = kind as usize;
        let (first, last) = (start >> LINE_SHIFT, (end - 1) >> LINE_SHIFT);
        if last - first <= EXTENT_MIN_LINES {
            self.walk(start, end, |_, w, _| only(k, w));
            return;
        }
        // Whole lines go to the extent list; a partial head or tail line
        // keeps its mask.
        let whole_first = first + u64::from(!start.is_multiple_of(LINE_BYTES));
        let whole_end = last + u64::from(end.is_multiple_of(LINE_BYTES));
        self.insert_extent(k, whole_first, whole_end);
        if whole_first > first {
            let at = self.find(first);
            self.or_at(at, first, only(k, bits(start % LINE_BYTES, LINE_BYTES)));
        }
        if whole_end == last {
            let at = self.find(last);
            self.or_at(at, last, only(k, bits(0, end % LINE_BYTES)));
        }
    }

    /// Records a load of `[start, end)`. Refined (`refined`): its bytes
    /// not yet written become read — true inputs. Conservative: all of
    /// them do.
    pub fn load(&mut self, start: u64, end: u64, refined: bool) {
        if start >= end {
            return;
        }
        self.walk(start, end, |_, w, have| {
            let written = if refined { have[WRITTEN] } else { 0 };
            only(READ, w & !written)
        });
    }

    /// Records a store of `[start, end)`: appends its bytes `to_log` selects
    /// to `out`, as ascending maximal runs (ranges already in `out` are left
    /// as they are), and, when `mark`, adds them to the logged bytes and the
    /// store's to the written ones. Returns whether every byte of the range
    /// was written before this store.
    pub fn store(
        &mut self,
        start: u64,
        end: u64,
        to_log: ToLog,
        mark: bool,
        out: &mut Vec<(u64, u64)>,
    ) -> bool {
        if start >= end {
            return true;
        }
        let floor = out.len();
        let mut was_written = true;
        self.walk(start, end, |base, w, have| {
            was_written &= have[WRITTEN] & w == w;
            let log = to_log.mask(w, have);
            push_mask_runs(out, floor, base, log);
            if mark {
                [0, w, log]
            } else {
                [0; 3]
            }
        });
        was_written
    }

    /// Bytes of `kind`, counted once each.
    pub fn covered_bytes(&self, kind: Kind) -> u64 {
        let k = kind as usize;
        let in_extents: u64 = self.extents[k]
            .iter()
            .map(|&(s, e)| (e - s) * LINE_BYTES)
            .sum();
        let in_masks: u64 = self
            .live_slots()
            .filter(|slot| !self.extent_covers(k, slot.line))
            .map(|slot| u64::from(slot.masks[k].count_ones()))
            .sum();
        in_extents + in_masks
    }

    fn live_slots(&self) -> impl Iterator<Item = &Slot> + '_ {
        self.slots.iter().filter(|slot| slot.stamp == self.gen)
    }

    /// `kind`'s bytes as ascending maximal ranges. Sorts the live lines:
    /// for inspection and tests, not for the per-access path.
    pub fn runs(&self, kind: Kind) -> Vec<(u64, u64)> {
        let k = kind as usize;
        let mut lines: Vec<(u64, u64)> = self
            .live_slots()
            .map(|slot| (slot.line, slot.masks[k]))
            .collect();
        lines.sort_unstable();
        let mut out = Vec::new();
        let mut extents = self.extents[k].iter().copied().peekable();
        for (line, mask) in lines {
            let base = line << LINE_SHIFT;
            while let Some((xs, xe)) = extents.next_if(|&(xs, _)| xs <= line) {
                push_run(&mut out, 0, xs << LINE_SHIFT, xe << LINE_SHIFT);
            }
            // A line inside an extent is already wholly reported.
            if out.last().is_none_or(|&(_, e)| e <= base) {
                push_mask_runs(&mut out, 0, base, mask);
            }
        }
        for (xs, xe) in extents {
            push_run(&mut out, 0, xs << LINE_SHIFT, xe << LINE_SHIFT);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_large_range_is_one_extent_not_a_slot_per_line() {
        let mut t = AccessTable::new();
        t.insert(Kind::Written, 100, (1 << 20) + 7);
        assert_eq!(t.extents[WRITTEN], vec![(2, 1 << 14)]);
        assert_eq!(t.live, 2, "only the partial head and tail lines take slots");
        assert_eq!(t.runs(Kind::Written), vec![(100, (1 << 20) + 7)]);
        assert_eq!(t.covered_bytes(Kind::Written), (1 << 20) + 7 - 100);
        // A refined load across it reads only the bytes beside it, and a
        // long load sends its whole lines to the read extents.
        t.load(0, 1 << 21, true);
        assert_eq!(t.runs(Kind::Read), vec![(0, 100), ((1 << 20) + 7, 1 << 21)]);
        assert_eq!(t.extents[READ], vec![(0, 1), ((1 << 14) + 1, 1 << 15)]);
        // Small accesses inside and beside the extent agree with it.
        t.insert(Kind::Written, 96, 100);
        assert_eq!(t.runs(Kind::Written), vec![(96, (1 << 20) + 7)]);
        assert_eq!(t.covered_bytes(Kind::Written), (1 << 20) + 7 - 96);
        let mut out = Vec::new();
        assert!(t.store(4096, 4104, ToLog::Unwritten, true, &mut out));
        assert!(out.is_empty());
        assert!(!t.store(90, 200, ToLog::Unwritten, true, &mut out));
        assert_eq!(out, vec![(90, 96)]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut t = AccessTable::new();
        let fill = |t: &mut AccessTable| {
            for i in 0..32u64 {
                t.load(i * 100, i * 100 + 5, false);
            }
        };
        fill(&mut t);
        let cap = t.slots.capacity();
        t.clear();
        assert!(t.runs(Kind::Read).is_empty());
        fill(&mut t);
        assert_eq!(
            t.slots.capacity(),
            cap,
            "refilling a cleared table must not grow it"
        );
    }
}
