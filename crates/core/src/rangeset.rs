//! Byte-granular access sets.
//!
//! The transaction context tracks its read set, write set and
//! already-clobber-logged set as sets of bytes over pool offsets, updated
//! and queried with half-open ranges `[start, end)`. Clobber detection is
//! set algebra on these (paper §3.3): a store's *to-log* portion is
//! `range ∩ inputs ∖ already_logged`.
//!
//! Every transactional load and store touches these sets, and one batched
//! transaction holds hundreds of scattered 8-byte ranges, so the cost of an
//! access must not depend on how many the set already holds. The set is
//! therefore keyed by cache line: an open-addressing table maps a line
//! index (`offset >> 6`) to a 64-bit mask of that line's member bytes, and
//! an access of up to 64 bytes is one or two probes plus mask arithmetic.
//! (Keys are pool offsets the allocator chose, never client-supplied
//! values, so a fixed multiplicative hash is enough.)
//! Slots carry a generation stamp, so [`RangeSet::clear`] is a counter bump
//! that keeps the table — decisive for the allocation-free hot path: a
//! pooled set reaches a steady state where inserts allocate nothing.
//!
//! A range spanning more than 16 lines (`EXTENT_MIN_LINES`: a large
//! `pmalloc`, a multi-KiB value) does not enter the table line by line: its
//! whole lines become one entry of a short sorted list of line extents,
//! consulted beside the masks. A megabyte allocation costs one list entry,
//! not sixteen thousand slots that a pooled set would then hold forever.
//!
//! Results are byte ranges, ascending and *maximal*: a run of member bytes
//! that crosses a line boundary is one range.

use std::fmt;

const LINE_SHIFT: u32 = 6;
const LINE_BYTES: u64 = 1 << LINE_SHIFT;

/// Ranges spanning more lines than this keep their whole lines as one
/// extent instead of one table slot per line.
const EXTENT_MIN_LINES: u64 = 16;

/// Initial table size; the table doubles when half full.
const MIN_SLOTS: usize = 64;

/// One table slot, live iff `stamp` equals the set's current generation.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    line: u64,
    mask: u64,
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

/// A set of bytes, reported as non-overlapping, non-adjacent half-open
/// `u64` ranges.
///
/// # Example
///
/// ```
/// use clobber_nvm::rangeset::RangeSet;
///
/// let mut s = RangeSet::new();
/// s.insert(10, 20);
/// s.insert(20, 30); // adjacent ranges coalesce
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![(10, 30)]);
/// assert_eq!(s.intersect(15, 35), vec![(15, 30)]);
/// assert_eq!(s.subtract_from(15, 35), vec![(30, 35)]);
/// ```
#[derive(Clone)]
pub struct RangeSet {
    /// Open-addressing (linear probing) table of per-line byte masks;
    /// empty until the first insert, then a power of two.
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the multiplicative hash keeps the top bits.
    shift: u32,
    /// Live slots in the current generation.
    live: usize,
    /// Current generation, never zero (zero marks a never-used slot).
    gen: u16,
    /// Sorted, disjoint, non-adjacent runs of whole member lines
    /// `[first_line, end_line)`.
    extents: Vec<(u64, u64)>,
}

impl Default for RangeSet {
    fn default() -> Self {
        RangeSet {
            slots: Vec::new(),
            shift: 0,
            live: 0,
            gen: 1,
            extents: Vec::new(),
        }
    }
}

/// Per-line walk over a query range: yields `(base, need, have)` — the
/// line's first byte offset, the mask of its bytes inside the query, and
/// the mask of its bytes in the set.
struct Lines<'a> {
    set: &'a RangeSet,
    start: u64,
    end: u64,
    line: u64,
    /// Cursor into `set.extents`: the first extent ending past `line`.
    ext: usize,
}

impl Iterator for Lines<'_> {
    type Item = (u64, u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64, u64)> {
        let line = self.line;
        if line > (self.end - 1) >> LINE_SHIFT {
            return None;
        }
        self.line += 1;
        let extents = &self.set.extents;
        while extents.get(self.ext).is_some_and(|&(_, xe)| xe <= line) {
            self.ext += 1;
        }
        let have = match extents.get(self.ext) {
            Some(&(xs, _)) if xs <= line => !0,
            _ => self.set.mask(line),
        };
        Some((line << LINE_SHIFT, window(self.start, self.end, line), have))
    }
}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// Removes all bytes in O(1), retaining allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.extents.clear();
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

    /// Returns `true` if the set holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.live == 0 && self.extents.is_empty()
    }

    /// Number of disjoint ranges in the set.
    pub fn len(&self) -> usize {
        self.runs().len()
    }

    /// Total bytes covered.
    pub fn covered_bytes(&self) -> u64 {
        let in_extents: u64 = self
            .extents
            .iter()
            .map(|&(s, e)| (e - s) * LINE_BYTES)
            .sum();
        let in_masks: u64 = self
            .live_slots()
            .filter(|slot| !self.extent_covers(slot.line))
            .map(|slot| u64::from(slot.mask.count_ones()))
            .sum();
        in_extents + in_masks
    }

    fn live_slots(&self) -> impl Iterator<Item = &Slot> + '_ {
        self.slots.iter().filter(|slot| slot.stamp == self.gen)
    }

    fn extent_covers(&self, line: u64) -> bool {
        let i = self.extents.partition_point(|&(_, xe)| xe <= line);
        self.extents.get(i).is_some_and(|&(xs, _)| xs <= line)
    }

    #[inline]
    fn home(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The table's byte mask for `line` (extents not consulted).
    #[inline]
    fn mask(&self, line: u64) -> u64 {
        if self.slots.is_empty() {
            return 0;
        }
        let wrap = self.slots.len() - 1;
        let mut i = self.home(line);
        // Terminates: the table is never more than half full.
        loop {
            let slot = &self.slots[i];
            if slot.stamp != self.gen {
                return 0;
            }
            if slot.line == line {
                return slot.mask;
            }
            i = (i + 1) & wrap;
        }
    }

    /// Adds the bytes of `mask` to `line`'s entry, claiming a slot if the
    /// line has none.
    #[inline]
    fn or_mask(&mut self, line: u64, mask: u64) {
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let wrap = self.slots.len() - 1;
        let mut i = self.home(line);
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.gen {
                *slot = Slot {
                    line,
                    mask,
                    stamp: self.gen,
                };
                self.live += 1;
                return;
            }
            if slot.line == line {
                slot.mask |= mask;
                return;
            }
            i = (i + 1) & wrap;
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
            self.or_mask(slot.line, slot.mask);
        }
    }

    /// Inserts the whole lines `[first, end)`, merging overlapping and
    /// adjacent extents.
    fn insert_extent(&mut self, first: u64, end: u64) {
        let lo = self.extents.partition_point(|&(_, xe)| xe < first);
        let hi = lo + self.extents[lo..].partition_point(|&(xs, _)| xs <= end);
        if lo == hi {
            self.extents.insert(lo, (first, end));
            return;
        }
        self.extents[lo] = (
            first.min(self.extents[lo].0),
            end.max(self.extents[hi - 1].1),
        );
        self.extents.drain(lo + 1..hi);
    }

    /// Inserts `[start, end)`.
    ///
    /// Empty ranges (`start >= end`) are ignored. Cost is one table probe
    /// per line touched — independent of the set's size — and no
    /// allocation once the table has warmed up.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let (first, last) = (start >> LINE_SHIFT, (end - 1) >> LINE_SHIFT);
        if last - first > EXTENT_MIN_LINES {
            // Whole lines go to the extent list; a partial head or tail
            // line keeps its mask.
            let whole_first = first + u64::from(!start.is_multiple_of(LINE_BYTES));
            let whole_end = last + u64::from(end.is_multiple_of(LINE_BYTES));
            self.insert_extent(whole_first, whole_end);
            if whole_first > first {
                self.or_mask(first, bits(start % LINE_BYTES, LINE_BYTES));
            }
            if whole_end == last {
                self.or_mask(last, bits(0, end % LINE_BYTES));
            }
            return;
        }
        for line in first..=last {
            self.or_mask(line, window(start, end, line));
        }
    }

    /// The per-line walk over the non-empty range `[start, end)`.
    #[inline]
    fn lines(&self, start: u64, end: u64) -> Lines<'_> {
        debug_assert!(start < end);
        Lines {
            set: self,
            start,
            end,
            line: start >> LINE_SHIFT,
            ext: self
                .extents
                .partition_point(|&(_, xe)| xe <= start >> LINE_SHIFT),
        }
    }

    /// Returns `true` if every byte of `[start, end)` is in the set.
    ///
    /// The empty range is trivially contained.
    pub fn contains(&self, start: u64, end: u64) -> bool {
        start >= end
            || self
                .lines(start, end)
                .all(|(_, need, have)| have & need == need)
    }

    /// Returns `true` if any byte of `[start, end)` is in the set.
    pub fn overlaps(&self, start: u64, end: u64) -> bool {
        start < end
            && self
                .lines(start, end)
                .any(|(_, need, have)| have & need != 0)
    }

    /// Appends to `out` the maximal runs of `[start, end)` whose bytes are
    /// in the set (`member`) or not in it (`!member`).
    fn runs_into(&self, start: u64, end: u64, member: bool, out: &mut Vec<(u64, u64)>) {
        if start >= end {
            return;
        }
        let floor = out.len();
        let flip = if member { 0 } else { !0 };
        for (base, need, have) in self.lines(start, end) {
            push_mask_runs(out, floor, base, (have ^ flip) & need);
        }
    }

    /// Appends the parts of `[start, end)` that are **in** the set to `out`,
    /// in ascending order. The caller owns (and typically reuses) `out`;
    /// ranges already in it are left as they are.
    pub fn intersect_into(&self, start: u64, end: u64, out: &mut Vec<(u64, u64)>) {
        self.runs_into(start, end, true, out);
    }

    /// Returns the parts of `[start, end)` that are **in** the set, in
    /// ascending order.
    pub fn intersect(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.intersect_into(start, end, &mut out);
        out
    }

    /// Appends the parts of `[start, end)` that are **not** in the set to
    /// `out`, in ascending order. The caller owns (and typically reuses)
    /// `out`; ranges already in it are left as they are.
    pub fn subtract_into(&self, start: u64, end: u64, out: &mut Vec<(u64, u64)>) {
        self.runs_into(start, end, false, out);
    }

    /// Returns the parts of `[start, end)` that are **not** in the set, in
    /// ascending order.
    pub fn subtract_from(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.subtract_into(start, end, &mut out);
        out
    }

    /// The set's maximal ranges in ascending order. Sorts the live lines:
    /// for inspection and tests, not for the per-access path.
    fn runs(&self) -> Vec<(u64, u64)> {
        let mut lines: Vec<(u64, u64)> = self
            .live_slots()
            .map(|slot| (slot.line, slot.mask))
            .collect();
        lines.sort_unstable();
        let mut out = Vec::new();
        let mut extents = self.extents.iter().copied().peekable();
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

    /// Iterates the disjoint ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs().into_iter()
    }
}

/// Sets are equal when they hold the same bytes, however they got there.
impl PartialEq for RangeSet {
    fn eq(&self, other: &Self) -> bool {
        self.runs() == other.runs()
    }
}

impl Eq for RangeSet {}

impl fmt::Debug for RangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.runs()).finish()
    }
}

impl FromIterator<(u64, u64)> for RangeSet {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut s = RangeSet::new();
        s.extend(iter);
        s
    }
}

impl Extend<(u64, u64)> for RangeSet {
    fn extend<I: IntoIterator<Item = (u64, u64)>>(&mut self, iter: I) {
        for (a, b) in iter {
            self.insert(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_disjoint_keeps_both() {
        let mut s = RangeSet::new();
        s.insert(0, 5);
        s.insert(10, 15);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 5), (10, 15)]);
        assert_eq!(s.covered_bytes(), 10);
    }

    #[test]
    fn insert_overlapping_merges() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(5, 15);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 15)]);
    }

    #[test]
    fn insert_adjacent_coalesces() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(10, 20);
        assert_eq!(s.len(), 1);
        assert!(s.contains(0, 20));
    }

    #[test]
    fn insert_spanning_swallows_many() {
        let mut s = RangeSet::new();
        s.insert(10, 12);
        s.insert(20, 22);
        s.insert(30, 32);
        s.insert(5, 40);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(5, 40)]);
    }

    #[test]
    fn insert_before_and_between_existing() {
        let mut s = RangeSet::new();
        s.insert(20, 25);
        s.insert(0, 5);
        s.insert(10, 12);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![(0, 5), (10, 12), (20, 25)]
        );
    }

    #[test]
    fn empty_range_is_ignored() {
        let mut s = RangeSet::new();
        s.insert(5, 5);
        s.insert(7, 3);
        assert!(s.is_empty());
    }

    #[test]
    fn contains_requires_full_coverage() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        assert!(s.contains(0, 10));
        assert!(s.contains(2, 8));
        assert!(!s.contains(5, 15));
        assert!(!s.contains(15, 18));
        assert!(s.contains(9, 9), "empty range trivially contained");
    }

    #[test]
    fn overlaps_detects_partial_overlap() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        assert!(s.overlaps(15, 25));
        assert!(s.overlaps(5, 11));
        assert!(!s.overlaps(0, 10), "half-open: end is exclusive");
        assert!(!s.overlaps(20, 30), "half-open: start at end misses");
    }

    #[test]
    fn intersect_clips_to_query() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        assert_eq!(s.intersect(5, 25), vec![(5, 10), (20, 25)]);
        assert_eq!(s.intersect(10, 20), vec![]);
    }

    #[test]
    fn subtract_from_returns_gaps() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        assert_eq!(s.subtract_from(5, 25), vec![(10, 20)]);
        assert_eq!(s.subtract_from(12, 18), vec![(12, 18)]);
        assert_eq!(s.subtract_from(0, 30), vec![(10, 20)]);
        assert_eq!(s.subtract_from(2, 8), vec![]);
    }

    #[test]
    fn into_variants_append_without_clearing() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        let mut out = vec![(100, 200)];
        s.intersect_into(5, 15, &mut out);
        s.subtract_into(5, 15, &mut out);
        assert_eq!(out, vec![(100, 200), (5, 10), (10, 15)]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut s = RangeSet::new();
        for i in 0..32u64 {
            s.insert(i * 10, i * 10 + 5);
        }
        let cap = s.slots.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.slots.capacity(), cap);
        for i in 0..32u64 {
            s.insert(i * 10, i * 10 + 5);
        }
        assert_eq!(
            s.slots.capacity(),
            cap,
            "refilling a cleared set must not grow it"
        );
    }

    #[test]
    fn from_iterator_collects() {
        let s: RangeSet = vec![(0u64, 5u64), (5, 8), (20, 22)].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 8), (20, 22)]);
    }

    #[test]
    fn intersect_plus_subtract_partitions_query() {
        let mut s = RangeSet::new();
        s.insert(3, 9);
        s.insert(14, 17);
        let (a, b) = (0u64, 20u64);
        let mut pieces = s.intersect(a, b);
        pieces.extend(s.subtract_from(a, b));
        pieces.sort();
        let total: u64 = pieces.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, b - a);
        // No overlaps between pieces.
        for w in pieces.windows(2) {
            assert!(w[0].1 <= w[1].0);
        }
    }

    #[test]
    fn a_run_crossing_line_boundaries_is_one_range() {
        let mut s = RangeSet::new();
        s.insert(60, 64);
        s.insert(64, 130);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(60, 130)]);
        assert_eq!(s.intersect(0, 200), vec![(60, 130)]);
        assert_eq!(s.subtract_from(0, 200), vec![(0, 60), (130, 200)]);
        assert!(s.contains(60, 130));
        assert!(!s.contains(59, 130));
    }

    #[test]
    fn into_variants_never_merge_with_the_callers_ranges() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        let mut out = vec![(0, 10)];
        s.intersect_into(10, 20, &mut out);
        assert_eq!(out, vec![(0, 10), (10, 20)]);
        s.subtract_into(20, 30, &mut out);
        assert_eq!(out, vec![(0, 10), (10, 20), (20, 30)]);
    }

    #[test]
    fn a_large_range_is_one_extent_not_a_slot_per_line() {
        let mut s = RangeSet::new();
        s.insert(100, (1 << 20) + 7);
        assert_eq!(s.extents, vec![(2, 1 << 14)]);
        assert_eq!(s.live, 2, "only the partial head and tail lines take slots");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(100, (1 << 20) + 7)]);
        assert_eq!(s.covered_bytes(), (1 << 20) + 7 - 100);
        assert!(s.contains(4096, 8192));
        assert!(s.overlaps(0, 101));
        assert!(!s.overlaps(0, 100));
        // Small accesses inside and beside the extent agree with it.
        s.insert(4096, 4104);
        s.insert(96, 100);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(96, (1 << 20) + 7)]);
        assert_eq!(s.covered_bytes(), (1 << 20) + 7 - 96);
        assert_eq!(
            s.subtract_from(0, 1 << 21),
            vec![(0, 96), ((1 << 20) + 7, 1 << 21)]
        );
        // A second large range continues the run through the shared
        // partial line; an overlapping one coalesces the extents.
        s.insert((1 << 20) + 7, 1 << 21);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(96, 1 << 21)]);
        assert_eq!(s.extents.len(), 2);
        s.insert(1 << 19, 1 << 21);
        assert_eq!(s.extents, vec![(2, 1 << 15)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(96, 1 << 21)]);
    }

    #[test]
    fn equality_ignores_how_the_bytes_got_there() {
        let mut a = RangeSet::new();
        a.insert(0, 4096);
        let mut b = RangeSet::new();
        for i in (0..512u64).rev() {
            b.insert(i * 8, i * 8 + 8);
        }
        assert_eq!(a, b);
        b.insert(5000, 5001);
        assert_ne!(a, b);
    }
}
