//! Pool format geometry: the header layout and the arena partition of the
//! heap, as persisted in (and read back from) the pool header.

use crate::addr::CACHE_LINE;
use crate::pool::{get_u64, PmemError};

/// Pool header layout (offsets within the pool).
///
/// The same relative layout serves every arena: arena 0's metadata *is* the
/// pool header (`meta_base == 0`), and each side arena repeats the
/// `FRONTIER`/`FREE_HEADS` words at its own `meta_base`, with a
/// `HEAP_BASE`-sized metadata prefix before its heap. Bytes 64..128 are
/// reserved: they held the allocator redo record, and `HEAP_BASE` — hence
/// every block address — stays where it was.
pub(crate) mod layout {
    /// `u64` magic number.
    pub const MAGIC: u64 = 0;
    /// `u64` pool capacity in bytes.
    pub const CAPACITY: u64 = 8;
    /// `u64` root object address.
    pub const ROOT: u64 = 16;
    /// `u64` allocation frontier hint (relative to the arena's
    /// `meta_base`).
    pub const FRONTIER: u64 = 24;
    /// `u64` arena count.
    pub const ARENAS: u64 = 32;
    /// `u64` bytes spanned by each side arena (0 if none).
    pub const ARENA_BYTES: u64 = 40;
    /// Free-list head hints: one `u64` per size class, then the huge-list
    /// head (relative to the arena's `meta_base`).
    pub const FREE_HEADS: u64 = 128;
    /// First byte available to the heap (relative to the arena's
    /// `meta_base`) — i.e. the per-arena metadata size.
    pub const HEAP_BASE: u64 = 256;
}

/// Byte geometry of one allocator arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArenaLayout {
    /// Start of this arena's metadata block (0 for arena 0 — the pool
    /// header doubles as its metadata).
    pub(crate) meta_base: u64,
    /// First heap byte (`meta_base + layout::HEAP_BASE`).
    pub(crate) heap_lo: u64,
    /// One past the last heap byte.
    pub(crate) heap_hi: u64,
}

impl ArenaLayout {
    pub(crate) fn frontier_off(&self) -> u64 {
        self.meta_base + layout::FRONTIER
    }
    pub(crate) fn head_off(&self, class: u32) -> u64 {
        self.meta_base + layout::FREE_HEADS + class as u64 * 8
    }
    /// The whole byte span owned by this arena (metadata + heap): the lock
    /// and fence scope of allocator operations on it.
    pub(crate) fn span(&self) -> (u64, u64) {
        (self.meta_base, self.heap_hi)
    }
}

/// The pool's arena partition, derived from (and persisted in) the header.
///
/// Arena 0 keeps the single-arena shape — metadata at offset 0, heap from
/// `HEAP_BASE` up to `main_hi` — so huge allocations keep the largest
/// region. Side arenas are fixed-size spans carved from the top of the
/// pool. Geometry is a property of the pool *format*, never of the shard
/// count, so every pool computes identical block addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HeapGeometry {
    arenas: Vec<ArenaLayout>,
    /// End of arena 0's heap (== capacity when there are no side arenas).
    main_hi: u64,
    /// Bytes per side arena (0 when there are none).
    pub(crate) side_bytes: u64,
}

/// Smallest heap arena 0 must keep when carving side arenas.
const MIN_MAIN_HEAP: u64 = 64 * 1024;
/// Minimum span of one side arena (metadata + heap).
const SIDE_ARENA_MIN: u64 = 64 * 1024;

impl HeapGeometry {
    /// Single-arena geometry (tiny pools, or one arena requested).
    pub(crate) fn single(capacity: u64) -> HeapGeometry {
        HeapGeometry {
            arenas: vec![ArenaLayout {
                meta_base: 0,
                heap_lo: layout::HEAP_BASE,
                heap_hi: capacity,
            }],
            main_hi: capacity,
            side_bytes: 0,
        }
    }

    fn with_sides(capacity: u64, sides: u64, side_bytes: u64) -> HeapGeometry {
        let main_hi = capacity - sides * side_bytes;
        let mut arenas = Vec::with_capacity(1 + sides as usize);
        arenas.push(ArenaLayout {
            meta_base: 0,
            heap_lo: layout::HEAP_BASE,
            heap_hi: main_hi,
        });
        for j in 0..sides {
            let meta_base = main_hi + j * side_bytes;
            arenas.push(ArenaLayout {
                meta_base,
                heap_lo: meta_base + layout::HEAP_BASE,
                heap_hi: meta_base + side_bytes,
            });
        }
        HeapGeometry {
            arenas,
            main_hi,
            side_bytes,
        }
    }

    /// Plans the arena partition for a fresh pool: up to `requested - 1`
    /// side arenas of `max(64 KiB, capacity/16)` bytes each, carved from
    /// the top, as long as arena 0 keeps a useful heap. Pools too small (or
    /// with a capacity that is not cache-line aligned, which would let an
    /// arena boundary split a line) stay single-arena.
    pub(crate) fn plan(capacity: u64, requested: u32) -> HeapGeometry {
        let wanted = requested.clamp(1, 64) as u64 - 1;
        if wanted == 0 || !capacity.is_multiple_of(CACHE_LINE) {
            return HeapGeometry::single(capacity);
        }
        let side_bytes = (capacity / 16).max(SIDE_ARENA_MIN);
        let side_bytes = side_bytes - side_bytes % CACHE_LINE;
        let spare = capacity.saturating_sub(layout::HEAP_BASE + MIN_MAIN_HEAP);
        let sides = wanted.min(spare / side_bytes);
        if sides == 0 {
            return HeapGeometry::single(capacity);
        }
        HeapGeometry::with_sides(capacity, sides, side_bytes)
    }

    /// Reads (and validates) the geometry persisted in a pool header.
    pub(crate) fn read(media: &[u8]) -> Result<HeapGeometry, PmemError> {
        let capacity = media.len() as u64;
        let count = get_u64(media, layout::ARENAS);
        let side_bytes = get_u64(media, layout::ARENA_BYTES);
        if count == 0 || count > 4096 {
            return Err(PmemError::CorruptPool(format!(
                "header arena count {count} invalid"
            )));
        }
        if count == 1 {
            return Ok(HeapGeometry::single(capacity));
        }
        let sides = count - 1;
        if side_bytes < layout::HEAP_BASE + CACHE_LINE
            || !side_bytes.is_multiple_of(CACHE_LINE)
            || sides
                .checked_mul(side_bytes)
                .is_none_or(|total| total + layout::HEAP_BASE + CACHE_LINE > capacity)
        {
            return Err(PmemError::CorruptPool(format!(
                "header arena span {side_bytes} invalid for {count} arenas"
            )));
        }
        Ok(HeapGeometry::with_sides(capacity, sides, side_bytes))
    }

    pub(crate) fn arenas(&self) -> &[ArenaLayout] {
        &self.arenas
    }

    /// Index of the arena owning byte `offset`.
    pub(crate) fn arena_of(&self, offset: u64) -> usize {
        if offset < self.main_hi || self.side_bytes == 0 {
            return 0;
        }
        (1 + ((offset - self.main_hi) / self.side_bytes) as usize).min(self.arenas.len() - 1)
    }
}
