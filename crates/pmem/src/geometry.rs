//! Pool format geometry: the header layout.

/// Pool header layout (offsets within the pool).
///
/// The header is also the allocator's metadata: its frontier and free-list
/// head hints. Bytes 32..48 (which held an arena count and stride) and
/// 64..128 (which held the allocator redo record) are reserved. The first
/// block's header ends at the first line past `HEAP_BASE` that has room for
/// it, where its payload starts.
pub(crate) mod layout {
    /// `u64` magic number.
    pub const MAGIC: u64 = 0;
    /// `u64` pool capacity in bytes.
    pub const CAPACITY: u64 = 8;
    /// `u64` root object address.
    pub const ROOT: u64 = 16;
    /// `u64` allocation frontier hint.
    pub const FRONTIER: u64 = 24;
    /// Free-list head hints: one `u64` per size class, then the huge-list
    /// head.
    pub const FREE_HEADS: u64 = 128;
    /// First byte available to the heap, which runs to the pool's end.
    pub const HEAP_BASE: u64 = 256;
}
