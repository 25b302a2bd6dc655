//! iDO logging shadow observer.
//!
//! iDO (Liu et al., MICRO'18) is the prior state-of-the-art
//! recovery-via-resumption system. Its compiler splits each failure-atomic
//! section into *idempotent regions* — maximal code sequences that never
//! overwrite their own inputs — and logs at every region boundary: a
//! snapshot of the program-state registers and the program counter, while
//! flushing the finished region's stores. It also keeps the stack in
//! persistent memory, so live stack variables are persisted too.
//!
//! iDO's implementation is not public; like the paper (§5.4), we *model* its
//! log traffic: the observer watches the transaction's load/store stream,
//! detects the exact points where a store would overwrite a location read
//! earlier in the current region (forcing a region boundary), and charges
//! the boundary costs. This yields per-transaction iDO log bytes and log
//! points to compare against Clobber-NVM's (Fig. 8).

use crate::access::{AccessTable, Kind, ToLog};

/// Bytes of register state iDO snapshots at each boundary: 15 general
/// purpose registers plus the program counter, 8 bytes each.
pub const REGISTER_SNAPSHOT_BYTES: u64 = 16 * 8;

/// Watches one transaction's memory accesses and accumulates the log
/// traffic an iDO instrumentation of the same transaction would generate.
///
/// # Example
///
/// ```
/// use clobber_nvm::ido::IdoObserver;
///
/// let mut obs = IdoObserver::new(64);
/// obs.on_read(100, 108);
/// obs.on_write(200, 208); // does not clobber: same region continues
/// obs.on_write(100, 108); // clobbers a region input: boundary
/// let stats = obs.finish();
/// assert_eq!(stats.log_points, 2, "entry log + one boundary");
/// ```
#[derive(Debug, Clone)]
pub struct IdoObserver {
    /// The current region's inputs (read) and stores (written).
    region: AccessTable,
    /// Reused output buffer of `on_write`'s probe for clobbered inputs.
    clobbered: Vec<(u64, u64)>,
    /// Live stack bytes persisted at each boundary (the transaction's
    /// arguments approximate the live locals).
    stack_live_bytes: u64,
    boundaries: u64,
    flushed_store_bytes: u64,
    region_stores: u32,
}

/// Accumulated iDO log traffic for one transaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdoTxStats {
    /// Number of logging points (FASE entry plus every region boundary).
    pub log_points: u64,
    /// Total bytes persisted at logging points (register snapshots plus
    /// live stack bytes).
    pub log_bytes: u64,
    /// Store bytes that must be flushed at region boundaries before the
    /// next region may begin.
    pub flushed_store_bytes: u64,
    /// Ordering fences: one per logging point.
    pub fences: u64,
}

impl IdoTxStats {
    /// Merges another transaction's stats into an accumulator.
    pub fn accumulate(&mut self, other: &IdoTxStats) {
        self.log_points += other.log_points;
        self.log_bytes += other.log_bytes;
        self.flushed_store_bytes += other.flushed_store_bytes;
        self.fences += other.fences;
    }
}

impl IdoObserver {
    /// Creates an observer; `stack_live_bytes` approximates the live stack
    /// state persisted at each boundary (we use the transaction's argument
    /// bytes, since iDO keeps the stack in NVM).
    pub fn new(stack_live_bytes: u64) -> IdoObserver {
        IdoObserver {
            region: AccessTable::new(),
            clobbered: Vec::new(),
            stack_live_bytes,
            boundaries: 0,
            flushed_store_bytes: 0,
            region_stores: 0,
        }
    }

    /// Records a transaction load of `[start, end)`.
    pub fn on_read(&mut self, start: u64, end: u64) {
        // A location first written within the region is not a region input.
        self.region.load(start, end, true);
    }

    /// Records a transaction store of `[start, end)`. A store that
    /// overwrites a current-region input ends the region: iDO logs the
    /// register snapshot + live stack and flushes the finished region's
    /// stores, then the store starts a new region. Regions are also bounded
    /// at four stores — register and stack overwrites break idempotence
    /// long before memory does, and the paper observes that "almost all
    /// idempotent regions contain fewer than 4 writes" (§6).
    pub fn on_write(&mut self, start: u64, end: u64) {
        self.clobbered.clear();
        self.region
            .store(start, end, ToLog::Read, false, &mut self.clobbered);
        if !self.clobbered.is_empty() || self.region_stores >= 4 {
            self.boundaries += 1;
            self.flushed_store_bytes += self.region.covered_bytes(Kind::Written);
            self.region.clear();
            self.region_stores = 0;
        }
        self.region.insert(Kind::Written, start, end);
        self.region_stores += 1;
    }

    /// Finishes the transaction and returns its iDO log traffic.
    ///
    /// The FASE entry itself is a logging point (initial register + stack
    /// snapshot), so `log_points = boundaries + 1`. The final region's
    /// stores are flushed by the commit, which every system pays, so they
    /// are not charged here.
    pub fn finish(self) -> IdoTxStats {
        let points = self.boundaries + 1;
        IdoTxStats {
            log_points: points,
            log_bytes: points * (REGISTER_SNAPSHOT_BYTES + self.stack_live_bytes),
            flushed_store_bytes: self.flushed_store_bytes,
            fences: points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotent_transaction_has_single_log_point() {
        let mut obs = IdoObserver::new(0);
        obs.on_read(0, 8);
        obs.on_write(100, 108);
        obs.on_write(200, 208);
        let s = obs.finish();
        assert_eq!(s.log_points, 1, "no input overwritten: one region");
        assert_eq!(s.log_bytes, REGISTER_SNAPSHOT_BYTES);
    }

    #[test]
    fn clobbering_write_forces_boundary() {
        let mut obs = IdoObserver::new(0);
        obs.on_read(0, 8);
        obs.on_write(0, 8);
        let s = obs.finish();
        assert_eq!(s.log_points, 2);
        assert_eq!(s.fences, 2);
    }

    #[test]
    fn region_resets_after_boundary() {
        let mut obs = IdoObserver::new(0);
        obs.on_read(0, 8);
        obs.on_write(0, 8); // boundary 1
                            // New region: the same location is only an input if re-read.
        obs.on_write(0, 8); // no read since boundary: no new boundary
        obs.on_read(16, 24);
        obs.on_write(16, 24); // boundary 2
        let s = obs.finish();
        assert_eq!(s.log_points, 3);
    }

    #[test]
    fn read_after_region_write_is_not_an_input() {
        let mut obs = IdoObserver::new(0);
        obs.on_write(0, 8);
        obs.on_read(0, 8); // reads own region's store: not an input
        obs.on_write(0, 8);
        let s = obs.finish();
        assert_eq!(s.log_points, 1, "self-written data never forces a boundary");
    }

    #[test]
    fn boundary_flushes_finished_region_stores() {
        let mut obs = IdoObserver::new(0);
        obs.on_write(100, 132); // 32 store bytes in region 1
        obs.on_read(0, 8);
        obs.on_write(0, 8); // boundary: region 1's 40 bytes flushed
        let s = obs.finish();
        assert_eq!(s.flushed_store_bytes, 32);
    }

    #[test]
    fn stack_bytes_charge_every_log_point() {
        let mut obs = IdoObserver::new(64);
        obs.on_read(0, 8);
        obs.on_write(0, 8);
        let s = obs.finish();
        assert_eq!(s.log_bytes, 2 * (REGISTER_SNAPSHOT_BYTES + 64));
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = IdoTxStats {
            log_points: 1,
            log_bytes: 10,
            flushed_store_bytes: 5,
            fences: 1,
        };
        a.accumulate(&IdoTxStats {
            log_points: 2,
            log_bytes: 20,
            flushed_store_bytes: 7,
            fences: 2,
        });
        assert_eq!(a.log_points, 3);
        assert_eq!(a.log_bytes, 30);
        assert_eq!(a.flushed_store_bytes, 12);
        assert_eq!(a.fences, 3);
    }
}
