//! Trace-side dependence analysis: per-transaction persist footprints and
//! the conflict relation the schedule explorer's DPOR-style pruning keys on.
//!
//! A recorded [`Trace`] already carries the address range of every persist
//! event (store/flush offsets and lengths, ulog append targets, allocator
//! payload spans). Segmenting the event stream at `TxBegin` boundaries
//! yields one [`TxFootprint`] per dispatched transaction: the union of
//! address ranges its execution persisted. Two transactions *conflict* when
//! those ranges overlap — swapping two adjacent non-conflicting
//! transactions in a schedule cannot change the final durable state, which
//! is exactly the commutativity fact sleep-set pruning exploits.
//!
//! Soundness caveats, encoded in [`ConflictPolicy`]:
//!
//! * **Allocator coupling.** Two transactions that both call into the
//!   persistent allocator race on shared heap state: reordering them can
//!   swap the blocks they receive, which changes durable bytes even though
//!   their *own* store ranges were disjoint. By default any two
//!   allocator-using transactions conflict ([`ConflictPolicy::alloc_conflicts`]).
//! * **Pure reads are invisible.** The trace records persist events, not
//!   loads, so a read-only dependence (T2 branches on a cell T1 wrote but
//!   never writes it back) is not captured. Under Clobber-NVM's model the
//!   inputs that matter for recovery are *clobbered* (read-then-overwritten)
//!   and those do appear as stores; workloads with pure-read control
//!   dependences should disable pruning ([`ConflictPolicy::all_conflict`]).

use crate::event::EventKind;
use crate::export::Trace;

/// A set of half-open `[start, end)` byte ranges, sorted and coalesced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Coalesced ranges in ascending order.
    pub ranges: Vec<(u64, u64)>,
    /// Whether the transaction called into the persistent allocator
    /// (alloc/free/reserve/publish/cancel).
    pub uses_allocator: bool,
}

impl Footprint {
    /// Adds `[start, start + len)`; zero-length ranges are ignored.
    pub fn add(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.ranges.push((start, start.saturating_add(len)));
    }

    /// Sorts and coalesces the accumulated ranges.
    pub fn normalize(&mut self) {
        self.ranges.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(self.ranges.len());
        for &(s, e) in &self.ranges {
            match out.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => out.push((s, e)),
            }
        }
        self.ranges = out;
    }

    /// `true` if no ranges were recorded (e.g. a read-only transaction).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total bytes covered (after [`normalize`](Self::normalize)).
    pub fn bytes(&self) -> u64 {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// `true` if any range of `self` overlaps any range of `other`. Both
    /// must be normalized (sorted, coalesced).
    pub fn overlaps(&self, other: &Footprint) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (a_s, a_e) = self.ranges[i];
            let (b_s, b_e) = other.ranges[j];
            if a_s < b_e && b_s < a_e {
                return true;
            }
            if a_e <= b_e {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }
}

/// What counts as a conflict between two transactions' footprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictPolicy {
    /// Any two allocator-using transactions conflict (sound default: they
    /// race on shared heap state, so reordering changes block placement).
    pub alloc_conflicts: bool,
    /// Every pair conflicts — disables commutativity pruning entirely.
    /// The escape hatch for workloads with pure-read control dependences.
    pub all_conflict: bool,
}

impl Default for ConflictPolicy {
    fn default() -> Self {
        ConflictPolicy {
            alloc_conflicts: true,
            all_conflict: false,
        }
    }
}

impl ConflictPolicy {
    /// The sound default policy.
    pub fn sound() -> Self {
        Self::default()
    }

    /// A policy under which every pair conflicts (no pruning).
    pub fn no_pruning() -> Self {
        ConflictPolicy {
            alloc_conflicts: true,
            all_conflict: true,
        }
    }

    /// Decides whether two footprints conflict under this policy.
    pub fn conflicts(&self, a: &Footprint, b: &Footprint) -> bool {
        if self.all_conflict {
            return true;
        }
        if self.alloc_conflicts && a.uses_allocator && b.uses_allocator {
            return true;
        }
        a.overlaps(b)
    }
}

/// One dispatched transaction's persist footprint, extracted from a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxFootprint {
    /// Index among the trace's `TxBegin` events (dispatch order).
    pub op_index: usize,
    /// Logical-thread slot the transaction ran on (`TxBegin.a`).
    pub slot: u64,
    /// Interned name id of the txfunc (resolve via [`Trace::name`]).
    pub name: u32,
    /// Union of persisted address ranges.
    pub footprint: Footprint,
}

/// Extracts one [`TxFootprint`] per `TxBegin` event, in dispatch order.
///
/// Events preceding the first `TxBegin` (pool setup, slot creation) belong
/// to no transaction and are ignored. Range sources per event kind:
/// `Store` covers `[a, a + b)`; `UlogAppend` covers its target
/// `[a, a + b)`; `Alloc`/`Reserve` cover the served payload `[a, a + b)`
/// and mark the allocator; `Free`/`Cancel` mark the allocator, as does
/// `Publish` with a non-zero block count (commit paths emit an empty
/// publish even for allocation-free transactions). A `Flush` adds nothing:
/// its bytes counted at their store, and the hull of two stores sharing a
/// line also spans bytes neither wrote.
pub fn tx_footprints(trace: &Trace) -> Vec<TxFootprint> {
    let mut out: Vec<TxFootprint> = Vec::new();
    for e in &trace.events {
        match e.kind {
            EventKind::TxBegin => out.push(TxFootprint {
                op_index: out.len(),
                slot: e.a,
                name: e.name,
                footprint: Footprint::default(),
            }),
            EventKind::Store | EventKind::UlogAppend => {
                if let Some(cur) = out.last_mut() {
                    cur.footprint.add(e.a, e.b);
                }
            }
            EventKind::Alloc | EventKind::Reserve => {
                if let Some(cur) = out.last_mut() {
                    cur.footprint.add(e.a, e.b);
                    cur.footprint.uses_allocator = true;
                }
            }
            EventKind::Publish => {
                // Commit paths publish unconditionally; an empty publish
                // (`b` = 0 blocks) moves no allocator state and must not
                // mark allocation-free transactions as allocator users.
                if e.b > 0 {
                    if let Some(cur) = out.last_mut() {
                        cur.footprint.uses_allocator = true;
                    }
                }
            }
            EventKind::Free | EventKind::Cancel => {
                if let Some(cur) = out.last_mut() {
                    cur.footprint.uses_allocator = true;
                }
            }
            EventKind::Flush
            | EventKind::Fence
            | EventKind::TxCommit
            | EventKind::TxAbort
            | EventKind::VlogAppend
            | EventKind::FaultTrip
            | EventKind::RecoveryStep
            | EventKind::GroupCommitEpoch
            // Lock events are scheduling evidence, not data accesses: the
            // data conflict they guard already shows up as Store/UlogAppend
            // footprints, so counting them would only widen footprints.
            | EventKind::LockAcquire
            | EventKind::LockRelease
            | EventKind::LockConflict
            // Batch framing is service-level annotation: the batch's data
            // accesses show up as the coalesced transaction's own events.
            | EventKind::NetBatchOpen
            | EventKind::NetBatchClose => {}
        }
    }
    for f in &mut out {
        f.footprint.normalize();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn ev(kind: EventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            seq: 0,
            thread: 0,
            kind,
            name: 0,
            a,
            b,
        }
    }

    #[test]
    fn normalize_coalesces_and_sorts() {
        let mut f = Footprint::default();
        f.add(100, 8);
        f.add(0, 4);
        f.add(104, 16); // overlaps [100,108)
        f.add(4, 4); // adjacent to [0,4)
        f.add(50, 0); // ignored
        f.normalize();
        assert_eq!(f.ranges, vec![(0, 8), (100, 120)]);
        assert_eq!(f.bytes(), 28);
    }

    #[test]
    fn overlap_is_exact_on_boundaries() {
        let mut a = Footprint::default();
        a.add(0, 8);
        a.add(64, 8);
        a.normalize();
        let mut b = Footprint::default();
        b.add(8, 56); // touches [0,8) only at the boundary — no overlap
        b.normalize();
        assert!(!a.overlaps(&b));
        let mut c = Footprint::default();
        c.add(71, 1);
        c.normalize();
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&a));
        assert!(!Footprint::default().overlaps(&a));
    }

    #[test]
    fn footprints_segment_at_tx_begin() {
        let trace = Trace {
            events: vec![
                ev(EventKind::Store, 9999, 8), // pre-tx setup: ignored
                {
                    let mut e = ev(EventKind::TxBegin, 0, 1);
                    e.name = 1;
                    e
                },
                ev(EventKind::Store, 100, 8),
                ev(EventKind::UlogAppend, 100, 8),
                ev(EventKind::Store, 140, 8),
                ev(EventKind::Flush, 100, 48), // hull of both: adds nothing
                ev(EventKind::Fence, 0, 0),
                ev(EventKind::TxBegin, 1, 2),
                ev(EventKind::Store, 200, 16),
                ev(EventKind::Alloc, 4096, 32),
            ],
            names: vec!["t".into()],
            blobs: vec![vec![], vec![]],
            dropped: 0,
        };
        let fps = tx_footprints(&trace);
        assert_eq!(fps.len(), 2);
        assert_eq!(fps[0].slot, 0);
        assert_eq!(fps[0].footprint.ranges, vec![(100, 108), (140, 148)]);
        assert!(!fps[0].footprint.uses_allocator);
        assert_eq!(fps[1].slot, 1);
        assert_eq!(fps[1].footprint.ranges, vec![(200, 216), (4096, 4128)]);
        assert!(fps[1].footprint.uses_allocator);
    }

    #[test]
    fn empty_publish_does_not_mark_allocator() {
        let trace = Trace {
            events: vec![
                ev(EventKind::TxBegin, 0, 1),
                ev(EventKind::Store, 100, 8),
                ev(EventKind::Publish, 0, 0), // allocation-free commit
                ev(EventKind::TxBegin, 1, 2),
                ev(EventKind::Store, 200, 8),
                ev(EventKind::Publish, 0, 2), // two blocks published
            ],
            names: vec![],
            blobs: vec![],
            dropped: 0,
        };
        let fps = tx_footprints(&trace);
        assert!(!fps[0].footprint.uses_allocator);
        assert!(fps[1].footprint.uses_allocator);
    }

    #[test]
    fn policy_rules() {
        let mut a = Footprint::default();
        a.add(0, 8);
        a.normalize();
        let mut b = Footprint::default();
        b.add(100, 8);
        b.normalize();
        let policy = ConflictPolicy::sound();
        assert!(!policy.conflicts(&a, &b), "disjoint ranges commute");

        let mut a_alloc = a.clone();
        a_alloc.uses_allocator = true;
        let mut b_alloc = b.clone();
        b_alloc.uses_allocator = true;
        assert!(
            policy.conflicts(&a_alloc, &b_alloc),
            "two allocator users conflict"
        );
        assert!(
            !policy.conflicts(&a_alloc, &b),
            "one allocator user alone does not"
        );

        assert!(ConflictPolicy::no_pruning().conflicts(&a, &b));
    }

    #[test]
    fn empty_footprint_commutes_with_everything() {
        let fps = tx_footprints(&Trace {
            events: vec![ev(EventKind::TxBegin, 0, 1), ev(EventKind::TxBegin, 1, 2)],
            names: vec![],
            blobs: vec![],
            dropped: 0,
        });
        assert_eq!(fps.len(), 2);
        assert!(fps[0].footprint.is_empty());
        let policy = ConflictPolicy::sound();
        assert!(!policy.conflicts(&fps[0].footprint, &fps[1].footprint));
    }
}
