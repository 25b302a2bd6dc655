//! The typed event model.
//!
//! Every event carries the pool-wide persist-event sequence number it was
//! observed at (`seq`), the recording thread's registration index
//! (`thread`), a kind, an optional interned-name id, and two kind-specific
//! payload words. Events pack into exactly four `u64` words so a ring slot
//! is four atomic stores — see [`ThreadRing`](crate::ring::ThreadRing).

/// What happened. The discriminant is the kind byte of an in-memory ring
/// slot and the kind's index in [`EventKind::ALL`].
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A store reached the pool (`a` = offset, `b` = length).
    Store = 0,
    /// A line write-back was issued (`a` = offset, `b` = length).
    Flush = 1,
    /// An ordering fence was issued.
    Fence = 2,
    /// A transaction was dispatched (`name` = txfunc, `a` = slot index,
    /// `b` = argument blob id). Recorded at dispatch, not at the durable
    /// begin record, so read-only transactions appear too — replay drives
    /// the schedule from exactly these events.
    TxBegin = 3,
    /// A transaction committed (`a` = slot id).
    TxCommit = 4,
    /// A transaction aborted (`a` = slot id).
    TxAbort = 5,
    /// An undo/clobber/redo log entry was appended (`a` = target offset,
    /// `b` = payload length).
    UlogAppend = 6,
    /// A v_log record was persisted (`a` = slot base offset, `b` = bytes;
    /// begin records and preserves both count).
    VlogAppend = 7,
    /// An immediate allocation was served (`a` = payload offset, `b` = size).
    Alloc = 8,
    /// A block was freed (`a` = payload offset).
    Free = 9,
    /// A zero-fence transactional reservation was served (`a` = payload
    /// offset, `b` = size).
    Reserve = 10,
    /// Reservations were published at commit (`a` = count).
    Publish = 11,
    /// Reservations were cancelled on abort (`a` = count).
    Cancel = 12,
    /// An armed fault plan tripped (`a` = the tripping persist event).
    FaultTrip = 13,
    /// Recovery progress (`a` = step code from
    /// [`recovery_steps`](crate::recovery_steps), `b` = step-specific).
    RecoveryStep = 14,
    /// A lock-manager lock was granted (`a` = lock id, `b` = mode:
    /// 0 shared, 1 exclusive).
    LockAcquire = 15,
    /// A lock-manager lock was released (`a` = lock id, `b` = mode).
    LockRelease = 16,
    /// A blocking acquire queued behind `lock` (`a` = lock id, `b` =
    /// mode).
    LockConflict = 17,
    /// A KV service batch opened: the batcher is about to run a coalesced
    /// set of client requests as one locked transaction (`a` = batch
    /// sequence number, `b` = requests in the batch). Emitted under the
    /// fault mutex like every app event, so mid-batch crashes replay
    /// deterministically.
    NetBatchOpen = 18,
    /// A KV service batch closed after its transaction committed
    /// (`a` = batch sequence number, `b` = requests in the batch).
    NetBatchClose = 19,
}

impl EventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [EventKind; 20] = [
        EventKind::Store,
        EventKind::Flush,
        EventKind::Fence,
        EventKind::TxBegin,
        EventKind::TxCommit,
        EventKind::TxAbort,
        EventKind::UlogAppend,
        EventKind::VlogAppend,
        EventKind::Alloc,
        EventKind::Free,
        EventKind::Reserve,
        EventKind::Publish,
        EventKind::Cancel,
        EventKind::FaultTrip,
        EventKind::RecoveryStep,
        EventKind::LockAcquire,
        EventKind::LockRelease,
        EventKind::LockConflict,
        EventKind::NetBatchOpen,
        EventKind::NetBatchClose,
    ];

    /// Decodes a discriminant byte.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }

    /// Short label for exporters.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Store => "store",
            EventKind::Flush => "flush",
            EventKind::Fence => "fence",
            EventKind::TxBegin => "tx_begin",
            EventKind::TxCommit => "tx_commit",
            EventKind::TxAbort => "tx_abort",
            EventKind::UlogAppend => "ulog_append",
            EventKind::VlogAppend => "vlog_append",
            EventKind::Alloc => "alloc",
            EventKind::Free => "free",
            EventKind::Reserve => "reserve",
            EventKind::Publish => "publish",
            EventKind::Cancel => "cancel",
            EventKind::FaultTrip => "fault_trip",
            EventKind::RecoveryStep => "recovery_step",
            EventKind::LockAcquire => "lock_acquire",
            EventKind::LockRelease => "lock_release",
            EventKind::LockConflict => "lock_conflict",
            EventKind::NetBatchOpen => "net_batch_open",
            EventKind::NetBatchClose => "net_batch_close",
        }
    }
}

/// One recorded event.
///
/// `seq` is the number of persist events (store/flush/fence) observed
/// *before* this event for non-persist kinds, and the event's own index for
/// persist kinds — i.e. events sort into the pool-wide total order by
/// `(seq, thread, ring position)`, which is exactly how
/// [`Tracer::take`](crate::ring::Tracer::take) merges rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Persist-event sequence stamp (see type docs).
    pub seq: u64,
    /// Recording thread's registration index within its tracer.
    pub thread: u32,
    /// What happened.
    pub kind: EventKind,
    /// Interned-name id (`0` = none; resolve via
    /// [`Trace::name`](crate::export::Trace::name)).
    pub name: u32,
    /// First payload word (kind-specific, see [`EventKind`]).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

impl TraceEvent {
    /// Packs into the ring's four-word representation.
    pub(crate) fn pack(&self) -> [u64; 4] {
        let w1 = (self.kind as u64) | ((self.thread as u64) << 8) | ((self.name as u64) << 32);
        [self.seq, w1, self.a, self.b]
    }

    /// Unpacks a ring slot. Returns `None` for an invalid kind byte (which
    /// would indicate ring corruption, not a caller error).
    pub(crate) fn unpack(w: [u64; 4]) -> Option<TraceEvent> {
        Some(TraceEvent {
            seq: w[0],
            thread: ((w[1] >> 8) & 0xFF_FFFF) as u32,
            kind: EventKind::from_u8((w[1] & 0xFF) as u8)?,
            name: (w[1] >> 32) as u32,
            a: w[2],
            b: w[3],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips() {
        for kind in EventKind::ALL {
            let ev = TraceEvent {
                seq: 0xDEAD_BEEF_0042,
                thread: 7,
                kind,
                name: 12345,
                a: u64::MAX - 3,
                b: 9,
            };
            assert_eq!(TraceEvent::unpack(ev.pack()), Some(ev));
        }
    }

    #[test]
    fn kind_discriminants_are_stable() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*kind as u8 as usize, i);
            assert_eq!(EventKind::from_u8(i as u8), Some(*kind));
        }
        assert_eq!(EventKind::from_u8(EventKind::ALL.len() as u8), None);
    }
}
