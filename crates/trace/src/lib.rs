//! Deterministic persist-event tracing for the Clobber-NVM reproduction.
//!
//! The paper's evaluation attributes performance to *counts* of fences,
//! flushes, and logged bytes; this crate records the *order*: a typed event
//! stream stamped with the pool-wide persist-event sequence that the pmem
//! substrate's single fault mutex already defines. Because every armed (or
//! traced) store/flush/fence acquires that mutex before taking the pool's
//! engine lock, the recorded stream is the pool-wide event order, and a
//! fixed single-threaded run records it bit-identically every time.
//!
//! This crate is deliberately foundation-only: it knows nothing about pools
//! or transactions. `clobber-pmem` depends on it and calls
//! [`Tracer::record`] from under the fault mutex; `clobber-nvm` adds the
//! transaction-level events and a replay driver on top.
//!
//! Pieces:
//!
//! * [`TraceEvent`] / [`EventKind`] — the event model (module [`event`]).
//! * [`Tracer`] / [`ThreadRing`] — capture: lock-free per-thread append-only
//!   rings of packed events, plus interning tables for transaction names
//!   and argument blobs (module [`ring`]).
//! * [`Trace`] — a drained capture: merged events + resolved tables, with
//!   an exporter to Chrome trace-event JSON (Perfetto-loadable) (module
//!   [`export`]).
//! * [`ddmin`] — a generic delta-debugging minimizer that shrinks a failing
//!   schedule to a locally minimal repro (module [`minimize`]).
//! * [`tx_footprints`] / [`ConflictPolicy`] — per-transaction persist
//!   footprints and the conflict relation the schedule explorer's
//!   DPOR-style pruning keys on (module [`conflict`]).

pub mod conflict;
pub mod event;
pub mod export;
pub mod minimize;
pub mod ring;

pub use conflict::{tx_footprints, ConflictPolicy, Footprint, TxFootprint};
pub use event::{EventKind, TraceEvent};
pub use export::{Trace, TraceDivergence};
pub use minimize::ddmin;
pub use ring::{ThreadRing, Tracer};

/// Step codes carried in the `a` field of [`EventKind::RecoveryStep`]
/// events. Kept here (rather than in the runtime crate) so trace consumers
/// can decode recovery traces without depending on the runtime.
pub mod recovery_steps {
    /// Recovery began examining a slot (`b` = slot index).
    pub const SCAN_SLOT: u64 = 0;
    /// Clobbered inputs restored from the clobber_log (`b` = entries).
    pub const RESTORE: u64 = 1;
    /// An interrupted transaction is being re-executed (`name` = txfunc).
    pub const REEXECUTE: u64 = 2;
    /// An uncommitted transaction was rolled back (undo/Atlas/redo).
    pub const ROLLBACK: u64 = 3;
    /// A committed redo log was replayed to completion.
    pub const REDO_APPLY: u64 = 4;
    /// An interrupted transaction was abandoned: its v_log holds no whole
    /// begin record under the status word (the begin never reached an
    /// ordering point), or its replay asked for a preserve the crashed run
    /// never recorded. Either way no store of it reached media. Codes 6
    /// and 7 are retired.
    pub const ABANDON: u64 = 5;
    /// Best-effort recovery quarantined a slot (`b` = slot index).
    pub const QUARANTINE: u64 = 8;

    /// Human-readable label for a step code.
    pub fn label(code: u64) -> &'static str {
        match code {
            SCAN_SLOT => "scan_slot",
            RESTORE => "restore",
            REEXECUTE => "reexecute",
            ROLLBACK => "rollback",
            REDO_APPLY => "redo_apply",
            ABANDON => "abandon",
            QUARANTINE => "quarantine",
            _ => "unknown",
        }
    }
}
