//! Runtime error types.

use std::error::Error;
use std::fmt;

use clobber_pmem::PmemError;

use crate::args::ArgError;

/// Errors returned by transaction execution and recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum TxError {
    /// An underlying persistent memory operation failed.
    Pmem(PmemError),
    /// Argument decoding or access failed.
    Arg(ArgError),
    /// `run` was called with a txfunc name that was never registered.
    Unregistered(String),
    /// The transaction body asked to abort before performing any persistent
    /// write; its reservations were cancelled and no state changed.
    Aborted(String),
    /// The transaction body asked to abort *after* writing persistent
    /// state under a re-execution backend, which cannot roll back
    /// (paper §3.1: "once started, a transaction never rolls back").
    /// The rollback-capable backends (undo/redo/atlas) never return this.
    AbortedAfterWrite(String),
    /// `vlog_preserve` was called after the first persistent write,
    /// violating the programming model (preserves must happen at
    /// transaction begin, §4.2).
    PreserveAfterWrite,
    /// A fixed v_log buffer was too small.
    VlogCapacity {
        /// Which buffer overflowed.
        what: &'static str,
        /// Bytes needed.
        needed: u64,
        /// Buffer capacity.
        capacity: u64,
    },
    /// A v_log record failed validation during recovery.
    CorruptVlog(String),
    /// Recovery re-execution requested a preserved blob the crashed run
    /// never recorded. Handled internally by abandoning the transaction
    /// (no writes can have happened before an unrecorded preserve).
    MissingPreserve {
        /// Index of the missing blob.
        index: usize,
    },
}

impl TxError {
    /// `true` for faults that may succeed if the operation is retried
    /// (currently only [`PmemError::TransientMediaFault`]). Recovery's
    /// bounded-retry loop keys off this.
    pub fn is_transient(&self) -> bool {
        matches!(self, TxError::Pmem(PmemError::TransientMediaFault { .. }))
    }
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::Pmem(e) => write!(f, "persistent memory error: {e}"),
            TxError::Arg(e) => write!(f, "argument error: {e}"),
            TxError::Unregistered(name) => {
                write!(f, "txfunc `{name}` is not registered")
            }
            TxError::Aborted(why) => write!(f, "transaction aborted: {why}"),
            TxError::AbortedAfterWrite(why) => write!(
                f,
                "transaction aborted after writing under a re-execution backend: {why}"
            ),
            TxError::PreserveAfterWrite => write!(
                f,
                "vlog_preserve called after a persistent write; preserves must happen at transaction begin"
            ),
            TxError::VlogCapacity {
                what,
                needed,
                capacity,
            } => write!(f, "v_log {what} of {needed} bytes exceeds capacity {capacity}"),
            TxError::CorruptVlog(why) => write!(f, "corrupt v_log record: {why}"),
            TxError::MissingPreserve { index } => {
                write!(f, "recovery requested unrecorded preserve #{index}")
            }
        }
    }
}

impl Error for TxError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TxError::Pmem(e) => Some(e),
            TxError::Arg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PmemError> for TxError {
    fn from(e: PmemError) -> Self {
        TxError::Pmem(e)
    }
}

impl From<ArgError> for TxError {
    fn from(e: ArgError) -> Self {
        TxError::Arg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_cause() {
        let e = TxError::Unregistered("foo".into());
        assert!(format!("{e}").contains("foo"));
        let e = TxError::VlogCapacity {
            what: "arguments",
            needed: 10,
            capacity: 5,
        };
        assert!(format!("{e}").contains("arguments"));
    }

    #[test]
    fn pmem_errors_convert_and_chain() {
        let e: TxError = PmemError::OutOfMemory { requested: 4 }.into();
        assert!(matches!(e, TxError::Pmem(_)));
        assert!(e.source().is_some());
    }

    #[test]
    fn arg_errors_convert() {
        let e: TxError = ArgError::Malformed.into();
        assert!(matches!(e, TxError::Arg(_)));
    }
}
