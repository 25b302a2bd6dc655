//! Logging-strategy backends.
//!
//! The paper compares clobber logging against the logging disciplines of
//! PMDK (undo), Mnemosyne (redo) and Atlas (undo + FASE dependency
//! tracking), plus a non-failure-atomic no-log baseline (§5.1, §5.3). All of
//! them are implemented as [`Backend`]s of the same runtime so that data
//! structures and applications are written once and measured under every
//! strategy — the same methodology the paper uses with its common PMDK
//! substrate.

/// Configuration of the clobber-logging backend, used to reproduce the
/// paper's Fig. 7 breakdown (v_log only / clobber_log only / full) and the
/// Fig. 13 conservative-vs-refined ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClobberCfg {
    /// Record the v_log (function name, arguments, preserved volatile data)
    /// at transaction begin. Without it the system is not failure-atomic.
    pub vlog: bool,
    /// Undo-log clobbered inputs before clobber writes. Without it the
    /// system is not failure-atomic.
    pub clobber_log: bool,
    /// Apply the dependency-analysis refinement (paper §4.4): log a store
    /// only for byte ranges that are *true inputs* (read before first
    /// write) and not already logged. When `false`, emulate the
    /// conservative, un-refined analysis: every store overlapping any
    /// previously-read range is logged, every time — re-introducing the
    /// *unexposed* and *shadowed* false clobber candidates.
    pub refined: bool,
}

impl Default for ClobberCfg {
    fn default() -> Self {
        ClobberCfg {
            vlog: true,
            clobber_log: true,
            refined: true,
        }
    }
}

/// The logging strategy a [`Runtime`](crate::Runtime) applies to its
/// transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// No logging at all. Not failure-atomic; the paper's performance
    /// baseline.
    NoLog,
    /// Clobber-NVM (the paper's contribution): undo-log only clobbered
    /// inputs, record volatile inputs in the v_log, recover by
    /// re-execution.
    Clobber(ClobberCfg),
    /// PMDK-style undo logging: snapshot the old value before the first
    /// store to each byte range; recovery rolls uncommitted transactions
    /// back. Allocations are redo-logged via reserve/publish, as in PMDK.
    Undo,
    /// Mnemosyne-style redo logging: stores are buffered in a volatile
    /// write set (reads interpose on it), persisted to the redo log with a
    /// single fence at commit, then applied in place. Recovery replays
    /// committed logs and discards uncommitted ones.
    Redo,
    /// Atlas-style undo logging: PMDK-style undo plus per-FASE dependency
    /// tracking. Atlas infers failure-atomic sections from lock operations
    /// and must be able to roll back even *completed* FASEs, so it persists
    /// a lock-acquisition record at begin and a dependency record at
    /// commit, and keeps logs for its (helper-thread) pruner. That
    /// bookkeeping — one extra fence at begin, one extra log entry (in the
    /// v_log slot) + fence at commit — is the modeled cost the paper
    /// attributes Atlas's slowdown to (§5.1: "this dependency tracking
    /// incurs significant runtime cost").
    Atlas,
}

impl Backend {
    /// Full Clobber-NVM (v_log + refined clobber_log).
    pub fn clobber() -> Backend {
        Backend::Clobber(ClobberCfg::default())
    }

    /// Clobber-NVM without the dependency-analysis refinement (Fig. 13's
    /// unoptimized variant).
    pub fn clobber_conservative() -> Backend {
        Backend::Clobber(ClobberCfg {
            refined: false,
            ..ClobberCfg::default()
        })
    }

    /// v_log only (Fig. 7's `Clobber-NVM-vlog`; not failure-atomic).
    pub fn clobber_vlog_only() -> Backend {
        Backend::Clobber(ClobberCfg {
            clobber_log: false,
            ..ClobberCfg::default()
        })
    }

    /// clobber_log only (Fig. 7's `Clobber-NVM-clobberlog`; not
    /// failure-atomic).
    pub fn clobber_log_only() -> Backend {
        Backend::Clobber(ClobberCfg {
            vlog: false,
            ..ClobberCfg::default()
        })
    }

    /// Returns `true` if the backend guarantees failure atomicity.
    pub fn is_failure_atomic(&self) -> bool {
        match self {
            Backend::NoLog => false,
            Backend::Clobber(cfg) => cfg.vlog && cfg.clobber_log,
            Backend::Undo | Backend::Redo | Backend::Atlas => true,
        }
    }

    /// Short stable name for CSV output, matching the paper's labels.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::NoLog => "nolog",
            Backend::Clobber(cfg) => match (cfg.vlog, cfg.clobber_log, cfg.refined) {
                (true, true, true) => "clobber",
                (true, true, false) => "clobber-conservative",
                (true, false, _) => "clobber-vlog",
                (false, true, _) => "clobber-clobberlog",
                (false, false, _) => "clobber-disabled",
            },
            Backend::Undo => "pmdk",
            Backend::Redo => "mnemosyne",
            Backend::Atlas => "atlas",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_clobber_is_failure_atomic() {
        assert!(Backend::clobber().is_failure_atomic());
        assert!(Backend::clobber_conservative().is_failure_atomic());
    }

    #[test]
    fn partial_clobber_variants_are_not_failure_atomic() {
        assert!(!Backend::clobber_vlog_only().is_failure_atomic());
        assert!(!Backend::clobber_log_only().is_failure_atomic());
        assert!(!Backend::NoLog.is_failure_atomic());
    }

    #[test]
    fn baselines_are_failure_atomic() {
        assert!(Backend::Undo.is_failure_atomic());
        assert!(Backend::Redo.is_failure_atomic());
        assert!(Backend::Atlas.is_failure_atomic());
    }

    #[test]
    fn labels_are_unique() {
        let labels = [
            Backend::NoLog.label(),
            Backend::clobber().label(),
            Backend::clobber_conservative().label(),
            Backend::clobber_vlog_only().label(),
            Backend::clobber_log_only().label(),
            Backend::Undo.label(),
            Backend::Redo.label(),
            Backend::Atlas.label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
