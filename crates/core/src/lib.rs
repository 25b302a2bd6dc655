//! # Clobber-NVM: log less, re-execute more
//!
//! A Rust reproduction of the failure-atomicity runtime from *Clobber-NVM:
//! Log Less, Re-execute More* (Xu, Izraelevitz, Swanson — ASPLOS 2021).
//!
//! Persistent-memory transactions must survive power failures, but volatile
//! CPU caches drop un-flushed writes, so classical systems log before every
//! store. Clobber-NVM's observation: to recover a *deterministic*
//! transaction by **re-execution**, only its **clobbered inputs** — inputs
//! overwritten during the transaction — plus its volatile inputs need to be
//! logged. Everything else is regenerated when the transaction re-runs.
//!
//! This crate provides:
//!
//! * [`Runtime`] — registers *txfuncs* (named, deterministic transaction
//!   functions), runs them failure-atomically, and [recovers][Runtime::recover]
//!   interrupted ones after a crash by restoring their logged inputs and
//!   re-executing them;
//! * [`Tx`] — the transaction context with tracked reads/writes, `pmalloc`,
//!   and `vlog_preserve`, playing the role of the paper's compiler-inserted
//!   callbacks;
//! * [`Backend`] — the clobber strategy plus faithful re-implementations of
//!   the paper's comparison systems (PMDK-style undo, Mnemosyne-style redo,
//!   Atlas-style undo + dependency tracking, and a no-log baseline);
//! * [`ido`] — a shadow observer modeling iDO logging's traffic (Fig. 8);
//! * [`Explorer`] — a bounded model checker that enumerates mutated
//!   interleavings of a recorded [`Schedule`] with DPOR-style pruning and
//!   plants crash trips at every explored persist prefix;
//! * [`LockManager`] — per-node FIFO reader-writer locks with atomic
//!   whole-set acquisition (the paper's conservative 2PL, §2.2), letting
//!   disjoint transactions run on real threads in parallel.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use clobber_pmem::{PmemPool, PoolOptions};
//! use clobber_nvm::{ArgList, Runtime, RuntimeOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 22))?);
//! let rt = Runtime::create(pool.clone(), RuntimeOptions::default())?;
//!
//! // A persistent counter: read-modify-write clobbers its own input,
//! // so exactly that 8-byte input is clobber-logged.
//! let counter = pool.alloc(8)?;
//! pool.persist(counter, 8)?;
//! rt.register("increment", move |tx, args| {
//!     let cell = clobber_pmem::PAddr::new(args.u64(0)?);
//!     let v = tx.read_u64(cell)?;
//!     tx.write_u64(cell, v + 1)?;
//!     Ok(None)
//! });
//!
//! let args = ArgList::new().with_u64(counter.offset());
//! rt.run("increment", &args)?;
//! assert_eq!(pool.read_u64(counter)?, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod args;
pub mod backend;
pub mod battery;
pub mod error;
pub mod explore;
pub mod group_commit;
pub mod ido;
pub mod lock;
pub mod recovery;
pub mod replay;
pub mod runtime;
pub mod tx;
pub mod vlog;

pub use args::{ArgList, ArgValue};
pub use backend::{Backend, ClobberCfg};
pub use battery::{CrashBattery, Nested, Recovered, SweepSummary, Violation};
pub use error::TxError;
pub use explore::{
    reopen_media, BuildFn, CheckFn, ExploreError, ExploreFailure, ExploreOptions, ExploreReport,
    ExploreSession, Explorer, ReopenFn,
};
pub use group_commit::GroupCommit;
pub use lock::{Grant, GrantTable, LockGuard, LockId, LockManager, LockMode, LockRequest};
pub use recovery::{
    RecoveryOptions, RecoveryPolicy, RecoveryReport, SlotQuarantine, SlotQuarantineKind,
};
pub use replay::{
    minimize_schedule, ReplayReport, Schedule, ScheduleError, ScheduleOp, ScheduleParseError,
};
pub use runtime::{IdoAggregate, Runtime, RuntimeOptions};
pub use tx::{Tx, TxResult, WritePolicy};
pub use vlog::{SlotLogs, VlogSlot, VLOG_CAP};
