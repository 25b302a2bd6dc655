//! Deterministic thread-scaling substrate for the Clobber-NVM reproduction.
//!
//! The paper's evaluation ran on a 2×24-core Optane testbed; this
//! environment has one core, so multi-threaded throughput (Figs. 6 and 10)
//! is reproduced with a discrete-event executor ([`des`]) over simulated
//! reader-writer locks, and a persistence [`cost`] model that converts each
//! operation's counted flushes/fences/logged bytes into simulated time.
//! Operations still execute for real against the runtime — only *time* and
//! *concurrency* are simulated. See DESIGN.md for the substitution
//! rationale.

#![warn(missing_docs)]

pub mod cost;
pub mod des;

pub use clobber_nvm::{LockId, LockMode, LockRequest};
pub use cost::CostModel;
pub use des::{run_des, DesResult, OpSource, SimOp};
