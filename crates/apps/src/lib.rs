//! Recoverable applications on Clobber-NVM — the paper's three
//! application-level workloads (§5.6–5.8):
//!
//! * [`kvserver`] — a memcached-like persistent key-value server over a
//!   4,096-bucket hash map, driven by memslap-style request mixes;
//! * [`vacation`] — the STAMP travel-agency database over red-black or AVL
//!   tables, with multi-table reservation transactions;
//! * [`yada`] — Ruppert's Delaunay mesh refinement over a fully persistent
//!   mesh ([`geom`] provides the predicates and the input triangulator).

#![warn(missing_docs)]

pub mod geom;
pub mod kvserver;
pub mod vacation;
pub mod yada;

pub use kvserver::{KvServer, LockScheme};
pub use vacation::{TreeKind, Vacation};
pub use yada::{RefineStats, StepOutcome, Yada};
