//! Simulated persistent memory (NVM) substrate for the Clobber-NVM
//! reproduction.
//!
//! Real persistent memory (e.g. Intel Optane DC PMM) exposes storage through
//! the load/store interface, with a volatile CPU cache in front of it: a
//! store is durable only once its cache line has been written back (via
//! `clwb`/`clflush`) and ordered (via `sfence`). This crate models exactly
//! that contract in software:
//!
//! * [`PmemPool`] is a byte-addressable pool with a persistent *media* array
//!   and, in [`PoolMode::CrashSim`], a simulated volatile cache in front of
//!   it. Writes land in the cache; [`PmemPool::flush`] initiates write-back;
//!   [`PmemPool::fence`] makes previously flushed lines durable.
//! * [`PmemPool::crash`] simulates a power failure: flushed-but-unfenced and
//!   dirty-unflushed lines survive only with a configurable (seeded)
//!   probability, everything else is dropped — reproducing torn states.
//! * [`alloc`] provides a crash-consistent persistent heap allocator in the
//!   spirit of PMDK's (list heads and frontier are hints an open repairs):
//!   one heap behind one lock, safe to crash with any number of
//!   reservations open.
//! * [`ulog`] provides a PMDK-style undo-log buffer, the primitive on which
//!   Clobber-NVM's `clobber_log` is built (paper §4.2).
//! * [`stats::PmemStats`] counts every persistence event (flushes, fences,
//!   media bytes) — the quantities the paper's evaluation attributes
//!   performance to.
//! * [`fault::FaultPlan`] arms programmable fault injection on a pool:
//!   trip-point crashes at any chosen persist event, torn multi-line
//!   stores, seeded bit corruption, and transient read faults — the
//!   substrate for exhaustive crash-point sweeps.
//! * [`PmemPool::set_tracer`] attaches a [`Tracer`] (from `clobber-trace`):
//!   every store/flush/fence is recorded as a typed event stamped with its
//!   persist-event sequence number, under the same fault-mutex acquisition
//!   that assigns it — so the recorded stream is the pool-wide total order,
//!   identical at every shard count.
//!
//! # Example
//!
//! ```
//! use clobber_pmem::{PmemPool, PoolOptions};
//!
//! # fn main() -> Result<(), clobber_pmem::PmemError> {
//! let pool = PmemPool::create(PoolOptions::crash_sim(1 << 20))?;
//! let addr = pool.alloc(64)?;
//! pool.write_u64(addr, 42)?;
//! pool.persist(addr, 8)?; // flush + fence: now durable
//! assert_eq!(pool.read_u64(addr)?, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod alloc;
pub(crate) mod cache;
pub mod crash;
pub mod fault;
pub(crate) mod geometry;
pub mod pool;
pub(crate) mod shard;
pub mod stats;
pub mod ulog;

pub use addr::{PAddr, CACHE_LINE};
pub use alloc::HeapReport;
pub use crash::CrashConfig;
pub use fault::FaultPlan;
pub use pool::{CacheImpl, PmemError, PmemPool, PoolMode, PoolOptions};
pub use stats::{PmemStats, StatsSnapshot};
pub use ulog::{LogKind, LogScan, LogWriter, Ulog};

// Re-exported so pool users can attach tracers and decode traces without a
// separate `clobber-trace` dependency.
pub use clobber_trace::{EventKind, Trace, TraceEvent, Tracer};
