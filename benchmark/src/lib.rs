//! The repository's benchmark: four workloads measured on two clocks.
//!
//! - `sim_*` and every count: the DES cost-model clock
//!   (`CostModel::optane()` over `StatsSnapshot` deltas) — deterministic,
//!   repeats bit-for-bit for one seed.
//! - `wall_*`, `setup_s`, `host.*`, `*_ns`: the host clock, counting only
//!   server-side time.
//!
//! Every layer is measured from outside, through its public functions; the
//! package changes no file of the repository. See `README.md` for the
//! metric and workload tables.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod json;
pub mod metrics;
pub mod model;
pub mod probes;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod unit;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc_count::CountingAlloc = alloc_count::CountingAlloc;
