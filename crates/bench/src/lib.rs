//! Experiment harness for the Clobber-NVM reproduction.
//!
//! One module per evaluation figure (paper §5); each exposes `run(scale)`
//! returning typed rows plus a CSV shape matching the original artifact's
//! `fig*.csv` outputs. The `repro` binary sweeps everything at full scale,
//! or at quick scale with `--quick`.
//!
//! | Module | Paper figure |
//! |---|---|
//! | [`fig6`] | data-structure throughput vs threads |
//! | [`fig7`] | logging-strategy breakdown |
//! | [`fig8`] | iDO vs Clobber log traffic |
//! | [`fig9`] | recovery overhead |
//! | [`fig10`] | memcached-like server throughput |
//! | [`fig11`] | vacation, rbtree vs avltree |
//! | [`fig12`] | yada angle sweep |
//! | [`fig13`] | refinement-pass effectiveness |
//! | [`fig14`] | compile-time overhead |
//! | [`fig_kv_scale`] | networked service: clients vs throughput/tail latency |

#![warn(missing_docs)]

pub mod common;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig_kv_scale;

pub use common::{write_csv, Scale};
