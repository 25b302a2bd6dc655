//! The commit fence handle kept for readers of [`Runtime::group_commit`].
//!
//! Every ordering point on the transaction path issues its own
//! `pool.fence()`. Group commit happens one layer up: a service batch
//! commits many requests in one transaction, and so under one set of
//! fences (*Persistent Memory Transactions*, Marathe et al.).
//!
//! [`Runtime::group_commit`]: crate::Runtime::group_commit

use clobber_pmem::PmemPool;

/// A runtime's commit fence: [`fence`](GroupCommit::fence) is a plain pool
/// fence.
#[derive(Debug)]
pub struct GroupCommit;

impl GroupCommit {
    /// Issues one pool fence.
    pub fn fence(&self, pool: &PmemPool) {
        pool.fence();
    }
}
