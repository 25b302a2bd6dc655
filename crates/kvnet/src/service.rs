//! The service core: batched writes, snapshot reads, counters, and the
//! batch-framing trace events.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use clobber_apps::kvserver::key_id;
use clobber_apps::KvServer;
use clobber_nvm::{Runtime, TxError};
use clobber_trace::EventKind;

use crate::proto::{KvRequest, KvResponse};
use crate::transport::{ConnId, Envelope};

/// The KV service: a [`KvServer`] plus the batching and snapshot-read
/// machinery the serve loop drives.
pub struct KvService {
    rt: Arc<Runtime>,
    server: KvServer,
    batch_seq: u64,
}

impl KvService {
    /// Wraps a server whose txfuncs are already registered with `rt`.
    pub fn new(rt: Arc<Runtime>, server: KvServer) -> KvService {
        KvService {
            rt,
            server,
            batch_seq: 0,
        }
    }

    /// The backing runtime.
    pub fn rt(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// The wrapped server.
    pub fn server(&self) -> &KvServer {
        &self.server
    }

    /// Batches closed so far.
    pub fn batches(&self) -> u64 {
        self.batch_seq
    }

    /// Executes one admitted batch on logical slot `slot` and returns the
    /// responses in request order.
    ///
    /// All `Set`s in the batch run as ONE failure-atomic transaction under
    /// the union of their exclusive bucket locks — one commit fence
    /// shared by every client in the batch. The batch is framed by [`EventKind::NetBatchOpen`] /
    /// [`EventKind::NetBatchClose`] trace events recorded under the fault
    /// mutex, so a crash injected mid-batch replays at the same point.
    /// `Get`s are answered *after* the writes commit, directly off the
    /// volatile cache without entering a transaction — a batch reads its
    /// own writes.
    ///
    /// # Errors
    ///
    /// Propagates [`TxError`] from the batch transaction (an injected crash
    /// surfaces here) or a corrupt chain during a snapshot read.
    pub fn process_batch_on(
        &mut self,
        slot: usize,
        batch: &[Envelope],
    ) -> Result<Vec<(ConnId, u64, KvResponse)>, TxError> {
        let pool = self.rt.pool().clone();
        // Presized for an all-SET batch: `filter_map` reports no lower
        // bound, so collecting would grow the vector step by step.
        let mut sets: Vec<(u64, &[u8])> = Vec::with_capacity(batch.len());
        for e in batch {
            if let KvRequest::Set { key, value } = &e.req {
                sets.push((key_id(key), value.as_slice()));
            }
        }
        if !sets.is_empty() {
            self.batch_seq += 1;
            pool.trace_app_event(
                EventKind::NetBatchOpen,
                0,
                self.batch_seq,
                sets.len() as u64,
            );
            self.server.table().insert_batch_on(&self.rt, slot, &sets)?;
            pool.trace_app_event(
                EventKind::NetBatchClose,
                0,
                self.batch_seq,
                sets.len() as u64,
            );
            pool.stats()
                .net_batched
                .fetch_add(sets.len() as u64, Ordering::Relaxed);
        }
        batch
            .iter()
            .map(|e| {
                let resp = match &e.req {
                    KvRequest::Set { .. } => KvResponse::Stored,
                    KvRequest::Get { key } => {
                        pool.stats()
                            .net_snapshot_reads
                            .fetch_add(1, Ordering::Relaxed);
                        match self.server.table().snapshot_get(&pool, key_id(key))? {
                            Some(v) => KvResponse::Value(v),
                            None => KvResponse::NotFound,
                        }
                    }
                };
                Ok((e.conn, e.opaque, resp))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clobber_apps::LockScheme;
    use clobber_nvm::{Backend, RuntimeOptions};
    use clobber_pmem::{PmemPool, PoolOptions};

    fn setup() -> KvService {
        let pool = Arc::new(PmemPool::create(PoolOptions::performance(64 << 20)).unwrap());
        let rt = Arc::new(Runtime::create(pool, RuntimeOptions::new(Backend::clobber())).unwrap());
        let server = KvServer::create(&rt, LockScheme::BucketRw).unwrap();
        KvService::new(rt, server)
    }

    fn env(conn: ConnId, opaque: u64, req: KvRequest) -> Envelope {
        Envelope { conn, opaque, req }
    }

    #[test]
    fn a_batch_of_sets_is_one_transaction_and_reads_its_own_writes() {
        let mut svc = setup();
        let batch: Vec<Envelope> = (0..8u64)
            .map(|i| {
                env(
                    i as usize,
                    i,
                    KvRequest::Set {
                        key: clobber_workloads::RequestStream::key_bytes(i),
                        value: clobber_workloads::RequestStream::value_bytes(i),
                    },
                )
            })
            .chain(std::iter::once(env(
                8,
                99,
                KvRequest::Get {
                    key: clobber_workloads::RequestStream::key_bytes(3),
                },
            )))
            .collect();
        let stats = svc.rt().pool().stats().clone();
        let before = stats.snapshot();
        let responses = svc.process_batch_on(0, &batch).unwrap();
        let d = stats.snapshot().delta(&before);
        assert_eq!(d.publishes, 1, "eight sets, ONE committing transaction");
        assert_eq!(d.net_batched, 8);
        assert_eq!(d.net_snapshot_reads, 1);
        assert_eq!(responses.len(), 9);
        assert_eq!(responses[3].2, KvResponse::Stored);
        assert_eq!(
            responses[8],
            (
                8,
                99,
                KvResponse::Value(clobber_workloads::RequestStream::value_bytes(3))
            ),
            "a batch reads its own writes"
        );
        assert_eq!(svc.batches(), 1);
    }

    #[test]
    fn a_get_only_batch_opens_no_transaction() {
        let mut svc = setup();
        let stats = svc.rt().pool().stats().clone();
        let before = stats.snapshot();
        let responses = svc
            .process_batch_on(
                0,
                &[env(
                    0,
                    1,
                    KvRequest::Get {
                        key: clobber_workloads::RequestStream::key_bytes(7),
                    },
                )],
            )
            .unwrap();
        assert_eq!(responses[0].2, KvResponse::NotFound);
        let d = stats.snapshot().delta(&before);
        assert_eq!((d.fences, d.vlog_entries, d.log_entries), (0, 0, 0));
        assert_eq!(svc.batches(), 0, "no sets, no batch sequence consumed");
    }
}
