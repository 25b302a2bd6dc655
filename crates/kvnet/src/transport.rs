//! The [`Transport`] trait and the transport-agnostic serve loop.

use std::sync::atomic::Ordering;

use clobber_nvm::TxError;
use clobber_sim::CostModel;

use crate::admission::Admission;
use crate::proto::{KvRequest, KvResponse};
use crate::service::KvService;

/// Connection identifier (dense, transport-assigned).
pub type ConnId = usize;

/// One request in flight: who sent it, the opaque token to echo back, and
/// the decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Originating connection.
    pub conn: ConnId,
    /// Client-chosen token echoed on the response.
    pub opaque: u64,
    /// The decoded request.
    pub req: KvRequest,
}

/// What a transport delivers to the serve loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// A decoded request arrived.
    Request(Envelope),
    /// A connection went away; the serve loop drops its admission state.
    Closed {
        /// The closed connection.
        conn: ConnId,
    },
}

/// A byte-free transport abstraction: the serve loop never sees sockets or
/// simulated clocks, only events in and responses out.
///
/// `recv` blocks (in real or simulated time) until at least one event is
/// available, delivering at most `max`; `None` means every connection is
/// done and the service should stop. `send` delivers responses and charges
/// `cost_ns` of service time — the simulated transport advances its clock
/// by it; a transport on real time may ignore it (real time passed
/// already).
pub trait Transport {
    /// Waits for the next burst of events (at most `max`).
    fn recv(&mut self, max: usize) -> Option<Vec<NetEvent>>;

    /// Delivers responses, charging `cost_ns` of service time.
    fn send(&mut self, responses: Vec<(ConnId, u64, KvResponse)>, cost_ns: u64);
}

/// Serve-loop tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Most requests coalesced into one batch (1 = per-request commit).
    pub max_batch: usize,
    /// Latency oracle used to price each batch on the simulated clock.
    pub cost: CostModel,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 16,
            cost: CostModel::optane(),
        }
    }
}

/// Runs the service until the transport reports all connections done.
///
/// Each iteration drains up to `max_batch` events, makes an admission
/// decision per request (shed requests get an immediate
/// [`KvResponse::Overloaded`] at zero service cost), executes the admitted
/// requests as one coalesced batch — writes inside ONE locked
/// transaction, reads off the volatile cache — and sends
/// the responses back priced by the cost model over the batch's real
/// persistence counter delta.
///
/// # Errors
///
/// Propagates [`TxError`] from the batch transaction — in particular an
/// injected crash mid-batch, which is how the crash sweep drives this loop.
pub fn serve<T: Transport>(
    svc: &mut KvService,
    adm: &mut Admission,
    transport: &mut T,
    cfg: &ServeConfig,
) -> Result<(), TxError> {
    let stats = svc.rt().pool().stats().clone();
    while let Some(events) = transport.recv(cfg.max_batch.max(1)) {
        let mut batch = Vec::with_capacity(events.len());
        let mut shed = Vec::new();
        for ev in events {
            match ev {
                NetEvent::Closed { conn } => adm.forget(conn),
                NetEvent::Request(env) => {
                    if adm.try_admit(env.conn) {
                        stats.net_accepted.fetch_add(1, Ordering::Relaxed);
                        batch.push(env);
                    } else {
                        stats.net_shed.fetch_add(1, Ordering::Relaxed);
                        shed.push((env.conn, env.opaque, KvResponse::Overloaded));
                    }
                }
            }
        }
        if !shed.is_empty() {
            transport.send(shed, 0);
        }
        if !batch.is_empty() {
            let before = stats.snapshot();
            let responses = svc.process_batch_on(0, &batch)?;
            let cost = cfg.cost.op_cost(&stats.snapshot().delta(&before));
            for env in &batch {
                adm.complete(env.conn);
            }
            transport.send(responses, cost);
        }
    }
    Ok(())
}
