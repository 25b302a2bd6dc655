//! Networked KV service front-end for the Clobber-NVM key-value server.
//!
//! The paper's memcached port (§5.6) is a library loop; this crate gives it
//! a service layer: typed requests over a [`Transport`] trait, a batcher
//! that coalesces concurrent client writes into ONE locked transaction
//! (so the commit fence amortizes across *clients*, not just threads),
//! snapshot `GET`s served off the volatile cache without entering a
//! transaction, and admission control that sheds load with a typed
//! [`KvResponse::Overloaded`] instead of queueing unboundedly.
//!
//! [`SimNet`] implements the trait: a deterministic simulated transport in
//! the spirit of the discrete-event executor in `clobber-sim`. Clients,
//! request arrival, and service time are simulated events driven by the
//! [`CostModel`](clobber_sim::CostModel) latency oracle, so whole service
//! runs — including crashes injected mid-batch — are bit-deterministic and
//! replayable through the trace/explorer stack. Frames on a byte stream
//! use the length-prefixed binary codec of [`read_frame`]/[`write_frame`].

#![warn(missing_docs)]

mod admission;
mod proto;
mod service;
mod sim_net;
mod transport;

pub use admission::{Admission, AdmissionConfig};
pub use clobber_apps::kvserver::key_id;
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    KvRequest, KvResponse, MAX_FRAME,
};
pub use service::KvService;
pub use sim_net::{SimNet, SimNetConfig, SimNetRun, SimReport};
pub use transport::{serve, ConnId, Envelope, NetEvent, ServeConfig, Transport};
