//! Optional real-socket transport over `std::net::TcpListener` (std only).
//!
//! An acceptor thread takes `expected_conns` connections; each gets a
//! reader thread that decodes length-prefixed frames into [`NetEvent`]s on
//! a channel the serve loop drains. Responses are written back on the serve
//! thread directly — one writer per connection, so frames never interleave.
//! This mode trades the simulated clock's determinism for real sockets; the
//! deterministic transport ([`SimNet`](crate::SimNet)) remains the oracle.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::thread;

use crate::proto::{
    decode_response, encode_request, encode_response, read_frame, write_frame, KvRequest,
    KvResponse,
};
use crate::transport::{ConnId, Envelope, NetEvent, Transport};

enum TcpMsg {
    Opened(ConnId, TcpStream),
    Request(Envelope),
    Closed(ConnId),
}

/// The real-socket transport (server side).
pub struct TcpTransport {
    rx: mpsc::Receiver<TcpMsg>,
    writers: HashMap<ConnId, TcpStream>,
    expected: usize,
    closed: usize,
    local_addr: SocketAddr,
}

impl TcpTransport {
    /// Binds `addr` and accepts exactly `expected_conns` connections over
    /// the transport's lifetime; [`Transport::recv`] returns `None` once
    /// all of them have disconnected.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (the loopback smoke test skips
    /// gracefully on sandboxes without socket support).
    pub fn bind<A: ToSocketAddrs>(addr: A, expected_conns: usize) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            for conn in 0..expected_conns {
                let Ok((stream, _)) = listener.accept() else {
                    let _ = tx.send(TcpMsg::Closed(conn));
                    continue;
                };
                let Ok(writer) = stream.try_clone() else {
                    let _ = tx.send(TcpMsg::Closed(conn));
                    continue;
                };
                if tx.send(TcpMsg::Opened(conn, writer)).is_err() {
                    return;
                }
                let tx = tx.clone();
                thread::spawn(move || {
                    let mut stream = stream;
                    while let Ok(Some(payload)) = read_frame(&mut stream) {
                        let Some((opaque, req)) = crate::proto::decode_request(&payload) else {
                            break; // malformed frame: drop the conn
                        };
                        if tx
                            .send(TcpMsg::Request(Envelope { conn, opaque, req }))
                            .is_err()
                        {
                            return;
                        }
                    }
                    let _ = tx.send(TcpMsg::Closed(conn));
                });
            }
        });
        Ok(TcpTransport {
            rx,
            writers: HashMap::new(),
            expected: expected_conns,
            closed: 0,
            local_addr,
        })
    }

    /// The bound address (use with port 0 to discover the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    fn translate(&mut self, msg: TcpMsg) -> Option<NetEvent> {
        match msg {
            TcpMsg::Opened(conn, stream) => {
                self.writers.insert(conn, stream);
                None
            }
            TcpMsg::Request(env) => Some(NetEvent::Request(env)),
            TcpMsg::Closed(conn) => {
                self.closed += 1;
                self.writers.remove(&conn);
                Some(NetEvent::Closed { conn })
            }
        }
    }
}

impl Transport for TcpTransport {
    fn recv(&mut self, max: usize) -> Option<Vec<NetEvent>> {
        let mut out = Vec::new();
        while out.len() < max {
            if out.is_empty() {
                if self.closed >= self.expected {
                    return None;
                }
                // Block for the first event of the burst...
                match self.rx.recv() {
                    Ok(msg) => {
                        if let Some(ev) = self.translate(msg) {
                            out.push(ev);
                        }
                    }
                    Err(_) => return None,
                }
            } else {
                // ...then drain whatever arrived meanwhile (natural
                // batching under concurrent clients).
                match self.rx.try_recv() {
                    Ok(msg) => {
                        if let Some(ev) = self.translate(msg) {
                            out.push(ev);
                        }
                    }
                    Err(_) => break,
                }
            }
        }
        Some(out)
    }

    fn send(&mut self, responses: Vec<(ConnId, u64, KvResponse)>, _cost_ns: u64) {
        for (conn, opaque, resp) in responses {
            if let Some(w) = self.writers.get_mut(&conn) {
                // A write failure means the client vanished; its reader
                // thread will report Closed.
                let _ = write_frame(w, &encode_response(opaque, &resp));
            }
        }
    }
}

/// A minimal blocking client for the real-socket mode (tests and demos).
pub struct KvClient {
    stream: TcpStream,
}

impl KvClient {
    /// Connects to a [`TcpTransport`] server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<KvClient> {
        Ok(KvClient {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a malformed or missing response surfaces as
    /// `InvalidData`/`UnexpectedEof`.
    pub fn call(&mut self, opaque: u64, req: &KvRequest) -> io::Result<(u64, KvResponse)> {
        write_frame(&mut self.stream, &encode_request(opaque, req))?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-call")
        })?;
        decode_response(&payload)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response frame"))
    }
}
