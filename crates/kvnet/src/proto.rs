//! Wire protocol: typed requests/responses and the length-prefixed binary
//! framing codec for a transport over a byte stream.
//!
//! A frame is a `u32` little-endian payload length followed by the payload.
//! Every payload starts with a `u64` little-endian *opaque* token the server
//! echoes back unchanged (as in memcached's binary protocol), so clients —
//! and the simulated transport's latency accounting — can match responses
//! to requests even when admission control reorders them.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload; larger length prefixes are rejected as
/// corruption rather than allocated.
pub const MAX_FRAME: usize = 16 << 20;

const OP_SET: u8 = 0;
const OP_GET: u8 = 1;

const RESP_STORED: u8 = 0;
const RESP_VALUE: u8 = 1;
const RESP_NOT_FOUND: u8 = 2;
const RESP_OVERLOADED: u8 = 3;

/// One decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvRequest {
    /// Store `value` under `key`. Coalesced into batched transactions.
    Set {
        /// The key bytes (the table id lives in the first 8).
        key: Vec<u8>,
        /// The value bytes.
        value: Vec<u8>,
    },
    /// Read `key`. Served as a snapshot read off the volatile cache.
    Get {
        /// The key bytes.
        key: Vec<u8>,
    },
}

impl From<clobber_workloads::Request> for KvRequest {
    fn from(r: clobber_workloads::Request) -> KvRequest {
        match r {
            clobber_workloads::Request::Set { key, value } => KvRequest::Set { key, value },
            clobber_workloads::Request::Get { key } => KvRequest::Get { key },
        }
    }
}

/// One typed server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResponse {
    /// The `set` committed.
    Stored,
    /// The `get` found this value.
    Value(Vec<u8>),
    /// The `get` found nothing.
    NotFound,
    /// Admission control shed the request; resubmit after backoff.
    Overloaded,
}

/// Encodes `(opaque, req)` into a frame payload.
pub fn encode_request(opaque: u64, req: &KvRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&opaque.to_le_bytes());
    match req {
        KvRequest::Set { key, value } => {
            out.push(OP_SET);
            out.extend_from_slice(&(key.len() as u16).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        KvRequest::Get { key } => {
            out.push(OP_GET);
            out.extend_from_slice(&(key.len() as u16).to_le_bytes());
            out.extend_from_slice(key);
        }
    }
    out
}

/// Decodes a request frame payload; `None` marks a malformed frame.
pub fn decode_request(buf: &[u8]) -> Option<(u64, KvRequest)> {
    let mut c = Cursor::new(buf);
    let opaque = c.u64()?;
    let op = c.u8()?;
    let klen = c.u16()? as usize;
    let key = c.bytes(klen)?;
    let req = match op {
        OP_SET => {
            let vlen = c.u32()? as usize;
            KvRequest::Set {
                key,
                value: c.bytes(vlen)?,
            }
        }
        OP_GET => KvRequest::Get { key },
        _ => return None,
    };
    c.done()?;
    Some((opaque, req))
}

/// Encodes `(opaque, resp)` into a frame payload.
pub fn encode_response(opaque: u64, resp: &KvResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&opaque.to_le_bytes());
    match resp {
        KvResponse::Stored => out.push(RESP_STORED),
        KvResponse::Value(v) => {
            out.push(RESP_VALUE);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        KvResponse::NotFound => out.push(RESP_NOT_FOUND),
        KvResponse::Overloaded => out.push(RESP_OVERLOADED),
    }
    out
}

/// Decodes a response frame payload; `None` marks a malformed frame.
pub fn decode_response(buf: &[u8]) -> Option<(u64, KvResponse)> {
    let mut c = Cursor::new(buf);
    let opaque = c.u64()?;
    let resp = match c.u8()? {
        RESP_STORED => KvResponse::Stored,
        RESP_VALUE => {
            let len = c.u32()? as usize;
            KvResponse::Value(c.bytes(len)?)
        }
        RESP_NOT_FOUND => KvResponse::NotFound,
        RESP_OVERLOADED => KvResponse::Overloaded,
        _ => return None,
    };
    c.done()?;
    Some((opaque, resp))
}

/// Writes one `u32`-LE length-prefixed frame.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` marks clean EOF at a frame boundary.
///
/// # Errors
///
/// Propagates the underlying I/O error; an oversized length prefix
/// (> [`MAX_FRAME`]) or EOF mid-frame surfaces as `InvalidData`.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len[n..])?,
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    /// The next `n` bytes, borrowed from the payload.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let out = self.buf.get(self.at..end)?;
        self.at = end;
        Some(out)
    }

    fn bytes(&mut self, n: usize) -> Option<Vec<u8>> {
        Some(self.take(n)?.to_vec())
    }

    /// A fixed-width field, read straight from the slice.
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u8(&mut self) -> Option<u8> {
        Some(u8::from_le_bytes(self.array()?))
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.array()?))
    }

    /// Rejects trailing garbage.
    fn done(&self) -> Option<()> {
        (self.at == self.buf.len()).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        for req in [
            KvRequest::Set {
                key: vec![1; 16],
                value: vec![7; 64],
            },
            KvRequest::Get { key: vec![2; 16] },
            KvRequest::Set {
                key: Vec::new(),
                value: Vec::new(),
            },
        ] {
            let frame = encode_request(0xDEAD_BEEF, &req);
            assert_eq!(decode_request(&frame), Some((0xDEAD_BEEF, req)));
        }
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            KvResponse::Stored,
            KvResponse::Value(vec![3; 64]),
            KvResponse::NotFound,
            KvResponse::Overloaded,
        ] {
            let frame = encode_response(99, &resp);
            assert_eq!(decode_response(&frame), Some((99, resp)));
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert_eq!(decode_request(&[]), None);
        assert_eq!(decode_request(&[0; 9]), None); // truncated after op byte
        let mut frame = encode_request(1, &KvRequest::Get { key: vec![0; 16] });
        frame[8] = 0xFF; // unknown op
        assert_eq!(decode_request(&frame), None);
        let mut ok = encode_response(1, &KvResponse::Stored);
        ok.push(0); // trailing garbage
        assert_eq!(decode_response(&ok), None);
        // Tag 4 (a retired lock-refusal response) with its old lock word.
        let mut retired = encode_response(1, &KvResponse::Overloaded);
        retired[8] = 4;
        retired.extend_from_slice(&42u64.to_le_bytes());
        assert_eq!(decode_response(&retired), None);
    }

    #[test]
    fn a_set_frame_truncated_at_any_offset_is_rejected_without_panicking() {
        let frame = encode_request(
            0x0123_4567_89AB_CDEF,
            &KvRequest::Set {
                key: vec![5; 16],
                value: vec![9; 40],
            },
        );
        assert!(decode_request(&frame).is_some());
        for cut in 0..frame.len() {
            assert_eq!(decode_request(&frame[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut r = &wire[..];
        assert!(read_frame(&mut r).is_err());
    }
}
