//! Transaction argument capture.
//!
//! A txfunc's arguments are volatile inputs, so they are serialized by value
//! into the per-thread v_log at transaction begin (paper §4.2: "the log
//! records the function arguments, function name and additional needed
//! volatile data"). [`ArgList`] is the serializable argument vector the
//! registry passes back to the txfunc on re-execution.

use std::fmt;

/// One transaction argument.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (keys, sizes, handles).
    U64(u64),
    /// An owned byte payload (e.g. a value to insert).
    Bytes(Vec<u8>),
}

const TAG_U64: u8 = 1;
const TAG_BYTES: u8 = 4;

/// Errors from decoding a serialized argument list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// The byte stream ended mid-value or used an unknown tag.
    Malformed,
    /// An accessor asked for a missing index or the wrong type.
    TypeMismatch {
        /// Argument index requested.
        index: usize,
        /// What the accessor expected, e.g. `"u64"`.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Malformed => write!(f, "malformed argument encoding"),
            ArgError::TypeMismatch { index, expected } => {
                write!(f, "argument {index} is missing or not a {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// An ordered list of transaction arguments with a compact binary encoding.
///
/// # Example
///
/// ```
/// use clobber_nvm::args::ArgList;
///
/// let args = ArgList::new().with_u64(42).with_bytes(b"value");
/// let bytes = args.to_bytes();
/// let back = ArgList::from_bytes(&bytes).unwrap();
/// assert_eq!(back.u64(0).unwrap(), 42);
/// assert_eq!(back.bytes(1).unwrap(), b"value");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArgList {
    items: Vec<ArgValue>,
}

impl ArgList {
    /// Creates an empty argument list.
    pub fn new() -> Self {
        ArgList::default()
    }

    /// Creates an empty argument list with room for `n` arguments.
    pub fn with_capacity(n: usize) -> Self {
        ArgList {
            items: Vec::with_capacity(n),
        }
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if there are no arguments.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends an argument in place.
    pub fn push(&mut self, v: ArgValue) {
        self.items.push(v);
    }

    /// Builder form: appends a `u64`.
    pub fn with_u64(mut self, v: u64) -> Self {
        self.items.push(ArgValue::U64(v));
        self
    }

    /// Builder form: appends a byte payload.
    pub fn with_bytes(mut self, v: &[u8]) -> Self {
        self.items.push(ArgValue::Bytes(v.to_vec()));
        self
    }

    /// Returns argument `i` as `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::TypeMismatch`] if missing or not a `U64`.
    pub fn u64(&self, i: usize) -> Result<u64, ArgError> {
        match self.items.get(i) {
            Some(ArgValue::U64(v)) => Ok(*v),
            _ => Err(ArgError::TypeMismatch {
                index: i,
                expected: "u64",
            }),
        }
    }

    /// Returns argument `i` as a byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::TypeMismatch`] if missing or not `Bytes`.
    pub fn bytes(&self, i: usize) -> Result<&[u8], ArgError> {
        match self.items.get(i) {
            Some(ArgValue::Bytes(v)) => Ok(v),
            _ => Err(ArgError::TypeMismatch {
                index: i,
                expected: "bytes",
            }),
        }
    }

    /// Length in bytes of [`to_bytes`](Self::to_bytes)' result.
    pub fn encoded_len(&self) -> usize {
        self.items
            .iter()
            .map(|item| match item {
                ArgValue::U64(_) => 1 + 8,
                ArgValue::Bytes(v) => 1 + 4 + v.len(),
            })
            .sum()
    }

    /// Serializes to the v_log wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the v_log wire format to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        for item in &self.items {
            match item {
                ArgValue::U64(v) => {
                    out.push(TAG_U64);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                ArgValue::Bytes(v) => {
                    out.push(TAG_BYTES);
                    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    out.extend_from_slice(v);
                }
            }
        }
        debug_assert_eq!(out.len() - start, self.encoded_len());
    }

    /// Decodes the v_log wire format.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Malformed`] on a truncated or invalid stream.
    pub fn from_bytes(mut data: &[u8]) -> Result<ArgList, ArgError> {
        let mut items = Vec::new();
        while !data.is_empty() {
            let tag = data[0];
            data = &data[1..];
            match tag {
                TAG_U64 => {
                    if data.len() < 8 {
                        return Err(ArgError::Malformed);
                    }
                    let raw = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
                    data = &data[8..];
                    items.push(ArgValue::U64(raw));
                }
                TAG_BYTES => {
                    if data.len() < 4 {
                        return Err(ArgError::Malformed);
                    }
                    let len = u32::from_le_bytes(data[..4].try_into().expect("4 bytes")) as usize;
                    data = &data[4..];
                    if data.len() < len {
                        return Err(ArgError::Malformed);
                    }
                    items.push(ArgValue::Bytes(data[..len].to_vec()));
                    data = &data[len..];
                }
                _ => return Err(ArgError::Malformed),
            }
        }
        Ok(ArgList { items })
    }
}

impl FromIterator<ArgValue> for ArgList {
    fn from_iter<I: IntoIterator<Item = ArgValue>>(iter: I) -> Self {
        ArgList {
            items: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let args = ArgList::new().with_u64(7).with_bytes(b"abc");
        let back = ArgList::from_bytes(&args.to_bytes()).unwrap();
        assert_eq!(back, args);
        assert_eq!(back.u64(0).unwrap(), 7);
        assert_eq!(back.bytes(1).unwrap(), b"abc");
    }

    #[test]
    fn empty_list_round_trips() {
        let args = ArgList::new();
        assert!(args.is_empty());
        let back = ArgList::from_bytes(&args.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn empty_bytes_payload_round_trips() {
        let args = ArgList::new().with_bytes(b"");
        let back = ArgList::from_bytes(&args.to_bytes()).unwrap();
        assert_eq!(back.bytes(0).unwrap(), b"");
    }

    #[test]
    fn type_mismatch_is_reported() {
        let args = ArgList::new().with_u64(1);
        assert!(matches!(
            args.bytes(0),
            Err(ArgError::TypeMismatch { index: 0, .. })
        ));
        assert!(matches!(args.u64(5), Err(ArgError::TypeMismatch { .. })));
    }

    #[test]
    fn truncated_stream_is_malformed() {
        let args = ArgList::new().with_bytes(b"hello");
        let bytes = args.to_bytes();
        assert_eq!(
            ArgList::from_bytes(&bytes[..bytes.len() - 1]),
            Err(ArgError::Malformed)
        );
        assert_eq!(ArgList::from_bytes(&[99]), Err(ArgError::Malformed));
        assert_eq!(
            ArgList::from_bytes(&[TAG_U64, 1, 2]),
            Err(ArgError::Malformed)
        );
        // Tags 2 and 3 (retired i64/f64) are unknown, even with a whole
        // 8-byte word behind them.
        for retired in [2u8, 3] {
            let mut stream = vec![retired];
            stream.extend_from_slice(&7u64.to_le_bytes());
            assert_eq!(ArgList::from_bytes(&stream), Err(ArgError::Malformed));
        }
    }

    #[test]
    fn collects_from_iterator() {
        let args: ArgList = vec![ArgValue::U64(1), ArgValue::U64(2)]
            .into_iter()
            .collect();
        assert_eq!(args.len(), 2);
    }
}
