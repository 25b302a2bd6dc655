//! Shared helpers for storing variable-length values and fixed-width keys.

use clobber_nvm::{Tx, TxError};
use clobber_pmem::{PAddr, PmemError, PmemPool};

/// Writes `bytes` into a freshly allocated persistent buffer inside `tx`,
/// returning its address. The buffer is an output of the transaction (fresh
/// allocation), so no logging is triggered.
///
/// # Errors
///
/// Returns [`TxError::Pmem`] if the heap is exhausted.
pub fn store_value(tx: &mut Tx<'_>, bytes: &[u8]) -> Result<PAddr, TxError> {
    let buf = tx.pmalloc(bytes.len().max(1) as u64)?;
    tx.write_bytes(buf, bytes)?;
    Ok(buf)
}

/// Checks that a `len`-byte root block headed by `magic` sits at `root`,
/// inside the pool, before anything walks it.
///
/// # Errors
///
/// Returns [`PmemError::CorruptPool`] naming `what` if the block runs past
/// the pool or its first word is not `magic`.
pub(crate) fn check_root(
    pool: &PmemPool,
    root: PAddr,
    len: u64,
    magic: u64,
    what: &str,
) -> Result<(), TxError> {
    let fits = root
        .offset()
        .checked_add(len)
        .is_some_and(|end| end <= pool.capacity());
    if !fits || pool.read_u64(root)? != magic {
        let why = format!("no {what} at {:#x}", root.offset());
        return Err(PmemError::CorruptPool(why).into());
    }
    Ok(())
}

/// Where a walk loads from: a transaction (tracked reads) or the pool
/// directly (snapshot and verification walks).
pub(crate) trait Load {
    /// Reads `buf.len()` bytes at `at` as one load.
    fn load(&mut self, at: PAddr, buf: &mut [u8]) -> Result<(), TxError>;
    /// The pool loaded from.
    fn pool(&self) -> &PmemPool;

    /// `N` consecutive little-endian words at `at` as one load, without
    /// touching the heap.
    fn words<const N: usize>(&mut self, at: PAddr) -> Result<[u64; N], TxError> {
        let mut buf = [[0u8; 8]; N];
        self.load(at, buf.as_flattened_mut())?;
        Ok(buf.map(u64::from_le_bytes))
    }
}

impl Load for Tx<'_> {
    fn load(&mut self, at: PAddr, buf: &mut [u8]) -> Result<(), TxError> {
        self.read_into(at, buf)
    }
    fn pool(&self) -> &PmemPool {
        Tx::pool(self)
    }
}

impl Load for &PmemPool {
    fn load(&mut self, at: PAddr, buf: &mut [u8]) -> Result<(), TxError> {
        Ok(self.read_into(at, buf)?)
    }
    fn pool(&self) -> &PmemPool {
        self
    }
}

/// The value whose `(ptr, len)` words are at `at`: both words in one load,
/// then the bytes.
pub(crate) fn value_at(l: &mut impl Load, at: PAddr) -> Result<Vec<u8>, TxError> {
    let [ptr, len] = l.words(at)?;
    let ptr = PAddr::new(ptr);
    l.pool().check_range(ptr, len)?; // before a corrupt length sizes the buffer
    let mut buf = vec![0; len as usize];
    l.load(ptr, &mut buf)?;
    Ok(buf)
}

/// Fixed 32-byte key encoding for the B+Tree (paper §5.2: "on B+ Tree, the
/// inserted key size is 32 bytes"). The `u64` key id is stored big-endian in
/// the tail so bytewise comparison matches numeric order.
pub fn key32(k: u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    out[24..].copy_from_slice(&k.to_be_bytes());
    // A deterministic prefix fills the remaining bytes so keys really are
    // 32 bytes of payload, not 24 zeros.
    let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    out[..8].copy_from_slice(&h.to_be_bytes());
    out[8..16].copy_from_slice(&h.rotate_left(17).to_be_bytes());
    out[16..24].copy_from_slice(&h.rotate_left(41).to_be_bytes());
    out
}

/// Compares two 32-byte keys by their ordering tail (bytes 24..32 dominate,
/// then the prefix breaks ties — which cannot happen for `key32`-generated
/// keys).
pub fn cmp_key32(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    a[24..32]
        .cmp(&b[24..32])
        .then_with(|| a[..24].cmp(&b[..24]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key32_orders_like_u64() {
        let mut ids: Vec<u64> = vec![5, 1, 99, 42, 0, u64::MAX, 7];
        let mut keys: Vec<[u8; 32]> = ids.iter().map(|&k| key32(k)).collect();
        ids.sort();
        keys.sort_by(|a, b| cmp_key32(a, b));
        let decoded: Vec<u64> = keys
            .iter()
            .map(|k| u64::from_be_bytes(k[24..32].try_into().unwrap()))
            .collect();
        assert_eq!(decoded, ids);
    }

    #[test]
    fn key32_is_injective_on_samples() {
        assert_ne!(key32(1), key32(2));
        assert_eq!(key32(9), key32(9));
    }
}
