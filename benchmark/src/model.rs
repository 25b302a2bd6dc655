//! The reference model every response and every end-of-round table dump is
//! compared with, and the versioned values that make a stale read visible.

use std::collections::HashMap;

use crate::rng::mix;

/// Length of a versioned value (memslap's 64 bytes).
pub const VALUE_LEN: usize = 64;

/// The 64-byte value for `(key, version)`: both stamped in the first 16
/// bytes, the rest a fill derived from them — two versions of one key
/// differ in every word, so an old value can never pass for the new one.
pub fn versioned_value(key: u64, version: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    let mut word = mix(key ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    while v.len() < VALUE_LEN {
        v.extend_from_slice(&word.to_le_bytes());
        word = mix(word);
    }
    v
}

/// `(key, version)` stamped in a well-formed versioned value, else `None`.
pub fn decode_versioned(value: &[u8]) -> Option<(u64, u64)> {
    if value.len() != VALUE_LEN {
        return None;
    }
    let key = u64::from_le_bytes(value[..8].try_into().ok()?);
    let version = u64::from_le_bytes(value[8..16].try_into().ok()?);
    (versioned_value(key, version) == value).then_some((key, version))
}

/// Key id → last acknowledged value.
#[derive(Debug, Clone, Default)]
pub struct KvModel {
    map: HashMap<u64, Vec<u8>>,
}

impl KvModel {
    /// An empty table.
    pub fn new() -> KvModel {
        KvModel::default()
    }

    /// Records an acknowledged `SET`.
    pub fn set(&mut self, key: u64, value: &[u8]) {
        match self.map.get_mut(&key) {
            Some(v) => {
                v.clear();
                v.extend_from_slice(value);
            }
            None => {
                self.map.insert(key, value.to_vec());
            }
        }
    }

    /// The value a `GET` of `key` must return.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.map.get(&key).map(Vec::as_slice)
    }

    /// Checks a full table dump against the model. Every key must hold its
    /// last acknowledged value; only the key of the request a crash
    /// interrupted may instead hold that request's value (`in_flight`).
    ///
    /// # Errors
    ///
    /// Names the first key that is missing, foreign, stale or torn.
    pub fn check_dump(
        &self,
        dump: &[(u64, Vec<u8>)],
        in_flight: Option<(u64, &[u8])>,
    ) -> Result<(), String> {
        if dump.len() != self.map.len() {
            return Err(format!(
                "table holds {} keys, model {}",
                dump.len(),
                self.map.len()
            ));
        }
        for (key, value) in dump {
            let Some(want) = self.map.get(key) else {
                return Err(format!("key {key} is not in the model"));
            };
            let interrupted = in_flight.is_some_and(|(k, v)| k == *key && v == value.as_slice());
            if value != want && !interrupted {
                return Err(match (decode_versioned(value), decode_versioned(want)) {
                    (Some((_, got)), Some((_, acked))) => {
                        format!("key {key} holds version {got}, last acknowledged is {acked}")
                    }
                    _ => format!("key {key} holds a torn or foreign value"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(model: &KvModel) -> Vec<(u64, Vec<u8>)> {
        model.map.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    #[test]
    fn versioned_values_decode_and_differ_by_version() {
        let a = versioned_value(7, 1);
        let b = versioned_value(7, 2);
        assert_eq!(a.len(), VALUE_LEN);
        assert_eq!(decode_versioned(&a), Some((7, 1)));
        assert_eq!(decode_versioned(&b), Some((7, 2)));
        assert!(a[16..] != b[16..], "the fill depends on the version");
        let mut torn = a.clone();
        torn[40] ^= 1;
        assert_eq!(decode_versioned(&torn), None);
        assert_eq!(decode_versioned(&a[..32]), None);
    }

    #[test]
    fn a_stale_value_is_flagged() {
        let mut model = KvModel::new();
        for k in 0..4 {
            model.set(k, &versioned_value(k, 0));
        }
        model.set(2, &versioned_value(2, 5));
        assert!(model.check_dump(&table(&model), None).is_ok());

        // The table still holds version 0 of key 2: acknowledged write lost.
        let mut stale = table(&model);
        stale.iter_mut().find(|(k, _)| *k == 2).unwrap().1 = versioned_value(2, 0);
        let err = model.check_dump(&stale, None).unwrap_err();
        assert!(
            err.contains("version 0") && err.contains("acknowledged is 5"),
            "{err}"
        );
        // An unrelated in-flight request does not excuse it.
        let other = versioned_value(3, 9);
        assert!(model.check_dump(&stale, Some((3, &other))).is_err());
    }

    #[test]
    fn only_the_interrupted_request_may_differ() {
        let mut model = KvModel::new();
        model.set(1, &versioned_value(1, 3));
        model.set(2, &versioned_value(2, 0));
        let victim = versioned_value(1, 4);
        let mut after = table(&model);
        after.iter_mut().find(|(k, _)| *k == 1).unwrap().1 = victim.clone();
        assert!(model.check_dump(&after, Some((1, &victim))).is_ok());
        assert!(model.check_dump(&after, None).is_err());
        // Missing and foreign keys are flagged too.
        assert!(model.check_dump(&after[..1], Some((1, &victim))).is_err());
        let mut foreign = table(&model);
        foreign[0].0 = 99;
        assert!(model.check_dump(&foreign, None).is_err());
    }
}
