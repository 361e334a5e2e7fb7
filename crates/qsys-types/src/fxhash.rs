//! A small, fast, non-cryptographic hasher for hot in-memory tables.
//!
//! The executor's hash tables (m-join access-module indexes, remote probe
//! caches) are keyed by small integers and join-key [`Value`](crate::Value)s
//! built by the system itself, so they need speed, not the HashDoS
//! resistance of the standard library's SipHash. This is the word-at-a-time
//! multiply-rotate scheme popularised by the Rust compiler's `FxHasher`:
//! one rotate, xor and multiply per machine word.
//!
//! Use it only for maps whose iteration order never reaches an output:
//! its order differs from `std`'s (and is just as unspecified).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(t: &T) -> u64 {
        FxBuildHasher::default().hash_one(t)
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(fx(&Value::Int(7)), fx(&Value::Int(7)));
        assert_ne!(fx(&Value::Int(7)), fx(&Value::Int(8)));
        assert_ne!(fx(&Value::str("abc")), fx(&Value::str("abd")));
        // Byte tails shorter than a word still contribute.
        assert_ne!(fx(&"abcdefghi"), fx(&"abcdefghj"));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<Value, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(Value::Int(i), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000).all(|i| m[&Value::Int(i)] == i as u32));
    }
}
