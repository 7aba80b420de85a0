//! The hasher for address-keyed tables.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// Multiplicative hasher for code-address keys. The interpreter and the
/// dynamic modifier index translations by pc on every dispatch, and the
/// static analyzer indexes decoded instructions by address, where the
/// default SipHash costs more than the table probe it guards; addresses
/// have no adversarial structure, so a Fibonacci multiply plus an
/// avalanche shift is both cheap and well distributed.
#[derive(Default, Clone)]
pub struct PcHasher(u64);

impl std::hash::Hasher for PcHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for non-u64 keys (unused on the hot paths).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `HashMap` keyed by code address, using [`PcHasher`].
pub type PcMap<V> = HashMap<u64, V, BuildHasherDefault<PcHasher>>;

/// A `HashSet` of code addresses, using [`PcHasher`].
pub type PcSet = HashSet<u64, BuildHasherDefault<PcHasher>>;
