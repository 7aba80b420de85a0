//! Deterministic byte-level fault injection for hostile-input testing.
//!
//! The mutator models the corruptions a binary tool meets in the wild —
//! truncated downloads, bit rot, fuzzed headers, overlapping sections —
//! as four seeded, reproducible operations over an arbitrary byte image.
//! It is deliberately free of any external RNG dependency: the PRNG is
//! splitmix64, so the same seed always yields the same mutation sequence
//! on every platform, which is what makes the fault-injection harness
//! (`janitizer-faultz`) and the `--inject-faults` evaluation mode
//! byte-for-byte replayable.

/// A deterministic splitmix64 pseudo-random number generator.
///
/// Small state, full 64-bit period, and — unlike `rand` — zero
/// dependencies; every consumer that needs reproducible corruption
/// shares this one implementation.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Bernoulli draw with probability `rate` (clamped to `[0, 1]`).
    pub fn chance(&mut self, rate: f64) -> bool {
        let rate = rate.clamp(0.0, 1.0);
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < rate
    }
}

/// The corruption applied by one [`Mutator::mutate`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// The image was cut short at the given length.
    Truncate(usize),
    /// A single bit was flipped at the given byte offset.
    BitFlip(usize),
    /// A 4-byte little-endian field at the given offset was overwritten
    /// with an implausible length/count value.
    LengthCorrupt(usize),
    /// A window of bytes was copied over another (overlapping-section
    /// style splice): `(src, dst, len)`.
    Splice(usize, usize, usize),
    /// The image was too small to corrupt meaningfully.
    Unchanged,
}

impl Mutation {
    /// Stable short name, used in harness summaries.
    pub fn name(&self) -> &'static str {
        match self {
            Mutation::Truncate(_) => "truncate",
            Mutation::BitFlip(_) => "bit-flip",
            Mutation::LengthCorrupt(_) => "length-corrupt",
            Mutation::Splice(..) => "splice",
            Mutation::Unchanged => "unchanged",
        }
    }
}

/// Seeded byte mutator producing the ISSUE's four corruption classes.
#[derive(Clone, Debug)]
pub struct Mutator {
    rng: SplitMix64,
}

impl Mutator {
    /// Creates a mutator from a seed.
    pub fn new(seed: u64) -> Mutator {
        Mutator {
            rng: SplitMix64::new(seed),
        }
    }

    /// Applies one randomly chosen corruption to `bytes` in place,
    /// returning what was done. Never panics, for any input length.
    pub fn mutate(&mut self, bytes: &mut Vec<u8>) -> Mutation {
        if bytes.len() < 2 {
            return Mutation::Unchanged;
        }
        match self.rng.below(4) {
            0 => {
                // Truncate somewhere strictly inside the image.
                let at = 1 + self.rng.below(bytes.len() as u64 - 1) as usize;
                bytes.truncate(at);
                Mutation::Truncate(at)
            }
            1 => {
                let off = self.rng.below(bytes.len() as u64) as usize;
                bytes[off] ^= 1 << self.rng.below(8);
                Mutation::BitFlip(off)
            }
            2 => {
                // Overwrite a 4-byte window with a hostile length/count:
                // either huge (allocation bombs) or small (inconsistent
                // with the data that follows).
                if bytes.len() < 4 {
                    let off = self.rng.below(bytes.len() as u64) as usize;
                    bytes[off] ^= 1 << self.rng.below(8);
                    return Mutation::BitFlip(off);
                }
                let off = self.rng.below(bytes.len() as u64 - 3) as usize;
                let value: u32 = if self.rng.below(2) == 0 {
                    0xffff_fff0 | self.rng.below(16) as u32
                } else {
                    self.rng.below(8) as u32
                };
                bytes[off..off + 4].copy_from_slice(&value.to_le_bytes());
                Mutation::LengthCorrupt(off)
            }
            _ => {
                // Splice: copy one window over another, possibly
                // overlapping — the section-overlap corruption class.
                let len = (1 + self.rng.below(64)) as usize;
                let len = len.min(bytes.len() / 2).max(1);
                let src = self.rng.below((bytes.len() - len + 1) as u64) as usize;
                let dst = self.rng.below((bytes.len() - len + 1) as u64) as usize;
                bytes.copy_within(src..src + len, dst);
                Mutation::Splice(src, dst, len)
            }
        }
    }
}

/// Fault-injection configuration for [`crate::run_hybrid`]: each
/// module's serialized rule file is corrupted with probability `rate`
/// before the integrity-checked load, using a per-module seed derived
/// from `seed` so results are independent of module iteration order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultInjection {
    /// Master seed for the deterministic mutation stream.
    pub seed: u64,
    /// Per-module corruption probability in `[0, 1]`.
    pub rate: f64,
}

impl FaultInjection {
    /// The per-module mutation seed: the master seed mixed with a hash
    /// of the module name, so adding or reordering modules does not
    /// perturb the faults injected into the others.
    pub fn module_seed(&self, module: &str) -> u64 {
        self.seed ^ janitizer_obj::checksum64(module.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn mutations_are_reproducible_and_in_bounds() {
        let base: Vec<u8> = (0..251u32).map(|i| (i * 7) as u8).collect();
        let mut m1 = Mutator::new(7);
        let mut m2 = Mutator::new(7);
        for _ in 0..500 {
            let mut a = base.clone();
            let mut b = base.clone();
            let ma = m1.mutate(&mut a);
            let mb = m2.mutate(&mut b);
            assert_eq!(ma, mb);
            assert_eq!(a, b);
            assert!(a.len() <= base.len());
        }
    }

    #[test]
    fn tiny_inputs_never_panic() {
        for len in 0..8usize {
            let mut m = Mutator::new(len as u64);
            for _ in 0..200 {
                let mut v = vec![0xaau8; len];
                m.mutate(&mut v);
            }
        }
    }

    #[test]
    fn module_seed_depends_on_name_not_order() {
        let fi = FaultInjection { seed: 9, rate: 1.0 };
        assert_eq!(fi.module_seed("libc.so"), fi.module_seed("libc.so"));
        assert_ne!(fi.module_seed("libc.so"), fi.module_seed("ld.so"));
    }

    #[test]
    fn chance_respects_extremes() {
        let mut r = SplitMix64::new(1);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }
}
