//! The benchmark's own deterministic generator and hash, so the inputs
//! a seed produces never change with the library under test.

/// SplitMix64: every seed (including 0) gives a full-period stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates the generators of one
    /// workload so adding a draw to one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ 0x9e37_79b9_7f4a_7c15, stream))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift: unbiased enough for bounds far below 2^32.
        ((self.next_u64() >> 32) * bound) >> 32
    }
}

/// Folds `v` into the running hash `h` (used for op-stream hashes and
/// for every result checksum, VM side and model side alike).
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    let x = (h ^ v).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^ (x >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_bounds_hold() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(8, 1);
        let mut differs = false;
        for _ in 0..1000 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            differs |= x != c.next_u64();
            assert!(a.below(40) < 40);
            b.below(40);
        }
        assert!(differs);
    }
}
