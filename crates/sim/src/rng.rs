//! In-repo pseudo-random number generator.
//!
//! A SplitMix64 stream: tiny, fast, statistically fine for timing jitter
//! and workload shuffling, and — unlike an external crate — guaranteed to
//! build offline and to produce the same stream on every toolchain. All
//! randomness in the simulation flows through [`crate::Sim::rng`], which
//! derives one of these per `(seed, label)` pair, so traces stay
//! reproducible bit-for-bit.

/// A deterministic SplitMix64 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seed a new stream. Equal seeds give equal streams, forever.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele, Lea, Flood 2014): one addition, three
        // xor-shift-multiply rounds. Passes BigCrush when used as here.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)`, 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in the half-open range `lo..hi` (panics if empty).
    /// Uses the widening-multiply reduction, so no modulo bias to speak of.
    pub fn range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        range.start + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform `usize` in `lo..hi`.
    pub fn range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.range_u64(range.start as u64..range.end as u64) as usize
    }

    /// Uniform float in `lo..hi`.
    pub fn range_f64(&mut self, range: std::ops::Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_f64() * (range.end - range.start)
    }

    /// True with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let av: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.range_u64(10..20);
            assert!((10..20).contains(&v));
            let f = r.range_f64(-0.25..0.25);
            assert!((-0.25..0.25).contains(&f));
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_covers_all_values() {
        // A span of 4 must hit every value in a reasonable sample.
        let mut r = Rng::seed_from_u64(11);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.range_usize(0..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn known_answer_pins_the_algorithm() {
        // SplitMix64 reference values for seed 1234567 (from the public
        // reference implementation); pins the stream across refactors.
        let mut r = Rng::seed_from_u64(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }
}
