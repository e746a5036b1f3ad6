//! The benchmark's own seeded generator (SplitMix64), so that op
//! streams depend on `--seed` alone and on no crate under test.

/// A SplitMix64 stream. Distinct `(seed, stream)` pairs give unrelated
/// sequences, which is how each client and each table gets its own.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for one named stream of a seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        // decorrelate neighbouring seeds before the first draw
        r.next_u64();
        Rng(r.next_u64())
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Samples ranks `0..universe` with probability ∝ `1/(rank+1)^s` — the
/// key profile of the legacy `scaling_db` relations.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Precomputes the cumulative weights.
    pub fn new(universe: usize, s: f64) -> Zipf {
        assert!(universe > 0, "empty universe");
        let mut total = 0.0;
        let cumulative = (0..universe)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, stream: u64) -> Vec<u64> {
        let mut r = Rng::new(seed, stream);
        (0..8).map(|_| r.next_u64()).collect()
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        assert_eq!(draws(7, 1), draws(7, 1));
        assert_ne!(draws(7, 1), draws(7, 2));
        assert_ne!(draws(7, 1), draws(8, 1));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(50, 1.2);
        let mut rng = Rng::new(3, 0);
        let draws: Vec<usize> = (0..2000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 50));
        let low = draws.iter().filter(|&&d| d == 0).count();
        let high = draws.iter().filter(|&&d| d == 49).count();
        assert!(low > high, "rank 0: {low}, rank 49: {high}");
    }
}
