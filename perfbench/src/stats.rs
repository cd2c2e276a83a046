//! Percentiles that refuse to extrapolate, and a seeded RNG.

/// Samples a percentile must have strictly above its rank before it is
/// reported: a tail resting on fewer points is one scheduler hiccup away
/// from a different number.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which `pct` has [`MIN_BEYOND`] samples
/// beyond it (20 for the median, 100 for p90, 1000 for p99).
pub fn min_samples(pct: u32) -> usize {
    (1..).find(|&n| n - rank(n, pct) >= MIN_BEYOND).expect("some count qualifies")
}

/// 1-based nearest-rank position of percentile `pct` in `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile `pct` (1..=99) of `samples`, or an error when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: u32) -> Result<f64, String> {
    assert!((1..=99).contains(&pct), "percentile {pct} out of range");
    let n = samples.len();
    if n == 0 || n - rank(n, pct) < MIN_BEYOND {
        return Err(format!(
            "p{pct} of {n} samples has fewer than {MIN_BEYOND} samples beyond it (need {})",
            min_samples(pct)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(n, pct) - 1])
}

/// The median, under the same refusal rule.
pub fn median(samples: &[f64]) -> Result<f64, String> {
    percentile(samples, 50)
}

/// SplitMix64: the benchmark's only randomness, a pure function of the
/// workload seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, split by `stream` so independent choices
    /// (order, revisits, subsamples) never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_percentiles_without_ten_samples_beyond() {
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(median(&xs).is_err(), "19 samples leave only 9 beyond the median");
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(median(&xs).unwrap(), 9.0);
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&xs, 99).is_err());
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99).unwrap(), 989.0);
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&xs, 90).is_err());
        assert!(percentile(&[], 50).is_err());
    }

    #[test]
    fn min_samples_matches_the_rule() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        for pct in [50, 75, 90, 95, 99] {
            let n = min_samples(pct);
            let xs = vec![1.0; n];
            assert!(percentile(&xs, pct).is_ok());
            assert!(percentile(&xs[1..], pct).is_err());
        }
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| r.below(13) < 13));
    }
}
