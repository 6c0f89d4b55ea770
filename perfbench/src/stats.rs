//! Small order statistics and the seeded generator every input is drawn from.

/// SplitMix64: a tiny, well-mixed generator, so a seed fixes every input
/// independently of any crate's RNG implementation.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a run's seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over a byte stream: the digest printed for a run's inputs.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        // Separator, so ["ab","c"] and ["a","bc"] differ.
        self.0 ^= 0xFF;
        self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive samples; 0 when empty.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
    }
}

/// Each item's best (lowest) sample, in key order.
///
/// On a shared host the same work runs up to 1.7 times slower for seconds
/// at a time, so a median over every sample of a run follows the host's
/// speed from run to run. Every workload repeats a fixed set of items
/// through its run, and its latency figures are taken over each item's
/// best repeat: in a probe of 12 checks repeated for 300 s on one 2-vCPU
/// VM, the per-item best of each 30 s window spread by 4% (IQR over median)
/// where the window medians spread by 22%. Stretches of 10 s and more are
/// left to [`crate::calib`].
pub fn best_per_item<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> Vec<f64> {
    let mut best = std::collections::BTreeMap::new();
    for (k, v) in samples {
        let b = best.entry(k).or_insert(v);
        if v < *b {
            *b = v;
        }
    }
    best.into_values().collect()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn best_per_item_keeps_each_minimum() {
        let best = best_per_item([(2, 5.0), (1, 3.0), (2, 4.0), (1, 6.0)]);
        assert_eq!(best, vec![3.0, 4.0]);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn generator_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next(), Rng::new(7, 2).next());
        assert_ne!(Rng::new(7, 1).next(), Rng::new(8, 1).next());
    }
}
