//! Sample arithmetic and the seeded generators every workload shares.

/// Percentile `p` in `[0, 1]` of `sorted` (ascending), interpolating
/// linearly between the two nearest ranks. NaN for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Geometric mean; NaN for an empty slice or a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The highest of the usual percentiles that still has at least ten of
/// `n` samples beyond it — the furthest tail the sample supports.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In thousandths, so that 100 samples beyond p90 count exactly ten.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10_000)
        .map(|p| p as f64 / 1000.0)
}

/// `(percentile, value)` of the supported tail of `values`, or zeros
/// when there are too few samples for any.
pub fn tail(values: &[f64]) -> (f64, f64) {
    match tail_percentile(values.len()) {
        Some(p) => (p, percentile(&sorted(values), p)),
        None => (0.0, 0.0),
    }
}

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A quantized activation tensor: values in `0..16`, like the
    /// inputs the repository's other benchmarks use.
    pub fn activations(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next_u64() >> 60) as u8).collect()
    }
}

/// Due times in seconds of `n` arrivals at `rate` per second: one in
/// every slot of `1 / rate`, at a seeded place inside its slot. Arrivals
/// are irregular and can fall back to back, so queues form as they do
/// under independent users, but every seed offers the same load in every
/// stretch of the phase. Poisson arrivals do not: with the few dozen
/// requests a ten-second run affords, how they happened to clump under
/// one seed moved the median latency by a third.
pub fn jittered_schedule(rng: &mut Rng, rate: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 + rng.unit()) / rate).collect()
}

/// Which of two models each of `n` requests goes to: exactly one in
/// every block of four goes to model 1 (a 3:1 mix), at a seeded position
/// inside its block, so every seed carries the same mix.
pub fn model_mix(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut mix = Vec::with_capacity(n + 3);
    while mix.len() < n {
        let heavy = (rng.next_u64() % 4) as usize;
        mix.extend((0..4).map(|i| usize::from(i == heavy)));
    }
    mix.truncate(n);
    mix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn geomean_is_the_nth_root_of_the_product() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(199), Some(0.9));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn same_seed_same_schedule_and_mix() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let due = jittered_schedule(&mut rng, 20.0, 100);
            let mix = model_mix(&mut rng, 100);
            let bits: Vec<u64> = due.iter().map(|d| d.to_bits()).collect();
            (bits, mix)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn schedule_fills_the_phase_and_mix_is_three_to_one() {
        let mut rng = Rng::new(1);
        let due = jittered_schedule(&mut rng, 8.0, 40);
        assert_eq!(due.len(), 40);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due
            .iter()
            .enumerate()
            .all(|(i, &d)| (d * 8.0).ceil() as usize == i + 1));
        let mix = model_mix(&mut rng, 40);
        assert_eq!(mix.iter().sum::<usize>(), 10);
    }
}
