//! Small summary-statistics helpers for the experiment binaries.

/// Summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median observation.
    pub median: f64,
}

impl Summary {
    /// Summarize a sample; returns `None` for an empty one.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Some(Summary {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: sorted[n / 2],
        })
    }

    /// Coefficient of variation (std ÷ mean).
    pub fn cov(&self) -> f64 {
        if self.mean != 0.0 {
            self.std / self.mean
        } else {
            0.0
        }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample as the ⌈q·n⌉-th smallest
/// observation — the same nearest-rank convention as the latency
/// histograms in `acic::Metrics`, so client-side and server-side
/// percentiles in the serve benchmark are comparable.  `None` for an
/// empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median of a sample as its ⌊n/2⌋-th smallest observation (the
/// upper median for an even count) — the estimator the `bench_*` gates
/// apply to per-pair ratios and timing samples.
///
/// # Panics
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 5.0);
        assert!((s.cov() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn quantile_uses_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 0.95), Some(5.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_is_the_upper_middle_observation() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn empty_sample_is_none_and_constant_sample_has_zero_cov() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(s.std, 0.0);
        assert_eq!(s.cov(), 0.0);
    }
}
