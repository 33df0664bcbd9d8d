//! Order statistics for the reported timings.

/// Median of `values` (mean of the middle pair for even counts); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The cap on the percentile `tail_ms` reports. Above p95 the serve tail
/// is set by a few dozen requests caught in disk or host stalls, and its
/// spread between runs exceeded the metric's bound (README.md).
pub const TAIL_CAP: usize = 95;

/// A tail percentile chosen by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (at most the cap).
    pub percentile: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The percentile rule: the highest percentile, capped at `cap`, with at
/// least [`TAIL_BEYOND`] samples beyond it. `None` when there are too few
/// samples for any percentile to qualify.
pub fn tail(values: &[f64], cap: usize) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the p-th percentile is the ceil(p·n/100)-th smallest
    // value, which leaves n − rank samples beyond it.
    let rank = (n * cap).div_ceil(100).min(n - TAIL_BEYOND);
    Some(Tail {
        percentile: (rank * 100) as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the rule cannot rely on input order.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1000), 99).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
        // Exactly ten samples (990..=999) lie beyond the value 989.
        assert_eq!(t.value, 989.0);
        let beyond = ramp(1000).iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn fewer_samples_lower_the_percentile() {
        let t = tail(&ramp(150), TAIL_CAP).unwrap();
        assert!((t.percentile - 93.333).abs() < 1e-3, "{t:?}");
        assert_eq!(t.samples, 150);
        let beyond = ramp(150).iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
        // More samples than needed never reports beyond the cap.
        assert_eq!(tail(&ramp(5000), 99).unwrap().percentile, 99.0);
        let t = tail(&ramp(2500), TAIL_CAP).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 2374.0);
    }

    #[test]
    fn too_few_samples_report_no_tail() {
        assert_eq!(tail(&ramp(10), 99), None);
        let t = tail(&ramp(11), 99).unwrap();
        assert_eq!(t.value, 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
