//! Order statistics.

/// Nearest-rank percentile (`p` in `0..=1`) of unsorted samples; 0 for
/// an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
#[must_use]
pub fn rank(n: usize, p: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = (p * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_beyond_p95_at_200() {
        assert_eq!(rank(200, 0.95), 190);
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), 190.0);
        assert_eq!(median(&xs), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
