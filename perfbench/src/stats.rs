//! Percentiles over exact samples (the benchmark keeps every sample, so no
//! bucketing error enters its own numbers).

/// Nearest-rank percentile of an ascending-sorted slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns the `p` percentile.
pub fn percentile_of(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    percentile(samples, p)
}

/// The highest percentile that still has at least ten samples beyond it —
/// what a `*_p99` ledger cell reports when the sample is too small for a
/// real p99. Falls back to the median.
pub fn tail_level(n: usize) -> f64 {
    // (level, percent of samples beyond it) — integers, so 100 samples at
    // p90 count as exactly ten beyond.
    const LEVELS: [(f64, usize); 4] = [(0.99, 1), (0.95, 5), (0.90, 10), (0.75, 25)];
    LEVELS
        .into_iter()
        .find(|&(_, beyond_pct)| n * beyond_pct >= 1000)
        .map_or(0.5, |(level, _)| level)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(1000), 0.99);
        assert_eq!(tail_level(999), 0.95);
        assert_eq!(tail_level(200), 0.95);
        assert_eq!(tail_level(199), 0.90);
        assert_eq!(tail_level(100), 0.90);
        assert_eq!(tail_level(99), 0.75);
        assert_eq!(tail_level(40), 0.75);
        assert_eq!(tail_level(39), 0.5);
    }
}
