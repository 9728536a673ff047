//! Order statistics of timing samples.

/// Median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(xs, n=4)`, so spreads computed here
/// match the ones computed over the results afterwards.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Clamping can make delta negative (extrapolation), as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Percentiles the benchmark may report, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it under the nearest-rank rule,
/// or `None` when even the median does not.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= MIN_BEYOND)
}

/// Latency samples per block of [`p99`]: the fewest that leave ten
/// samples beyond a nearest-rank 99th percentile.
pub const P99_BLOCK: usize = 1000;

/// Blocks [`p99`] needs at least.
pub const MIN_P99_BLOCKS: usize = 3;

/// Latency samples a run collects at least.
pub const MIN_LATENCY_SAMPLES: usize = P99_BLOCK * MIN_P99_BLOCKS;

/// The 99th percentile of latency samples in the order they were taken:
/// the median, over consecutive blocks of [`P99_BLOCK`] samples, of each
/// block's nearest-rank p99. A burst of machine noise raises the p99 of
/// the block it falls in, not the median over blocks. Refuses fewer than
/// [`MIN_P99_BLOCKS`] whole blocks.
pub fn p99(xs: &[f64]) -> Result<f64, String> {
    assert!(
        supported_percentile(P99_BLOCK).is_some_and(|p| p >= 99.0),
        "a block must support its 99th percentile"
    );
    let blocks: Vec<f64> = xs
        .chunks_exact(P99_BLOCK)
        .map(|block| percentile(block, 99.0))
        .collect();
    if blocks.len() < MIN_P99_BLOCKS {
        return Err(format!(
            "{} latency samples make fewer than {MIN_P99_BLOCKS} blocks of {P99_BLOCK}",
            xs.len()
        ));
    }
    Ok(median(&blocks))
}

/// Nearest-rank percentile `p` (0 < p <= 100) of a sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let s = sorted(xs);
    s[nearest_rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The tiny
/// tolerance keeps binary rounding (99.9 % of 10 000 = 9990.000…02) from
/// bumping an exact rank up by one.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (clamped
        // ranks extrapolate)
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn rank_rule_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(supported_percentile(1000), Some(99.0));
        // 999 samples: p99 is rank 990 (ceil 989.01), 9 beyond; p95 holds.
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(0), None);
    }

    #[test]
    fn p99_is_the_median_of_block_p99s() {
        assert!(p99(&vec![1.0; 2999]).is_err());
        // Three blocks of 1..=1000: each block's p99 is 990.
        let mut xs: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000 + 1)).collect();
        assert_eq!(p99(&xs), Ok(990.0));
        // A burst slowing the whole middle block moves only that block.
        for x in &mut xs[1000..2000] {
            *x *= 10.0;
        }
        assert_eq!(p99(&xs), Ok(990.0));
        // A trailing partial block is left out.
        xs.extend([1e9; 999]);
        assert_eq!(p99(&xs), Ok(990.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }
}
