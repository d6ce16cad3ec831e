//! Order statistics for latency lines and repeat checks.

/// Percentiles a latency line may be reported at, ascending.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile must leave beyond itself to be reported.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, in whole
/// permille so that 99.9 % of 10 000 is exactly 9 990.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest ladder percentile `≤ want` that has at least ten of `n`
/// samples beyond it. The median needs no such support: it is what a
/// timing is reported as when the samples carry nothing higher.
pub fn supported_percentile(n: usize, want: f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LADDER
        .into_iter()
        .rev()
        .filter(|&p| p <= want)
        .find(|&p| p == LADDER[0] || n - rank(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// `samples` at the highest supported percentile `≤ want`: `(value,
/// percentile used)`.
pub fn tail(samples: &[f64], want: f64) -> Option<(f64, f64)> {
    let p = supported_percentile(samples.len(), want)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((percentile(&sorted, p), p))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_takes_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(supported_percentile(1000, 99.9), Some(99.0));
        assert_eq!(supported_percentile(999, 99.0), Some(95.0));
        assert_eq!(supported_percentile(10_000, 99.9), Some(99.9));
        // The gather and strict sample sizes of `shard2_gather`.
        assert_eq!(supported_percentile(600, 99.0), Some(95.0));
        assert_eq!(supported_percentile(100, 99.0), Some(90.0));
        assert_eq!(supported_percentile(100, 50.0), Some(50.0));
        // `want` caps the answer.
        assert_eq!(supported_percentile(10_000, 50.0), Some(50.0));
        // Too few samples for a tail: the median alone.
        assert_eq!(supported_percentile(19, 99.0), Some(50.0));
        assert_eq!(supported_percentile(1, 99.0), Some(50.0));
        assert_eq!(supported_percentile(0, 50.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(tail(&v, 99.0), Some((90.0, 90.0)));
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(tail(&shuffled, 50.0), Some((50.0, 50.0)));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
