//! Order statistics and span arithmetic shared by every workload.

/// A latency that counts as missing every limit: failed requests are
/// recorded with it so they sort above every real round trip.
pub const FAILED: u64 = u64::MAX;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether `p` has at least ten samples beyond its nearest rank in `n`
/// samples — the rule for reporting a percentile at all.
pub fn reportable(n: usize, p: f64) -> bool {
    let rank = (p * n as f64).ceil() as usize;
    n >= 1 && n.saturating_sub(rank.max(1)) >= 10
}

/// Median of unordered floats (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Self time of a span: its duration minus the part of it that its
/// child spans cover. Children are clipped to the parent and may
/// overlap each other; covered time is counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Percentile of `samples` in microseconds from nanosecond samples, or
/// `None` when the ten-samples-beyond rule fails or the percentile
/// falls on a failed request.
pub fn percentile_us(samples: &[u64], p: f64) -> Option<f64> {
    if !reportable(samples.len(), p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, p)
        .filter(|&ns| ns != FAILED)
        .map(|ns| ns as f64 / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_expected_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        assert!(reportable(20, 0.5));
        assert!(!reportable(19, 0.5));
        assert!(reportable(1_000, 0.99));
        assert!(!reportable(999, 0.99));
        assert!(!reportable(0, 0.5));
        assert_eq!(percentile_us(&[1_000; 19], 0.5), None);
        assert_eq!(percentile_us(&[1_000; 20], 0.5), Some(1.0));
    }

    #[test]
    fn failed_requests_miss_the_percentile() {
        let mut v = vec![2_000; 30];
        assert_eq!(percentile_us(&v, 0.5), Some(2.0));
        v.extend([FAILED; 31]);
        assert_eq!(percentile_us(&v, 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30)]), 80);
        // Overlapping children are covered once.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40)]), 70);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 50), &[(0, 20), (40, 90)]), 20);
        // A child covering the whole parent leaves nothing.
        assert_eq!(self_time((10, 50), &[(0, 90)]), 0);
        // Children outside the parent do not count.
        assert_eq!(self_time((10, 50), &[(60, 70)]), 40);
    }
}
