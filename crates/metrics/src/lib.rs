//! Statistics used throughout the SchedTask reproduction.
//!
//! The paper leans on four statistical tools, all implemented here:
//!
//! * [`cosine_similarity`] — similarity of instruction breakups across
//!   consecutive epochs (Section 4.4, Equation 1) and TAlloc's
//!   re-allocation trigger (Section 5.2, threshold 0.98).
//! * [`kendall_tau_b`] — quality of the Bloom-filter overlap ranking versus
//!   the exact-footprint ranking (Section 6.5, Figure 11).
//! * [`jain_fairness`] — fairness of per-thread instruction throughput
//!   (Section 6.1, "Fairness of scheduling").
//! * [`geometric_mean_pct`] — the paper's summary statistic for
//!   percentage-change columns ("geom. mean" in Figures 7-9 and all
//!   appendix tables).
//!
//! # Examples
//!
//! ```
//! use schedtask_metrics::cosine_similarity;
//!
//! let epoch_a = [35.0, 40.0, 10.0, 15.0];
//! let epoch_b = [34.0, 41.0, 10.0, 15.0];
//! assert!(cosine_similarity(&epoch_a, &epoch_b) > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

/// Cosine similarity between two equal-length vectors (Equation 1 in the
/// paper).
///
/// Ranges from -1.0 (exactly opposite) to +1.0 (exactly the same); 0.0
/// indicates no correlation. If either vector has zero magnitude the
/// similarity is defined as 0.0 (no correlation), which matches how the
/// paper treats empty epochs at the very start of execution.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
///
/// # Examples
///
/// ```
/// use schedtask_metrics::cosine_similarity;
///
/// assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
/// assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
/// ```
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "cosine similarity needs equal-length vectors"
    );
    let mut dot = 0.0;
    let mut norm_a = 0.0;
    let mut norm_b = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x * y;
        norm_a += x * x;
        norm_b += y * y;
    }
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    dot / (norm_a.sqrt() * norm_b.sqrt())
}

/// Kendall's rank correlation coefficient τ_B between two rankings given as
/// score slices over the same items (Section 6.5).
///
/// The inputs are *scores*: item `i` has score `a[i]` under ranking A and
/// `b[i]` under ranking B. τ_B handles ties via the standard tie
/// correction:
///
/// ```text
/// τ_B = (C - D) / sqrt((n0 - n1) * (n0 - n2))
/// ```
///
/// where `C`/`D` are concordant/discordant pair counts, `n0 = n(n-1)/2`,
/// and `n1`/`n2` are tied-pair counts within A and B. Returns a value in
/// [-1.0, +1.0]; -1.0 is the opposite ranking and +1.0 the same ranking.
/// Returns 0.0 when either ranking is entirely tied (no ordering
/// information).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use schedtask_metrics::kendall_tau_b;
///
/// // Identical orderings.
/// assert!((kendall_tau_b(&[3.0, 2.0, 1.0], &[30.0, 20.0, 10.0]) - 1.0).abs() < 1e-12);
/// // Reversed orderings.
/// assert!((kendall_tau_b(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
/// ```
pub fn kendall_tau_b(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "kendall tau needs equal-length score slices"
    );
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_a = 0i64;
    let mut ties_b = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            let tied_a = da == 0.0;
            let tied_b = db == 0.0;
            match (tied_a, tied_b) {
                (true, true) => {
                    ties_a += 1;
                    ties_b += 1;
                }
                (true, false) => ties_a += 1,
                (false, true) => ties_b += 1,
                (false, false) => {
                    if (da > 0.0) == (db > 0.0) {
                        concordant += 1;
                    } else {
                        discordant += 1;
                    }
                }
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = (((n0 - ties_a) as f64) * ((n0 - ties_b) as f64)).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    (concordant - discordant) as f64 / denom
}

/// Jain's fairness index over per-thread throughputs (Section 6.1).
///
/// ```text
/// J(x) = (Σ x_i)² / (n · Σ x_i²)
/// ```
///
/// Ranges from `1/n` (completely unfair: one thread gets everything) to
/// `1.0` (completely fair). Returns 1.0 for an empty slice (vacuously
/// fair) and 0.0 if all throughputs are zero.
///
/// # Examples
///
/// ```
/// use schedtask_metrics::jain_fairness;
///
/// assert!((jain_fairness(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
/// assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
/// ```
pub fn jain_fairness(throughputs: &[f64]) -> f64 {
    if throughputs.is_empty() {
        return 1.0;
    }
    let sum: f64 = throughputs.iter().sum();
    let sum_sq: f64 = throughputs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 0.0;
    }
    (sum * sum) / (throughputs.len() as f64 * sum_sq)
}

/// Geometric mean of percentage *changes*, the paper's "geom. mean" column.
///
/// Each input is a percentage change (e.g. `+22.79` for +22.79 %). Values
/// are converted to ratios `1 + p/100`, the geometric mean of the ratios is
/// taken, and the result is converted back to a percentage change. This is
/// the standard way to aggregate speedups and is how the paper's negative
/// entries (e.g. FlexSC's -75 %) coexist with positive ones in a geometric
/// mean.
///
/// Ratios are clamped to a small positive floor (0.001, i.e. -99.9 %) so a
/// pathological -100 % sample does not collapse the whole mean to -100 %.
/// Returns 0.0 for an empty slice.
///
/// # Examples
///
/// ```
/// use schedtask_metrics::geometric_mean_pct;
///
/// let g = geometric_mean_pct(&[10.0, 10.0, 10.0]);
/// assert!((g - 10.0).abs() < 1e-9);
/// ```
pub fn geometric_mean_pct(changes_pct: &[f64]) -> f64 {
    if changes_pct.is_empty() {
        return 0.0;
    }
    let mut log_sum = 0.0;
    for &p in changes_pct {
        let ratio = (1.0 + p / 100.0).max(0.001);
        log_sum += ratio.ln();
    }
    ((log_sum / changes_pct.len() as f64).exp() - 1.0) * 100.0
}

/// Arithmetic mean; returns 0.0 for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(schedtask_metrics::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Percentage change from `baseline` to `value`.
///
/// Returns 0.0 when the baseline is zero (no meaningful change can be
/// expressed).
///
/// # Examples
///
/// ```
/// assert_eq!(schedtask_metrics::pct_change(100.0, 125.0), 25.0);
/// assert_eq!(schedtask_metrics::pct_change(200.0, 100.0), -50.0);
/// ```
pub fn pct_change(baseline: f64, value: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    (value - baseline) / baseline * 100.0
}

/// Ratio `numerator / denominator` expressed as a percentage; 0.0 when the
/// denominator is zero.
///
/// # Examples
///
/// ```
/// assert_eq!(schedtask_metrics::pct(1.0, 4.0), 25.0);
/// ```
pub fn pct(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        return 0.0;
    }
    numerator / denominator * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_identical_vectors_is_one() {
        let v = [3.0, 4.0, 5.0];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_vectors_is_zero() {
        assert!(cosine_similarity(&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]).abs() < 1e-12);
    }

    #[test]
    fn cosine_opposite_vectors_is_minus_one() {
        assert!((cosine_similarity(&[1.0, 2.0], &[-1.0, -2.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_scale_invariant() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0];
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn cosine_length_mismatch_panics() {
        cosine_similarity(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn tau_identical_ranking_is_one() {
        let a = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau_b(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tau_reversed_ranking_is_minus_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau_b(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn tau_single_swap() {
        // Rankings differ by one adjacent swap among 4 items: tau = (C-D)/n0
        // with C=5, D=1, n0=6 -> 4/6.
        let a = [4.0, 3.0, 2.0, 1.0];
        let b = [4.0, 2.0, 3.0, 1.0];
        assert!((kendall_tau_b(&a, &b) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn tau_all_tied_is_zero() {
        assert_eq!(kendall_tau_b(&[1.0, 1.0, 1.0], &[3.0, 2.0, 1.0]), 0.0);
    }

    #[test]
    fn tau_handles_partial_ties() {
        // a has a tie; tie-corrected denominator shrinks accordingly.
        let a = [2.0, 2.0, 1.0];
        let b = [3.0, 2.0, 1.0];
        // Pairs: (0,1) tied in a; (0,2) concordant; (1,2) concordant.
        // n0 = 3, ties_a = 1, ties_b = 0 -> tau = 2 / sqrt(2*3).
        assert!((kendall_tau_b(&a, &b) - 2.0 / (6.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn tau_short_input_is_zero() {
        assert_eq!(kendall_tau_b(&[1.0], &[1.0]), 0.0);
        assert_eq!(kendall_tau_b(&[], &[]), 0.0);
    }

    #[test]
    fn jain_equal_throughput_is_one() {
        assert!((jain_fairness(&[2.5; 8]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        let mut v = vec![0.0; 10];
        v[3] = 42.0;
        assert!((jain_fairness(&v) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn jain_empty_is_one_and_zero_is_zero() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn jain_bounds() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let j = jain_fairness(&v);
        assert!(j > 1.0 / 4.0 && j < 1.0);
    }

    #[test]
    fn geomean_of_equal_changes_is_that_change() {
        assert!((geometric_mean_pct(&[25.0, 25.0]) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_mixes_positive_and_negative() {
        // +100% and -50% cancel: ratios 2.0 * 0.5 = 1.0 -> 0% change.
        assert!(geometric_mean_pct(&[100.0, -50.0]).abs() < 1e-9);
    }

    #[test]
    fn geomean_clamps_minus_hundred() {
        let g = geometric_mean_pct(&[-100.0]);
        assert!(g > -100.0 && g <= -99.9 + 1e-9);
    }

    #[test]
    fn geomean_empty_is_zero() {
        assert_eq!(geometric_mean_pct(&[]), 0.0);
    }

    #[test]
    fn pct_change_basics() {
        assert_eq!(pct_change(0.0, 10.0), 0.0);
        assert!((pct_change(10.0, 11.0) - 10.0).abs() < 1e-12);
        assert_eq!(pct_change(10.0, 10.0), 0.0);
    }

    #[test]
    fn pct_basics() {
        assert_eq!(pct(3.0, 0.0), 0.0);
        assert_eq!(pct(3.0, 12.0), 25.0);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[4.0]), 4.0);
    }
}
