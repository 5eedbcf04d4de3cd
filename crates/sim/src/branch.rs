//! Branch prediction.
//!
//! Table 2's machine uses a TAGE predictor. The engine's default timing
//! model folds branch effects into the base CPI (a flat average, like
//! the LLC's "Avg. Latency"); this module provides an explicit
//! gshare-style predictor for the branch-modeling ablation, where
//! mispredictions are charged per taken-branch outcome instead.

/// A gshare branch predictor: a table of 2-bit saturating counters
/// indexed by the branch line XOR the global history.
///
/// # Examples
///
/// ```
/// use schedtask_sim::GshareBranchPredictor;
///
/// let mut bp = GshareBranchPredictor::new(1024);
/// // A loop branch that is always taken becomes predictable.
/// for _ in 0..8 {
///     bp.predict_and_train(42, true);
/// }
/// assert!(bp.predict_and_train(42, true));
/// ```
#[derive(Debug, Clone)]
pub struct GshareBranchPredictor {
    /// 2-bit saturating counters (0-1 predict not-taken, 2-3 taken).
    counters: Vec<u8>,
    history: u64,
}

impl GshareBranchPredictor {
    /// Creates a predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: u32) -> Self {
        assert!(
            entries.is_power_of_two(),
            "need at least one counter, and a power of two of them"
        );
        GshareBranchPredictor {
            counters: vec![2; entries as usize], // weakly taken
            history: 0,
        }
    }

    fn index(&self, line: u64) -> usize {
        ((line ^ self.history) & (self.counters.len() as u64 - 1)) as usize
    }

    /// Predicts the branch at `line`, trains with the actual `taken`
    /// outcome, and returns whether the prediction was correct.
    pub fn predict_and_train(&mut self, line: u64, taken: bool) -> bool {
        let idx = self.index(line);
        let predicted_taken = self.counters[idx] >= 2;
        let correct = predicted_taken == taken;
        // Train the counter.
        if taken {
            self.counters[idx] = (self.counters[idx] + 1).min(3);
        } else {
            self.counters[idx] = self.counters[idx].saturating_sub(1);
        }
        // Shift the history.
        self.history = (self.history << 1) | taken as u64;
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The share of `(line, taken)` branches `bp` predicts correctly.
    fn accuracy(
        bp: &mut GshareBranchPredictor,
        branches: impl Iterator<Item = (u64, bool)>,
    ) -> f64 {
        let (mut correct, mut total) = (0, 0);
        for (line, taken) in branches {
            correct += u32::from(bp.predict_and_train(line, taken));
            total += 1;
        }
        f64::from(correct) / f64::from(total)
    }

    #[test]
    fn always_taken_branch_learns() {
        let mut bp = GshareBranchPredictor::new(256);
        assert!(accuracy(&mut bp, (0..50).map(|_| (7, true))) > 0.9);
    }

    #[test]
    fn alternating_branch_with_history_learns() {
        // T,N,T,N...: gshare's history bit makes this predictable after
        // warm-up.
        let mut bp = GshareBranchPredictor::new(4096);
        let accuracy = accuracy(&mut bp, (0..2_000).map(|i| (9, i % 2 == 0)));
        assert!(accuracy > 0.8, "accuracy {accuracy}");
    }

    #[test]
    fn random_branches_hover_near_chance() {
        let mut bp = GshareBranchPredictor::new(1024);
        let mut rng = SmallRng::seed_from_u64(3);
        let accuracy = accuracy(&mut bp, (0..20_000u64).map(|i| (i % 64, rng.gen_bool(0.5))));
        assert!((0.4..0.6).contains(&accuracy), "accuracy {accuracy}");
    }

    #[test]
    fn counters_saturate() {
        let mut bp = GshareBranchPredictor::new(1);
        for _ in 0..10 {
            bp.predict_and_train(0, true);
        }
        // Saturated taken: one not-taken outcome is mispredicted, but
        // the counter only steps down one notch.
        assert!(!bp.predict_and_train(0, false));
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_entries_rejected() {
        GshareBranchPredictor::new(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_entries_rejected() {
        GshareBranchPredictor::new(1_000);
    }
}
