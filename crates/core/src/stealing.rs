//! Work-stealing strategies (Section 5.3 and Figure 9).

use std::fmt;

/// The work-stealing strategy an idle core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StealPolicy {
    /// Never steal (Figure 9's "Steal nothing": high i-cache hit rate but
    /// ~19 % mean idle time).
    Nothing,
    /// Steal only SuperFunctions whose superFuncType is mapped to the
    /// local core — no added i-cache pollution.
    SameWorkOnly,
    /// First try [`StealPolicy::SameWorkOnly`]; then steal SuperFunctions
    /// of the most-overlapping types from the overlap table, taking half
    /// of the matching SuperFunctions to amortize the initial cold
    /// misses. The paper's default.
    #[default]
    SimilarWorkAlso,
    /// The alternate strategy discussed in Section 6.4: always steal from
    /// the core with the maximum waiting time, ignoring similarity
    /// (higher i-cache pollution, mean benefit only ≈10.8 %).
    MaxWaitingTime,
}

impl StealPolicy {
    /// All strategies in Figure 9 order, plus the alternate.
    pub fn all() -> [StealPolicy; 4] {
        [
            StealPolicy::Nothing,
            StealPolicy::SameWorkOnly,
            StealPolicy::SimilarWorkAlso,
            StealPolicy::MaxWaitingTime,
        ]
    }
}

impl fmt::Display for StealPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StealPolicy::Nothing => "Steal nothing",
            StealPolicy::SameWorkOnly => "Steal same work only",
            StealPolicy::SimilarWorkAlso => "Steal similar work also",
            StealPolicy::MaxWaitingTime => "Steal from max-waiting core",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_similar_work_also() {
        assert_eq!(StealPolicy::default(), StealPolicy::SimilarWorkAlso);
    }

    #[test]
    fn display_names() {
        assert_eq!(StealPolicy::Nothing.to_string(), "Steal nothing");
        assert_eq!(
            StealPolicy::SimilarWorkAlso.to_string(),
            "Steal similar work also"
        );
    }

    #[test]
    fn all_lists_four() {
        assert_eq!(StealPolicy::all().len(), 4);
    }
}
