//! A trace cache modelled after the Krick et al. patent ("Trace based
//! instruction caching", US 6,018,786), used by the appendix's Figure 3.
//!
//! A *trace* is a recorded run of consecutively fetched lines starting at a
//! head line. On a head hit, subsequent fetches that follow the recorded
//! trace bypass the i-cache entirely (zero fetch cost in our timing
//! model). The appendix observes that with >250 KB footprints, traces of
//! different SuperFunctions keep evicting each other, so the technique
//! barely changes the relative results — our model reproduces exactly that
//! contention behaviour through its bounded entry count.

use std::collections::VecDeque;

/// Per-core trace cache.
///
/// # Examples
///
/// ```
/// use schedtask_sim::TraceCache;
///
/// let mut tc = TraceCache::new(4, 3);
/// // First pass records a trace; second pass hits it.
/// let mut covered = 0;
/// for _ in 0..2 {
///     for line in [10, 11, 12] {
///         covered += u32::from(tc.fetch(line));
///     }
/// }
/// assert!(covered > 0);
/// ```
#[derive(Debug, Clone)]
pub struct TraceCache {
    entries: usize,
    trace_lines: usize,
    /// Stored traces in LRU order (front = MRU): (head, lines).
    traces: VecDeque<(u64, Vec<u64>)>,
    /// Trace currently being recorded.
    recording: Vec<u64>,
    /// Position in a currently-followed trace: (trace head, next index).
    following: Option<(u64, usize)>,
}

impl TraceCache {
    /// Creates a trace cache with `entries` traces of up to `trace_lines`
    /// lines each.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `trace_lines` < 2.
    pub fn new(entries: u32, trace_lines: u32) -> Self {
        assert!(entries > 0, "need at least one trace entry");
        assert!(trace_lines >= 2, "a trace shorter than 2 lines is useless");
        TraceCache {
            entries: entries as usize,
            trace_lines: trace_lines as usize,
            traces: VecDeque::new(),
            recording: Vec::new(),
            following: None,
        }
    }

    fn find_trace(&self, head: u64) -> Option<usize> {
        self.traces.iter().position(|(h, _)| *h == head)
    }

    /// Feeds the next demand-fetched line; returns `true` when the fetch
    /// is covered by a stored trace (i.e. the i-cache can be bypassed).
    pub fn fetch(&mut self, line: u64) -> bool {
        // Are we in the middle of following a trace?
        if let Some((head, idx)) = self.following {
            // A followed trace can only vanish through eviction, which
            // clears `following`; treat a miss as a divergence anyway.
            debug_assert!(self.find_trace(head).is_some(), "followed trace must exist");
            if let Some(pos) = self.find_trace(head) {
                let matches = self.traces[pos].1.get(idx) == Some(&line);
                if matches {
                    let done = idx + 1 >= self.traces[pos].1.len();
                    self.following = if done { None } else { Some((head, idx + 1)) };
                    return true;
                }
            }
            // Diverged from the recorded trace.
            self.following = None;
        }

        // Does a trace start here?
        if let Some(pos) = self.find_trace(line) {
            // Refresh LRU and start following (the head itself still costs
            // one i-cache access — only subsequent lines are covered).
            if let Some(t) = self.traces.remove(pos) {
                self.traces.push_front(t);
                if self.traces[0].1.len() > 1 {
                    self.following = Some((line, 1));
                }
            }
            self.record(line);
            return false;
        }

        self.record(line);
        false
    }

    fn record(&mut self, line: u64) {
        self.recording.push(line);
        if self.recording.len() == self.trace_lines {
            let head = self.recording[0];
            let trace = std::mem::take(&mut self.recording);
            if let Some(pos) = self.find_trace(head) {
                self.traces.remove(pos);
            } else if self.traces.len() == self.entries {
                self.traces.pop_back();
            }
            self.traces.push_front((head, trace));
        }
    }

    /// Number of stored traces.
    pub fn stored_traces(&self) -> usize {
        self.traces.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The share of `lines` that `tc.fetch` reports covered.
    fn coverage(tc: &mut TraceCache, lines: impl IntoIterator<Item = u64>) -> f64 {
        let (mut covered, mut total) = (0, 0);
        for line in lines {
            covered += u32::from(tc.fetch(line));
            total += 1;
        }
        f64::from(covered) / f64::from(total)
    }

    #[test]
    fn repeated_run_gets_covered() {
        let mut tc = TraceCache::new(8, 4);
        // Two traces of 4 lines each get recorded on pass 1; passes 2-3
        // cover 3 of every 4 lines (heads still cost a fetch).
        let coverage = coverage(&mut tc, (0..3).flat_map(|_| 100..108));
        assert!(coverage > 0.4, "coverage = {coverage}");
    }

    #[test]
    fn divergent_path_stops_following() {
        let mut tc = TraceCache::new(8, 3);
        for &l in &[1u64, 2, 3] {
            assert!(!tc.fetch(l)); // recording: not covered
        }
        // Head hit, but the second line diverges.
        assert!(!tc.fetch(1)); // head
        assert!(!tc.fetch(99)); // diverged: not covered
    }

    #[test]
    fn capacity_evicts_lru_traces() {
        let mut tc = TraceCache::new(2, 2);
        for head in [10u64, 20, 30] {
            tc.fetch(head);
            tc.fetch(head + 1);
        }
        assert_eq!(tc.stored_traces(), 2);
        // Oldest trace (head 10) evicted: re-fetching it is uncovered.
        assert!(!tc.fetch(10));
        assert!(!tc.fetch(11));
    }

    #[test]
    fn thrashing_many_streams_yields_low_coverage() {
        // More distinct streams than entries: traces evict each other, as
        // the appendix observes for >250 KB footprints.
        let mut tc = TraceCache::new(4, 4);
        let round = (0..16u64).flat_map(|stream| (0..8u64).map(move |off| stream * 1000 + off));
        let coverage = coverage(&mut tc, round.cycle().take(4 * 16 * 8));
        assert!(coverage < 0.2, "coverage = {coverage}");
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn zero_entries_rejected() {
        TraceCache::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "shorter than 2")]
    fn one_line_traces_rejected() {
        TraceCache::new(4, 1);
    }
}
