//! A history-based instruction prefetcher in the spirit of Call Graph
//! Prefetching (CGP, Annavaram et al.), hardware-only mode.
//!
//! The appendix's Figure 2 re-evaluates all core-specialization techniques
//! on a baseline that has an instruction prefetcher. CGP's hardware-only
//! mode learns, per fetched line, which lines were fetched next, and
//! prefetches a few predicted successors on every demand fetch. We model
//! exactly that: a direct-mapped successor-history table of
//! `table_entries`, trained on the demand-fetch stream, that emits up to
//! `degree` predicted lines per trigger.

/// Successor-history instruction prefetcher.
///
/// # Examples
///
/// ```
/// use schedtask_sim::CallGraphPrefetcher;
///
/// let mut p = CallGraphPrefetcher::new(1024, 2);
/// p.observe(100);
/// p.observe(101);
/// p.observe(102);
/// // After training, fetching line 100 predicts 101 (and its successor).
/// assert_eq!(p.predict(100), vec![101, 102]);
/// ```
#[derive(Debug, Clone)]
pub struct CallGraphPrefetcher {
    /// Direct-mapped table: `successor[h(line)] = (line, next_line)`.
    table: Vec<Option<(u64, u64)>>,
    degree: usize,
    last_line: Option<u64>,
    issued: u64,
}

impl CallGraphPrefetcher {
    /// Creates a prefetcher with a `table_entries`-entry history table
    /// that prefetches up to `degree` lines per trigger.
    ///
    /// # Panics
    ///
    /// Panics if `table_entries` or `degree` is zero.
    pub fn new(table_entries: u32, degree: u32) -> Self {
        assert!(table_entries > 0 && degree > 0);
        CallGraphPrefetcher {
            table: vec![None; table_entries as usize],
            degree: degree as usize,
            last_line: None,
            issued: 0,
        }
    }

    fn slot(&self, line: u64) -> usize {
        (line % self.table.len() as u64) as usize
    }

    /// Trains the history table with the next line in the demand-fetch
    /// stream.
    pub fn observe(&mut self, line: u64) {
        if let Some(prev) = self.last_line {
            if prev != line {
                let slot = self.slot(prev);
                self.table[slot] = Some((prev, line));
            }
        }
        self.last_line = Some(line);
    }

    /// Predicted successor chain for `line`, up to `degree` lines.
    pub fn predict(&self, line: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.degree);
        let mut cur = line;
        for _ in 0..self.degree {
            match self.table[self.slot(cur)] {
                Some((tag, next)) if tag == cur => {
                    out.push(next);
                    cur = next;
                }
                _ => break,
            }
        }
        out
    }

    /// Records that `n` prefetches were issued (for statistics).
    pub fn note_issued(&mut self, n: u64) {
        self.issued += n;
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_table_predicts_nothing() {
        let p = CallGraphPrefetcher::new(64, 4);
        assert!(p.predict(42).is_empty());
    }

    #[test]
    fn learns_sequential_stream() {
        let mut p = CallGraphPrefetcher::new(1024, 3);
        for line in 0..10 {
            p.observe(line);
        }
        assert_eq!(p.predict(0), vec![1, 2, 3]);
        assert_eq!(p.predict(7), vec![8, 9]);
    }

    #[test]
    fn relearns_on_changed_successor() {
        let mut p = CallGraphPrefetcher::new(1024, 1);
        p.observe(5);
        p.observe(6);
        assert_eq!(p.predict(5), vec![6]);
        p.observe(5);
        p.observe(9);
        assert_eq!(p.predict(5), vec![9]);
    }

    #[test]
    fn repeated_line_does_not_self_link() {
        let mut p = CallGraphPrefetcher::new(64, 4);
        p.observe(3);
        p.observe(3);
        p.observe(3);
        assert!(p.predict(3).is_empty());
    }

    #[test]
    fn table_conflicts_replace() {
        let mut p = CallGraphPrefetcher::new(1, 1);
        p.observe(1);
        p.observe(2); // table[0] = (1, 2)
        p.observe(3); // table[0] = (2, 3)
        assert!(p.predict(1).is_empty());
        assert_eq!(p.predict(2), vec![3]);
    }

    #[test]
    fn issue_counter() {
        let mut p = CallGraphPrefetcher::new(8, 2);
        p.note_issued(5);
        p.note_issued(2);
        assert_eq!(p.issued(), 7);
    }

    #[test]
    #[should_panic]
    fn zero_sizing_rejected() {
        CallGraphPrefetcher::new(0, 1);
    }
}
