//! The stats tables of Section 5.2 and Figure 6: per-core tables of
//! (frequency, execution time, Page-heatmap) per superFuncType, and the
//! TAlloc aggregation that merges them into the system-wide table.

use schedtask_sim::PageHeatmap;
use schedtask_workload::SuperFuncType;
use std::collections::{BTreeMap, HashSet};

/// One stats-table entry for a superFuncType.
#[derive(Debug, Clone)]
pub struct TypeStats {
    /// Number of SuperFunction segments executed.
    pub frequency: u64,
    /// Total execution time in cycles.
    pub exec_cycles: u64,
    /// Bloom summary of the instruction pages fetched (OR of the
    /// hardware register over all executions this epoch).
    pub heatmap: PageHeatmap,
    /// Exact page set (only when validating against the ideal ranking,
    /// Figure 11).
    pub exact_pages: HashSet<u64>,
}

impl TypeStats {
    fn new(heatmap_bits: u32) -> Self {
        TypeStats {
            frequency: 0,
            exec_cycles: 0,
            heatmap: PageHeatmap::new(heatmap_bits),
            exact_pages: HashSet::new(),
        }
    }

    /// Mean cycles per executed segment; 0.0 before any execution.
    pub fn mean_exec_cycles(&self) -> f64 {
        if self.frequency == 0 {
            0.0
        } else {
            self.exec_cycles as f64 / self.frequency as f64
        }
    }
}

/// A stats table: one entry per superFuncType. TMigrate keeps one per
/// core; TAlloc aggregates them into the system-wide table (Figure 6).
///
/// Uses a `BTreeMap` so iteration order (and therefore core allocation)
/// is deterministic.
#[derive(Debug, Clone)]
pub struct StatsTable {
    heatmap_bits: u32,
    entries: BTreeMap<SuperFuncType, TypeStats>,
}

impl StatsTable {
    /// Creates an empty table whose heatmaps have `heatmap_bits` bits.
    pub fn new(heatmap_bits: u32) -> Self {
        StatsTable {
            heatmap_bits,
            entries: BTreeMap::new(),
        }
    }

    /// Records one executed segment of `sf_type`.
    pub fn record_execution(
        &mut self,
        sf_type: SuperFuncType,
        cycles: u64,
        heatmap: Option<&PageHeatmap>,
        exact_pages: Option<&HashSet<u64>>,
    ) {
        let bits = self.heatmap_bits;
        let e = self
            .entries
            .entry(sf_type)
            .or_insert_with(|| TypeStats::new(bits));
        e.frequency += 1;
        e.exec_cycles += cycles;
        if let Some(hm) = heatmap {
            e.heatmap.union_with(hm);
        }
        if let Some(pages) = exact_pages {
            e.exact_pages.extend(pages.iter().copied());
        }
    }

    /// Merges `other` into `self` (the aggregation operation of Figure 6:
    /// frequencies and execution times add, heatmaps OR).
    pub fn merge(&mut self, other: &StatsTable) {
        for (ty, stats) in &other.entries {
            let bits = self.heatmap_bits;
            let e = self
                .entries
                .entry(*ty)
                .or_insert_with(|| TypeStats::new(bits));
            e.frequency += stats.frequency;
            e.exec_cycles += stats.exec_cycles;
            e.heatmap.union_with(&stats.heatmap);
            e.exact_pages.extend(stats.exact_pages.iter().copied());
        }
    }

    /// Clears all entries (done at each epoch boundary: "the Page-heatmap
    /// associated with each superFuncType is set to all zeros").
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Entry for a type, if present.
    pub fn get(&self, sf_type: SuperFuncType) -> Option<&TypeStats> {
        self.entries.get(&sf_type)
    }

    /// Iterates entries in deterministic type order.
    pub fn iter(&self) -> impl Iterator<Item = (&SuperFuncType, &TypeStats)> {
        self.entries.iter()
    }

    /// Number of known types.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no type has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total execution cycles across all types.
    pub fn total_exec_cycles(&self) -> u64 {
        self.entries.values().map(|e| e.exec_cycles).sum()
    }

    /// Execution fraction per type, in deterministic order; empty when no
    /// execution has been recorded.
    pub fn exec_fractions(&self) -> Vec<(SuperFuncType, f64)> {
        let total = self.total_exec_cycles();
        if total == 0 {
            return Vec::new();
        }
        self.entries
            .iter()
            .map(|(ty, e)| (*ty, e.exec_cycles as f64 / total as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedtask_workload::SfCategory;

    fn ty(sub: u64) -> SuperFuncType {
        SuperFuncType::new(SfCategory::SystemCall, sub)
    }

    fn hm(pages: &[u64]) -> PageHeatmap {
        let mut h = PageHeatmap::new(512);
        for &p in pages {
            h.insert_pfn(p);
        }
        h
    }

    #[test]
    fn record_accumulates() {
        let mut t = StatsTable::new(512);
        t.record_execution(ty(3), 100, Some(&hm(&[1, 2])), None);
        t.record_execution(ty(3), 50, Some(&hm(&[3])), None);
        let e = t.get(ty(3)).unwrap();
        assert_eq!(e.frequency, 2);
        assert_eq!(e.exec_cycles, 150);
        assert_eq!(e.mean_exec_cycles(), 75.0);
        assert!(e.heatmap.maybe_contains(1));
        assert!(e.heatmap.maybe_contains(3));
    }

    #[test]
    fn merge_matches_figure6_aggregation() {
        // Figure 6: global frequency = sum, global exec = sum, global
        // heatmap = OR.
        let mut a = StatsTable::new(512);
        a.record_execution(ty(1), 10, Some(&hm(&[1])), None);
        let mut b = StatsTable::new(512);
        b.record_execution(ty(1), 5, Some(&hm(&[2])), None);
        b.record_execution(ty(2), 7, Some(&hm(&[9])), None);
        a.merge(&b);
        let e1 = a.get(ty(1)).unwrap();
        assert_eq!(e1.frequency, 2);
        assert_eq!(e1.exec_cycles, 15);
        assert!(e1.heatmap.maybe_contains(1) && e1.heatmap.maybe_contains(2));
        assert_eq!(a.get(ty(2)).unwrap().exec_cycles, 7);
    }

    #[test]
    fn exec_fractions_sum_to_one() {
        let mut t = StatsTable::new(512);
        t.record_execution(ty(1), 25, None, None);
        t.record_execution(ty(2), 75, None, None);
        let fr = t.exec_fractions();
        assert_eq!(fr.len(), 2);
        let sum: f64 = fr.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((fr[0].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_epoch_state() {
        let mut t = StatsTable::new(512);
        t.record_execution(ty(1), 10, None, None);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.total_exec_cycles(), 0);
    }

    #[test]
    fn exact_pages_tracked_when_provided() {
        let mut t = StatsTable::new(512);
        let pages: HashSet<u64> = [4u64, 5].into_iter().collect();
        t.record_execution(ty(1), 10, None, Some(&pages));
        assert_eq!(t.get(ty(1)).unwrap().exact_pages.len(), 2);
    }

    #[test]
    fn empty_fractions_for_empty_table() {
        assert!(StatsTable::new(512).exec_fractions().is_empty());
    }
}
