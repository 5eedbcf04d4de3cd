//! The allocation table (Section 5.2): which cores execute which
//! superFuncType, built in direct proportion to each type's execution
//! fraction in the last epoch.

use crate::stats_table::StatsTable;
use schedtask_kernel::{apportion_cores, CoreId};
use schedtask_workload::SuperFuncType;
use std::collections::BTreeMap;

/// superFuncType → allocated cores.
#[derive(Debug, Clone, Default)]
pub struct AllocationTable {
    by_type: BTreeMap<SuperFuncType, Vec<CoreId>>,
    by_core: Vec<Vec<SuperFuncType>>,
}

impl AllocationTable {
    /// An empty table (before the first epoch, every SuperFunction runs
    /// on its local core).
    pub fn new(num_cores: usize) -> Self {
        AllocationTable {
            by_type: BTreeMap::new(),
            by_core: vec![Vec::new(); num_cores],
        }
    }

    /// Builds the allocation from a system-wide stats table: each type
    /// receives cores in direct proportion to its execution fraction,
    /// using the largest-remainder method ([`apportion_cores`]) so
    /// exactly `num_cores` cores are assigned. Types whose share rounds
    /// to zero get no entry (their SuperFunctions run on the local core,
    /// as Section 5.3 specifies).
    pub fn from_stats(stats: &StatsTable, num_cores: usize) -> Self {
        let mut table = AllocationTable::new(num_cores);
        let weights: Vec<(SuperFuncType, u64)> =
            stats.iter().map(|(&ty, e)| (ty, e.exec_cycles)).collect();
        for (ty, cores) in apportion_cores(&weights, num_cores).unwrap_or_default() {
            for &c in &cores {
                table.by_core[c].push(ty);
            }
            table
                .by_type
                .insert(ty, cores.into_iter().map(CoreId).collect());
        }
        table
    }

    /// Cores allocated to `sf_type` (empty slice if no entry).
    pub fn cores_for(&self, sf_type: SuperFuncType) -> &[CoreId] {
        self.by_type.get(&sf_type).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Types allocated to `core`.
    pub fn types_on(&self, core: CoreId) -> &[SuperFuncType] {
        &self.by_core[core.0]
    }

    /// Number of types with entries.
    pub fn len(&self) -> usize {
        self.by_type.len()
    }

    /// True before the first allocation.
    pub fn is_empty(&self) -> bool {
        self.by_type.is_empty()
    }

    /// Iterates (type, cores) deterministically.
    pub fn iter(&self) -> impl Iterator<Item = (&SuperFuncType, &Vec<CoreId>)> {
        self.by_type.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedtask_workload::SfCategory;

    fn ty(sub: u64) -> SuperFuncType {
        SuperFuncType::new(SfCategory::SystemCall, sub)
    }

    fn stats(pairs: &[(u64, u64)]) -> StatsTable {
        let mut t = StatsTable::new(128);
        for &(sub, cycles) in pairs {
            t.record_execution(ty(sub), cycles, None, None);
        }
        t
    }

    #[test]
    fn equal_fractions_get_equal_cores() {
        // Figure 6's example: four types at 25 % each on 4 cores.
        let t = AllocationTable::from_stats(&stats(&[(1, 10), (2, 10), (3, 10), (4, 10)]), 4);
        for sub in 1..=4 {
            assert_eq!(t.cores_for(ty(sub)).len(), 1, "type {sub}");
        }
        // All 4 cores covered, no overlaps.
        let mut all: Vec<usize> = (1..=4)
            .flat_map(|s| t.cores_for(ty(s)).iter().map(|c| c.0))
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn proportional_allocation() {
        // 75 % / 25 % on 8 cores → 6 / 2.
        let t = AllocationTable::from_stats(&stats(&[(1, 75), (2, 25)]), 8);
        assert_eq!(t.cores_for(ty(1)).len(), 6);
        assert_eq!(t.cores_for(ty(2)).len(), 2);
    }

    #[test]
    fn every_core_is_assigned() {
        let t = AllocationTable::from_stats(&stats(&[(1, 30), (2, 33), (3, 37)]), 32);
        let total: usize = (1..=3).map(|s| t.cores_for(ty(s)).len()).sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn tiny_types_get_no_entry() {
        // 2 cores, three types: the smallest gets nothing.
        let t = AllocationTable::from_stats(&stats(&[(1, 100), (2, 80), (3, 1)]), 2);
        assert_eq!(t.cores_for(ty(3)).len(), 0);
        assert!(!t.cores_for(ty(1)).is_empty());
    }

    #[test]
    fn more_types_than_cores_still_assigns_all_cores() {
        let pairs: Vec<(u64, u64)> = (1..=10).map(|s| (s, 10)).collect();
        let t = AllocationTable::from_stats(&stats(&pairs), 4);
        let total: usize = (1..=10).map(|s| t.cores_for(ty(s)).len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn empty_stats_leave_table_empty() {
        let t = AllocationTable::from_stats(&StatsTable::new(128), 4);
        assert!(t.is_empty());
        assert!(t.cores_for(ty(1)).is_empty());
    }

    #[test]
    fn reverse_lookup_matches_forward() {
        let t = AllocationTable::from_stats(&stats(&[(1, 50), (2, 50)]), 4);
        for (ty_ref, cores) in t.iter() {
            for c in cores {
                assert!(t.types_on(*c).contains(ty_ref));
            }
        }
    }
}
