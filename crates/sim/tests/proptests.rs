//! Property-based tests for the cache/TLB substrate.

use proptest::prelude::*;
use schedtask_sim::memory::{MEMORY_LATENCY, TLB_MISS_PENALTY};
use schedtask_sim::{CacheParams, CodeDomain, MemorySystem, SetAssocCache, SystemConfig, Tlb};

proptest! {
    /// After any access sequence, the most recently accessed line is
    /// always resident (LRU never evicts the MRU line).
    #[test]
    fn mru_line_always_resident(lines in prop::collection::vec(0u64..4096, 1..256)) {
        let mut c = SetAssocCache::new(CacheParams::new(1024, 2, 1));
        for &l in &lines {
            c.access(l);
            prop_assert!(c.probe(l));
        }
    }

    /// Residency never exceeds capacity.
    #[test]
    fn residency_bounded_by_capacity(lines in prop::collection::vec(0u64..100_000, 0..512)) {
        let params = CacheParams::new(2048, 4, 1);
        let capacity = params.num_lines() as usize;
        let mut c = SetAssocCache::new(params);
        for &l in &lines {
            c.access(l);
        }
        prop_assert!(c.resident_lines() <= capacity);
    }

    /// A working set that fits in one set's ways never misses after the
    /// first touch (LRU with no conflict).
    #[test]
    fn fitting_set_never_remisses(start in 0u64..1000) {
        let params = CacheParams::new(1024, 4, 1); // 4 sets x 4 ways
        let mut c = SetAssocCache::new(params);
        let num_sets = 4u64;
        // 4 lines all in the same set, equal to associativity.
        let lines: Vec<u64> = (0..4).map(|i| start * num_sets + i * num_sets).collect();
        let mut misses = 0;
        for _ in 0..5 {
            for &l in &lines {
                misses += u32::from(!c.access(l));
            }
        }
        prop_assert_eq!(misses, 4);
    }

    /// TLB: residency never exceeds the entry count.
    #[test]
    fn tlb_accounting(pages in prop::collection::vec(0u64..1000, 0..400)) {
        let mut t = Tlb::new(32);
        for &p in &pages {
            t.access(p);
        }
        prop_assert!(t.resident_entries() <= 32);
    }

    /// Memory system: every fetch penalty is one of the legal stall values
    /// (combinations of TLB penalty and level latencies).
    #[test]
    fn fetch_penalties_are_legal(lines in prop::collection::vec(0u64..10_000, 1..200)) {
        let cfg = SystemConfig::table2().with_cores(1);
        let mut mem = MemorySystem::new(&cfg);
        let tlb = TLB_MISS_PENALTY;
        let l2 = cfg.hierarchy.l2.unwrap().latency_cycles;
        let llc = cfg.hierarchy.llc.latency_cycles;
        let memlat = MEMORY_LATENCY;
        let legal = [0, tlb, l2, llc, memlat, tlb + l2, tlb + llc, tlb + memlat];
        for &l in &lines {
            let p = mem.fetch_code(0, l, CodeDomain::Os);
            prop_assert!(legal.contains(&p), "illegal penalty {p}");
        }
    }

    /// Fetching the same line twice in a row is always free the second
    /// time, on any core.
    #[test]
    fn immediate_refetch_free(line in 0u64..1_000_000, core in 0usize..4) {
        let mut mem = MemorySystem::new(&SystemConfig::table2().with_cores(4));
        mem.fetch_code(core, line, CodeDomain::Application);
        prop_assert_eq!(mem.fetch_code(core, line, CodeDomain::Application), 0);
    }

    /// Total i-cache stats equal the number of fetches (no trace cache).
    #[test]
    fn memsystem_stat_accounting(lines in prop::collection::vec(0u64..4096, 1..300)) {
        let mut mem = MemorySystem::new(&SystemConfig::table2().with_cores(2));
        for (i, &l) in lines.iter().enumerate() {
            let domain = if i % 2 == 0 { CodeDomain::Application } else { CodeDomain::Os };
            mem.fetch_code(i % 2, l, domain);
        }
        let s = mem.stats();
        prop_assert_eq!(
            s.icache_app.total() + s.icache_os.total(),
            lines.len() as u64
        );
    }
}

mod coherence_props {
    use proptest::prelude::*;
    use schedtask_sim::coherence::{Directory, ReadOutcome};
    use schedtask_sim::LineState;

    proptest! {
        /// After any access sequence, every tracked line is in a legal
        /// state, and a write always leaves its line Modified with the
        /// writer as the only sharer.
        #[test]
        fn directory_states_stay_legal(
            ops in prop::collection::vec((0usize..8, 0u64..32, prop::bool::ANY), 1..200),
        ) {
            let mut dir = Directory::new(8);
            for &(core, line, write) in &ops {
                if write {
                    let out = dir.on_write(core, line);
                    prop_assert!(!out.invalidate.contains(core));
                    prop_assert_eq!(dir.state_of(line), LineState::Modified);
                } else {
                    dir.on_read(core, line);
                    prop_assert_ne!(dir.state_of(line), LineState::Invalid);
                }
            }
        }

        /// Invalidation messages never exceed (sharers before the write),
        /// summed over the run: bounded by total reads + writes.
        #[test]
        fn invalidations_are_bounded(
            ops in prop::collection::vec((0usize..4, 0u64..8, prop::bool::ANY), 1..200),
        ) {
            let mut dir = Directory::new(4);
            let (mut invalidations, mut transfers) = (0u64, 0u64);
            for &(core, line, write) in &ops {
                if write {
                    invalidations += u64::from(dir.on_write(core, line).invalidate.count());
                } else if let ReadOutcome::CacheToCache { .. } = dir.on_read(core, line) {
                    transfers += 1;
                }
            }
            prop_assert!(invalidations <= 3 * ops.len() as u64);
            prop_assert!(transfers <= ops.len() as u64);
        }
    }
}
