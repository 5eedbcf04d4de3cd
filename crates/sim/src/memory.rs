//! The multicore memory system: per-core private caches and TLBs, a shared
//! last-level cache, a lightweight ownership-based coherence model, and the
//! optional instruction prefetcher / trace cache of the appendix.
//!
//! This is the substrate on which every scheduling technique is evaluated;
//! all techniques in the paper differ *only* through what they do to these
//! structures (i-cache pollution, d-cache locality, TLB pressure).

use crate::cache::{ReplacementPolicy, SetAssocCache};
use crate::coherence::{Directory, ReadOutcome, SharerMask};
use crate::config::{SystemConfig, LINE_BYTES};
use crate::nuca::NucaModel;
use crate::prefetch::CallGraphPrefetcher;
use crate::stats::{CodeDomain, MemStats};
use crate::tlb::Tlb;
use crate::trace_cache::TraceCache;

/// Bytes per page (4 KB, matching the paper's 12-bit page offset).
pub const PAGE_BYTES: u64 = 4096;
/// Cache lines per page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;
/// Main-memory access latency in cycles.
pub const MEMORY_LATENCY: u64 = 200;
/// Entries in each core's instruction TLB (Table 2: 128).
pub const ITLB_ENTRIES: usize = 128;
/// Entries in each core's data TLB (Table 2: 128).
pub const DTLB_ENTRIES: usize = 128;
/// Page-walk penalty on a TLB miss, in cycles.
pub const TLB_MISS_PENALTY: u64 = 50;
/// Fraction of a data-miss penalty that the out-of-order window hides
/// (load-store queues, data prefetchers — Section 2.2's observation
/// that d-cache latencies are largely hidden).
pub const DATA_OVERLAP_HIDDEN: f64 = 0.7;
/// Entries in the call-graph prefetcher's per-core successor history
/// table (the appendix's CGHC-2K+32K hardware-only mode).
pub const PREFETCH_TABLE_ENTRIES: u32 = 2048;
/// Successor lines the call-graph prefetcher fetches per trigger.
pub const PREFETCH_DEGREE: u32 = 3;
/// Trace heads in each core's trace cache.
pub const TRACE_CACHE_ENTRIES: u32 = 512;
/// Fetch lines one trace covers.
pub const TRACE_LINES: u32 = 8;
/// Bank access latency of the banked NUCA LLC, in cycles.
pub const NUCA_BANK_LATENCY: u64 = 12;
/// Cycles per mesh hop of the banked NUCA LLC. With
/// [`NUCA_BANK_LATENCY`], the mesh-wide mean matches Table 2's quoted
/// 18-cycle average on 32 tiles.
pub const NUCA_HOP_CYCLES: u64 = 2;

/// Private per-core memory structures.
#[derive(Debug)]
struct CoreMem {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: Option<SetAssocCache>,
    itlb: Tlb,
    dtlb: Tlb,
    prefetcher: Option<CallGraphPrefetcher>,
    trace_cache: Option<TraceCache>,
}

/// The shared multicore memory system.
///
/// Lines are abstract `u64` identifiers already translated to physical
/// line addresses (line id = physical address / [`LINE_BYTES`]); the page
/// frame number of a line is [`MemorySystem::page_of_line`].
///
/// # Examples
///
/// ```
/// use schedtask_sim::{CodeDomain, MemorySystem, SystemConfig};
///
/// let mut mem = MemorySystem::new(&SystemConfig::table2());
/// let cold = mem.fetch_code(0, 1000, CodeDomain::Application);
/// let warm = mem.fetch_code(0, 1000, CodeDomain::Application);
/// assert!(cold > warm); // second fetch hits the L1i
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    cores: Vec<CoreMem>,
    llc: SetAssocCache,
    /// Coherence directory (Table 2: directory-based MOESI). Sharer sets
    /// are tracked conservatively: private-cache evictions are not
    /// reported back, so stale sharer bits can cause spurious (harmless)
    /// invalidation messages — a common real-directory behaviour too.
    directory: Directory,
    stats: MemStats,
    nuca: Option<NucaModel>,
}

impl MemorySystem {
    /// Builds the memory system described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has zero or more than 64 cores, which
    /// [`SystemConfig::validate`] rejects.
    pub fn new(cfg: &SystemConfig) -> Self {
        let h = &cfg.hierarchy;
        // Decorrelate each cache's Random-victim RNG by level and core
        // (level tag in the high bits, core index below). Lru/Fifo
        // caches never consume the RNG, so this is invisible outside
        // the Random-replacement ablation.
        let build = |params, policy, level: u64, core: usize| {
            SetAssocCache::with_policy_seeded(params, policy, (level << 32) | core as u64)
        };
        let cores = (0..cfg.num_cores)
            .map(|c| CoreMem {
                l1i: build(h.l1i, cfg.l1_replacement, 1, c),
                l1d: build(h.l1d, cfg.l1_replacement, 2, c),
                l2: h.l2.map(|p| build(p, ReplacementPolicy::Lru, 3, c)),
                itlb: Tlb::new(ITLB_ENTRIES),
                dtlb: Tlb::new(DTLB_ENTRIES),
                prefetcher: cfg
                    .call_graph_prefetcher
                    .then(|| CallGraphPrefetcher::new(PREFETCH_TABLE_ENTRIES, PREFETCH_DEGREE)),
                trace_cache: cfg
                    .trace_cache
                    .then(|| TraceCache::new(TRACE_CACHE_ENTRIES, TRACE_LINES)),
            })
            .collect();
        MemorySystem {
            cores,
            llc: build(h.llc, ReplacementPolicy::Lru, 4, 0),
            // Start the open-addressed directory small and let it grow
            // with the tracked-line count: a table pre-sized to the LLC
            // geometry spreads a few thousand entries across megabytes,
            // making every probe a cold cache miss, while a dense table
            // stays resident in the host's caches. Growth rehashing is
            // invisible to the point queries the directory serves.
            directory: Directory::new(cfg.num_cores),
            stats: MemStats::new(),
            nuca: cfg
                .nuca
                .then(|| NucaModel::new(cfg.num_cores, NUCA_BANK_LATENCY, NUCA_HOP_CYCLES)),
        }
    }

    /// LLC hit latency for `core` accessing `line` (NUCA-aware when the
    /// banked model is enabled).
    fn llc_latency(&self, core: usize, line: u64) -> u64 {
        match &self.nuca {
            Some(n) => n.latency(core, line),
            None => self.llc.params().latency_cycles,
        }
    }

    /// Page frame number containing `line`.
    #[inline]
    pub fn page_of_line(&self, line: u64) -> u64 {
        line / LINES_PER_PAGE
    }

    /// Fetches the instruction line `line` on `core`, returning the stall
    /// cycles this fetch adds on top of the base CPI (0 for an L1i hit).
    ///
    /// Only the demand path is inline here: the TLB and L1i hit checks
    /// inline their own MRU case, and the refill and the prefetcher are
    /// calls taken only on a miss or on a machine that has one.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn fetch_code(&mut self, core: usize, line: u64, domain: CodeDomain) -> u64 {
        let page = self.page_of_line(line);
        let cm = &mut self.cores[core];

        // Instruction TLB.
        let itlb_hit = cm.itlb.access(page);
        self.stats.itlb.record(itlb_hit);
        let mut penalty = if itlb_hit { 0 } else { TLB_MISS_PENALTY };

        // Trace cache: a covered fetch bypasses the i-cache entirely.
        if let Some(tc) = cm.trace_cache.as_mut() {
            if tc.fetch(line) {
                self.stats.trace_cache_covered += 1;
                return penalty;
            }
        }

        // Demand fetch through the hierarchy.
        let l1_hit = cm.l1i.access(line);
        let has_prefetcher = cm.prefetcher.is_some();
        match domain {
            CodeDomain::Application => self.stats.icache_app.record(l1_hit),
            CodeDomain::Os => self.stats.icache_os.record(l1_hit),
        }
        if !l1_hit {
            penalty += self.refill_from_outer(core, line);
        }
        if has_prefetcher {
            self.prefetch_code(core, line, l1_hit);
        }
        penalty
    }

    /// Trains the call-graph prefetcher on a demand fetch of `line` and,
    /// after an L1i miss, fills its predictions that L1i lacks into L1i,
    /// L2 and the LLC.
    #[inline(never)]
    fn prefetch_code(&mut self, core: usize, line: u64, l1_hit: bool) {
        let cm = &mut self.cores[core];
        let Some(p) = cm.prefetcher.as_mut() else {
            return;
        };
        p.observe(line);
        if l1_hit {
            return;
        }
        let mut fills = 0;
        for pline in p.predict(line) {
            if !cm.l1i.probe(pline) {
                cm.l1i.access(pline);
                if let Some(l2) = cm.l2.as_mut() {
                    l2.access(pline);
                }
                self.llc.access(pline);
                fills += 1;
            }
        }
        if fills > 0 {
            self.stats.prefetch_fills += fills;
            p.note_issued(fills);
        }
    }

    /// Performs a data access to `line` on `core`; returns the *visible*
    /// stall cycles (the out-of-order window hides
    /// [`DATA_OVERLAP_HIDDEN`] of the raw penalty).
    ///
    /// Writes take ownership of the line, invalidating any copy in other
    /// cores' private caches (a MOESI-style upgrade, charged one LLC
    /// round-trip).
    ///
    /// As in [`fetch_code`](Self::fetch_code), only the demand path is
    /// inline: the invalidation fan-out and the refill are calls.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_data(&mut self, core: usize, line: u64, write: bool, domain: CodeDomain) -> u64 {
        let page = self.page_of_line(line);

        let dtlb_hit = self.cores[core].dtlb.access(page);
        self.stats.dtlb.record(dtlb_hit);
        let mut raw_penalty = if dtlb_hit { 0 } else { TLB_MISS_PENALTY };

        // Coherence: writes always consult the directory (a write hit on
        // a shared copy still needs an ownership upgrade).
        if write {
            let outcome = self.directory.on_write(core, line);
            if !outcome.silent && !outcome.invalidate.is_empty() {
                raw_penalty += self.invalidate_sharers(core, line, outcome.invalidate);
            }
        }

        let cm = &mut self.cores[core];
        let l1_hit = cm.l1d.access(line);
        match domain {
            CodeDomain::Application => self.stats.dcache_app.record(l1_hit),
            CodeDomain::Os => self.stats.dcache_os.record(l1_hit),
        }
        if !l1_hit {
            raw_penalty += self.refill_data(core, line, write);
        }

        if raw_penalty == 0 {
            // Hit everywhere: the overlap scaling below is the identity
            // on zero, so skip the float round-trip on the common path.
            return 0;
        }
        (raw_penalty as f64 * (1.0 - DATA_OVERLAP_HIDDEN)).round() as u64
    }

    /// Invalidates `line` in the private caches of every core in
    /// `sharers` after `core`'s write; returns the upgrade's cost, one
    /// LLC round-trip.
    #[inline(never)]
    fn invalidate_sharers(&mut self, core: usize, line: u64, sharers: SharerMask) -> u64 {
        for c in sharers {
            let cm = &mut self.cores[c];
            cm.l1d.invalidate(line);
            if let Some(l2) = cm.l2.as_mut() {
                l2.invalidate(line);
            }
        }
        self.stats.coherence_invalidations += u64::from(sharers.count());
        self.llc_latency(core, line)
    }

    /// Refills a data line after an L1d miss; returns added cycles. A
    /// write already holds ownership and reads through the memory path.
    /// A read asks the directory, which may serve it from a remote dirty
    /// copy at LLC latency, filling the L2 and the LLC; the missing
    /// `access` already put the line in the L1d.
    #[inline(never)]
    fn refill_data(&mut self, core: usize, line: u64, write: bool) -> u64 {
        if write {
            return self.refill_from_outer(core, line);
        }
        match self.directory.on_read(core, line) {
            ReadOutcome::CacheToCache { owner: _ } => {
                self.stats.coherence_transfers += 1;
                if let Some(l2) = self.cores[core].l2.as_mut() {
                    l2.access(line);
                }
                self.llc.access(line);
                self.llc_latency(core, line)
            }
            ReadOutcome::FromMemoryPath => self.refill_from_outer(core, line),
        }
    }

    /// Refills a line from L2/LLC/memory after an L1 miss; returns added
    /// cycles.
    #[inline(never)]
    fn refill_from_outer(&mut self, core: usize, line: u64) -> u64 {
        if let Some(l2) = self.cores[core].l2.as_mut() {
            let l2_hit = l2.access(line);
            self.stats.l2.record(l2_hit);
            if l2_hit {
                return l2.params().latency_cycles;
            }
        }
        let llc_hit = self.llc.access(line);
        self.stats.llc.record(llc_hit);
        if llc_hit {
            self.llc_latency(core, line)
        } else {
            MEMORY_LATENCY
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets statistics (cache contents are preserved — use after
    /// warm-up).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SystemConfig {
        SystemConfig::table2().with_cores(4)
    }

    #[test]
    fn code_fetch_hit_costs_nothing() {
        let mut mem = MemorySystem::new(&small_cfg());
        let first = mem.fetch_code(0, 500, CodeDomain::Os);
        assert!(first > 0);
        let second = mem.fetch_code(0, 500, CodeDomain::Os);
        assert_eq!(second, 0);
        assert_eq!(mem.stats().icache_os.hits, 1);
        assert_eq!(mem.stats().icache_os.misses, 1);
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut mem = MemorySystem::new(&small_cfg());
        let p = mem.fetch_code(0, 12345, CodeDomain::Application);
        // TLB miss + memory latency on a completely cold access.
        assert_eq!(p, TLB_MISS_PENALTY + MEMORY_LATENCY);
    }

    #[test]
    fn second_core_hits_llc_not_memory() {
        let mut mem = MemorySystem::new(&small_cfg());
        mem.fetch_code(0, 777, CodeDomain::Application);
        let p = mem.fetch_code(1, 777, CodeDomain::Application);
        let cfg = small_cfg();
        // Core 1: own TLB miss + L1 miss + L2 miss + LLC hit.
        assert_eq!(p, TLB_MISS_PENALTY + cfg.hierarchy.llc.latency_cycles);
    }

    #[test]
    fn domains_are_tracked_separately() {
        let mut mem = MemorySystem::new(&small_cfg());
        mem.fetch_code(0, 1, CodeDomain::Application);
        mem.fetch_code(0, 2, CodeDomain::Os);
        mem.fetch_code(0, 2, CodeDomain::Os);
        assert_eq!(mem.stats().icache_app.total(), 1);
        assert_eq!(mem.stats().icache_os.total(), 2);
    }

    #[test]
    fn data_write_takes_ownership_and_invalidates() {
        let mut mem = MemorySystem::new(&small_cfg());
        mem.access_data(0, 42, true, CodeDomain::Os);
        assert!(mem.access_data(0, 42, false, CodeDomain::Os) == 0);
        // Core 1 writes the same line: invalidation charged.
        mem.access_data(1, 42, true, CodeDomain::Os);
        assert_eq!(mem.stats().coherence_invalidations, 1);
        // Core 0 re-reads: its copy was invalidated, so this misses.
        let before = mem.stats().dcache_os.misses;
        mem.access_data(0, 42, false, CodeDomain::Os);
        assert_eq!(mem.stats().dcache_os.misses, before + 1);
    }

    #[test]
    fn read_of_remote_dirty_line_is_cache_to_cache() {
        let mut mem = MemorySystem::new(&small_cfg());
        mem.access_data(0, 99, true, CodeDomain::Os);
        mem.access_data(1, 99, false, CodeDomain::Os);
        assert_eq!(mem.stats().coherence_transfers, 1);
    }

    #[test]
    fn data_overlap_hides_latency() {
        // A cold data read pays the same raw penalty as a cold fetch,
        // less the share the out-of-order window hides.
        let mut mem = MemorySystem::new(&small_cfg());
        let raw = mem.fetch_code(0, 7, CodeDomain::Application);
        let visible = mem.access_data(
            1,
            7 + 1_000 * LINES_PER_PAGE,
            false,
            CodeDomain::Application,
        );
        assert_eq!(raw, TLB_MISS_PENALTY + MEMORY_LATENCY);
        assert_eq!(visible, 75, "30% of {raw}");
    }

    #[test]
    fn two_level_hierarchy_skips_l2() {
        let cfg = SystemConfig::table2()
            .with_cores(1)
            .with_hierarchy(crate::config::HierarchyConfig::config1());
        let mut mem = MemorySystem::new(&cfg);
        mem.fetch_code(0, 5, CodeDomain::Os);
        assert_eq!(mem.stats().l2.total(), 0);
        assert_eq!(mem.stats().llc.total(), 1);
    }

    #[test]
    fn prefetcher_reduces_misses_on_sequential_code() {
        let base = SystemConfig::table2().with_cores(1);
        let pf = base.clone().with_call_graph_prefetcher();

        let run = |cfg: &SystemConfig| {
            let mut mem = MemorySystem::new(cfg);
            // A loop over a footprint larger than the L1i, twice.
            let lines = cfg.hierarchy.l1i.num_lines() * 2;
            for _ in 0..3 {
                for l in 0..lines {
                    mem.fetch_code(0, l, CodeDomain::Application);
                }
            }
            let s = mem.stats();
            let mut all = s.icache_app;
            all.merge(&s.icache_os);
            all.hit_rate()
        };

        let hit_plain = run(&base);
        let hit_pf = run(&pf);
        assert!(
            hit_pf > hit_plain,
            "prefetcher should raise i-hit rate: {hit_pf} vs {hit_plain}"
        );
    }

    #[test]
    fn trace_cache_covers_repeated_fetches() {
        let cfg = SystemConfig::table2().with_cores(1).with_trace_cache();
        let mut mem = MemorySystem::new(&cfg);
        for _ in 0..4 {
            for l in 0..64u64 {
                mem.fetch_code(0, l, CodeDomain::Application);
            }
        }
        assert!(mem.stats().trace_cache_covered > 0);
    }

    #[test]
    fn page_of_line_uses_64_lines_per_page() {
        let mem = MemorySystem::new(&small_cfg());
        assert_eq!(LINES_PER_PAGE, 64);
        assert_eq!(mem.page_of_line(63), 0);
        assert_eq!(mem.page_of_line(64), 1);
    }

    #[test]
    fn reset_stats_preserves_warm_caches() {
        let mut mem = MemorySystem::new(&small_cfg());
        mem.fetch_code(0, 11, CodeDomain::Os);
        mem.reset_stats();
        assert_eq!(mem.stats().icache_os.total(), 0);
        let p = mem.fetch_code(0, 11, CodeDomain::Os);
        assert_eq!(p, 0, "cache stayed warm across reset");
    }
}
