//! Machine configuration: Table 2 of the paper plus the appendix's
//! Config1/Config2/Config3 cache hierarchies, i-cache size sweeps, and core
//! count sweeps.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in cycles.
    pub latency_cycles: u64,
}

impl CacheParams {
    /// Creates cache parameters.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or capacity is not a multiple of
    /// `associativity * line_bytes`.
    pub fn new(size_bytes: u64, associativity: u32, line_bytes: u64, latency_cycles: u64) -> Self {
        assert!(size_bytes > 0 && associativity > 0 && line_bytes > 0);
        assert!(
            size_bytes.is_multiple_of(associativity as u64 * line_bytes),
            "capacity must be a whole number of sets"
        );
        CacheParams {
            size_bytes,
            associativity,
            line_bytes,
            latency_cycles,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.associativity as u64 * self.line_bytes)
    }

    /// Number of lines the cache can hold.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }
}

/// Shape of the cache hierarchy: private L1s plus either a private L2 and a
/// shared L3 (three levels, the paper's Table 2 baseline and the appendix's
/// Config3) or a shared L2 only (two levels, Config1/Config2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HierarchyConfig {
    /// Private per-core L1 instruction cache.
    pub l1i: CacheParams,
    /// Private per-core L1 data cache.
    pub l1d: CacheParams,
    /// Private per-core unified L2; `None` for two-level hierarchies.
    pub l2: Option<CacheParams>,
    /// Shared last-level cache (the paper's 8 MB NUCA L3, or the shared L2
    /// of Config1/Config2).
    pub llc: CacheParams,
    /// Main-memory access latency in cycles.
    pub memory_latency: u64,
}

impl HierarchyConfig {
    /// The paper's baseline (Table 2): 32 KB 4-way L1i/L1d at 3 cycles,
    /// 256 KB 4-way private L2 at 8 cycles, 8 MB 8-way shared L3 at 18
    /// cycles average.
    pub fn table2() -> Self {
        HierarchyConfig {
            l1i: CacheParams::new(32 * 1024, 4, 64, 3),
            l1d: CacheParams::new(32 * 1024, 4, 64, 3),
            l2: Some(CacheParams::new(256 * 1024, 4, 64, 8)),
            llc: CacheParams::new(8 * 1024 * 1024, 8, 64, 18),
            memory_latency: 200,
        }
    }

    /// Appendix Config1: two-level hierarchy, shared 8 MB L2 at 18 cycles.
    pub fn config1() -> Self {
        HierarchyConfig {
            l1i: CacheParams::new(32 * 1024, 4, 64, 3),
            l1d: CacheParams::new(32 * 1024, 4, 64, 3),
            l2: None,
            llc: CacheParams::new(8 * 1024 * 1024, 8, 64, 18),
            memory_latency: 200,
        }
    }

    /// Appendix Config2: two-level hierarchy, shared 8 MB L2 at 8 cycles
    /// (a faster LLC, so smaller miss penalties and smaller headroom for
    /// core specialization).
    pub fn config2() -> Self {
        HierarchyConfig {
            l1i: CacheParams::new(32 * 1024, 4, 64, 3),
            l1d: CacheParams::new(32 * 1024, 4, 64, 3),
            l2: None,
            llc: CacheParams::new(8 * 1024 * 1024, 8, 64, 8),
            memory_latency: 200,
        }
    }

    /// Appendix Config3: identical to [`HierarchyConfig::table2`] — the
    /// three-level hierarchy used in the main evaluation.
    pub fn config3() -> Self {
        Self::table2()
    }

    /// Same hierarchy with a different L1 i-cache capacity (appendix
    /// Table 2 sweeps 16 KB / 32 KB / 64 KB at 4 ways).
    pub fn with_icache_size(mut self, size_bytes: u64) -> Self {
        self.l1i = CacheParams::new(
            size_bytes,
            self.l1i.associativity,
            self.l1i.line_bytes,
            self.l1i.latency_cycles,
        );
        self
    }
}

/// Instruction prefetcher selection (appendix Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefetcherConfig {
    /// No instruction prefetching (the main evaluation).
    #[default]
    None,
    /// Call-graph-prefetching-like history prefetcher (CGP, hardware-only
    /// mode): on each fetched line, prefetch up to `degree` predicted
    /// successor lines.
    CallGraph {
        /// How many successor lines to prefetch per trigger.
        degree: u32,
        /// Entries in the per-core successor history table.
        table_entries: u32,
    },
}

/// Trace-cache selection (appendix Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TraceCacheConfig {
    /// No trace cache (the main evaluation).
    #[default]
    None,
    /// A per-core trace cache in the style of the Krick et al. patent:
    /// `entries` trace heads, each covering up to `trace_lines` consecutive
    /// fetch lines.
    Enabled {
        /// Number of trace entries.
        entries: u32,
        /// Lines covered by one trace.
        trace_lines: u32,
    },
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores.
    pub num_cores: usize,
    /// Core clock in Hz (used to convert cycles to seconds; the paper's
    /// 22 nm cores are modelled at 2 GHz).
    pub clock_hz: u64,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Entries in the instruction TLB (Table 2: 128).
    pub itlb_entries: u32,
    /// Entries in the data TLB (Table 2: 128).
    pub dtlb_entries: u32,
    /// Page-walk penalty on a TLB miss, in cycles.
    pub tlb_miss_penalty: u64,
    /// Base cycles per instruction for a 4-wide out-of-order core when
    /// every access hits in the L1s (Table 2's retire width of 4 gives a
    /// floor of 0.25; queuing effects raise the realistic floor).
    pub base_cpi: f64,
    /// Fraction of a data-miss penalty that the out-of-order window hides
    /// (load-store queues, data prefetchers — Section 2.2's observation
    /// that d-cache latencies are largely hidden).
    pub data_overlap_hidden: f64,
    /// Instruction prefetcher.
    pub prefetcher: PrefetcherConfig,
    /// Trace cache.
    pub trace_cache: TraceCacheConfig,
    /// Replacement policy of the private L1 caches (the paper's machine
    /// uses LRU; alternatives exist for the replacement ablation).
    pub l1_replacement: crate::cache::ReplacementPolicy,
    /// Explicit branch modelling: `(predictor entries, mispredict
    /// penalty in cycles)`. `None` folds branch effects into the base
    /// CPI, as the default timing model does.
    pub branch_predictor: Option<(u32, u64)>,
    /// Explicit banked NUCA LLC: `(bank base latency, cycles per mesh
    /// hop)`. `None` uses the flat Table 2 average latency.
    pub nuca: Option<(u64, u64)>,
}

impl SystemConfig {
    /// The paper's Table 2 machine: 32 cores, three-level hierarchy,
    /// 128-entry TLBs.
    pub fn table2() -> Self {
        SystemConfig {
            num_cores: 32,
            clock_hz: 2_000_000_000,
            hierarchy: HierarchyConfig::table2(),
            itlb_entries: 128,
            dtlb_entries: 128,
            tlb_miss_penalty: 50,
            base_cpi: 0.4,
            data_overlap_hidden: 0.7,
            prefetcher: PrefetcherConfig::None,
            trace_cache: TraceCacheConfig::None,
            l1_replacement: crate::cache::ReplacementPolicy::Lru,
            branch_predictor: None,
            nuca: None,
        }
    }

    /// Table 2 machine with a different core count (appendix Table 4
    /// sweeps 8/16/24/32).
    pub fn with_cores(mut self, num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        self.num_cores = num_cores;
        self
    }

    /// Replaces the cache hierarchy.
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// Enables the CGP-like instruction prefetcher with default sizing
    /// (the appendix's CGHC-2K+32K hardware-only mode).
    pub fn with_call_graph_prefetcher(mut self) -> Self {
        self.prefetcher = PrefetcherConfig::CallGraph {
            degree: 3,
            table_entries: 2048,
        };
        self
    }

    /// Enables explicit gshare branch modelling with default sizing
    /// (4096 counters, 15-cycle mispredict penalty).
    pub fn with_branch_predictor(mut self) -> Self {
        self.branch_predictor = Some((4096, 15));
        self
    }

    /// Enables the banked NUCA LLC model. Bank base latency and per-hop
    /// cost default to values whose mesh-wide mean matches Table 2's
    /// quoted 18-cycle average on 32 tiles.
    pub fn with_nuca(mut self) -> Self {
        self.nuca = Some((12, 2));
        self
    }

    /// Enables the trace cache with default sizing.
    pub fn with_trace_cache(mut self) -> Self {
        self.trace_cache = TraceCacheConfig::Enabled {
            entries: 512,
            trace_lines: 8,
        };
        self
    }

    /// Cycles in one interval of `seconds` at this clock.
    pub fn cycles_in(&self, seconds: f64) -> u64 {
        (seconds * self.clock_hz as f64) as u64
    }

    /// Checks the machine description for nonsense that would otherwise
    /// surface as a panic deep inside a run (zero cores, more cores than
    /// the coherence directory tracks, a stopped clock, non-probability
    /// timing fractions). Construction-time builders already reject most
    /// bad shapes; this covers structs assembled field by field.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("num_cores must be positive".into());
        }
        if self.num_cores > 64 {
            return Err(format!(
                "num_cores {} exceeds 64, the width of the coherence directory's sharer mask",
                self.num_cores
            ));
        }
        if self.clock_hz == 0 {
            return Err("clock_hz must be positive".into());
        }
        if !(self.base_cpi.is_finite() && self.base_cpi > 0.0) {
            return Err(format!(
                "base_cpi {} must be a positive finite number",
                self.base_cpi
            ));
        }
        if !(0.0..=1.0).contains(&self.data_overlap_hidden) || !self.data_overlap_hidden.is_finite()
        {
            return Err(format!(
                "data_overlap_hidden {} must be in [0, 1]",
                self.data_overlap_hidden
            ));
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_params_geometry() {
        let p = CacheParams::new(32 * 1024, 4, 64, 3);
        assert_eq!(p.num_sets(), 128);
        assert_eq!(p.num_lines(), 512);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn cache_params_rejects_ragged_geometry() {
        CacheParams::new(1000, 3, 64, 1);
    }

    #[test]
    fn table2_matches_paper() {
        let cfg = SystemConfig::table2();
        assert_eq!(cfg.num_cores, 32);
        assert_eq!(cfg.hierarchy.l1i.size_bytes, 32 * 1024);
        assert_eq!(cfg.hierarchy.l1i.associativity, 4);
        assert_eq!(cfg.hierarchy.l1i.latency_cycles, 3);
        let l2 = cfg.hierarchy.l2.expect("table 2 has a private L2");
        assert_eq!(l2.size_bytes, 256 * 1024);
        assert_eq!(l2.latency_cycles, 8);
        assert_eq!(cfg.hierarchy.llc.size_bytes, 8 * 1024 * 1024);
        assert_eq!(cfg.hierarchy.llc.associativity, 8);
        assert_eq!(cfg.hierarchy.llc.latency_cycles, 18);
        assert_eq!(cfg.itlb_entries, 128);
        assert_eq!(cfg.dtlb_entries, 128);
    }

    #[test]
    fn config1_and_config2_are_two_level() {
        assert!(HierarchyConfig::config1().l2.is_none());
        assert!(HierarchyConfig::config2().l2.is_none());
        assert_eq!(HierarchyConfig::config1().llc.latency_cycles, 18);
        assert_eq!(HierarchyConfig::config2().llc.latency_cycles, 8);
    }

    #[test]
    fn config3_is_table2() {
        assert_eq!(HierarchyConfig::config3(), HierarchyConfig::table2());
    }

    #[test]
    fn icache_size_sweep() {
        let h = HierarchyConfig::table2().with_icache_size(16 * 1024);
        assert_eq!(h.l1i.size_bytes, 16 * 1024);
        assert_eq!(h.l1i.associativity, 4);
        // Other levels untouched.
        assert_eq!(h.l1d.size_bytes, 32 * 1024);
    }

    #[test]
    fn core_count_sweep() {
        let cfg = SystemConfig::table2().with_cores(8);
        assert_eq!(cfg.num_cores, 8);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = SystemConfig::table2().with_cores(0);
    }

    #[test]
    fn cycles_conversion() {
        let cfg = SystemConfig::table2();
        assert_eq!(cfg.cycles_in(0.003), 6_000_000);
    }

    #[test]
    fn validate_accepts_presets_and_rejects_nonsense() {
        assert!(SystemConfig::table2().validate().is_ok());
        let mut cfg = SystemConfig::table2();
        cfg.num_cores = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::table2();
        cfg.data_overlap_hidden = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::table2();
        cfg.base_cpi = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn more_than_64_cores_is_rejected() {
        assert!(SystemConfig::table2().with_cores(64).validate().is_ok());
        let err = SystemConfig::table2()
            .with_cores(65)
            .validate()
            .expect_err("65 cores overflow the sharer mask");
        assert!(err.contains("sharer mask"), "{err}");
    }

    #[test]
    fn option_builders() {
        let cfg = SystemConfig::table2().with_call_graph_prefetcher();
        assert!(matches!(cfg.prefetcher, PrefetcherConfig::CallGraph { .. }));
        let cfg = SystemConfig::table2().with_trace_cache();
        assert!(matches!(cfg.trace_cache, TraceCacheConfig::Enabled { .. }));
    }
}
