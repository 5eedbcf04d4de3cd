//! Machine configuration: Table 2 of the paper plus the appendix's
//! Config1/Config2/Config3 cache hierarchies, i-cache size sweeps, core
//! count sweeps, and the on/off switches of the optional parts.
//!
//! [`SystemConfig`] holds only what an experiment varies. Everything the
//! paper fixes (Table 2's line size, TLBs, memory latency, base CPI and
//! clock, and the sizes of the optional parts) is a named constant beside
//! the code that reads it: [`LINE_BYTES`] here, the memory-system
//! constants in [`crate::memory`], the base CPI, gshare sizing and clock
//! in `schedtask-kernel`.

/// Cache line size in bytes, for every level (Table 2: 64 B).
pub const LINE_BYTES: u64 = 64;

/// Most cores a machine may have: the width of the coherence
/// directory's sharer mask.
pub const MAX_CORES: usize = 64;

/// Geometry and latency of one cache level; every level has
/// [`LINE_BYTES`]-byte lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u32,
    /// Access latency in cycles.
    pub latency_cycles: u64,
}

impl CacheParams {
    /// Creates cache parameters.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or capacity is not a multiple of
    /// `associativity * LINE_BYTES`.
    pub fn new(size_bytes: u64, associativity: u32, latency_cycles: u64) -> Self {
        assert!(size_bytes > 0 && associativity > 0);
        assert!(
            size_bytes.is_multiple_of(associativity as u64 * LINE_BYTES),
            "capacity must be a whole number of sets"
        );
        CacheParams {
            size_bytes,
            associativity,
            latency_cycles,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.associativity as u64 * LINE_BYTES)
    }

    /// Number of lines the cache can hold.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / LINE_BYTES
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
}

impl HierarchyConfig {
    /// The paper's baseline (Table 2): 32 KB 4-way L1i/L1d at 3 cycles,
    /// 256 KB 4-way private L2 at 8 cycles, 8 MB 8-way shared L3 at 18
    /// cycles average.
    pub fn table2() -> Self {
        HierarchyConfig {
            l1i: CacheParams::new(32 * 1024, 4, 3),
            l1d: CacheParams::new(32 * 1024, 4, 3),
            l2: Some(CacheParams::new(256 * 1024, 4, 8)),
            llc: CacheParams::new(8 * 1024 * 1024, 8, 18),
        }
    }

    /// Appendix Config1: two-level hierarchy, shared 8 MB L2 at 18 cycles.
    pub fn config1() -> Self {
        HierarchyConfig {
            l2: None,
            ..Self::table2()
        }
    }

    /// Appendix Config2: two-level hierarchy, shared 8 MB L2 at 8 cycles
    /// (a faster LLC, so smaller miss penalties and smaller headroom for
    /// core specialization).
    pub fn config2() -> Self {
        HierarchyConfig {
            llc: CacheParams::new(8 * 1024 * 1024, 8, 8),
            ..Self::config1()
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
        self.l1i = CacheParams::new(size_bytes, self.l1i.associativity, self.l1i.latency_cycles);
        self
    }
}

/// Full machine configuration: what an experiment varies.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores.
    pub num_cores: usize,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Replacement policy of the private L1 caches (the paper's machine
    /// uses LRU; alternatives exist for the replacement ablation).
    pub l1_replacement: crate::cache::ReplacementPolicy,
    /// The CGP-like instruction prefetcher of appendix Figure 2, sized by
    /// [`crate::memory::PREFETCH_TABLE_ENTRIES`] and
    /// [`crate::memory::PREFETCH_DEGREE`].
    pub call_graph_prefetcher: bool,
    /// The trace cache of appendix Figure 3, sized by
    /// [`crate::memory::TRACE_CACHE_ENTRIES`] and
    /// [`crate::memory::TRACE_LINES`].
    pub trace_cache: bool,
    /// Explicit gshare branch modelling. Off folds branch effects into
    /// the base CPI, as the default timing model does.
    pub branch_predictor: bool,
    /// Explicit banked NUCA LLC. Off uses the flat Table 2 average
    /// latency.
    pub nuca: bool,
}

impl SystemConfig {
    /// The paper's Table 2 machine: 32 cores, three-level hierarchy, no
    /// optional part.
    pub fn table2() -> Self {
        SystemConfig {
            num_cores: 32,
            hierarchy: HierarchyConfig::table2(),
            l1_replacement: crate::cache::ReplacementPolicy::Lru,
            call_graph_prefetcher: false,
            trace_cache: false,
            branch_predictor: false,
            nuca: false,
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

    /// Enables the CGP-like instruction prefetcher (the appendix's
    /// CGHC-2K+32K hardware-only mode).
    pub fn with_call_graph_prefetcher(mut self) -> Self {
        self.call_graph_prefetcher = true;
        self
    }

    /// Enables explicit gshare branch modelling.
    pub fn with_branch_predictor(mut self) -> Self {
        self.branch_predictor = true;
        self
    }

    /// Enables the banked NUCA LLC model.
    pub fn with_nuca(mut self) -> Self {
        self.nuca = true;
        self
    }

    /// Enables the trace cache.
    pub fn with_trace_cache(mut self) -> Self {
        self.trace_cache = true;
        self
    }

    /// Checks the machine description for nonsense that would otherwise
    /// surface as a panic deep inside a run (zero cores, more cores than
    /// the coherence directory tracks). Construction-time builders
    /// already reject most bad shapes; this covers structs assembled
    /// field by field.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("num_cores must be positive".into());
        }
        if self.num_cores > MAX_CORES {
            return Err(format!(
                "num_cores {} exceeds {MAX_CORES}, the width of the coherence directory's sharer mask",
                self.num_cores
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
        let p = CacheParams::new(32 * 1024, 4, 3);
        assert_eq!(p.num_sets(), 128);
        assert_eq!(p.num_lines(), 512);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn cache_params_rejects_ragged_geometry() {
        CacheParams::new(1000, 3, 1);
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
    fn validate_accepts_presets_and_rejects_nonsense() {
        assert!(SystemConfig::table2().validate().is_ok());
        let mut cfg = SystemConfig::table2();
        cfg.num_cores = 0;
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
        let cfg = SystemConfig::table2();
        assert!(
            !(cfg.call_graph_prefetcher || cfg.trace_cache || cfg.branch_predictor || cfg.nuca)
        );
        assert!(
            cfg.clone()
                .with_call_graph_prefetcher()
                .call_graph_prefetcher
        );
        assert!(cfg.clone().with_trace_cache().trace_cache);
        assert!(cfg.clone().with_branch_predictor().branch_predictor);
        assert!(cfg.with_nuca().nuca);
    }
}
