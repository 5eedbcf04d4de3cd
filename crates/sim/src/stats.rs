//! Memory-system statistics, split by code domain (application vs. OS)
//! exactly the way the paper reports them (Figures 8c-8f).

/// Whether the executing code belongs to the application or to the OS.
///
/// The paper splits i-cache and d-cache hit rates by this domain:
/// application SuperFunctions count as [`CodeDomain::Application`], while
/// system-call, interrupt, and bottom-half handlers (and scheduler
/// routines) count as [`CodeDomain::Os`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeDomain {
    /// User-mode application code.
    Application,
    /// Kernel code: system calls, interrupts, bottom halves, scheduler.
    Os,
}

/// Hit/miss counters for one cache, one domain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitMiss {
    /// Number of hits.
    pub hits: u64,
    /// Number of misses.
    pub misses: u64,
}

impl HitMiss {
    /// Records an access.
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; 0.0 before any access.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Adds another counter pair into this one.
    pub fn merge(&mut self, other: &HitMiss) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// System-wide memory statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 i-cache accesses from application code.
    pub icache_app: HitMiss,
    /// L1 i-cache accesses from OS code.
    pub icache_os: HitMiss,
    /// L1 d-cache accesses from application code.
    pub dcache_app: HitMiss,
    /// L1 d-cache accesses from OS code.
    pub dcache_os: HitMiss,
    /// Unified L2 accesses (all domains).
    pub l2: HitMiss,
    /// Shared last-level cache accesses (all domains).
    pub llc: HitMiss,
    /// Instruction TLB accesses.
    pub itlb: HitMiss,
    /// Data TLB accesses.
    pub dtlb: HitMiss,
    /// Coherence invalidations sent (write by a non-owner core).
    pub coherence_invalidations: u64,
    /// Cache-to-cache transfers served by a remote private cache.
    pub coherence_transfers: u64,
    /// Prefetch fills issued by the instruction prefetcher.
    pub prefetch_fills: u64,
    /// Demand fetches covered by the trace cache (bypassing the i-cache).
    pub trace_cache_covered: u64,
}

impl MemStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// L1 i-cache counters for the given domain.
    pub fn icache(&self, domain: CodeDomain) -> &HitMiss {
        match domain {
            CodeDomain::Application => &self.icache_app,
            CodeDomain::Os => &self.icache_os,
        }
    }

    /// Overall i-cache hit rate across both domains.
    pub fn icache_overall_hit_rate(&self) -> f64 {
        let mut all = self.icache_app;
        all.merge(&self.icache_os);
        all.hit_rate()
    }

    /// Overall d-cache hit rate across both domains.
    pub fn dcache_overall_hit_rate(&self) -> f64 {
        let mut all = self.dcache_app;
        all.merge(&self.dcache_os);
        all.hit_rate()
    }

    /// Resets every counter to zero (used after cache warm-up).
    pub fn reset(&mut self) {
        *self = MemStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hitmiss_rates() {
        let mut hm = HitMiss::default();
        assert_eq!(hm.hit_rate(), 0.0);
        hm.record(true);
        hm.record(true);
        hm.record(false);
        assert_eq!(hm.total(), 3);
        assert!((hm.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hitmiss_merge() {
        let mut a = HitMiss { hits: 1, misses: 2 };
        a.merge(&HitMiss { hits: 3, misses: 4 });
        assert_eq!(a, HitMiss { hits: 4, misses: 6 });
    }

    #[test]
    fn domain_selection() {
        let mut s = MemStats::new();
        s.icache_app.record(true);
        s.icache_os.record(false);
        assert_eq!(s.icache(CodeDomain::Application).hits, 1);
        assert_eq!(s.icache(CodeDomain::Os).misses, 1);
    }

    #[test]
    fn overall_rates_combine_domains() {
        let mut s = MemStats::new();
        s.icache_app = HitMiss { hits: 3, misses: 1 };
        s.icache_os = HitMiss { hits: 1, misses: 3 };
        assert!((s.icache_overall_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = MemStats::new();
        s.llc.record(false);
        s.coherence_invalidations = 7;
        s.reset();
        assert_eq!(s, MemStats::new());
    }
}
