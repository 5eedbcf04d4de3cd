//! Simulation statistics: everything the paper's figures report.

use schedtask_metrics::jain_fairness;
use schedtask_sim::MemStats;
use schedtask_workload::SfCategory;

/// Core clock in Hz: the paper's 22 nm cores run at 2 GHz. Only
/// [`SimStats::app_performance`] turns cycles into seconds.
pub const CLOCK_HZ: u64 = 2_000_000_000;

/// Instruction counts by SuperFunction category plus scheduler code
/// (which Figure 4 excludes from the breakup but which still retires
/// instructions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryInstructions {
    /// Application SuperFunctions.
    pub application: u64,
    /// System-call handlers.
    pub syscall: u64,
    /// Interrupt (top-half) handlers.
    pub interrupt: u64,
    /// Bottom-half handlers.
    pub bottom_half: u64,
    /// Scheduler routines (TMigrate/TAlloc/Linux scheduler).
    pub scheduler: u64,
}

impl CategoryInstructions {
    /// Adds `n` instructions to the category's counter.
    pub fn add(&mut self, category: SfCategory, n: u64) {
        match category {
            SfCategory::Application => self.application += n,
            SfCategory::SystemCall => self.syscall += n,
            SfCategory::Interrupt => self.interrupt += n,
            SfCategory::BottomHalf => self.bottom_half += n,
        }
    }

    /// Total including scheduler instructions.
    pub fn total(&self) -> u64 {
        self.application + self.syscall + self.interrupt + self.bottom_half + self.scheduler
    }

    /// Instructions retired since the counters read `earlier`, category
    /// by category. Wrapping, so an `earlier` that lies below zero (an
    /// epoch baseline carried across the warm-up reset) still gives the
    /// exact count.
    pub(crate) fn since(&self, earlier: &Self) -> Self {
        CategoryInstructions {
            application: self.application.wrapping_sub(earlier.application),
            syscall: self.syscall.wrapping_sub(earlier.syscall),
            interrupt: self.interrupt.wrapping_sub(earlier.interrupt),
            bottom_half: self.bottom_half.wrapping_sub(earlier.bottom_half),
            scheduler: self.scheduler.wrapping_sub(earlier.scheduler),
        }
    }

    /// Total excluding scheduler instructions (the Figure 4 denominator).
    pub fn total_workload(&self) -> u64 {
        self.application + self.syscall + self.interrupt + self.bottom_half
    }

    /// The Figure 4 breakup: fractions (%) of
    /// application/syscall/interrupt/bottom-half instructions, scheduler
    /// excluded.
    pub fn breakup_percent(&self) -> [f64; 4] {
        let t = self.total_workload();
        if t == 0 {
            return [0.0; 4];
        }
        let t = t as f64;
        [
            self.application as f64 / t * 100.0,
            self.syscall as f64 / t * 100.0,
            self.interrupt as f64 / t * 100.0,
            self.bottom_half as f64 / t * 100.0,
        ]
    }
}

/// Per-core execution-time accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreTime {
    /// Cycles spent executing SuperFunctions or scheduler code.
    pub busy_cycles: u64,
    /// Cycles spent with nothing to run.
    pub idle_cycles: u64,
}

impl CoreTime {
    /// Fraction of time idle, in [0, 1].
    pub fn idle_fraction(&self) -> f64 {
        let total = self.busy_cycles + self.idle_cycles;
        if total == 0 {
            0.0
        } else {
            self.idle_cycles as f64 / total as f64
        }
    }
}

/// Everything measured during one simulation run.
///
/// `PartialEq` (not `Eq`: `epoch_breakups` holds floats) exists so
/// determinism tests can assert that parallel and serial sweeps produce
/// bit-identical per-cell statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Instructions by category.
    pub instructions: CategoryInstructions,
    /// Per-core busy/idle accounting.
    pub core_time: Vec<CoreTime>,
    /// Inter-core thread migrations (Figure 10).
    pub thread_migrations: u64,
    /// Per-thread retired instructions (Jain fairness, Section 6.1).
    pub per_thread_instructions: Vec<u64>,
    /// Application operations completed, per benchmark instance.
    pub ops_per_benchmark: Vec<u64>,
    /// Interrupt count and cumulative delivery latency in cycles.
    pub interrupts_delivered: u64,
    /// Sum of (service start − raise) over all interrupts.
    pub interrupt_latency_cycles: u64,
    /// Per-epoch category breakups (%) when epoch collection is enabled
    /// (Section 4.4).
    pub epoch_breakups: Vec<[f64; 4]>,
    /// Branches executed (only counted when explicit branch modelling is
    /// enabled).
    pub branches: u64,
    /// Branch mispredictions (explicit branch modelling only).
    pub branch_mispredictions: u64,
    /// Final cycle count (simulated time at stop).
    pub final_cycle: u64,
    /// Snapshot of the memory-system statistics.
    pub mem: MemStats,
    /// Faults actually injected over the whole run (zero unless the run
    /// had a [`crate::faults::FaultPlan`]). Filled at finalization, so it
    /// covers warm-up too.
    pub faults: crate::faults::FaultCounts,
    /// Invariant-sanitizer passes executed (zero unless
    /// [`crate::EngineConfig::sanitize`] was set). A successful run with
    /// a positive count certifies every pass found zero violations.
    pub sanitizer_checks: u64,
}

impl SimStats {
    /// Creates zeroed stats for `num_cores` cores and
    /// `num_benchmarks` benchmark instances.
    pub fn new(num_cores: usize, num_benchmarks: usize) -> Self {
        SimStats {
            core_time: vec![CoreTime::default(); num_cores],
            ops_per_benchmark: vec![0; num_benchmarks],
            ..SimStats::default()
        }
    }

    /// Total retired instructions (including scheduler code).
    pub fn total_instructions(&self) -> u64 {
        self.instructions.total()
    }

    /// Instruction throughput in instructions per cycle across the whole
    /// machine.
    pub fn instruction_throughput(&self) -> f64 {
        if self.final_cycle == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / self.final_cycle as f64
        }
    }

    /// Mean idle-time fraction across cores, in [0, 1] (Figure 8b).
    pub fn mean_idle_fraction(&self) -> f64 {
        if self.core_time.is_empty() {
            return 0.0;
        }
        self.core_time
            .iter()
            .map(CoreTime::idle_fraction)
            .sum::<f64>()
            / self.core_time.len() as f64
    }

    /// Application performance: operations per simulated second at
    /// [`CLOCK_HZ`] (Section 6.1's "application-specific events ... in
    /// one second of system execution").
    pub fn app_performance(&self) -> f64 {
        let ops: u64 = self.ops_per_benchmark.iter().sum();
        if self.final_cycle == 0 {
            0.0
        } else {
            ops as f64 * CLOCK_HZ as f64 / self.final_cycle as f64
        }
    }

    /// Jain fairness index over per-thread instruction throughput.
    pub fn fairness(&self) -> f64 {
        let tputs: Vec<f64> = self
            .per_thread_instructions
            .iter()
            .map(|&n| n as f64)
            .collect();
        jain_fairness(&tputs)
    }

    /// Mean interrupt delivery latency in cycles.
    pub fn mean_interrupt_latency(&self) -> f64 {
        if self.interrupts_delivered == 0 {
            0.0
        } else {
            self.interrupt_latency_cycles as f64 / self.interrupts_delivered as f64
        }
    }

    /// Branch-prediction accuracy in [0, 1]; 0.0 when branch modelling
    /// is disabled.
    pub fn branch_accuracy(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            (self.branches - self.branch_mispredictions) as f64 / self.branches as f64
        }
    }

    /// Thread migrations normalized per billion instructions (Figure 10's
    /// y-axis).
    pub fn migrations_per_billion_instructions(&self) -> f64 {
        let instr = self.total_instructions();
        if instr == 0 {
            0.0
        } else {
            self.thread_migrations as f64 * 1e9 / instr as f64
        }
    }
}

impl SimStats {
    /// Serializes every field as one canonical JSON object with a fixed
    /// field order and no whitespace, so two equal `SimStats` values
    /// always produce byte-identical text. This is the wire format of
    /// the `schedtaskd` serve layer and the payload its result cache
    /// replays; floats use Rust's shortest-round-trip `Display`, which
    /// is deterministic for a deterministic simulation.
    ///
    /// Hand-rolled because the offline build environment has no serde.
    pub fn to_canonical_json(&self) -> String {
        fn join_u64(values: &[u64]) -> String {
            let strs: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            strs.join(",")
        }
        let mut out = String::with_capacity(1024);
        let i = &self.instructions;
        out.push_str(&format!(
            "{{\"instructions\":{{\"application\":{},\"syscall\":{},\"interrupt\":{},\
             \"bottom_half\":{},\"scheduler\":{}}}",
            i.application, i.syscall, i.interrupt, i.bottom_half, i.scheduler
        ));
        out.push_str(",\"core_time\":[");
        for (idx, ct) in self.core_time.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"busy\":{},\"idle\":{}}}",
                ct.busy_cycles, ct.idle_cycles
            ));
        }
        out.push(']');
        out.push_str(&format!(
            ",\"thread_migrations\":{},\"per_thread_instructions\":[{}],\
             \"ops_per_benchmark\":[{}],\"interrupts_delivered\":{},\
             \"interrupt_latency_cycles\":{}",
            self.thread_migrations,
            join_u64(&self.per_thread_instructions),
            join_u64(&self.ops_per_benchmark),
            self.interrupts_delivered,
            self.interrupt_latency_cycles
        ));
        out.push_str(",\"epoch_breakups\":[");
        for (idx, b) in self.epoch_breakups.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{},{},{}]", b[0], b[1], b[2], b[3]));
        }
        out.push(']');
        out.push_str(&format!(
            ",\"branches\":{},\"branch_mispredictions\":{},\"final_cycle\":{}",
            self.branches, self.branch_mispredictions, self.final_cycle
        ));
        let m = &self.mem;
        out.push_str(",\"mem\":{");
        let caches = [
            ("icache_app", &m.icache_app),
            ("icache_os", &m.icache_os),
            ("dcache_app", &m.dcache_app),
            ("dcache_os", &m.dcache_os),
            ("l2", &m.l2),
            ("llc", &m.llc),
            ("itlb", &m.itlb),
            ("dtlb", &m.dtlb),
        ];
        for (idx, (name, hm)) in caches.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"hits\":{},\"misses\":{}}}",
                hm.hits, hm.misses
            ));
        }
        out.push_str(&format!(
            ",\"coherence_invalidations\":{},\"coherence_transfers\":{},\
             \"prefetch_fills\":{},\"trace_cache_covered\":{}}}",
            m.coherence_invalidations,
            m.coherence_transfers,
            m.prefetch_fills,
            m.trace_cache_covered
        ));
        let f = &self.faults;
        out.push_str(&format!(
            ",\"faults\":{{\"heatmap_bit_flips\":{},\"dropped_irqs\":{},\
             \"spurious_irqs\":{},\"delayed_completions\":{},\"core_stalls\":{}}}",
            f.heatmap_bit_flips,
            f.dropped_irqs,
            f.spurious_irqs,
            f.delayed_completions,
            f.core_stalls
        ));
        out.push_str(&format!(
            ",\"sanitizer_checks\":{}}}",
            self.sanitizer_checks
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakup_sums_to_hundred() {
        let mut c = CategoryInstructions::default();
        c.add(SfCategory::Application, 35);
        c.add(SfCategory::SystemCall, 55);
        c.add(SfCategory::Interrupt, 4);
        c.add(SfCategory::BottomHalf, 6);
        c.scheduler = 10; // excluded
        let b = c.breakup_percent();
        assert!((b.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert_eq!(b[0], 35.0);
        assert_eq!(c.total(), 110);
        assert_eq!(c.total_workload(), 100);
    }

    #[test]
    fn empty_breakup_is_zero() {
        assert_eq!(CategoryInstructions::default().breakup_percent(), [0.0; 4]);
    }

    #[test]
    fn idle_fraction() {
        let ct = CoreTime {
            busy_cycles: 75,
            idle_cycles: 25,
        };
        assert!((ct.idle_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(CoreTime::default().idle_fraction(), 0.0);
    }

    #[test]
    fn throughput_and_perf() {
        let mut s = SimStats::new(2, 1);
        s.instructions.add(SfCategory::Application, 1_000);
        s.final_cycle = 2_000;
        s.ops_per_benchmark[0] = 10;
        assert!((s.instruction_throughput() - 0.5).abs() < 1e-12);
        // 10 ops in 2000 cycles at 2 GHz = 10 million ops per second.
        assert_eq!(s.app_performance(), 1e7);
    }

    #[test]
    fn fairness_of_equal_threads_is_one() {
        let mut s = SimStats::new(1, 1);
        s.per_thread_instructions = vec![500, 500, 500];
        assert!((s.fairness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interrupt_latency_mean() {
        let mut s = SimStats::new(1, 1);
        s.interrupts_delivered = 4;
        s.interrupt_latency_cycles = 400;
        assert_eq!(s.mean_interrupt_latency(), 100.0);
    }

    #[test]
    fn canonical_json_is_stable_and_covers_fields() {
        let mut s = SimStats::new(2, 1);
        s.instructions.add(SfCategory::Application, 800);
        s.instructions.add(SfCategory::SystemCall, 200);
        s.instructions.scheduler = 50;
        s.core_time[0].busy_cycles = 900;
        s.core_time[0].idle_cycles = 100;
        s.thread_migrations = 3;
        s.per_thread_instructions = vec![500, 500];
        s.ops_per_benchmark[0] = 4;
        s.epoch_breakups.push([80.0, 20.0, 0.0, 0.0]);
        s.final_cycle = 1_000;
        s.mem.icache_app.hits = 700;
        s.mem.icache_app.misses = 30;
        s.faults.core_stalls = 2;
        s.sanitizer_checks = 9;
        let json = s.to_canonical_json();
        // Equal stats serialize byte-identically.
        assert_eq!(json, s.clone().to_canonical_json());
        // Spot-check structure and coverage.
        assert!(json.starts_with("{\"instructions\":{\"application\":800"));
        assert!(
            json.contains("\"core_time\":[{\"busy\":900,\"idle\":100},{\"busy\":0,\"idle\":0}]")
        );
        assert!(json.contains("\"per_thread_instructions\":[500,500]"));
        assert!(json.contains("\"epoch_breakups\":[[80,20,0,0]]"));
        assert!(json.contains("\"icache_app\":{\"hits\":700,\"misses\":30}"));
        assert!(json.contains("\"core_stalls\":2"));
        assert!(json.ends_with("\"sanitizer_checks\":9}"));
        // Any field change changes the bytes.
        let mut t = s.clone();
        t.branches = 1;
        assert_ne!(json, t.to_canonical_json());
    }

    #[test]
    fn migrations_normalized() {
        let mut s = SimStats::new(1, 1);
        s.thread_migrations = 5;
        s.instructions.add(SfCategory::Application, 1_000_000);
        assert!((s.migrations_per_billion_instructions() - 5_000.0).abs() < 1e-9);
    }
}
