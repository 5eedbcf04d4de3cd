//! Golden digests for the machine variants: one small cell on each
//! optional part of the memory hierarchy and core model pins the FNV-1a
//! digest of its canonical `SimStats` JSON.
//!
//! `tests/determinism_golden.rs` and perfbench's `sim_fig7` digests
//! cover only the paper's Table 2 machine. The variants here take the
//! paths that machine never takes: the call-graph instruction
//! prefetcher, the trace cache, Fifo and Random L1 replacement, the
//! banked NUCA LLC, explicit branch prediction, and the two-level
//! Config1 hierarchy without an L2. Two
//! cells shrink Config1's LLC to 64 KB, so that its evictions expose
//! every LLC fill a prefetch or a cache-to-cache transfer makes. A
//! change to the hierarchy's miss, fill or invalidation paths that
//! moves a single byte of any of them fails here.
//!
//! A digest changes only when simulated behaviour changes on purpose.
//! Re-record it then: the failure message prints every cell's actual
//! digest.

use schedtask_suite::experiments::runner::RunBuilder;
use schedtask_suite::experiments::serve_api::fnv1a64;
use schedtask_suite::experiments::{ExpParams, Technique};
use schedtask_suite::kernel::SimStats;
use schedtask_suite::sim::{CacheParams, HierarchyConfig, ReplacementPolicy, SystemConfig};
use schedtask_suite::workload::BenchmarkKind;

/// One pinned cell: the machine variant, a check that the variant's
/// path actually ran, and the expected stats digest.
struct Cell {
    name: &'static str,
    system: SystemConfig,
    technique: Technique,
    benchmark: BenchmarkKind,
    engaged: fn(&SimStats) -> bool,
    stats_digest: u64,
}

/// The same small run as the golden cells: large enough that every
/// core misses, refills and shares lines, small enough for tier-1.
fn params(system: SystemConfig) -> ExpParams {
    let mut p = ExpParams::quick().with_cores(4).with_system(system);
    p.max_instructions = 120_000;
    p.warmup_instructions = 30_000;
    p
}

fn table2() -> SystemConfig {
    SystemConfig::table2()
}

/// Config1 (no L2) with a 64 KB, 8-way LLC.
fn two_level_small_llc() -> HierarchyConfig {
    HierarchyConfig {
        llc: CacheParams::new(64 * 1024, 8, 18),
        ..HierarchyConfig::config1()
    }
}

fn with_l1(policy: ReplacementPolicy) -> SystemConfig {
    let mut s = table2();
    s.l1_replacement = policy;
    s
}

fn cells() -> Vec<Cell> {
    vec![
        Cell {
            name: "call_graph_prefetcher",
            system: table2().with_call_graph_prefetcher(),
            technique: Technique::SchedTask,
            benchmark: BenchmarkKind::Find,
            engaged: |s| s.mem.prefetch_fills > 0,
            stats_digest: 0x41030d8b8a4a1ccd,
        },
        // No L2 and a 64 KB LLC that evicts all the time: a prefetched
        // line that leaves the L1i is found again only if the
        // prefetcher's LLC fill kept it there.
        Cell {
            name: "call_graph_prefetcher_small_llc",
            system: table2()
                .with_call_graph_prefetcher()
                .with_hierarchy(two_level_small_llc()),
            technique: Technique::SchedTask,
            benchmark: BenchmarkKind::Find,
            engaged: |s| s.mem.prefetch_fills > 0 && s.mem.llc.misses > 0,
            stats_digest: 0x7e33a5043b9776b9,
        },
        Cell {
            name: "trace_cache",
            system: table2().with_trace_cache(),
            technique: Technique::SchedTask,
            benchmark: BenchmarkKind::Find,
            engaged: |s| s.mem.trace_cache_covered > 0,
            stats_digest: 0xc864b54f9f2c6808,
        },
        Cell {
            name: "fifo_l1",
            system: with_l1(ReplacementPolicy::Fifo),
            technique: Technique::SchedTask,
            benchmark: BenchmarkKind::Find,
            engaged: |s| s.mem.icache_os.misses > 0,
            stats_digest: 0x17f4c5863b33dd78,
        },
        Cell {
            name: "random_l1",
            system: with_l1(ReplacementPolicy::Random),
            technique: Technique::Linux,
            benchmark: BenchmarkKind::Find,
            engaged: |s| s.mem.icache_os.misses > 0,
            stats_digest: 0x9ffef9a51a3f5ca3,
        },
        Cell {
            name: "nuca",
            system: table2().with_nuca(),
            technique: Technique::SchedTask,
            benchmark: BenchmarkKind::Find,
            engaged: |s| s.mem.llc.hits > 0,
            stats_digest: 0x90288d0d4b699069,
        },
        Cell {
            name: "branch_predictor",
            system: table2().with_branch_predictor(),
            technique: Technique::SchedTask,
            benchmark: BenchmarkKind::Find,
            engaged: |s| s.branches > 0 && s.branch_mispredictions > 0,
            stats_digest: 0xe2de1e535ed0ba48,
        },
        // The same small LLC on the data side: cache-to-cache transfers
        // fill it, and its evictions make every fill's recency visible.
        Cell {
            name: "small_llc_data_sharing",
            system: table2().with_hierarchy(two_level_small_llc()),
            technique: Technique::Linux,
            benchmark: BenchmarkKind::MailSrvIo,
            engaged: |s| s.mem.coherence_transfers > 0 && s.mem.llc.misses > 0,
            stats_digest: 0xcfa8afe3f8c50914,
        },
        Cell {
            name: "config1_two_level",
            system: table2().with_hierarchy(HierarchyConfig::config1()),
            technique: Technique::SchedTask,
            benchmark: BenchmarkKind::Find,
            engaged: |s| s.mem.l2.total() == 0 && s.mem.llc.total() > 0,
            stats_digest: 0xd6f4f6df39727cf6,
        },
    ]
}

#[test]
fn machine_variants_match_the_golden_digests() {
    let mut mismatches = Vec::new();
    for cell in cells() {
        let stats = RunBuilder::new(&params(cell.system.clone()))
            .technique(cell.technique)
            .benchmark(cell.benchmark, 1.0)
            .run()
            .expect("machine cell runs");
        assert!((cell.engaged)(&stats), "{}: variant path idle", cell.name);
        let digest = fnv1a64(stats.to_canonical_json().as_bytes());
        if digest != cell.stats_digest {
            mismatches.push(format!("{}: stats_digest: 0x{digest:016x}", cell.name));
        }
    }
    assert!(
        mismatches.is_empty(),
        "machine digests moved:\n{}",
        mismatches.join("\n")
    );
}
