//! Integration tests for SchedTask-specific behaviour across crates.

use schedtask_suite::core::{SchedTaskConfig, SchedTaskScheduler, StealPolicy};
use schedtask_suite::kernel::{Engine, EngineConfig, SimStats, WorkloadSpec};
use schedtask_suite::sim::SystemConfig;
use schedtask_suite::workload::BenchmarkKind;

const CORES: usize = 8;

fn run_with(cfg: SchedTaskConfig, kind: BenchmarkKind, max_instr: u64) -> SimStats {
    let mut ecfg = EngineConfig::fast()
        .with_system(SystemConfig::table2().with_cores(CORES))
        .with_max_instructions(max_instr);
    ecfg.epoch_cycles = 50_000;
    let mut engine = Engine::new(
        ecfg,
        &WorkloadSpec::single(kind, 2.0),
        Box::new(SchedTaskScheduler::new(CORES, cfg)),
    )
    .expect("engine builds");
    engine.run().expect("run succeeds").clone()
}

#[test]
fn all_heatmap_widths_run() {
    for bits in [128u32, 256, 512, 1024, 2048] {
        let stats = run_with(
            SchedTaskConfig {
                heatmap_bits: bits,
                ..SchedTaskConfig::default()
            },
            BenchmarkKind::Find,
            300_000,
        );
        assert!(stats.total_instructions() > 0, "{bits} bits failed");
    }
}

#[test]
fn exact_overlap_mode_runs() {
    let stats = run_with(
        SchedTaskConfig {
            use_exact_overlap: true,
            ..SchedTaskConfig::default()
        },
        BenchmarkKind::MailSrvIo,
        300_000,
    );
    assert!(stats.total_instructions() > 0);
}

#[test]
fn stealing_policies_order_idleness_on_filesrv() {
    // Figure 9b's ordering on its most dramatic benchmark.
    let idle = |policy| {
        run_with(
            SchedTaskConfig {
                steal_policy: policy,
                ..SchedTaskConfig::default()
            },
            BenchmarkKind::FileSrv,
            900_000,
        )
        .mean_idle_fraction()
    };
    let nothing = idle(StealPolicy::Nothing);
    let same = idle(StealPolicy::SameWorkOnly);
    let similar = idle(StealPolicy::SimilarWorkAlso);
    assert!(
        nothing + 1e-9 >= same,
        "no stealing ({nothing:.3}) should idle ≥ steal-same ({same:.3})"
    );
    assert!(
        same + 1e-9 >= similar,
        "steal-same ({same:.3}) should idle ≥ steal-similar ({similar:.3})"
    );
    assert!(similar < 0.05, "default strategy idle = {similar:.3}");
}

#[test]
fn schedtask_separates_footprints() {
    // The mechanism test: on the syscall-heavy benchmark, SchedTask's
    // overall i-cache hit rate must be clearly higher than a Linux-like
    // thread-affine baseline's.
    use schedtask_suite::baselines::LinuxScheduler;
    let mut ecfg = EngineConfig::fast()
        .with_system(SystemConfig::table2().with_cores(CORES))
        .with_max_instructions(1_200_000);
    ecfg.epoch_cycles = 50_000;
    let mut base_engine = Engine::new(
        ecfg.clone(),
        &WorkloadSpec::single(BenchmarkKind::MailSrvIo, 2.0),
        Box::new(LinuxScheduler::new(CORES)),
    )
    .expect("engine builds");
    let base = base_engine.run().expect("run succeeds").clone();
    let st = run_with(
        SchedTaskConfig::default(),
        BenchmarkKind::MailSrvIo,
        1_200_000,
    );
    assert!(
        st.mem.icache_overall_hit_rate() > base.mem.icache_overall_hit_rate(),
        "SchedTask i-hit {:.3} vs baseline {:.3}",
        st.mem.icache_overall_hit_rate(),
        base.mem.icache_overall_hit_rate()
    );
}

#[test]
fn schedtask_migrates_threads_aggressively() {
    // Figure 10: specialization techniques migrate threads orders of
    // magnitude more than the baseline — and that's fine.
    use schedtask_suite::baselines::LinuxScheduler;
    let mut ecfg = EngineConfig::fast()
        .with_system(SystemConfig::table2().with_cores(CORES))
        .with_max_instructions(600_000);
    ecfg.epoch_cycles = 50_000;
    let mut base_engine = Engine::new(
        ecfg,
        &WorkloadSpec::single(BenchmarkKind::Apache, 2.0),
        Box::new(LinuxScheduler::new(CORES)),
    )
    .expect("engine builds");
    let base = base_engine.run().expect("run succeeds").clone();
    let st = run_with(SchedTaskConfig::default(), BenchmarkKind::Apache, 600_000);
    assert!(
        st.migrations_per_billion_instructions()
            > 10.0 * base.migrations_per_billion_instructions().max(1.0),
        "SchedTask {:.0} vs baseline {:.0} migrations/Binstr",
        st.migrations_per_billion_instructions(),
        base.migrations_per_billion_instructions()
    );
}

#[test]
fn fairness_stays_high_under_schedtask() {
    // Section 6.1: FCFS queues give a Jain index near 1.
    let stats = run_with(SchedTaskConfig::default(), BenchmarkKind::Oltp, 1_200_000);
    assert!(stats.fairness() > 0.8, "J = {:.3}", stats.fairness());
}

#[test]
fn ranking_observer_collects_epochs() {
    let (sched, observer) =
        SchedTaskScheduler::with_ranking_observer(CORES, SchedTaskConfig::default());
    let mut ecfg = EngineConfig::fast()
        .with_system(SystemConfig::table2().with_cores(CORES))
        .with_max_instructions(500_000);
    ecfg.epoch_cycles = 50_000;
    let mut engine = Engine::new(
        ecfg,
        &WorkloadSpec::single(BenchmarkKind::FileSrv, 1.0),
        Box::new(sched),
    )
    .expect("engine builds");
    engine.run().expect("run succeeds");
    let snaps = observer.snapshots();
    assert!(!snaps.is_empty(), "no TAlloc snapshots");
    // Every recorded row pairs a Bloom score with an exact score.
    let total_pairs: usize = snaps
        .iter()
        .flat_map(|e| e.iter())
        .map(|(_, row)| row.len())
        .sum();
    assert!(total_pairs > 0);
}
