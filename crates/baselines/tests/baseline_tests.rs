//! End-to-end behavioural tests of the baseline schedulers.

use schedtask_baselines::{
    DisAggregateOsScheduler, FlexScScheduler, LinuxScheduler, SelectiveOffloadScheduler,
    SliccScheduler,
};
use schedtask_kernel::{Engine, EngineConfig, Scheduler, SimStats, WorkloadSpec};
use schedtask_sim::SystemConfig;
use schedtask_workload::BenchmarkKind;

const CORES: usize = 8;

fn cfg(max_instr: u64) -> EngineConfig {
    EngineConfig::fast()
        .with_system(SystemConfig::table2().with_cores(CORES))
        .with_max_instructions(max_instr)
}

fn run_with(sched: Box<dyn Scheduler>, kind: BenchmarkKind, scale: f64) -> SimStats {
    let mut engine = Engine::new(cfg(800_000), &WorkloadSpec::single(kind, scale), sched)
        .expect("engine builds");
    engine.run().expect("run succeeds").clone()
}

#[test]
fn all_baselines_run_every_benchmark_kind() {
    for kind in [BenchmarkKind::Find, BenchmarkKind::Apache] {
        let runs: Vec<(&str, SimStats)> = vec![
            (
                "Linux",
                run_with(Box::new(LinuxScheduler::new(CORES)), kind, 1.0),
            ),
            (
                "SelectiveOffload",
                run_with(Box::new(SelectiveOffloadScheduler::new(CORES)), kind, 1.0),
            ),
            (
                "FlexSC",
                run_with(Box::new(FlexScScheduler::new(CORES)), kind, 1.0),
            ),
            (
                "DisAggregateOS",
                run_with(Box::new(DisAggregateOsScheduler::new(CORES)), kind, 1.0),
            ),
            (
                "SLICC",
                run_with(Box::new(SliccScheduler::new(CORES)), kind, 1.0),
            ),
        ];
        for (name, stats) in runs {
            assert!(
                stats.total_instructions() > 100_000,
                "{name} on {kind:?} barely ran"
            );
            assert!(stats.final_cycle > 0, "{name} on {kind:?}");
        }
    }
}

#[test]
fn linux_baseline_has_few_migrations() {
    // Section 6.2: the baseline migrates threads only on significant
    // imbalance, so its migration rate is minimal compared to the
    // specialization techniques.
    let linux = run_with(
        Box::new(LinuxScheduler::new(CORES)),
        BenchmarkKind::Apache,
        2.0,
    );
    let flexsc = run_with(
        Box::new(FlexScScheduler::new(CORES)),
        BenchmarkKind::Apache,
        2.0,
    );
    assert!(
        linux.migrations_per_billion_instructions() < flexsc.migrations_per_billion_instructions(),
        "linux {} vs flexsc {}",
        linux.migrations_per_billion_instructions(),
        flexsc.migrations_per_billion_instructions()
    );
}

#[test]
fn selective_offload_idles_heavily() {
    // Canonical Table 3 configuration: twice the cores, workload sized
    // for the baseline count. With no load balancing, app cores idle
    // while threads sit in syscalls and vice versa (Figure 8b: ≈50 %).
    let mut config = EngineConfig::fast()
        .with_system(SystemConfig::table2().with_cores(CORES * 2))
        .with_max_instructions(800_000);
    config.workload_reference_cores = CORES;
    let mut engine = Engine::new(
        config,
        &WorkloadSpec::single(BenchmarkKind::MailSrvIo, 1.0),
        Box::new(SelectiveOffloadScheduler::new(CORES * 2)),
    )
    .expect("engine builds");
    let stats = engine.run().expect("run succeeds").clone();
    assert!(
        stats.mean_idle_fraction() > 0.3,
        "idle = {}",
        stats.mean_idle_fraction()
    );
}

#[test]
fn flexsc_keeps_idleness_near_zero() {
    let stats = run_with(
        Box::new(FlexScScheduler::new(CORES)),
        BenchmarkKind::Apache,
        2.0,
    );
    assert!(
        stats.mean_idle_fraction() < 0.05,
        "idle = {}",
        stats.mean_idle_fraction()
    );
}

#[test]
fn flexsc_hurts_single_threaded_apps() {
    // The per-syscall Linux reschedule makes single-threaded benchmarks
    // complete fewer operations per second than under Linux.
    let linux = run_with(
        Box::new(LinuxScheduler::new(CORES)),
        BenchmarkKind::Find,
        2.0,
    );
    let flexsc = run_with(
        Box::new(FlexScScheduler::new(CORES)),
        BenchmarkKind::Find,
        2.0,
    );
    assert!(
        flexsc.app_performance() < linux.app_performance(),
        "flexsc {} >= linux {}",
        flexsc.app_performance(),
        linux.app_performance()
    );
}

#[test]
fn slicc_does_not_steal() {
    // At 1X, SLICC idles visibly more than FlexSC (Table 4's 1X rows:
    // SLICC 41 %, FlexSC 0 %).
    let slicc = run_with(
        Box::new(SliccScheduler::new(CORES)),
        BenchmarkKind::Find,
        1.0,
    );
    let flexsc = run_with(
        Box::new(FlexScScheduler::new(CORES)),
        BenchmarkKind::Find,
        1.0,
    );
    assert!(
        slicc.mean_idle_fraction() > flexsc.mean_idle_fraction(),
        "slicc {} vs flexsc {}",
        slicc.mean_idle_fraction(),
        flexsc.mean_idle_fraction()
    );
}

#[test]
fn disaggregate_runs_all_categories() {
    let stats = run_with(
        Box::new(DisAggregateOsScheduler::new(CORES)),
        BenchmarkKind::FileSrv,
        2.0,
    );
    assert!(stats.instructions.application > 0);
    assert!(stats.instructions.syscall > 0);
    assert!(stats.instructions.bottom_half > 0);
}

#[test]
fn specialization_beats_fifo_on_icache() {
    // Grouping same-type work must raise the OS i-cache hit rate
    // relative to the global FIFO free-for-all.
    use schedtask_kernel::GlobalFifoScheduler;
    let fifo = run_with(
        Box::new(GlobalFifoScheduler::new()),
        BenchmarkKind::MailSrvIo,
        2.0,
    );
    let slicc = run_with(
        Box::new(SliccScheduler::new(CORES)),
        BenchmarkKind::MailSrvIo,
        2.0,
    );
    let fifo_os = fifo.mem.icache_os.hit_rate();
    let slicc_os = slicc.mem.icache_os.hit_rate();
    assert!(
        slicc_os > fifo_os,
        "SLICC OS i-hit {slicc_os:.3} should beat FIFO {fifo_os:.3}"
    );
}

#[test]
fn baselines_are_deterministic() {
    let a = run_with(
        Box::new(LinuxScheduler::new(CORES)),
        BenchmarkKind::Oltp,
        1.0,
    );
    let b = run_with(
        Box::new(LinuxScheduler::new(CORES)),
        BenchmarkKind::Oltp,
        1.0,
    );
    assert_eq!(a.final_cycle, b.final_cycle);
    assert_eq!(a.total_instructions(), b.total_instructions());
}
