//! Quickstart: run the Apache benchmark under the Linux baseline and
//! under SchedTask, and print what the paper's headline is about —
//! higher i-cache hit rates and higher application throughput from
//! scheduling similar SuperFunctions onto the same cores.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use schedtask_suite::baselines::LinuxScheduler;
use schedtask_suite::core::{SchedTaskConfig, SchedTaskScheduler};
use schedtask_suite::kernel::{Engine, EngineConfig, Scheduler, SimStats, WorkloadSpec};
use schedtask_suite::sim::SystemConfig;
use schedtask_suite::workload::BenchmarkKind;

fn run(name: &str, scheduler: Box<dyn Scheduler>, cores: usize) -> SimStats {
    let cfg = EngineConfig::fast()
        .with_system(SystemConfig::table2().with_cores(cores))
        .with_max_instructions(4_000_000);
    let mut engine = Engine::new(
        cfg,
        &WorkloadSpec::single(BenchmarkKind::Apache, 2.0),
        scheduler,
    )
    .expect("engine builds");
    let stats = engine.run().expect("run succeeds").clone();
    println!(
        "{name:<10}  IPC/core {:.3}   i-hit app {:.1}% / OS {:.1}%   idle {:.1}%   pages served/s {:.0}",
        stats.instruction_throughput() / cores as f64,
        stats.mem.icache_app.hit_rate() * 100.0,
        stats.mem.icache_os.hit_rate() * 100.0,
        stats.mean_idle_fraction() * 100.0,
        stats.app_performance(),
    );
    stats
}

fn main() {
    let cores = 16;
    println!("Apache web server, 2X workload, {cores} cores (Table 2 machine)\n");
    let base = run("Linux", Box::new(LinuxScheduler::new(cores)), cores);
    let st = run(
        "SchedTask",
        Box::new(SchedTaskScheduler::new(cores, SchedTaskConfig::default())),
        cores,
    );
    let gain = (st.app_performance() / base.app_performance() - 1.0) * 100.0;
    println!("\nSchedTask serves {gain:+.1}% more pages per second than the Linux baseline.");
}
