//! Full technique comparison on a benchmark of your choice.
//!
//! ```text
//! cargo run --release --example scheduler_comparison -- [benchmark] [cores]
//!
//! benchmarks: find iscp oscp apache dss filesrv mailsrvio oltp
//! ```
#![deny(deprecated)]

use schedtask_suite::experiments::{runner, ExpParams, RunBuilder, Technique};
use schedtask_suite::kernel::WorkloadSpec;
use schedtask_suite::workload::BenchmarkKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kind = args
        .get(1)
        .and_then(|s| BenchmarkKind::parse(s))
        .unwrap_or(BenchmarkKind::Oltp);
    let cores: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);

    let mut params = ExpParams::standard().with_cores(cores);
    params.max_instructions = 500_000 * cores as u64;
    params.warmup_instructions = 125_000 * cores as u64;
    let workload = WorkloadSpec::single(kind, 2.0);

    println!(
        "{} at 2X on {cores} cores (SelectiveOffload uses {} cores)\n",
        kind.name(),
        cores * 2
    );
    let base = RunBuilder::new(&params)
        .technique(Technique::Linux)
        .workload(&workload)
        .run()
        .expect("baseline run succeeds");
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>9} {:>12}",
        "technique", "Δperf%", "Δipc%", "idle%", "i-hit%", "migr/Binstr"
    );
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>9.1} {:>12.0}",
        "Baseline",
        "-",
        "-",
        format!("{:.1}", base.mean_idle_fraction() * 100.0),
        base.mem.icache_overall_hit_rate() * 100.0,
        base.migrations_per_billion_instructions(),
    );
    for t in Technique::compared() {
        let s = RunBuilder::new(&params)
            .technique(t)
            .workload(&workload)
            .run()
            .expect("run succeeds");
        println!(
            "{:<18} {:>8.1} {:>8.1} {:>8.1} {:>9.1} {:>12.0}",
            t.name(),
            runner::performance_change(&base, &s, params.clock_hz()),
            runner::throughput_change(&base, &s),
            s.mean_idle_fraction() * 100.0,
            s.mem.icache_overall_hit_rate() * 100.0,
            s.migrations_per_billion_instructions(),
        );
    }
}
