//! Web-server scenario: the workload the paper's introduction motivates.
//!
//! Characterizes Apache's SuperFunction mix (Figure 2 / Figure 4), then
//! compares every scheduling technique on it and shows *why* the winner
//! wins, through the microarchitectural parameters of Figure 8.
//!
//! ```text
//! cargo run --release --example webserver
//! ```
#![deny(deprecated)]

use schedtask_suite::experiments::{runner, ExpParams, RunBuilder, Technique};
use schedtask_suite::kernel::{Engine, WorkloadSpec};
use schedtask_suite::workload::BenchmarkKind;

fn main() {
    let mut params = ExpParams::standard().with_cores(16);
    params.max_instructions = 8_000_000;
    params.warmup_instructions = 2_000_000;
    let workload = WorkloadSpec::single(BenchmarkKind::Apache, 2.0);

    // 1. Characterize: what does a web server actually execute?
    let mut cfg = params.engine_config(Technique::Linux);
    cfg.collect_epoch_breakups = true;
    let mut engine = Engine::new(
        cfg,
        &WorkloadSpec::single(BenchmarkKind::Apache, 1.0),
        Technique::Linux.scheduler(params.cores),
    )
    .expect("engine builds");
    let stats = engine.run().expect("run succeeds");
    let b = stats.instructions.breakup_percent();
    println!("Apache instruction breakup (cf. Figure 4):");
    println!(
        "  application   {:>5.1}%   (request parsing, page generation)",
        b[0]
    );
    println!(
        "  system calls  {:>5.1}%   (accept/recv/send/read...)",
        b[1]
    );
    println!("  interrupts    {:>5.1}%   (network card)", b[2]);
    println!("  bottom halves {:>5.1}%   (net_rx softirq)", b[3]);
    println!();

    // 2. Compare all techniques.
    let base = RunBuilder::new(&params)
        .technique(Technique::Linux)
        .workload(&workload)
        .run()
        .expect("run succeeds");
    println!(
        "{:<18} {:>9} {:>8} {:>10} {:>10}",
        "technique", "Δperf(%)", "idle(%)", "i-OS(pp)", "d-OS(pp)"
    );
    for t in Technique::compared() {
        let s = RunBuilder::new(&params)
            .technique(t)
            .workload(&workload)
            .run()
            .expect("run succeeds");
        println!(
            "{:<18} {:>9.1} {:>8.1} {:>10.1} {:>10.1}",
            t.name(),
            runner::performance_change(&base, &s),
            s.mean_idle_fraction() * 100.0,
            runner::hit_rate_delta_pp(base.mem.icache_os.hit_rate(), s.mem.icache_os.hit_rate()),
            runner::hit_rate_delta_pp(base.mem.dcache_os.hit_rate(), s.mem.dcache_os.hit_rate()),
        );
    }
    println!(
        "\nSchedTask wins by steering accept/recv/send handlers and the net_rx\n\
         softirq to dedicated cores (warm i-caches) while its two-level work\n\
         stealing keeps every core busy."
    );
}
