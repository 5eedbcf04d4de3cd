//! Table goldens: the tables of every experiment but the sweep (whose
//! output CI diffs), rendered at a tiny size and pinned by FNV-1a
//! digests of their text.
//!
//! The digests were recorded before the experiments shared cells, so a
//! change to how cells are declared, deduplicated or run in parallel
//! that moves a single byte of any table fails here.

use schedtask::StealPolicy;
use schedtask_experiments::serve_api::fnv1a64;
use schedtask_experiments::{
    ablations, appendix, fig04_breakup, fig09_stealing, fig11_heatmap, overheads, table4_workload,
    Comparison, ExpParams, Runner, Table,
};
use schedtask_kernel::WorkloadSpec;
use schedtask_workload::{BenchmarkKind, MultiProgrammedWorkload};

/// Four cores, short budgets and short epochs: every cell still runs
/// several epochs, so SchedTask reallocates and steals.
fn tiny() -> ExpParams {
    let mut p = ExpParams::quick();
    p.cores = 4;
    p.max_instructions = 200_000;
    p.warmup_instructions = 50_000;
    p.epoch_cycles = 20_000;
    p
}

/// The benchmarks the appendix machines and Figure 11 run on here.
const SUBSET: [BenchmarkKind; 2] = [BenchmarkKind::Find, BenchmarkKind::MailSrvIo];

fn digest(tables: &[Table]) -> u64 {
    let text: String = tables.iter().map(|t| t.to_string()).collect();
    fnv1a64(text.as_bytes())
}

#[test]
fn experiment_tables_match_their_goldens() {
    let p = tiny();
    // One runner for every experiment, as in `repro all`: shared cells
    // are simulated once, two at a time.
    let runner = &mut Runner::new(2);
    let mut got: Vec<(&str, u64)> = Vec::new();

    let results = fig04_breakup::run(runner, &p).expect("fig4 runs");
    got.push((
        "fig4",
        digest(&[
            fig04_breakup::breakup_table(&results),
            fig04_breakup::epoch_similarity_table(&results),
        ]),
    ));

    let c = Comparison::run(runner, &p, 2.0, &BenchmarkKind::all()).expect("comparison runs");
    let mut fig8 = c.fig08_all();
    fig8.push(c.baseline_absolute_table());
    got.push(("fig7", digest(&[c.fig07_performance()])));
    got.push(("fig8", digest(&fig8)));
    got.push(("fig10", digest(&[c.fig10_migrations()])));

    let runs = fig09_stealing::run(runner, &p, &StealPolicy::all()).expect("fig9 runs");
    got.push((
        "fig9",
        digest(&[
            fig09_stealing::throughput_table(&runs),
            fig09_stealing::idleness_table(&runs),
            fig09_stealing::icache_table(&runs),
        ]),
    ));

    let sweep = fig11_heatmap::run(runner, &p, &SUBSET).expect("fig11 runs");
    let bags: Vec<(String, WorkloadSpec)> = MultiProgrammedWorkload::all()
        .iter()
        .take(2)
        .map(|b| (b.name.to_string(), WorkloadSpec::from(b)))
        .collect();
    let mpw_tau = fig11_heatmap::run_tau_on_workloads(runner, &p, &bags).expect("fig11 runs");
    got.push((
        "fig11",
        digest(&[
            fig11_heatmap::tau_table(&sweep),
            fig11_heatmap::perf_table(&sweep),
            fig11_heatmap::mpw_tau_table(&mpw_tau),
        ]),
    ));

    let r = overheads::run(runner, &p).expect("overheads run");
    got.push(("overheads", digest(&[overheads::report_table(&r)])));

    let blocks = table4_workload::run(runner, &p, &[1.0, 2.0]).expect("table4 runs");
    let tables: Vec<Table> = blocks.iter().map(table4_workload::block_table).collect();
    got.push(("table4", digest(&tables)));

    got.push((
        "mpw",
        digest(&[appendix::multiprog_table(runner, &p).expect("mpw runs")]),
    ));

    let icache = appendix::icache_size_sweep(runner, &p, &SUBSET).expect("icache runs");
    got.push(("icache", digest(&appendix::icache_size_tables(&icache))));
    let cache = appendix::cache_config_sweep(runner, &p, &SUBSET).expect("configs run");
    got.push((
        "cacheconfig",
        digest(&appendix::cache_config_tables(&cache)),
    ));
    let cores = appendix::core_count_sweep(runner, &p, &[2, 8], &SUBSET).expect("cores run");
    got.push(("cores", digest(&appendix::core_count_tables(&cores))));
    let prefetch = appendix::prefetcher_comparison(runner, &p, &SUBSET).expect("runs");
    got.push(("prefetch", digest(&[prefetch.fig08a_throughput()])));
    let trace = appendix::trace_cache_comparison(runner, &p, &SUBSET).expect("runs");
    got.push(("tracecache", digest(&[trace.fig08a_throughput()])));

    got.push((
        "ablations",
        digest(&[
            ablations::software_rendition_table(runner, &p).expect("runs"),
            ablations::epoch_length_table(runner, &p, &[15_000, 30_000]).expect("runs"),
            ablations::realloc_threshold_table(runner, &p, &[0.0, 0.9, 0.98, 1.01]).expect("runs"),
            ablations::steal_amount_table(runner, &p).expect("runs"),
            ablations::migration_cost_table(runner, &p, &[0, 100, 400]).expect("runs"),
            ablations::replacement_policy_table(runner, &p).expect("runs"),
            table4_workload::beyond_8x_table(runner, &p, &[2.0, 3.0]).expect("runs"),
            ablations::branch_model_table(runner, &p).expect("runs"),
            ablations::nuca_table(runner, &p).expect("runs"),
        ]),
    ));

    let want: [(&str, u64); 15] = [
        ("fig4", 0x760ae03632fe4a71),
        ("fig7", 0x6d08405901f81a24),
        ("fig8", 0xdc5ff2a7564ab937),
        ("fig10", 0x0dd25c29db061ed4),
        ("fig9", 0xd5da5324f1fbef1a),
        ("fig11", 0x67abbc257ef48bb9),
        ("overheads", 0xe318aefa192a7669),
        ("table4", 0x62d7934550b0f09b),
        ("mpw", 0xcbc997bd93db7a9a),
        ("icache", 0xd02662ca161473e3),
        ("cacheconfig", 0x72a0f2f9990c2b29),
        ("cores", 0xa89ace8320da2b0c),
        ("prefetch", 0xe3087eda7a31271d),
        ("tracecache", 0x4ac15ebc93f63949),
        ("ablations", 0x711d0db328b1689b),
    ];
    let moved: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w != g)
        .map(|((name, w), (_, g))| format!("{name}: want {w:#018x}, got {g:#018x}"))
        .collect();
    assert_eq!(got.len(), want.len());
    assert!(moved.is_empty(), "tables moved:\n{}", moved.join("\n"));
}
