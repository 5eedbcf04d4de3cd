//! `repro` — regenerate the SchedTask paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--quick] [--cores N] [--seed S] [--jobs N]
//!                    [--faults SPEC] [--sanitize] [--force-fail TECH:BENCH[:N]]
//!                    [--obs FILE] [--profile] [--keep-going]
//! repro submit  --addr ENDPOINT [client options...]
//!
//! experiments:
//!   fig4        Figure 4 instruction breakups + Section 4.4 epoch similarity
//!   fig7        Figure 7 application performance
//!   fig8        Figures 8a-8f microarchitectural parameters
//!   fig9        Figure 9 work-stealing strategies
//!   fig10       Figure 10 thread migrations
//!   fig11       Figure 11 Page-heatmap register size
//!   overheads   Section 6.1 overheads / TLB / fairness / interrupt latency
//!   table4      Table 4 workload scaling (1X/2X/4X/8X)
//!   mpw         Appendix Figure 1 multi-programmed workloads
//!   icache      Appendix Table 2 i-cache size sweep
//!   cacheconfig Appendix Table 3 cache configurations
//!   cores       Appendix Table 4 core-count sweep
//!   prefetch    Appendix Figure 2 instruction prefetcher
//!   tracecache  Appendix Figure 3 trace cache
//!   ablations   design-choice ablations (beyond the paper)
//!   sweep       resilient technique × benchmark sweep (per-cell isolation)
//!   all         everything above, in order
//! ```
//!
//! Every experiment declares the grid of cells it needs, and one
//! runner per invocation simulates each distinct cell once: `all`
//! prints exactly what the experiments print one by one, but Figures 8
//! and 10, Table 4's 2X block and the other points equal to Figure 7's
//! read its cells back instead of re-running them.
//!
//! `--quick` picks the reduced preset (8 cores) over the standard one
//! (32 cores). `--cores N` moves the chosen preset to `N` cores and
//! scales its instruction budgets with the core count, so each core's
//! share stays the preset's.
//!
//! Serving: the job server is the `schedtaskd` binary from
//! `crates/serve`; `repro submit` is its line client. It submits one
//! run request per `technique × workload` pair (default `SchedTask ×
//! Find`) to `--addr ENDPOINT` (`tcp://HOST:PORT`)
//! and prints each response; `--stats` or `--shutdown` without
//! `--workload` or `--technique` submits no run.
//! `--ping` waits for server readiness; `--expect-cached` exits non-zero
//! if any successful response was not served from the result cache;
//! `--stats` prints the server's counters; `--shutdown` asks the server
//! to drain and exit; `--retries N` retries each submission with
//! deadline/backoff discipline; `--out FILE` records the result payload
//! bytes for later byte-identity comparison.
//!
//! Robustness options:
//!
//! * `--faults SPEC` injects a deterministic fault plan into every run.
//!   `SPEC` is `none`, `light`, `heavy`, optionally `@SEED`
//!   (e.g. `light@7`), or a comma list of `rate` overrides (see
//!   `FaultPlan::parse`).
//! * `--sanitize` runs the engine's invariant sanitizer on every run.
//! * `--force-fail TECH:BENCH[:N]` breaks one sweep cell on purpose after
//!   `N` dispatches (default 100) — demonstrates per-cell isolation.
//! * `--jobs N` runs every experiment's cells on up to `N` worker
//!   threads. Per-cell `SimStats` are bit-identical to the serial run
//!   (each cell's seed is a pure function of the parameters); only
//!   wall-clock time changes.
//!
//! Observability options (sweep experiment):
//!
//! * `--obs FILE` attaches a JSONL sink to every sweep cell and writes
//!   the concatenated event logs (one JSON object per line, each tagged
//!   with its `technique/benchmark` cell) to `FILE`.
//! * `--profile` attaches an in-memory aggregator to every sweep cell
//!   and prints per-technique counter and span summary tables.
//!
//! Failures never abort a sweep or `all`: each failed cell is recorded
//! with a structured diagnosis (an experiment other than the sweep
//! reports its first failed cell and prints no tables), partial results
//! still print, and a failure summary follows. The process then exits
//! non-zero so CI cannot green-light a partial run; pass `--keep-going`
//! to keep the historical exit-0 behaviour for exploratory sessions.

use schedtask::StealPolicy;
use schedtask_experiments::serve_api::{
    submit_with_retry, ClientTimeouts, Endpoint, JobSpec, Json, Response, RetryPolicy, ServeClient,
};
use schedtask_experiments::{
    ablations, appendix, fig04_breakup, fig09_stealing, fig11_heatmap, overheads, table4_workload,
};
use schedtask_experiments::{Comparison, ExpParams, Grid, Runner, Table, Technique};
use schedtask_kernel::obs::{render_counter_table, render_span_table};
use schedtask_kernel::{FaultPlan, WorkloadSpec};
use schedtask_workload::{BenchmarkKind, MultiProgrammedWorkload};
use std::error::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

struct Opts {
    experiment: String,
    quick: bool,
    cores: Option<usize>,
    seed: Option<u64>,
    faults: Option<String>,
    sanitize: bool,
    force_fail: Option<(Technique, BenchmarkKind, u64)>,
    jobs: usize,
    obs: Option<String>,
    profile: bool,
    keep_going: bool,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        experiment: String::new(),
        quick: false,
        cores: None,
        seed: None,
        faults: None,
        sanitize: false,
        force_fail: None,
        jobs: 1,
        obs: None,
        profile: false,
        keep_going: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--sanitize" => opts.sanitize = true,
            "--profile" => opts.profile = true,
            "--keep-going" => opts.keep_going = true,
            "--obs" => {
                opts.obs = Some(
                    args.next()
                        .unwrap_or_else(|| die("--obs needs a file path")),
                );
            }
            "--cores" => {
                opts.cores = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .or_else(|| die("--cores needs a number"))
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .or_else(|| die("--seed needs a number"))
            }
            "--faults" => {
                opts.faults = Some(args.next().unwrap_or_else(|| die("--faults needs a spec")));
            }
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--jobs needs a number >= 1"));
            }
            "--force-fail" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| die("--force-fail needs TECH:BENCH[:N]"));
                opts.force_fail = Some(parse_force_fail(&spec));
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other if opts.experiment.is_empty() && !other.starts_with('-') => {
                opts.experiment = other.to_string();
            }
            other => {
                die(&format!("unknown argument {other:?}"));
            }
        }
    }
    if opts.experiment.is_empty() {
        print_help();
        std::process::exit(1);
    }
    opts
}

fn parse_force_fail(spec: &str) -> (Technique, BenchmarkKind, u64) {
    let mut parts = spec.split(':');
    let tech = parts
        .next()
        .and_then(Technique::parse)
        .unwrap_or_else(|| die("--force-fail: unknown technique"));
    let bench_name = parts
        .next()
        .unwrap_or_else(|| die("--force-fail needs TECH:BENCH[:N]"));
    let bench =
        BenchmarkKind::parse(bench_name).unwrap_or_else(|| die("--force-fail: unknown benchmark"));
    let after = match parts.next() {
        Some(n) => n
            .parse()
            .unwrap_or_else(|_| die("--force-fail: N must be a number")),
        None => 100,
    };
    (tech, bench, after)
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn print_help() {
    println!(
        "repro — regenerate the SchedTask paper's tables and figures\n\n\
         usage: repro <experiment> [--quick] [--cores N] [--seed S]\n\
                [--jobs N] [--faults none|light|heavy[@SEED]] [--sanitize]\n\
                [--force-fail TECH:BENCH[:N]] [--obs FILE] [--profile]\n\
                [--keep-going]\n\
                repro submit [client options...]       submit jobs to a server\n\n\
         sweep exit code: non-zero when any cell fails; --keep-going\n\
         restores the historical always-0 behaviour\n\n\
         observability (sweep experiment):\n\
           --obs FILE   write every cell's event log as JSON Lines to FILE\n\
           --profile    print per-technique counter and span summaries\n\n\
         experiments: fig4 fig7 fig8 fig9 fig10 fig11 overheads table4 mpw\n\
                      icache cacheconfig cores prefetch tracecache ablations\n\
                      sweep all"
    );
}

fn params(opts: &Opts) -> ExpParams {
    let mut p = if opts.quick {
        ExpParams::quick()
    } else {
        ExpParams::standard()
    };
    if let Some(c) = opts.cores {
        p = p.scaled_to_cores(c);
    }
    if let Some(s) = opts.seed {
        p.seed = s;
    }
    if let Some(spec) = &opts.faults {
        match FaultPlan::parse(spec, p.seed) {
            Ok(plan) => p = p.with_faults(plan),
            Err(e) => {
                die(&format!("--faults: {e}"));
            }
        }
    }
    if opts.sanitize {
        p = p.with_sanitize();
    }
    p
}

/// One experiment's failure, for the end-of-run summary.
struct Failure {
    experiment: String,
    detail: String,
}

/// Every experiment, in `all`'s order.
const EXPERIMENTS: [&str; 16] = [
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "overheads",
    "table4",
    "mpw",
    "icache",
    "cacheconfig",
    "cores",
    "prefetch",
    "tracecache",
    "ablations",
    "sweep",
];

/// The benchmarks of the sweep and Figure 11: two under `--quick`.
fn benchmarks(opts: &Opts) -> Vec<BenchmarkKind> {
    if opts.quick {
        vec![BenchmarkKind::Find, BenchmarkKind::MailSrvIo]
    } else {
        BenchmarkKind::all().to_vec()
    }
}

fn run_sweep_experiment(opts: &Opts, p: &ExpParams, runner: &mut Runner) -> Vec<Failure> {
    let techniques = Technique::all();
    let benchmarks = benchmarks(opts);
    let mut grid = Grid::benchmarks(p, &benchmarks, 2.0, techniques);
    if opts.obs.is_some() || opts.profile {
        grid = grid.observed();
    }
    if let Some((tech, bench, after)) = opts.force_fail {
        let row = techniques.iter().position(|&t| t == tech);
        let col = benchmarks.iter().position(|&b| b == bench);
        if let (Some(row), Some(col)) = (row, col) {
            grid = grid.fail_after(row, col, after);
        }
    }
    let report = runner.run(&grid);

    let mut t = Table::new("Sweep: instruction throughput (G instr / G cycles) per cell")
        .with_note("Failed cells print their diagnosis below instead of a value.");
    let mut headers = vec!["technique".to_string()];
    headers.extend(benchmarks.iter().map(|b| b.name().to_string()));
    t = t.with_headers(headers);
    for (row, tech) in techniques.iter().enumerate() {
        let mut cells = vec![tech.name().to_string()];
        cells.extend(report.row(row).iter().map(|c| match &c.result {
            Ok(s) => format!("{:.3}", s.instruction_throughput()),
            Err(_) => "FAILED".to_string(),
        }));
        t.push_row(cells);
    }
    println!("{t}");

    let mut failures = Vec::new();
    for e in report.failures() {
        failures.push(Failure {
            experiment: format!("sweep cell {}:{}", e.technique, e.workload),
            detail: e.to_string(),
        });
    }

    if opts.profile {
        println!("\nPer-technique counters (whole run, warm-up included):");
        println!("{}", render_counter_table(&report.counters_by_technique()));
        for (name, rows) in report.spans_by_technique() {
            println!("{name} spans:");
            println!("{}", render_span_table(&rows));
        }
    }
    if let Some(path) = &opts.obs {
        match std::fs::write(path, report.jsonl()) {
            Ok(()) => eprintln!("[repro] wrote observability events to {path}"),
            Err(e) => failures.push(Failure {
                experiment: "sweep --obs".to_string(),
                detail: format!("writing {path}: {e}"),
            }),
        }
    }

    eprintln!(
        "[repro] sweep: {} cells ok, {} failed",
        report.succeeded(),
        report.failed()
    );
    failures
}

/// Runs one experiment other than the sweep and prints its tables; its
/// cells come from (and stay in) `runner`.
fn run_experiment(
    name: &str,
    opts: &Opts,
    p: &ExpParams,
    runner: &mut Runner,
) -> Result<(), Box<dyn Error>> {
    let all = BenchmarkKind::all();
    match name {
        "fig4" => {
            let results = fig04_breakup::run(runner, p)?;
            println!("{}", fig04_breakup::breakup_table(&results));
            println!("{}", fig04_breakup::epoch_similarity_table(&results));
        }
        "fig7" => {
            let c = Comparison::run(runner, p, 2.0, &all)?;
            println!("{}", c.fig07_performance());
        }
        "fig8" => {
            let c = Comparison::run(runner, p, 2.0, &all)?;
            for t in c.fig08_all() {
                println!("{t}");
            }
            println!("{}", c.baseline_absolute_table());
        }
        "fig9" => {
            let runs = fig09_stealing::run(runner, p, &StealPolicy::all())?;
            println!("{}", fig09_stealing::throughput_table(&runs));
            println!("{}", fig09_stealing::idleness_table(&runs));
            println!("{}", fig09_stealing::icache_table(&runs));
        }
        "fig10" => {
            let c = Comparison::run(runner, p, 2.0, &all)?;
            println!("{}", c.fig10_migrations());
        }
        "fig11" => {
            let sweep = fig11_heatmap::run(runner, p, &benchmarks(opts))?;
            println!("{}", fig11_heatmap::tau_table(&sweep));
            println!("{}", fig11_heatmap::perf_table(&sweep));
            // The width gradient needs large application footprints in
            // the ranking: tau again over multi-programmed bags.
            let bags: Vec<(String, WorkloadSpec)> = MultiProgrammedWorkload::all()
                .iter()
                .take(if opts.quick { 2 } else { 6 })
                .map(|b| (b.name.to_string(), WorkloadSpec::from(b)))
                .collect();
            let mpw = fig11_heatmap::run_tau_on_workloads(runner, p, &bags)?;
            println!("{}", fig11_heatmap::mpw_tau_table(&mpw));
        }
        "overheads" => {
            let r = overheads::run(runner, p)?;
            println!("{}", overheads::report_table(&r));
        }
        "table4" => {
            let scales: &[f64] = if opts.quick {
                &[1.0, 4.0]
            } else {
                &table4_workload::SCALES
            };
            for block in table4_workload::run(runner, p, scales)? {
                println!("{}", table4_workload::block_table(&block));
            }
        }
        "mpw" => {
            println!("{}", appendix::multiprog_table(runner, p)?);
        }
        "icache" => {
            let sweep = appendix::icache_size_sweep(runner, p, &all)?;
            for t in appendix::icache_size_tables(&sweep) {
                println!("{t}");
            }
        }
        "cacheconfig" => {
            let sweep = appendix::cache_config_sweep(runner, p, &all)?;
            for t in appendix::cache_config_tables(&sweep) {
                println!("{t}");
            }
        }
        "cores" => {
            let counts: &[usize] = if opts.quick {
                &[4, 8]
            } else {
                &[8, 16, 24, 32]
            };
            let sweep = appendix::core_count_sweep(runner, p, counts, &all)?;
            for t in appendix::core_count_tables(&sweep) {
                println!("{t}");
            }
        }
        "prefetch" => {
            let mut t = appendix::prefetcher_comparison(runner, p, &all)?.fig08a_throughput();
            t.title =
                "Appendix Figure 2 (with instruction prefetcher): change in instruction throughput (%)"
                    .to_string();
            println!("{t}");
        }
        "ablations" => {
            println!("{}", ablations::software_rendition_table(runner, p)?);
            let epochs: &[u64] = if opts.quick {
                &[30_000, 120_000]
            } else {
                &[15_000, 30_000, 60_000, 120_000, 240_000]
            };
            println!("{}", ablations::epoch_length_table(runner, p, epochs)?);
            let thresholds = [0.0, 0.9, 0.98, 1.01];
            println!(
                "{}",
                ablations::realloc_threshold_table(runner, p, &thresholds)?
            );
            println!("{}", ablations::steal_amount_table(runner, p)?);
            let costs = [0, 100, 400, 1_600];
            println!("{}", ablations::migration_cost_table(runner, p, &costs)?);
            println!("{}", ablations::replacement_policy_table(runner, p)?);
            let scales: &[f64] = if opts.quick {
                &[2.0, 12.0]
            } else {
                &[2.0, 8.0, 12.0, 16.0]
            };
            println!("{}", table4_workload::beyond_8x_table(runner, p, scales)?);
            println!("{}", ablations::branch_model_table(runner, p)?);
            println!("{}", ablations::nuca_table(runner, p)?);
        }
        "tracecache" => {
            let mut t = appendix::trace_cache_comparison(runner, p, &all)?.fig08a_throughput();
            t.title = "Appendix Figure 3 (with trace cache): change in instruction throughput (%)"
                .to_string();
            println!("{t}");
        }
        other => {
            die(&format!("unknown experiment {other:?}"));
        }
    }
    Ok(())
}

fn main() {
    // The submit subcommand takes its own argument set, so it is
    // dispatched before the experiment-flag parser (which rejects
    // unknown arguments) ever sees it.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("submit") {
        run_submit(raw.split_off(1));
    }
    let opts = parse_args();
    if (opts.obs.is_some() || opts.profile)
        && opts.experiment != "sweep"
        && opts.experiment != "all"
    {
        eprintln!("[repro] note: --obs/--profile only apply to the sweep experiment; ignored");
    }
    let p = params(&opts);
    let started = Instant::now();
    // One runner for the whole invocation: experiments that need the
    // same cell (fig7, fig8, fig10, Table 4's 2X block, ...) share it.
    let mut runner = Runner::new(opts.jobs);
    let names: Vec<&str> = if opts.experiment == "all" {
        EXPERIMENTS.to_vec()
    } else {
        vec![opts.experiment.as_str()]
    };

    // Isolate each experiment: a typed error or panic is recorded and the
    // remaining experiments still run.
    let mut failures: Vec<Failure> = Vec::new();
    for name in names {
        if opts.experiment == "all" {
            eprintln!("[repro] running {name} ({:.0?} elapsed)", started.elapsed());
        }
        if name == "sweep" {
            failures.extend(run_sweep_experiment(&opts, &p, &mut runner));
            continue;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_experiment(name, &opts, &p, &mut runner)
        }));
        let detail = match outcome {
            Ok(Ok(())) => continue,
            Ok(Err(e)) => e.to_string(),
            Err(payload) => format!(
                "panic: {}",
                schedtask_experiments::runner::panic_message(payload)
            ),
        };
        failures.push(Failure {
            experiment: name.to_string(),
            detail,
        });
    }

    if !failures.is_empty() {
        eprintln!("\n[repro] failure summary ({} failed):", failures.len());
        for f in &failures {
            eprintln!("  {}: {}", f.experiment, f.detail);
        }
    }
    eprintln!(
        "[repro] done in {:.1?} ({} failure{})",
        started.elapsed(),
        failures.len(),
        if failures.len() == 1 { "" } else { "s" }
    );
    // Partial results are still useful, but CI must not green-light a
    // run with failed cells; --keep-going opts back into exit 0.
    if !failures.is_empty() && !opts.keep_going {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// The serving client.

fn print_submit_help() {
    println!(
        "repro submit — submit simulation jobs to a running schedtaskd\n\n\
         usage: repro submit --addr ENDPOINT\n\
                [--workload LIST] [--technique LIST]\n\
                [--scale F] [--standard] [--cores N] [--max-instructions N]\n\
                [--warmup N] [--seed S] [--faults SPEC] [--sanitize]\n\
                [--ping] [--stats] [--shutdown] [--expect-cached]\n\
                [--wait-ms N]\n\n\
         ENDPOINT is tcp://HOST:PORT.\n\n\
         One run request is sent per technique x workload pair (comma\n\
         lists; default SchedTask x Find). --stats or --shutdown without\n\
         --workload or --technique sends no run request. Requests default\n\
         to quick-size parameters; --standard submits full-size runs.\n\n\
           --ping            wait until the server answers, then exit 0\n\
           --expect-cached   exit 1 if any ok response missed the cache\n\
           --stats           print the server's counters after submitting\n\
           --shutdown        ask the server to drain and exit afterwards\n\
           --wait-ms N       connection-retry budget (default 10000)\n\
           --retries N       per-request retry budget with exponential\n\
                             backoff (default 0: fail fast)\n\
           --out FILE        append each ok result payload to FILE for\n\
                             byte-identity comparison across restarts"
    );
}

/// `repro submit`: the native line client for a running `schedtaskd`.
fn run_submit(args: Vec<String>) -> ! {
    let mut addr: Option<Endpoint> = None;
    let mut workloads: Option<Vec<String>> = None;
    let mut techniques: Option<Vec<String>> = None;
    // The job fields the flags set, as a run request carries them; the
    // wire's own field parser reads them, the last of a repeated flag
    // winning.
    let mut fields: Vec<(String, Json)> = Vec::new();
    let mut set = |name: &str, value: Json| {
        fields.retain(|(field, _)| field != name);
        fields.push((name.to_owned(), value));
    };
    let mut expect_cached = false;
    let mut ping_only = false;
    let mut want_stats = false;
    let mut want_shutdown = false;
    let mut wait_ms: u64 = 10_000;
    let mut retries: u32 = 0;
    let mut out_file: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--addr" => {
                addr = Some(
                    value("--addr")
                        .parse()
                        .unwrap_or_else(|e| die(&format!("bad --addr: {e}"))),
                )
            }
            "--workload" => {
                workloads = Some(value("--workload").split(',').map(str::to_owned).collect())
            }
            "--technique" => {
                techniques = Some(value("--technique").split(',').map(str::to_owned).collect())
            }
            "--faults" => set("faults", Json::Str(value("--faults"))),
            "--scale" => set("scale", Json::Num(value("--scale"))),
            "--cores" => set("cores", Json::Num(value("--cores"))),
            "--max-instructions" => set("max_instructions", Json::Num(value("--max-instructions"))),
            "--warmup" => set("warmup_instructions", Json::Num(value("--warmup"))),
            "--seed" => set("seed", Json::Num(value("--seed"))),
            "--standard" => set("quick", Json::Bool(false)),
            "--sanitize" => set("sanitize", Json::Bool(true)),
            "--expect-cached" => expect_cached = true,
            "--ping" => ping_only = true,
            "--stats" => want_stats = true,
            "--shutdown" => want_shutdown = true,
            "--wait-ms" => {
                wait_ms = value("--wait-ms")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --wait-ms: {e}")))
            }
            "--retries" => {
                retries = value("--retries")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --retries: {e}")))
            }
            "--out" => out_file = Some(value("--out")),
            "--help" | "-h" => {
                print_submit_help();
                std::process::exit(0);
            }
            other => die(&format!("submit: unknown argument {other:?} (try --help)")),
        }
    }
    let endpoint = addr.unwrap_or_else(|| die("submit needs --addr ENDPOINT"));
    // `--stats` or `--shutdown` on its own sends only those ops; any other
    // invocation runs the default SchedTask/Find job where a list is unset.
    let (workloads, techniques) = match (workloads, techniques) {
        (None, None) if want_stats || want_shutdown => (Vec::new(), Vec::new()),
        (w, t) => (
            w.unwrap_or_else(|| vec!["Find".to_owned()]),
            t.unwrap_or_else(|| vec!["SchedTask".to_owned()]),
        ),
    };
    // Every job is checked before any is sent: a combination the server
    // would refuse is refused here.
    let mut jobs: Vec<(String, JobSpec)> = Vec::new();
    for tech in &techniques {
        for wl in &workloads {
            let mut job = fields.clone();
            job.push(("workload".to_owned(), Json::Str(wl.clone())));
            job.push(("technique".to_owned(), Json::Str(tech.clone())));
            let name = format!("{tech}/{wl}");
            let spec = JobSpec::from_fields(&Json::Obj(job))
                .unwrap_or_else(|e| die(&format!("{name}: {e}")));
            jobs.push((name, spec));
        }
    }
    let timeouts = ClientTimeouts::default();

    // Connect with retry so a freshly-spawned server has time to bind;
    // --ping makes this the whole job (a readiness probe).
    let deadline = Instant::now() + std::time::Duration::from_millis(wait_ms);
    let mut client = loop {
        match ServeClient::dial(&endpoint, &timeouts) {
            Ok(mut c) => match c.ping() {
                Ok(true) => break c,
                _ if Instant::now() < deadline => {}
                _ => die("server did not answer ping"),
            },
            Err(e) => {
                if Instant::now() >= deadline {
                    die(&format!("cannot connect: {e}"));
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    };
    if ping_only {
        println!("[submit] server is ready");
        std::process::exit(0);
    }

    let policy = RetryPolicy {
        // The first try plus `retries` retries.
        max_attempts: retries.saturating_add(1),
        ..RetryPolicy::default()
    };
    let mut out_lines: Vec<String> = Vec::new();
    let mut ok = 0u32;
    let mut cache_hits = 0u32;
    let mut coalesced_n = 0u32;
    let mut rejected = 0u32;
    let mut errors = 0u32;
    let mut uncached_ok = false;
    for (name, spec) in &jobs {
        let line = spec.to_request_line(Some(name), false);
        let response = if retries > 0 {
            match submit_with_retry(&endpoint, &timeouts, &policy, &line) {
                Ok(outcome) => {
                    if outcome.attempts > 1 {
                        println!(
                            "[submit] {name}: succeeded on attempt {} \
                             after {} ms of backoff",
                            outcome.attempts, outcome.total_backoff_ms
                        );
                    }
                    outcome.response
                }
                Err(e) => die(&format!("request failed: {e}")),
            }
        } else {
            client
                .request_line(&line)
                .unwrap_or_else(|e| die(&format!("request failed: {e}")))
        };
        match Response::parse(&response) {
            Ok(Response::Ok {
                cached,
                coalesced,
                key,
                latency_us,
                result,
                ..
            }) => {
                ok += 1;
                if cached {
                    cache_hits += 1;
                } else {
                    uncached_ok = true;
                }
                if coalesced {
                    coalesced_n += 1;
                }
                println!(
                    "[submit] {name}: ok cached={cached} coalesced={coalesced} \
                     key={key} latency_us={latency_us}"
                );
                if out_file.is_some() {
                    out_lines.push(format!("{name} {result}"));
                }
            }
            Ok(Response::Rejected { retry_after_ms, .. }) => {
                rejected += 1;
                println!(
                    "[submit] {name}: rejected (queue full) \
                     retry_after_ms={retry_after_ms}"
                );
            }
            Ok(Response::Error { error, .. }) => {
                errors += 1;
                println!("[submit] {name}: error: {error}");
            }
            Ok(_) | Err(_) => {
                errors += 1;
                println!("[submit] {name}: error: {response}");
            }
        }
    }
    if let Some(path) = &out_file {
        let mut text = out_lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!(
            "[submit] wrote {} result payloads to {path}",
            out_lines.len()
        );
    }
    if want_stats {
        let response = client
            .request_line("{\"v\":1,\"op\":\"stats\"}")
            .unwrap_or_else(|e| die(&format!("stats request failed: {e}")));
        println!("[submit] stats: {response}");
    }
    if want_shutdown {
        let response = client
            .request_line("{\"v\":1,\"op\":\"shutdown\"}")
            .unwrap_or_else(|e| die(&format!("shutdown request failed: {e}")));
        println!("[submit] shutdown: {response}");
    }
    println!(
        "[submit] {ok} ok ({cache_hits} cached, {coalesced_n} coalesced), \
         {rejected} rejected, {errors} errors"
    );
    if errors > 0 {
        std::process::exit(1);
    }
    if expect_cached && uncached_ok {
        eprintln!("[submit] --expect-cached: at least one ok response missed the cache");
        std::process::exit(1);
    }
    std::process::exit(0);
}
