//! `repro` — regenerate the SchedTask paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--quick] [--markdown] [--cores N] [--seed S] [--jobs N]
//!                    [--faults SPEC] [--sanitize] [--force-fail TECH:BENCH[:N]]
//!                    [--device KIND[:PERIOD]] [--obs FILE] [--profile]
//!                    [--keep-going]
//! repro submit  --addr ENDPOINT [client options...]
//! repro chaos   [--chaos SPEC] [--jobs N] [--cache-dir DIR] [--keep-dir]
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
//!   sweep       resilient technique × benchmark sweep (per-cell isolation)
//!   all         everything above, in order
//! ```
//!
//! Serving: the job server is the `schedtaskd` binary from
//! `crates/serve`; these subcommands drive it.
//!
//! * `repro submit` is the line client: it submits one run request per
//!   `technique × workload` pair to `--addr ENDPOINT`
//!   (`tcp://HOST:PORT` or `unix:///PATH`) and prints each response.
//!   `--ping` waits for server readiness; `--expect-cached` exits non-zero if
//!   any successful response was not served from the result cache;
//!   `--stats` prints the server's counters; `--shutdown` asks the
//!   server to drain and exit; `--retries N` retries each submission
//!   with deadline/backoff discipline; `--out FILE` records the result
//!   payload bytes for later byte-identity comparison.
//! * `repro chaos` is the crash-recovery harness: it boots `schedtaskd`
//!   with a persistent cache and a deterministic chaos plan, drives a
//!   retrying client through it, SIGKILLs the daemon mid-flight,
//!   restarts it on the same cache directory, and asserts that every
//!   pre-crash result is replayed byte-identically.
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
//! * `--jobs N` runs sweep cells on up to `N` worker threads. Per-cell
//!   `SimStats` are bit-identical to the serial run (each cell's seed is
//!   a pure function of the parameters); only wall-clock time changes.
//!
//! Device options:
//!
//! * `--device KIND[:PERIOD]` attaches an interrupt-injecting device
//!   model (`disk`, `network`, or `timer`; mean inter-arrival period in
//!   cycles, default 25000) to every run. Repeatable.
//!
//! Observability options (sweep experiment):
//!
//! * `--obs FILE` attaches a JSONL sink to every sweep cell and writes
//!   the concatenated event logs (one JSON object per line, each tagged
//!   with its `technique/benchmark` cell) to `FILE`.
//! * `--profile` attaches an in-memory aggregator to every sweep cell
//!   and prints per-technique counter and span summary tables.
//!
//! Failures never abort a sweep or `all`: each failed experiment is
//! recorded with a structured diagnosis, partial results still print,
//! and a failure summary follows. The process then exits non-zero so CI
//! cannot green-light a partial run; pass `--keep-going` to keep the
//! historical exit-0 behaviour for exploratory sessions.

use schedtask::StealPolicy;
use schedtask_experiments::runner::{parse_device_spec, run_sweep_observed};
use schedtask_experiments::serve_api::{
    result_payload, submit_with_retry, ClientTimeouts, Endpoint, JobSpec, RetryPolicy, ServeClient,
};
use schedtask_experiments::{
    ablations, appendix, fig04_breakup, fig09_stealing, fig11_heatmap, overheads, table4_workload,
};
use schedtask_experiments::{Comparison, ExpParams, ExperimentError, Table, Technique};
use schedtask_kernel::obs::{render_counter_table, render_span_table};
use schedtask_kernel::FaultPlan;
use schedtask_workload::BenchmarkKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

struct Opts {
    experiment: String,
    quick: bool,
    markdown: bool,
    cores: Option<usize>,
    seed: Option<u64>,
    faults: Option<String>,
    sanitize: bool,
    force_fail: Option<(Technique, BenchmarkKind, u64)>,
    jobs: usize,
    devices: Vec<String>,
    obs: Option<String>,
    profile: bool,
    keep_going: bool,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        experiment: String::new(),
        quick: false,
        markdown: false,
        cores: None,
        seed: None,
        faults: None,
        sanitize: false,
        force_fail: None,
        jobs: 1,
        devices: Vec::new(),
        obs: None,
        profile: false,
        keep_going: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--markdown" => opts.markdown = true,
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
            "--device" => {
                opts.devices.push(
                    args.next()
                        .unwrap_or_else(|| die("--device needs KIND[:PERIOD]")),
                );
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
    let bench = BenchmarkKind::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(bench_name))
        .unwrap_or_else(|| die("--force-fail: unknown benchmark"));
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
         usage: repro <experiment> [--quick] [--markdown] [--cores N] [--seed S]\n\
                [--jobs N] [--faults none|light|heavy[@SEED]] [--sanitize]\n\
                [--force-fail TECH:BENCH[:N]] [--device KIND[:PERIOD]]\n\
                [--obs FILE] [--profile] [--keep-going]\n\
                repro submit [client options...]       submit jobs to a server\n\n\
         sweep exit code: non-zero when any cell fails; --keep-going\n\
         restores the historical always-0 behaviour\n\n\
         devices:\n\
           --device KIND[:PERIOD] attach a disk/network/timer interrupt\n\
                                 source (period in cycles, default 25000)\n\n\
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
        p = p.with_cores(c);
        p.max_instructions = 500_000 * c as u64;
        p.warmup_instructions = 125_000 * c as u64;
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
    for spec in &opts.devices {
        match parse_device_spec(spec) {
            Ok(device) => p = p.with_device(device),
            Err(e) => die(&format!("--device: {e}")),
        }
    }
    p
}

fn emit(t: &Table, markdown: bool) {
    if markdown {
        println!("{}", t.to_markdown());
    } else {
        println!("{t}");
    }
}

/// One experiment's failure, for the end-of-run summary.
struct Failure {
    experiment: String,
    detail: String,
}

fn run_sweep_experiment(opts: &Opts, p: &ExpParams, md: bool) -> Vec<Failure> {
    let techniques: Vec<Technique> = Technique::all().to_vec();
    let benchmarks = if opts.quick {
        vec![BenchmarkKind::Find, BenchmarkKind::MailSrvIo]
    } else {
        BenchmarkKind::all().to_vec()
    };
    let collect_obs = opts.obs.is_some() || opts.profile;
    let report = run_sweep_observed(
        p,
        &techniques,
        &benchmarks,
        2.0,
        opts.force_fail,
        opts.jobs,
        collect_obs,
    );

    let mut t = Table::new("Sweep: instruction throughput (G instr / G cycles) per cell")
        .with_note("Failed cells print their diagnosis below instead of a value.");
    let mut headers = vec!["technique".to_string()];
    headers.extend(benchmarks.iter().map(|b| b.name().to_string()));
    t = t.with_headers(headers);
    for &tech in &techniques {
        let mut row = vec![tech.name().to_string()];
        for &bench in &benchmarks {
            let cell = report
                .cells
                .iter()
                .find(|c| c.technique == tech && c.benchmark == bench);
            row.push(match cell.map(|c| &c.result) {
                Some(Ok(s)) => format!("{:.3}", s.instruction_throughput()),
                Some(Err(_)) => "FAILED".to_string(),
                None => "-".to_string(),
            });
        }
        t.push_row(row);
    }
    emit(&t, md);

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

fn main() {
    // The submit and chaos subcommands take their own argument sets, so
    // they are dispatched before the experiment-flag parser (which
    // rejects unknown arguments) ever sees them.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("submit") => run_submit(raw.split_off(1)),
        Some("chaos") => run_chaos(raw.split_off(1)),
        _ => {}
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
    let md = opts.markdown;

    let run_experiment = |name: &str| -> Result<(), ExperimentError> {
        match name {
            "fig4" => {
                let results = fig04_breakup::run(&p)?;
                emit(&fig04_breakup::breakup_table(&results), md);
                emit(&fig04_breakup::epoch_similarity_table(&results), md);
            }
            "fig7" => {
                let c = Comparison::run(&p, 2.0)?;
                emit(&c.fig07_performance(), md);
            }
            "fig8" => {
                let c = Comparison::run(&p, 2.0)?;
                for t in c.fig08_all() {
                    emit(&t, md);
                }
                emit(&c.baseline_absolute_table(), md);
            }
            "fig9" => {
                let runs = fig09_stealing::run(&p, &StealPolicy::all())?;
                emit(&fig09_stealing::throughput_table(&runs), md);
                emit(&fig09_stealing::idleness_table(&runs), md);
                emit(&fig09_stealing::icache_table(&runs), md);
            }
            "fig10" => {
                let c = Comparison::run(&p, 2.0)?;
                emit(&c.fig10_migrations(), md);
            }
            "fig11" => {
                let benches = if opts.quick {
                    vec![BenchmarkKind::Find, BenchmarkKind::MailSrvIo]
                } else {
                    BenchmarkKind::all().to_vec()
                };
                let sweep = fig11_heatmap::run(&p, &benches)?;
                emit(&fig11_heatmap::tau_table(&sweep), md);
                emit(&fig11_heatmap::perf_table(&sweep), md);
                // The width gradient needs large application footprints in
                // the ranking: rerun tau over multi-programmed bags.
                let bags: Vec<(String, schedtask_kernel::WorkloadSpec)> =
                    schedtask_workload::MultiProgrammedWorkload::all()
                        .iter()
                        .take(if opts.quick { 2 } else { 6 })
                        .map(|b| (b.name.to_string(), schedtask_kernel::WorkloadSpec::from(b)))
                        .collect();
                let mpw = fig11_heatmap::run_tau_on_workloads(&p, &bags)?;
                emit(&fig11_heatmap::mpw_tau_table(&mpw), md);
            }
            "overheads" => {
                let r = overheads::run(&p)?;
                emit(&overheads::report_table(&r), md);
            }
            "table4" => {
                let scales: &[f64] = if opts.quick {
                    &[1.0, 4.0]
                } else {
                    &table4_workload::SCALES
                };
                for block in table4_workload::run(&p, scales)? {
                    emit(&table4_workload::block_table(&block), md);
                }
            }
            "mpw" => {
                emit(&appendix::multiprog_table(&p)?, md);
            }
            "icache" => {
                for t in appendix::icache_size_tables(&appendix::icache_size_sweep(&p)?) {
                    emit(&t, md);
                }
            }
            "cacheconfig" => {
                for t in appendix::cache_config_tables(&appendix::cache_config_sweep(&p)?) {
                    emit(&t, md);
                }
            }
            "cores" => {
                let counts: &[usize] = if opts.quick {
                    &[4, 8]
                } else {
                    &[8, 16, 24, 32]
                };
                for t in appendix::core_count_tables(&appendix::core_count_sweep(&p, counts)?) {
                    emit(&t, md);
                }
            }
            "prefetch" => {
                let mut t = appendix::prefetcher_comparison(&p)?.fig08a_throughput();
                t.title =
                    "Appendix Figure 2 (with instruction prefetcher): change in instruction throughput (%)"
                        .to_string();
                emit(&t, md);
            }
            "ablations" => {
                emit(&ablations::software_rendition_table(&p)?, md);
                let epochs: &[u64] = if opts.quick {
                    &[30_000, 120_000]
                } else {
                    &[15_000, 30_000, 60_000, 120_000, 240_000]
                };
                emit(&ablations::epoch_length_table(&p, epochs)?, md);
                emit(
                    &ablations::realloc_threshold_table(&p, &[0.0, 0.9, 0.98, 1.01])?,
                    md,
                );
                emit(&ablations::steal_amount_table(&p)?, md);
                emit(
                    &ablations::migration_cost_table(&p, &[0, 100, 400, 1_600])?,
                    md,
                );
                emit(&ablations::replacement_policy_table(&p)?, md);
                emit(&ablations::data_prefetcher_table(&p)?, md);
                let scales: &[f64] = if opts.quick {
                    &[2.0, 12.0]
                } else {
                    &[2.0, 8.0, 12.0, 16.0]
                };
                emit(&table4_workload::beyond_8x_table(&p, scales)?, md);
                emit(&ablations::branch_model_table(&p)?, md);
                emit(&ablations::nuca_table(&p)?, md);
            }
            "tracecache" => {
                let mut t = appendix::trace_cache_comparison(&p)?.fig08a_throughput();
                t.title =
                    "Appendix Figure 3 (with trace cache): change in instruction throughput (%)"
                        .to_string();
                emit(&t, md);
            }
            other => {
                die(&format!("unknown experiment {other:?}"));
            }
        }
        Ok(())
    };

    // Isolate each experiment: a typed error or panic is recorded and the
    // remaining experiments still run.
    let mut failures: Vec<Failure> = Vec::new();
    let mut run_isolated = |name: &str| {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_experiment(name)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push(Failure {
                experiment: name.to_string(),
                detail: e.to_string(),
            }),
            Err(payload) => failures.push(Failure {
                experiment: name.to_string(),
                detail: format!(
                    "panic: {}",
                    schedtask_experiments::runner::panic_message(payload)
                ),
            }),
        }
    };

    if opts.experiment == "all" {
        for name in [
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
        ] {
            eprintln!("[repro] running {name} ({:.0?} elapsed)", started.elapsed());
            run_isolated(name);
        }
        failures.extend(run_sweep_experiment(&opts, &p, md));
    } else if opts.experiment == "sweep" {
        failures.extend(run_sweep_experiment(&opts, &p, md));
    } else {
        run_isolated(&opts.experiment);
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
// Serving subcommands.

fn print_chaos_help() {
    println!(
        "repro chaos — crash-recovery harness for schedtaskd\n\n\
         usage: repro chaos [--chaos SPEC] [--jobs N] [--seed S]\n\
                [--addr tcp://HOST:PORT] [--cache-dir DIR] [--keep-dir]\n\
                [--retries N]\n\n\
         Boots schedtaskd with a persistent cache (--cache-dir) and a\n\
         deterministic chaos plan, submits N distinct jobs through a\n\
         retrying client, SIGKILLs the daemon mid-flight, restarts it\n\
         on the same cache directory, resubmits every job, and asserts:\n\
           1. every resubmission succeeds (retry discipline converges),\n\
           2. every result is byte-identical to its pre-crash bytes,\n\
           3. recovery replayed records and served disk-tier hits.\n\n\
           --chaos SPEC    chaos plan (default light@7); none disables\n\
           --addr ENDPOINT daemon listen endpoint (tcp:// only;\n\
                           default tcp://127.0.0.1:0)\n\
           --jobs N        distinct jobs to submit (default 6)\n\
           --seed S        base engine seed for the jobs (default 1)\n\
           --cache-dir DIR persistent cache dir (default: fresh tmp dir)\n\
           --keep-dir      keep the cache dir for inspection\n\
           --retries N     per-request retry budget (default 10)"
    );
}

/// The `schedtaskd` binary that cargo builds next to the running
/// executable; `repro chaos` launches this one.
fn daemon_path() -> Result<std::path::PathBuf, String> {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .map(|dir| dir.join(format!("schedtaskd{}", std::env::consts::EXE_SUFFIX)))
        })
        .filter(|p| p.exists())
        .ok_or_else(|| {
            "schedtaskd binary not found next to repro; \
             build it with `cargo build -p schedtask-serve`"
                .to_owned()
        })
}

/// Spawns the sibling `schedtaskd` with a persistent cache, returning
/// the child, the bound address, and the recovery line it printed.
fn spawn_chaos_daemon(
    daemon: &std::path::Path,
    listen: &str,
    cache_dir: &std::path::Path,
    chaos: &str,
) -> (std::process::Child, String, String) {
    let mut cmd = std::process::Command::new(daemon);
    cmd.arg("--addr")
        .arg(format!("tcp://{listen}"))
        .arg("--cache-dir")
        .arg(cache_dir)
        .arg("--drain-deadline-ms")
        .arg("2000")
        .stdout(std::process::Stdio::piped());
    if chaos != "none" {
        cmd.arg("--chaos").arg(chaos);
    }
    let mut child = cmd
        .spawn()
        .unwrap_or_else(|e| die(&format!("cannot launch {}: {e}", daemon.display())));
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut read_line = |what: &str| -> String {
        use std::io::BufRead;
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => line.trim_end().to_owned(),
            _ => die(&format!("daemon exited before printing its {what} line")),
        }
    };
    let listening = read_line("listening");
    let addr = listening
        .strip_prefix("schedtaskd listening on ")
        .unwrap_or_else(|| die(&format!("unexpected daemon banner: {listening}")))
        .to_owned();
    let recovery = read_line("recovery");
    // Keep the pipe open so the daemon's shutdown prints don't SIGPIPE;
    // the reader thread drains anything else it says.
    std::thread::spawn(move || {
        use std::io::BufRead;
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (child, addr, recovery)
}

/// `repro chaos`: boot → chaos-submit → SIGKILL → restart → verify.
fn run_chaos(args: Vec<String>) -> ! {
    use schedtask_experiments::Response;
    use schedtask_obs::{Aggregator, Counter};

    let mut chaos = "light@7".to_owned();
    let mut jobs: u32 = 6;
    let mut seed: u64 = 1;
    let mut cache_dir: Option<String> = None;
    let mut keep_dir = false;
    let mut retries: u32 = 10;
    let mut listen = "127.0.0.1:0".to_owned();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--chaos" => chaos = value("--chaos"),
            "--addr" => {
                // The harness restarts the daemon and must re-dial it,
                // so only TCP endpoints make sense here.
                match value("--addr").parse::<Endpoint>() {
                    Ok(Endpoint::Tcp(addr)) => listen = addr,
                    Ok(_) => die("chaos --addr must be a tcp:// endpoint"),
                    Err(e) => die(&format!("bad --addr: {e}")),
                }
            }
            "--jobs" => {
                jobs = value("--jobs")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --jobs: {e}")))
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --seed: {e}")))
            }
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            "--keep-dir" => keep_dir = true,
            "--retries" => {
                retries = value("--retries")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --retries: {e}")))
            }
            "--help" | "-h" => {
                print_chaos_help();
                std::process::exit(0);
            }
            other => die(&format!("chaos: unknown argument {other:?} (try --help)")),
        }
    }
    if jobs == 0 {
        die("--jobs must be positive");
    }

    let daemon = daemon_path().unwrap_or_else(|e| die(&e));
    let dir = std::path::PathBuf::from(cache_dir.unwrap_or_else(|| {
        format!(
            "{}/schedtask-chaos-{}",
            std::env::temp_dir().display(),
            std::process::id()
        )
    }));

    let agg = Aggregator::new();
    let timeouts = ClientTimeouts::default();
    let policy = RetryPolicy {
        max_attempts: retries.max(1),
        ..RetryPolicy::default()
    };
    let request_line = |i: u32| -> String {
        let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
        spec.params.cores = 2;
        spec.params.max_instructions = 60_000;
        spec.params.warmup_instructions = 20_000;
        spec.params.seed = seed + u64::from(i);
        spec.to_request_line(Some(&format!("chaos-{i}")), false)
    };

    // Phase 1: fresh daemon, chaos plan armed, submit every job.
    println!("[chaos] phase 1: boot daemon (chaos={chaos}) and submit {jobs} jobs");
    let (mut child, addr, recovery) = spawn_chaos_daemon(&daemon, &listen, &dir, &chaos);
    println!("[chaos] daemon on {addr}; {recovery}");
    let endpoint = Endpoint::Tcp(addr);
    let mut before: Vec<String> = Vec::new();
    for i in 0..jobs {
        let outcome =
            submit_with_retry(&endpoint, &timeouts, &policy, &request_line(i), Some(&agg))
                .unwrap_or_else(|e| die(&format!("job {i} failed pre-crash: {e}")));
        let payload = result_payload(&outcome.response)
            .unwrap_or_else(|| die(&format!("job {i}: ok response without result payload")));
        println!(
            "[chaos] job {i}: ok on attempt {} ({} ms backoff)",
            outcome.attempts, outcome.total_backoff_ms
        );
        before.push(payload);
    }

    // SIGKILL with a victim job in flight: no drain, no final fsync
    // beyond what each append already did — exactly the crash the
    // segment log must absorb.
    let victim_line = request_line(jobs);
    let victim_endpoint = endpoint.clone();
    let victim_timeouts = timeouts;
    let victim = std::thread::spawn(move || {
        let one_shot = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let _ = submit_with_retry(
            &victim_endpoint,
            &victim_timeouts,
            &one_shot,
            &victim_line,
            None,
        );
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    println!("[chaos] SIGKILL daemon mid-flight");
    let _ = child.kill();
    let _ = child.wait();
    let _ = victim.join();

    // Phase 2: restart on the same cache dir; resubmit everything.
    println!("[chaos] phase 2: restart daemon on the same cache dir and resubmit");
    let (mut child, addr, recovery) = spawn_chaos_daemon(&daemon, &listen, &dir, &chaos);
    println!("[chaos] daemon on {addr}; {recovery}");
    let endpoint = Endpoint::Tcp(addr);
    let mut cached_hits = 0u32;
    let mut mismatches = 0u32;
    for (i, expected) in before.iter().enumerate() {
        let outcome = submit_with_retry(
            &endpoint,
            &timeouts,
            &policy,
            &request_line(i as u32),
            Some(&agg),
        )
        .unwrap_or_else(|e| die(&format!("job {i} failed post-restart: {e}")));
        let Ok(Response::Ok {
            cached,
            result: payload,
            ..
        }) = Response::parse(&outcome.response)
        else {
            die(&format!("job {i}: ok response without result payload"));
        };
        if cached {
            cached_hits += 1;
        }
        if payload == *expected {
            println!("[chaos] job {i}: byte-identical (cached={cached})");
        } else {
            mismatches += 1;
            eprintln!("[chaos] job {i}: RESULT BYTES CHANGED ACROSS CRASH (cached={cached})");
        }
    }
    // Shut the daemon down cleanly and reap it.
    if let Ok(mut c) = ServeClient::dial(&endpoint, &timeouts) {
        let _ = c.request_line("{\"op\":\"shutdown\"}");
    }
    let _ = child.wait();

    let retry_attempts = agg.counters().get(Counter::ServeRetryAttempts);
    let retry_backoff = agg.counters().get(Counter::ServeRetryBackoffMs);
    println!(
        "[chaos] client scheduled {retry_attempts} retries ({retry_backoff} ms total backoff)"
    );
    if !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        println!("[chaos] cache dir kept at {}", dir.display());
    }
    if mismatches > 0 {
        eprintln!("[chaos] FAIL: {mismatches} result(s) changed across the crash");
        std::process::exit(1);
    }
    if cached_hits == 0 {
        eprintln!("[chaos] FAIL: recovery served no disk-tier hits — persistence is broken");
        std::process::exit(1);
    }
    println!(
        "[chaos] PASS: {jobs} jobs byte-identical across SIGKILL, {cached_hits} served from \
         the recovered disk tier"
    );
    std::process::exit(0);
}

fn print_submit_help() {
    println!(
        "repro submit — submit simulation jobs to a running schedtaskd\n\n\
         usage: repro submit --addr ENDPOINT\n\
                [--workload LIST] [--technique LIST] [--steal NAME]\n\
                [--scale F] [--standard] [--cores N] [--max-instructions N]\n\
                [--warmup N] [--seed S] [--faults SPEC] [--sanitize]\n\
                [--device KIND[:PERIOD]]\n\
                [--ping] [--stats] [--shutdown] [--expect-cached]\n\
                [--wait-ms N]\n\n\
         ENDPOINT is tcp://HOST:PORT or unix:///PATH.\n\n\
         One run request is sent per technique x workload pair (comma\n\
         lists). Requests default to quick-size parameters; --standard\n\
         submits full-size runs.\n\n\
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
    use schedtask_experiments::serve_api::Json;

    let mut addr: Option<Endpoint> = None;
    let mut workloads = vec!["Find".to_owned()];
    let mut techniques = vec!["SchedTask".to_owned()];
    let mut steal: Option<String> = None;
    let mut scale: Option<f64> = None;
    let mut quick = true;
    let mut cores: Option<usize> = None;
    let mut max_instructions: Option<u64> = None;
    let mut warmup_instructions: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut faults: Option<String> = None;
    let mut sanitize = false;
    let mut devices: Vec<String> = Vec::new();
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
            "--workload" => workloads = value("--workload").split(',').map(str::to_owned).collect(),
            "--technique" => {
                techniques = value("--technique").split(',').map(str::to_owned).collect()
            }
            "--steal" => steal = Some(value("--steal")),
            "--scale" => {
                scale = Some(
                    value("--scale")
                        .parse()
                        .unwrap_or_else(|e| die(&format!("bad --scale: {e}"))),
                )
            }
            "--standard" => quick = false,
            "--cores" => {
                cores = Some(
                    value("--cores")
                        .parse()
                        .unwrap_or_else(|e| die(&format!("bad --cores: {e}"))),
                )
            }
            "--max-instructions" => {
                max_instructions = Some(
                    value("--max-instructions")
                        .parse()
                        .unwrap_or_else(|e| die(&format!("bad --max-instructions: {e}"))),
                )
            }
            "--warmup" => {
                warmup_instructions = Some(
                    value("--warmup")
                        .parse()
                        .unwrap_or_else(|e| die(&format!("bad --warmup: {e}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value("--seed")
                        .parse()
                        .unwrap_or_else(|e| die(&format!("bad --seed: {e}"))),
                )
            }
            "--faults" => faults = Some(value("--faults")),
            "--sanitize" => sanitize = true,
            "--device" => devices.push(value("--device")),
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
        max_attempts: retries.max(1),
        ..RetryPolicy::default()
    };
    let mut out_lines: Vec<String> = Vec::new();
    let mut ok = 0u32;
    let mut cache_hits = 0u32;
    let mut coalesced_n = 0u32;
    let mut rejected = 0u32;
    let mut errors = 0u32;
    let mut uncached_ok = false;
    for tech in &techniques {
        for wl in &workloads {
            let technique =
                Technique::parse(tech).unwrap_or_else(|| die(&format!("unknown technique {tech}")));
            let benchmark = BenchmarkKind::all()
                .into_iter()
                .find(|b| format!("{b:?}").eq_ignore_ascii_case(wl))
                .unwrap_or_else(|| die(&format!("unknown workload {wl}")));
            let mut spec = JobSpec::new(technique, benchmark);
            if let Some(name) = &steal {
                spec.steal = Some(
                    StealPolicy::parse(name).unwrap_or_else(|e| die(&format!("bad --steal: {e}"))),
                );
            }
            if let Some(s) = scale {
                spec.scale = s;
            }
            if !quick {
                spec.params = ExpParams::standard();
            }
            if let Some(n) = cores {
                spec.params.cores = n;
            }
            if let Some(n) = max_instructions {
                spec.params.max_instructions = n;
            }
            if let Some(n) = warmup_instructions {
                spec.params.warmup_instructions = n;
            }
            if let Some(s) = seed {
                spec.params.seed = s;
            }
            if let Some(fspec) = &faults {
                spec.params.faults = Some(
                    FaultPlan::parse(fspec, spec.params.seed)
                        .unwrap_or_else(|e| die(&format!("bad --faults: {e}"))),
                );
            }
            spec.params.sanitize = sanitize;
            for dev in &devices {
                spec.params.devices.push(
                    parse_device_spec(dev).unwrap_or_else(|e| die(&format!("bad --device: {e}"))),
                );
            }
            let line = spec.to_request_line(Some(&format!("{tech}/{wl}")), false);
            let response = if retries > 0 {
                match submit_with_retry(&endpoint, &timeouts, &policy, &line, None) {
                    Ok(outcome) => {
                        if outcome.attempts > 1 {
                            println!(
                                "[submit] {tech}/{wl}: succeeded on attempt {} \
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
            let json = Json::parse(&response)
                .unwrap_or_else(|e| die(&format!("unparseable response: {e}")));
            match json.get("status").and_then(Json::as_str).unwrap_or("?") {
                "ok" => {
                    ok += 1;
                    let cached = json.get("cached").and_then(Json::as_bool).unwrap_or(false);
                    let coalesced = json
                        .get("coalesced")
                        .and_then(Json::as_bool)
                        .unwrap_or(false);
                    if cached {
                        cache_hits += 1;
                    } else {
                        uncached_ok = true;
                    }
                    if coalesced {
                        coalesced_n += 1;
                    }
                    let key = json.get("key").and_then(Json::as_str).unwrap_or("?");
                    let latency = json.get("latency_us").and_then(Json::as_u64).unwrap_or(0);
                    println!(
                        "[submit] {tech}/{wl}: ok cached={cached} coalesced={coalesced} \
                         key={key} latency_us={latency}"
                    );
                    if out_file.is_some() {
                        match result_payload(&response) {
                            Some(payload) => out_lines.push(format!("{tech}/{wl} {payload}")),
                            None => die("ok response without a result payload"),
                        }
                    }
                }
                "rejected" => {
                    rejected += 1;
                    let retry = json
                        .get("retry_after_ms")
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    println!("[submit] {tech}/{wl}: rejected (queue full) retry_after_ms={retry}");
                }
                _ => {
                    errors += 1;
                    let detail = json
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or(response.as_str());
                    println!("[submit] {tech}/{wl}: error: {detail}");
                }
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
