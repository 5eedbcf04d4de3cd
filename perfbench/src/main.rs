//! The repository benchmark: three workloads through the public entry
//! points of the simulator and the job service.
//!
//! ```text
//! perfbench --workload sim_fig7|fleet_hot|fleet_cold --seed N --seconds S
//!           --trace 0|1 --daemon PATH --tmp-dir DIR
//! ```
//!
//! Prints notes (lines starting with `#`), then one JSON object as the
//! last line: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` beside this crate.

mod calib;
mod fleet;
mod inproc;
mod keys;
mod layers;
mod report;
mod sched_trace;
mod sim;
mod stats;

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

/// The second seed with recorded `sim_fig7` digests, held out while the
/// benchmark was written.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
    tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20;
    let mut trace = false;
    let mut daemon = None;
    let mut tmp = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|e| format!("bad {flag} {v:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = num(&value)?.max(1),
            "--trace" => trace = num(&value)? != 0,
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--tmp-dir" => tmp = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let default_seed = if workload == "sim_fig7" {
        0x5EED_5EED
    } else {
        0x10AD
    };
    Ok(Args {
        seed: seed.unwrap_or(default_seed),
        workload,
        seconds,
        trace,
        daemon: daemon.unwrap_or_else(|| PathBuf::from("schedtaskd")),
        tmp: tmp.unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-tmp")),
    })
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    // Fleet cache directories live in a directory of this run's own,
    // removed at the end; traced fleet runs keep their spans in `traces/`.
    let work = args
        .tmp
        .join(format!("{}-{}", args.workload, std::process::id()));
    let traces = args.tmp.join("traces");
    let result = match (args.workload.as_str(), args.trace) {
        ("sim_fig7", false) => sim::run(args.seed, process_start),
        ("sim_fig7", true) => sim::run_traced(args.seed, process_start),
        ("fleet_hot" | "fleet_cold", trace) => {
            let mix = if args.workload == "fleet_hot" {
                fleet::Mix::Hot
            } else {
                fleet::Mix::Cold
            };
            if trace {
                inproc::run_traced(mix, &args.daemon, &work, &traces, args.seed, args.seconds)
            } else {
                fleet::run(
                    mix,
                    &args.daemon,
                    &work,
                    args.seed,
                    args.seconds,
                    process_start,
                )
            }
        }
        (other, _) => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            print!("{}", report.human());
            println!("{}", report.json());
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            exit(1);
        }
    }
}
