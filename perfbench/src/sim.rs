//! `sim_fig7`: the Figure 7 cell set — all six techniques × the eight
//! benchmarks at scale 2 on the 32-core Table 2 machine — run serially
//! in-process on one thread.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use schedtask_experiments::serve_api::fnv1a64;
use schedtask_experiments::{ExpParams, RunBuilder, Technique};
use schedtask_kernel::{Engine, SimStats, WorkloadSpec};
use schedtask_obs::{Aggregator, Observer};
use schedtask_workload::BenchmarkKind;

use crate::calib::{Calibration, Slice};
use crate::layers::{EngineTimes, Layers};
use crate::report::{peak_rss_mib, EndToEnd, Report};
use crate::sched_trace::TimedScheduler;
use crate::stats::{median, percentile_us, FAILED};

/// Workload scale of every cell, as in Figure 7.
pub const SCALE: f64 = 2.0;

/// Digests of every cell's canonical `SimStats` JSON, recorded for the
/// default seed and one held-out seed: `seed technique benchmark fnv1a64`.
const RECORDED: &str = include_str!("../digests.txt");

pub type Cell = (Technique, BenchmarkKind);

/// The Figure 7 cells, technique-major.
pub fn cells() -> Vec<Cell> {
    Technique::all()
        .into_iter()
        .flat_map(|t| BenchmarkKind::all().into_iter().map(move |b| (t, b)))
        .collect()
}

/// `ExpParams::standard()` with the workload seed.
pub fn params(seed: u64) -> ExpParams {
    let mut p = ExpParams::standard();
    p.seed = seed;
    p
}

/// The warm-up pass: every technique on `Find` at an eighth of the
/// standard budget.
fn warm_params(seed: u64) -> ExpParams {
    let mut p = params(seed);
    p.max_instructions /= 8;
    p.warmup_instructions /= 8;
    p
}

pub fn digest(stats: &SimStats) -> u64 {
    fnv1a64(stats.to_canonical_json().as_bytes())
}

/// The recorded digests for `seed`, keyed by (technique, benchmark)
/// display names, or `None` when the seed has none.
pub fn recorded(table: &str, seed: u64) -> Option<HashMap<(String, String), u64>> {
    let map: HashMap<(String, String), u64> = table
        .lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [s, t, b, d] if s.parse::<u64>().ok() == Some(seed) => Some((
                    (t.to_string(), b.to_string()),
                    u64::from_str_radix(d, 16).ok()?,
                )),
                _ => None,
            }
        })
        .collect();
    (!map.is_empty()).then_some(map)
}

fn run_cell(p: &ExpParams, (t, b): Cell) -> Result<SimStats, String> {
    RunBuilder::new(p)
        .technique(t)
        .benchmark(b, SCALE)
        .run()
        .map_err(|e| e.to_string())
}

/// Repeats the set-up (warm-up pass) [`crate::SETUPS`] times; the first
/// timing starts at process start. Returns each set-up's seconds and
/// checks the warm-up digests repeat exactly.
fn setups(seed: u64, process_start: Instant, report: &mut Report) -> Result<Vec<f64>, String> {
    let p = warm_params(seed);
    let mut times = Vec::new();
    let mut first: Option<Vec<u64>> = None;
    for i in 0..crate::SETUPS {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let digests = Technique::all()
            .into_iter()
            .map(|t| run_cell(&p, (t, BenchmarkKind::Find)).map(|s| digest(&s)))
            .collect::<Result<Vec<u64>, String>>()?;
        times.push(start.elapsed().as_secs_f64());
        match &first {
            None => first = Some(digests),
            Some(f) => report.check(*f == digests, || {
                format!(
                    "warm-up digests differ between set-up 1 and set-up {}",
                    i + 1
                )
            }),
        }
    }
    Ok(times)
}

/// One timed cell.
struct CellRun {
    cell: Cell,
    ns: u64,
    stats: Result<SimStats, String>,
}

/// Runs every cell once, with a calibration slice before each; each
/// cell's time includes its `Engine::new`.
fn timed_pass(p: &ExpParams, calib: &mut Calibration) -> Result<Vec<CellRun>, String> {
    cells()
        .into_iter()
        .map(|cell| {
            calib.sample()?;
            let start = Instant::now();
            let stats = run_cell(p, cell);
            Ok(CellRun {
                cell,
                ns: start.elapsed().as_nanos() as u64,
                stats,
            })
        })
        .collect()
}

/// Checks each cell's digest against the recorded table (or prints the
/// digests unchecked) and returns per-cell pass/fail.
fn check_digests(
    seed: u64,
    runs: &[(Cell, Result<u64, String>)],
    report: &mut Report,
) -> Vec<bool> {
    let table = recorded(RECORDED, seed);
    if table.is_none() {
        report.note(format!(
            "no recorded digests for seed {seed}: digests printed unchecked"
        ));
    }
    runs.iter()
        .map(|((t, b), d)| match d {
            Err(e) => {
                report.note(format!("cell {}/{} failed: {e}", t.name(), b.name()));
                false
            }
            Ok(d) => match &table {
                None => {
                    report.note(format!("digest {seed} {} {} {d:016x}", t.name(), b.name()));
                    true
                }
                Some(map) => {
                    let want = map.get(&(t.name().to_owned(), b.name().to_owned()));
                    let ok = want == Some(d);
                    if !ok {
                        report.note(format!(
                            "cell {}/{} digest {d:016x} != recorded {}",
                            t.name(),
                            b.name(),
                            want.map_or("none".to_owned(), |w| format!("{w:016x}"))
                        ));
                    }
                    ok
                }
            },
        })
        .collect()
}

/// Simulated-instruction rate of a pass, M instr per host second.
fn minstr_per_s(runs: &[CellRun]) -> f64 {
    let instr: u64 = runs
        .iter()
        .filter_map(|r| r.stats.as_ref().ok())
        .map(SimStats::total_instructions)
        .sum();
    let ns: u64 = runs.iter().map(|r| r.ns).sum();
    instr as f64 / (ns as f64 / 1e9) / 1e6
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, process_start: Instant) -> Result<Report, String> {
    let mut report = Report::default();
    let setup = setups(seed, process_start, &mut report)?;
    let p = params(seed);
    let mut calib = Calibration::new()?;
    let runs = timed_pass(&p, &mut calib)?;
    let digests: Vec<(Cell, Result<u64, String>)> = runs
        .iter()
        .map(|r| (r.cell, r.stats.as_ref().map(digest).map_err(Clone::clone)))
        .collect();
    let ok = check_digests(seed, &digests, &mut report);
    let wall_s: f64 = runs.iter().map(|r| r.ns as f64 / 1e9).sum();
    let instr: u64 = runs
        .iter()
        .zip(&ok)
        .filter(|(_, &ok)| ok)
        .filter_map(|(r, _)| r.stats.as_ref().ok())
        .map(SimStats::total_instructions)
        .sum();
    let lat: Vec<u64> = runs
        .iter()
        .zip(&ok)
        .map(|(r, &ok)| if ok { r.ns } else { FAILED })
        .collect();
    let n_ok = ok.iter().filter(|&&ok| ok).count() as u64;
    report.attempted = runs.len() as u64;
    report.failed = report.attempted - n_ok;
    report.note(format!(
        "sim_fig7: {} cells, {} simulated instructions in {wall_s:.3} s; p50 over {} cell times",
        runs.len(),
        instr,
        lat.len()
    ));
    report.end_to_end(
        &EndToEnd {
            setup_s: median(&setup),
            peak_rss_mb: peak_rss_mib("self")?,
            minstr_per_s: instr as f64 / wall_s / 1e6,
            req_per_s: n_ok as f64 / wall_s,
            p50_us: percentile_us(&lat, 0.5),
        },
        &calib,
        Slice::Both,
    );
    Ok(report)
}

/// Runs one cell through `Engine` directly — timing `Engine::new` and
/// `Engine::run`, with the hook wrapper and an aggregator attached — and
/// adds its times and counts to `layers`. The fleet's traced mode runs
/// the keys its timed phase executed through it too.
pub fn traced_job(p: &ExpParams, (t, b): Cell, layers: &mut Layers) -> Result<SimStats, String> {
    let cfg = p.engine_config(t);
    let (sched, times) = TimedScheduler::wrap(t.scheduler(cfg.system.num_cores));
    let agg = Arc::new(Aggregator::new());
    let start = Instant::now();
    let mut engine =
        Engine::new(cfg, &WorkloadSpec::single(b, SCALE), sched).map_err(|e| e.to_string())?;
    let build_ns = start.elapsed().as_nanos() as u64;
    engine.add_observer(Arc::clone(&agg) as Arc<dyn Observer>);
    let start = Instant::now();
    let stats = engine.run().map_err(|e| e.to_string())?.clone();
    let run_ns = start.elapsed().as_nanos() as u64;
    // The engine owns the wrapper, which publishes its times on drop.
    drop(engine);
    layers.engine.add(&EngineTimes {
        build_ns,
        run_ns,
        hooks: *times.lock().expect("hook-time lock poisoned"),
    });
    layers.sim.add(&stats);
    layers.obs = layers.obs.merged(&agg.counters());
    Ok(stats)
}

/// The traced run: an untraced pass, then a traced pass of the same
/// cells; per-layer metrics come from the traced pass.
pub fn run_traced(seed: u64, process_start: Instant) -> Result<Report, String> {
    let mut report = Report::default();
    setups(seed, process_start, &mut report)?;
    let p = params(seed);
    let untraced = timed_pass(&p, &mut Calibration::new()?)?;
    let mut layers = Layers::default();
    let mut wall_ns = 0u64;
    let mut failed = 0u64;
    for r in &untraced {
        let start = Instant::now();
        let traced = traced_job(&p, r.cell, &mut layers);
        wall_ns += start.elapsed().as_nanos() as u64;
        let same = match (&r.stats, &traced) {
            (Ok(a), Ok(b)) => digest(a) == digest(b),
            _ => false,
        };
        if !same {
            failed += 1;
            report.note(format!(
                "cell {}/{}: traced stats differ from untraced or a run failed",
                r.cell.0.name(),
                r.cell.1.name()
            ));
        }
    }
    let traced_rate = layers.sim.instructions as f64 / (wall_ns as f64 / 1e9) / 1e6;
    let untraced_rate = minstr_per_s(&untraced);
    layers.trace_overhead_pct = (untraced_rate / traced_rate - 1.0) * 100.0;
    report.attempted = untraced.len() as u64;
    report.failed = failed;
    report.note(format!(
        "sim_fig7 traced: untraced {untraced_rate:.3} vs traced {traced_rate:.3} M instr/s over {} cells",
        untraced.len()
    ));
    layers.emit(&mut report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_set_covers_every_technique_and_benchmark() {
        let c = cells();
        assert_eq!(c.len(), 48);
        for t in Technique::all() {
            assert_eq!(c.iter().filter(|(ct, _)| *ct == t).count(), 8);
        }
    }

    #[test]
    fn recorded_table_parses_per_seed() {
        let table = "1 SchedTask Find 00000000000000ff\n2 SchedTask Find 0000000000000001\n";
        let one = recorded(table, 1).expect("seed 1 recorded");
        assert_eq!(one[&("SchedTask".to_owned(), "Find".to_owned())], 0xff);
        assert!(recorded(table, 3).is_none());
    }

    #[test]
    fn shipped_table_covers_both_recorded_seeds() {
        for seed in [0x5EED_5EED, crate::HELD_OUT_SEED] {
            let map = recorded(RECORDED, seed).expect("recorded seed");
            assert_eq!(map.len(), 48, "seed {seed}");
        }
    }

    fn tiny() -> ExpParams {
        let mut p = params(11);
        p.cores = 4;
        p.max_instructions = 200_000;
        p.warmup_instructions = 50_000;
        p
    }

    #[test]
    fn digests_are_stable_and_tracing_changes_no_statistic() {
        let p = tiny();
        for t in Technique::all() {
            let cell = (t, BenchmarkKind::Apache);
            let a = digest(&run_cell(&p, cell).expect("run"));
            let b = digest(&run_cell(&p, cell).expect("rerun"));
            assert_eq!(a, b, "{}", t.name());
            let mut layers = Layers::default();
            let traced = traced_job(&p, cell, &mut layers).expect("traced run");
            assert_eq!(digest(&traced), a, "{} traced", t.name());
            assert!(layers.engine.hooks.pick_calls() > 0);
        }
    }

    #[test]
    fn a_wrong_digest_fails_its_cell() {
        let seed = 0x5EED_5EED;
        let mut report = Report::default();
        let map = recorded(RECORDED, seed).expect("default seed recorded");
        let cell = (Technique::SchedTask, BenchmarkKind::Find);
        let good = map[&(cell.0.name().to_owned(), cell.1.name().to_owned())];
        let runs = vec![
            (cell, Ok(good)),
            (cell, Ok(good ^ 1)),
            (cell, Err("engine error".to_owned())),
        ];
        assert_eq!(
            check_digests(seed, &runs, &mut report),
            vec![true, false, false]
        );
    }
}
