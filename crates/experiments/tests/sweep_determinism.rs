//! Parallel-runner determinism: a grid run on `jobs` workers must
//! produce per-cell `SimStats` that are **bit-identical** to a serial
//! run, for any job count, with and without fault injection.
//!
//! This is the contract that makes `repro --jobs N` safe to use for
//! paper artefacts: parallelism may only change wall-clock time, never
//! a single statistic.

use proptest::prelude::*;
use schedtask_experiments::{ExpParams, Grid, Runner, SweepReport, Technique};
use schedtask_kernel::FaultPlan;
use schedtask_workload::BenchmarkKind;

/// A small-but-real sweep configuration: 4 cores, two techniques, two
/// benchmarks — enough cells that a 4-worker pool actually interleaves.
fn params(seed: u64) -> ExpParams {
    let mut p = ExpParams::quick();
    p.cores = 4;
    p.max_instructions = 120_000;
    p.warmup_instructions = 30_000;
    p.seed = seed;
    p
}

const TECHNIQUES: [Technique; 2] = [Technique::Linux, Technique::SchedTask];
const BENCHMARKS: [BenchmarkKind; 2] = [BenchmarkKind::Find, BenchmarkKind::Iscp];

/// `grid` on a fresh runner with `jobs` workers.
fn run(grid: &Grid, jobs: usize) -> SweepReport {
    Runner::new(jobs).run(grid)
}

fn sweep(p: &ExpParams, techniques: &[Technique], benchmarks: &[BenchmarkKind]) -> Grid {
    Grid::benchmarks(p, benchmarks, 1.0, techniques.iter().copied())
}

/// Asserts both sweeps have the same cells in the same order with
/// bit-identical statistics (full `SimStats` equality, not a summary).
fn assert_cells_identical(serial: &SweepReport, parallel: &SweepReport) {
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (s, p) in serial.cells.iter().zip(parallel.cells.iter()) {
        assert_eq!(s.technique, p.technique);
        let s_stats = s.result.as_ref().expect("serial cell succeeds");
        let p_stats = p.result.as_ref().expect("parallel cell succeeds");
        assert_eq!(
            s_stats, p_stats,
            "{:?} cell diverged between serial and parallel sweeps",
            s.technique
        );
    }
}

#[test]
fn parallel_sweep_matches_serial() {
    let grid = sweep(&params(0x5EED_5EED), &TECHNIQUES, &BENCHMARKS);
    assert_cells_identical(&run(&grid, 1), &run(&grid, 4));
}

#[test]
fn parallel_sweep_matches_serial_under_light_faults() {
    // The `--faults light@7` configuration: fault injection draws from
    // its own deterministic stream, so parallel cells see exactly the
    // same injected faults as serial ones.
    let p = params(0x5EED_5EED)
        .with_faults(FaultPlan::light(7))
        .with_sanitize();
    let grid = sweep(&p, &TECHNIQUES, &BENCHMARKS);
    let serial = run(&grid, 1);
    assert_cells_identical(&serial, &run(&grid, 4));
    // Faults were actually exercised, not silently disabled.
    let injected: u64 = serial
        .cells
        .iter()
        .map(|c| c.result.as_ref().expect("cell succeeds").faults.total())
        .sum();
    assert!(injected > 0, "light fault plan injected nothing");
}

#[test]
fn oversubscribed_pool_matches_serial() {
    // More workers than cells: idle workers must not perturb results.
    let grid = sweep(&params(0xFACE), &[Technique::Slicc], &[BenchmarkKind::Find]);
    assert_cells_identical(&run(&grid, 1), &run(&grid, 8));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any master seed, any fault seed: serial and 4-way parallel sweeps
    /// agree cell-for-cell on the complete `SimStats`.
    #[test]
    fn sweep_determinism_holds_for_any_seed(
        seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        with_faults in proptest::bool::ANY,
    ) {
        let mut p = params(seed);
        if with_faults {
            p = p.with_faults(FaultPlan::light(fault_seed));
        }
        let grid = sweep(&p, &TECHNIQUES, &[BenchmarkKind::Find]);
        let (serial, parallel) = (run(&grid, 1), run(&grid, 4));
        prop_assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, par) in serial.cells.iter().zip(parallel.cells.iter()) {
            let s_stats = s.result.as_ref().expect("serial cell succeeds");
            let p_stats = par.result.as_ref().expect("parallel cell succeeds");
            prop_assert_eq!(s_stats, p_stats);
        }
    }

    /// The observer stream is as deterministic as the statistics:
    /// per-cell counter snapshots and JSONL event logs collected by an
    /// observed sweep are identical between serial and 4-way parallel
    /// execution, fault injection included. This is what makes the
    /// CI sweep-diff job's counter roll-up comparison meaningful.
    /// Heavy faults, not light: at this run length the light plan can
    /// legitimately inject nothing, which would leave the fault-event
    /// paths unexercised.
    #[test]
    fn observed_counters_identical_serial_vs_parallel(
        seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
    ) {
        let p = params(seed).with_faults(FaultPlan::heavy(fault_seed));
        let grid = sweep(&p, &TECHNIQUES, &BENCHMARKS).observed();
        let (serial, parallel) = (run(&grid, 1), run(&grid, 4));
        prop_assert_eq!(serial.cells.len(), parallel.cells.len());
        let mut any_faults = false;
        for (s, par) in serial.cells.iter().zip(parallel.cells.iter()) {
            prop_assert_eq!(s.technique, par.technique);
            let s_obs = s.obs.as_ref().expect("serial cell observed");
            let p_obs = par.obs.as_ref().expect("parallel cell observed");
            prop_assert_eq!(&s_obs.counters, &p_obs.counters);
            prop_assert_eq!(&s_obs.jsonl, &p_obs.jsonl);
            let stats = s.result.as_ref().expect("serial cell succeeds");
            any_faults |= stats.faults.total() > 0;
        }
        prop_assert!(any_faults, "heavy fault plan injected nothing");
        prop_assert_eq!(serial.counter_rollup(), parallel.counter_rollup());
    }
}
