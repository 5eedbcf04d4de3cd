//! Section 6.1's "other statistics": SchedTask-related overheads, TLB hit
//! rates, interrupt latency, and scheduling fairness.

use crate::runner::{hit_rate_delta_pp, ExpParams, ExperimentError, Grid, Runner, Technique};
use crate::table::{f2, f3, Table};
use schedtask_kernel::SimStats;
use schedtask_metrics::mean;
use schedtask_workload::BenchmarkKind;

/// Aggregate overhead statistics across benchmarks.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Fraction of retired instructions spent in scheduler routines
    /// (TAlloc + TMigrate) under SchedTask (%).
    pub schedtask_scheduler_pct: f64,
    /// Same for the Linux baseline (%).
    pub baseline_scheduler_pct: f64,
    /// iTLB hit-rate change (percentage points).
    pub itlb_delta_pp: f64,
    /// dTLB hit-rate change (percentage points).
    pub dtlb_delta_pp: f64,
    /// Mean interrupt latency change (%).
    pub interrupt_latency_change_pct: f64,
    /// Mean Jain fairness index under SchedTask.
    pub fairness: f64,
}

/// Runs the overhead characterization: Linux and SchedTask over every
/// benchmark at 2X.
pub fn run(runner: &mut Runner, params: &ExpParams) -> Result<OverheadReport, ExperimentError> {
    let rows = [Technique::Linux, Technique::SchedTask];
    let grid = Grid::benchmarks(params, &BenchmarkKind::all(), 2.0, rows);
    let r = runner.run(&grid).complete()?;
    let scheduler_pct =
        |s: &SimStats| s.instructions.scheduler as f64 / s.total_instructions() as f64 * 100.0;
    let irq_lat: Vec<f64> = r
        .vs_baseline(1, |base, st| {
            let base_lat = base.mean_interrupt_latency();
            (base_lat > 0.0).then(|| (st.mean_interrupt_latency() - base_lat) / base_lat * 100.0)
        })
        .into_iter()
        .flatten()
        .collect();
    Ok(OverheadReport {
        schedtask_scheduler_pct: mean(&r.vs_baseline(1, |_, st| scheduler_pct(st))),
        baseline_scheduler_pct: mean(&r.vs_baseline(1, |base, _| scheduler_pct(base))),
        itlb_delta_pp: mean(&r.vs_baseline(1, |base, st| {
            hit_rate_delta_pp(base.mem.itlb.hit_rate(), st.mem.itlb.hit_rate())
        })),
        dtlb_delta_pp: mean(&r.vs_baseline(1, |base, st| {
            hit_rate_delta_pp(base.mem.dtlb.hit_rate(), st.mem.dtlb.hit_rate())
        })),
        interrupt_latency_change_pct: mean(&irq_lat),
        fairness: mean(&r.vs_baseline(1, |_, st| st.fairness())),
    })
}

/// Formats the report.
pub fn report_table(r: &OverheadReport) -> Table {
    let mut t = Table::new("Section 6.1: SchedTask overheads and side statistics")
        .with_note("Paper values: TMigrate ~3.2 % of execution (vs. a similar baseline scheduler share), iTLB +0.98 pp, dTLB +0.65 pp, interrupt latency +0.53 %, Jain fairness 0.99.")
        .with_headers(["statistic", "measured"]);
    t.push_row([
        "scheduler instructions, SchedTask (%)".to_string(),
        f2(r.schedtask_scheduler_pct),
    ]);
    t.push_row([
        "scheduler instructions, baseline (%)".to_string(),
        f2(r.baseline_scheduler_pct),
    ]);
    t.push_row(["iTLB hit-rate change (pp)".to_string(), f2(r.itlb_delta_pp)]);
    t.push_row(["dTLB hit-rate change (pp)".to_string(), f2(r.dtlb_delta_pp)]);
    t.push_row([
        "mean interrupt latency change (%)".to_string(),
        f2(r.interrupt_latency_change_pct),
    ]);
    t.push_row([
        "Jain fairness index (SchedTask)".to_string(),
        f3(r.fairness),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_modest_and_fairness_high() {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 500_000;
        p.warmup_instructions = 100_000;
        let r = run(&mut Runner::new(1), &p).expect("overheads run");
        assert!(
            r.schedtask_scheduler_pct < 10.0,
            "scheduler share {}",
            r.schedtask_scheduler_pct
        );
        assert!(r.fairness > 0.7, "fairness {}", r.fairness);
        assert_eq!(report_table(&r).rows.len(), 6);
    }
}
