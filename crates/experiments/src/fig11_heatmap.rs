//! Figure 11: impact of the Page-heatmap register size.
//!
//! Two measurements, both from Section 6.5:
//!
//! * the quality of the Bloom-filter overlap ranking versus the exact
//!   (ideal) ranking, measured as Kendall's τ_B per register width;
//! * the mean performance benefit per register width, plus the ideal
//!   (exact-ranking) configuration.

use crate::runner::{
    performance_change, ExpParams, ExperimentError, Grid, Runner, SweepReport, Technique, Variant,
};
use crate::table::{f1, f3, Table};
use schedtask::{EpochRankings, SchedTaskConfig};
use schedtask_kernel::WorkloadSpec;
use schedtask_metrics::{geometric_mean_pct, kendall_tau_b, mean};
use schedtask_workload::BenchmarkKind;
use std::iter;

/// The register widths swept in Figure 11.
pub const WIDTHS: [u32; 5] = [128, 256, 512, 1024, 2048];

/// A Figure 11 grid's outcome: SchedTask at every width of [`WIDTHS`],
/// recording its rankings, over named workloads.
#[derive(Debug, Clone)]
pub struct HeatmapSweep {
    /// Workload column names.
    pub workloads: Vec<String>,
    report: SweepReport,
    /// The row of the first width: 1 behind a Linux baseline row.
    first_width: usize,
}

/// SchedTask at `bits`, recording its rankings.
fn ranked(bits: u32) -> Variant {
    Variant::schedtask(SchedTaskConfig {
        heatmap_bits: bits,
        ..SchedTaskConfig::default()
    })
    .with_rankings()
}

/// Runs Figure 11 over single benchmarks at 2X: the Linux baseline,
/// every width, and the ideal (exact) ranking.
pub fn run(
    runner: &mut Runner,
    params: &ExpParams,
    benchmarks: &[BenchmarkKind],
) -> Result<HeatmapSweep, ExperimentError> {
    let ideal = Variant::schedtask(SchedTaskConfig {
        use_exact_overlap: true,
        ..SchedTaskConfig::default()
    });
    let variants = iter::once(Technique::Linux.into())
        .chain(WIDTHS.map(ranked))
        .chain(iter::once(ideal));
    let grid = Grid::benchmarks(params, benchmarks, 2.0, variants);
    Ok(HeatmapSweep {
        workloads: benchmarks.iter().map(|k| k.name().to_string()).collect(),
        report: runner.run(&grid).complete()?,
        first_width: 1,
    })
}

/// τ_B per register width for arbitrary named workloads. The
/// single-benchmark sweep of [`run`] barely stresses narrow filters
/// because one OS handler only touches ~a dozen pages per epoch; the
/// multi-programmed bags bring 100-page *application* footprints into
/// the ranking (DSS/OLTP share `mysqld`, Iscp/Oscp share `scp`), which
/// is where the narrow registers saturate and the Figure 11 gradient
/// emerges.
pub fn run_tau_on_workloads(
    runner: &mut Runner,
    params: &ExpParams,
    workloads: &[(String, WorkloadSpec)],
) -> Result<HeatmapSweep, ExperimentError> {
    let grid = Grid::new(
        params,
        workloads.iter().map(|(_, w)| w.clone()),
        WIDTHS.map(ranked),
    );
    Ok(HeatmapSweep {
        workloads: workloads.iter().map(|(name, _)| name.clone()).collect(),
        report: runner.run(&grid).complete()?,
        first_width: 0,
    })
}

impl HeatmapSweep {
    /// Mean Kendall τ_B of the Bloom ranking vs. the exact ranking, per
    /// workload, for each width of [`WIDTHS`].
    pub fn tau(&self) -> Vec<Vec<f64>> {
        (0..WIDTHS.len())
            .map(|i| {
                let row = self.report.row(self.first_width + i);
                row.iter().map(|c| mean_tau(&c.rankings)).collect()
            })
            .collect()
    }

    fn tau_table(&self, title: &str, note: &str) -> Table {
        let rows = WIDTHS
            .iter()
            .zip(self.tau())
            .map(|(bits, taus)| (format!("{bits} bits"), taus));
        Table::new(title).with_note(note).with_value_rows(
            "bits",
            &self.workloads,
            ("mean", mean),
            f3,
            rows,
        )
    }
}

/// τ_B over a cell's TAlloc snapshots: for every type with ≥2
/// candidates, the Bloom scores against the exact scores over the same
/// candidate list.
fn mean_tau(rankings: &[EpochRankings]) -> f64 {
    let mut taus = Vec::new();
    for epoch in rankings {
        for (_ty, row) in epoch {
            if row.len() < 2 {
                continue;
            }
            let bloom: Vec<f64> = row.iter().map(|&(_, b, _)| b as f64).collect();
            let exact: Vec<f64> = row.iter().map(|&(_, _, e)| e as f64).collect();
            if exact.iter().any(|&e| e > 0.0) {
                taus.push(kendall_tau_b(&bloom, &exact));
            }
        }
    }
    mean(&taus)
}

/// Formats the multi-programmed τ_B sweep.
pub fn mpw_tau_table(sweep: &HeatmapSweep) -> Table {
    sweep.tau_table(
        "Figure 11 (multi-programmed): tau_B of the Bloom ranking vs. the ideal ranking",
        "Large shared application footprints (mysqld, scp) saturate narrow registers — this is where the paper's width gradient lives.",
    )
}

/// Figure 11 proper: τ_B per benchmark per register width.
pub fn tau_table(sweep: &HeatmapSweep) -> Table {
    sweep.tau_table(
        "Figure 11: Kendall's tau_B of the Bloom ranking vs. the ideal ranking",
        "",
    )
}

/// Section 6.5's performance-per-width summary (including ideal), from
/// [`run`]'s sweep.
pub fn perf_table(sweep: &HeatmapSweep) -> Table {
    let perf = |row| {
        let vals = sweep.report.vs_baseline(row, performance_change);
        f1(geometric_mean_pct(&vals))
    };
    let mut t = Table::new("Section 6.5: mean SchedTask benefit per Page-heatmap register width")
        .with_note("The paper reports 15.87 / 19.37 / 22.79 / 22.63 / 22.71 % for 128-2048 bits and 24.99 % for the ideal ranking; 512 bits is the chosen configuration.")
        .with_headers(["configuration", "mean performance change (%)"]);
    for (i, bits) in WIDTHS.iter().enumerate() {
        t.push_row([format!("{bits} bits"), perf(sweep.first_width + i)]);
    }
    t.push_row([
        "ideal ranking".to_string(),
        perf(sweep.first_width + WIDTHS.len()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_monotonic_ish_tau() {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 600_000;
        p.warmup_instructions = 150_000;
        let kinds = [BenchmarkKind::Find, BenchmarkKind::MailSrvIo];
        let sweep = run(&mut Runner::new(1), &p, &kinds).expect("sweep runs");
        let tau = sweep.tau();
        assert_eq!(tau.len(), 5);
        // τ at 2048 bits should beat τ at 128 bits on average (an
        // exponential width increase raises ranking quality, Fig 11).
        let t128 = mean(&tau[0]);
        let t2048 = mean(&tau[4]);
        // At tiny scales the 128-bit filter may already be collision
        // free, so only require non-degradation here; the full-size run
        // shows the Figure 11 gradient.
        assert!(
            t2048 + 1e-9 >= t128,
            "tau(2048)={t2048:.3} should not trail tau(128)={t128:.3}"
        );
        assert!(t2048 > 0.5, "wide registers should rank well: {t2048:.3}");
        // Tables render.
        assert_eq!(tau_table(&sweep).rows.len(), 5);
        assert_eq!(perf_table(&sweep).rows.len(), 6);
    }
}
