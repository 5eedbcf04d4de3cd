//! Table 4: impact of the workload (1X / 2X / 4X / 8X) on instruction
//! throughput and idle-time fractions — the main comparison read at
//! each workload scale.

use crate::comparison::Comparison;
use crate::runner::{throughput_change, ExpParams, ExperimentError, Grid, Runner, Technique};
use crate::table::Table;
use schedtask_metrics::{geometric_mean_pct, mean};
use schedtask_workload::BenchmarkKind;

/// The workload scales of Table 4.
pub const SCALES: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// Runs Table 4: one comparison over every benchmark per scale.
pub fn run(
    runner: &mut Runner,
    params: &ExpParams,
    scales: &[f64],
) -> Result<Vec<Comparison>, ExperimentError> {
    scales
        .iter()
        .map(|&scale| Comparison::run(runner, params, scale, &BenchmarkKind::all()))
        .collect()
}

/// Formats one block of Table 4 (idle % and Δ throughput per benchmark).
pub fn block_table(block: &Comparison) -> Table {
    let mut headers = vec!["technique".to_string()];
    for k in &block.kinds {
        headers.push(format!("{} idle", k.name()));
        headers.push(format!("{} perf", k.name()));
    }
    headers.push("gmean perf".to_string());
    let mut t = Table::new(format!(
        "Table 4 ({}X workload): idle fraction (%) and change in instruction throughput (%)",
        block.scale
    ))
    .with_headers(headers);
    for tech in Technique::compared() {
        let idles = block.technique_column(tech, |_b, s| s.mean_idle_fraction() * 100.0);
        let perfs = block.technique_column(tech, throughput_change);
        let mut row = vec![tech.name().to_string()];
        for (idle, perf) in idles.iter().zip(&perfs) {
            row.push(format!("{idle:.0}"));
            row.push(format!("{perf:.0}"));
        }
        row.push(format!("{:.0}", geometric_mean_pct(&perfs)));
        t.push_row(row);
    }
    t
}

/// The paper's closing observation in Section 6.3: "Beyond an 8X
/// workload, ... d-cache pollution among application as well as OS
/// threads becomes high. This leads to lower performance and is counter
/// productive." This table extends the scaling sweep past 8X to show
/// the benefit rolling off.
pub fn beyond_8x_table(
    runner: &mut Runner,
    params: &ExpParams,
    scales: &[f64],
) -> Result<Table, ExperimentError> {
    let mut t = Table::new("Section 6.3 (beyond 8X): SchedTask benefit vs. workload scale")
        .with_headers([
            "scale",
            "gmean Δ throughput vs. baseline (%)",
            "SchedTask idle (%)",
        ]);
    for &scale in scales {
        let rows = [Technique::Linux, Technique::SchedTask];
        let grid = Grid::benchmarks(params, &BenchmarkKind::all(), scale, rows);
        let r = runner.run(&grid).complete()?;
        let idles = r.vs_baseline(1, |_b, s| s.mean_idle_fraction() * 100.0);
        t.push_row([
            format!("{scale}X"),
            format!(
                "{:.1}",
                geometric_mean_pct(&r.vs_baseline(1, throughput_change))
            ),
            format!("{:.1}", mean(&idles)),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idleness_falls_as_workload_scales() {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 400_000;
        p.warmup_instructions = 100_000;
        let blocks = run(&mut Runner::new(1), &p, &[0.5, 4.0]).expect("table 4 runs");
        assert_eq!(blocks.len(), 2);
        let idle_at = |b: &Comparison, tech: Technique| -> f64 {
            mean(&b.technique_column(tech, |_b, s| s.mean_idle_fraction() * 100.0))
        };
        // Techniques without stealing idle much more at low load
        // (Table 4's 1X vs 4X/8X trend).
        let low = idle_at(&blocks[0], Technique::Slicc);
        let high = idle_at(&blocks[1], Technique::Slicc);
        assert!(
            low > high,
            "SLICC idle at 0.5X ({low:.1}) should exceed idle at 4X ({high:.1})"
        );
        // SelectiveOffload stays pinned near its structural idleness at
        // every scale.
        let so_low = idle_at(&blocks[0], Technique::SelectiveOffload);
        let so_high = idle_at(&blocks[1], Technique::SelectiveOffload);
        assert!((so_low - so_high).abs() < 20.0);
        // Rendering.
        assert!(block_table(&blocks[0]).rows.len() == 5);
    }
}
