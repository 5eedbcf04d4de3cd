//! The main comparison harness: every technique over a set of
//! benchmarks on one machine configuration. Figures 7, 8 and 10 read
//! directly from it; Table 4 reads it at each workload scale, and the
//! appendix experiments (i-cache size, cache configs, core counts,
//! prefetcher, trace cache) read it on other machine templates.

use crate::runner::{self, ExpParams, ExperimentError, Grid, Runner, SweepReport, Technique};
use crate::table::{f1, Table};
use schedtask_kernel::SimStats;
use schedtask_metrics::{geometric_mean_pct, mean};
use schedtask_workload::BenchmarkKind;

/// Every technique over a set of benchmarks at one workload scale.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Parameters used.
    pub params: ExpParams,
    /// Workload scale (the paper's main evaluation doubles the baseline
    /// ensemble: 2X).
    pub scale: f64,
    /// The benchmarks, in column order.
    pub kinds: Vec<BenchmarkKind>,
    /// One row per technique in [`Technique::all`] order, the Linux
    /// baseline first.
    report: SweepReport,
}

impl Comparison {
    /// Runs every technique over `kinds` at `scale`; cells `runner` has
    /// already simulated are read back, not re-run.
    pub fn run(
        runner: &mut Runner,
        params: &ExpParams,
        scale: f64,
        kinds: &[BenchmarkKind],
    ) -> Result<Self, ExperimentError> {
        let grid = Grid::benchmarks(params, kinds, scale, Technique::all());
        Ok(Comparison {
            params: params.clone(),
            scale,
            kinds: kinds.to_vec(),
            report: runner.run(&grid).complete()?,
        })
    }

    /// `f(baseline, cell)` per benchmark for `technique`'s row.
    pub fn technique_column<F>(&self, technique: Technique, f: F) -> Vec<f64>
    where
        F: Fn(&SimStats, &SimStats) -> f64,
    {
        let row = Technique::all()
            .iter()
            .position(|&t| t == technique)
            .expect("every technique has a row");
        self.report.vs_baseline(row, f)
    }

    fn benchmark_names(&self) -> Vec<String> {
        self.kinds.iter().map(|k| k.name().to_string()).collect()
    }

    /// One row per compared technique of `f(baseline, cell)`.
    fn change_table<F>(&self, title: &str, note: &str, summarize: fn(&[f64]) -> f64, f: F) -> Table
    where
        F: Fn(&SimStats, &SimStats) -> f64,
    {
        let rows =
            Technique::compared().map(|t| (t.name().to_string(), self.technique_column(t, &f)));
        Table::new(title).with_note(note).with_value_rows(
            "technique",
            &self.benchmark_names(),
            ("gmean", summarize),
            f1,
            rows,
        )
    }

    /// Figure 7: change in application's performance (%) relative to the
    /// Linux baseline.
    pub fn fig07_performance(&self) -> Table {
        self.change_table(
            "Figure 7: change in application's performance (%)",
            "Application-specific operations per second vs. the Linux baseline.",
            geometric_mean_pct,
            runner::performance_change,
        )
    }

    /// Figure 8a: change in instruction throughput (%).
    pub fn fig08a_throughput(&self) -> Table {
        self.change_table(
            "Figure 8a: change in instruction throughput (%)",
            "",
            geometric_mean_pct,
            runner::throughput_change,
        )
    }

    /// Figure 10: inter-core thread migrations per billion instructions
    /// (including the baseline row).
    pub fn fig10_migrations(&self) -> Table {
        let rows = Technique::all().map(|t| {
            let vals = self.technique_column(t, |_b, s| s.migrations_per_billion_instructions());
            (t.name().to_string(), vals)
        });
        Table::new("Figure 10: inter-core thread migrations per billion instructions")
            .with_value_rows(
                "technique",
                &self.benchmark_names(),
                ("gmean", geo_mean_abs),
                |v| format!("{v:.0}"),
                rows,
            )
    }

    /// All Figure 8 sub-tables in order: 8a throughput, 8b idle time
    /// (absolute, per technique), and 8c-8f the change in i-cache and
    /// d-cache hit rates for application and OS code (percentage
    /// points).
    pub fn fig08_all(&self) -> Vec<Table> {
        let pp = |title: &str, rate: fn(&SimStats) -> f64| {
            self.change_table(title, "", geometric_mean_pct, move |b, s| {
                runner::hit_rate_delta_pp(rate(b), rate(s))
            })
        };
        vec![
            self.fig08a_throughput(),
            self.change_table("Figure 8b: fraction of idle time (%)", "", mean, |_b, s| {
                s.mean_idle_fraction() * 100.0
            }),
            pp(
                "Figure 8c: change in i-cache hit rate, application (pp)",
                |s| s.mem.icache_app.hit_rate(),
            ),
            pp("Figure 8d: change in i-cache hit rate, OS (pp)", |s| {
                s.mem.icache_os.hit_rate()
            }),
            pp(
                "Figure 8e: change in d-cache hit rate, application (pp)",
                |s| s.mem.dcache_app.hit_rate(),
            ),
            pp("Figure 8f: change in d-cache hit rate, OS (pp)", |s| {
                s.mem.dcache_os.hit_rate()
            }),
        ]
    }

    /// Absolute baseline context: per-benchmark Linux IPC-per-core,
    /// operations per second, and overall i-cache hit rate. Useful when
    /// interpreting the relative tables.
    pub fn baseline_absolute_table(&self) -> Table {
        let cores = self.params.cores as f64;
        let mut t = Table::new("Baseline absolutes (Linux scheduler)").with_headers([
            "benchmark",
            "IPC/core",
            "ops/s",
            "i-hit (%)",
            "d-hit (%)",
        ]);
        for (col, kind) in self.kinds.iter().enumerate() {
            let base = self.report.stats(0, col);
            t.push_row([
                kind.name().to_string(),
                format!("{:.3}", base.instruction_throughput() / cores),
                format!("{:.0}", base.app_performance()),
                format!("{:.1}", base.mem.icache_overall_hit_rate() * 100.0),
                format!("{:.1}", base.mem.dcache_overall_hit_rate() * 100.0),
            ]);
        }
        t
    }
}

/// Geometric mean of non-negative magnitudes (for migration counts).
fn geo_mean_abs(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = vals.iter().map(|&v| v.max(1.0).ln()).sum();
    (log_sum / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Comparison {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 200_000;
        p.warmup_instructions = 50_000;
        let kinds = [BenchmarkKind::Find, BenchmarkKind::MailSrvIo];
        Comparison::run(&mut Runner::new(1), &p, 1.0, &kinds).expect("comparison runs")
    }

    #[test]
    fn comparison_produces_all_tables() {
        let c = tiny();
        assert_eq!(c.kinds.len(), 2);
        let t7 = c.fig07_performance();
        assert_eq!(t7.rows.len(), 5);
        assert_eq!(t7.headers.len(), 4); // technique, 2 benches, gmean
        assert_eq!(c.fig08_all().len(), 6);
        let t10 = c.fig10_migrations();
        assert_eq!(t10.rows.len(), 6); // baseline + 5
    }
}
