//! Figure 9: impact of the work-stealing strategies on instruction
//! throughput, core idleness, and overall i-cache hit rate — plus the
//! Section 6.4 "alternate strategy" (always steal from the max-waiting
//! core).

use crate::runner::{
    hit_rate_delta_pp, throughput_change, ExpParams, ExperimentError, Grid, Runner, SweepReport,
    Technique, Variant,
};
use crate::table::{f1, Table};
use schedtask::{SchedTaskConfig, StealPolicy};
use schedtask_kernel::SimStats;
use schedtask_metrics::{geometric_mean_pct, mean};
use schedtask_workload::BenchmarkKind;
use std::iter;

/// Figure 9's cells: the Linux baseline, then SchedTask under each
/// strategy, over every benchmark at 2X.
#[derive(Debug, Clone)]
pub struct Stealing {
    /// The strategies, in row order.
    pub policies: Vec<StealPolicy>,
    report: SweepReport,
}

/// Runs Figure 9 for the given strategies.
pub fn run(
    runner: &mut Runner,
    params: &ExpParams,
    policies: &[StealPolicy],
) -> Result<Stealing, ExperimentError> {
    let variants = iter::once(Technique::Linux.into()).chain(policies.iter().map(|&policy| {
        Variant::schedtask(SchedTaskConfig {
            steal_policy: policy,
            ..SchedTaskConfig::default()
        })
    }));
    let grid = Grid::benchmarks(params, &BenchmarkKind::all(), 2.0, variants);
    Ok(Stealing {
        policies: policies.to_vec(),
        report: runner.run(&grid).complete()?,
    })
}

impl Stealing {
    /// `f(baseline, cell)` per benchmark for each strategy.
    fn column(&self, i: usize, f: impl Fn(&SimStats, &SimStats) -> f64) -> Vec<f64> {
        self.report.vs_baseline(i + 1, f)
    }

    fn table(
        &self,
        title: &str,
        summarize: fn(&[f64]) -> f64,
        f: impl Fn(&SimStats, &SimStats) -> f64,
    ) -> Table {
        let names = BenchmarkKind::all().map(|k| k.name().to_string());
        let rows =
            (0..self.policies.len()).map(|i| (self.policies[i].to_string(), self.column(i, &f)));
        Table::new(title).with_value_rows("strategy", &names, ("gmean", summarize), f1, rows)
    }
}

/// Figure 9a: change in instruction throughput (%).
pub fn throughput_table(runs: &Stealing) -> Table {
    runs.table(
        "Figure 9a: work stealing — change in instruction throughput (%)",
        geometric_mean_pct,
        throughput_change,
    )
}

/// Figure 9b: fraction of idle time (%).
pub fn idleness_table(runs: &Stealing) -> Table {
    runs.table(
        "Figure 9b: work stealing — fraction of idle time (%)",
        mean,
        |_b, s| s.mean_idle_fraction() * 100.0,
    )
}

/// Figure 9c: change in overall i-cache hit rate (percentage points).
pub fn icache_table(runs: &Stealing) -> Table {
    runs.table(
        "Figure 9c: work stealing — change in overall i-cache hit rate (pp)",
        mean,
        |b, s| {
            hit_rate_delta_pp(
                b.mem.icache_overall_hit_rate(),
                s.mem.icache_overall_hit_rate(),
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stealing_strategies_order_idleness() {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 500_000;
        p.warmup_instructions = 100_000;
        let runs = run(
            &mut Runner::new(1),
            &p,
            &[StealPolicy::Nothing, StealPolicy::SimilarWorkAlso],
        )
        .expect("runs succeed");
        assert_eq!(runs.policies.len(), 2);
        let idle_of = |i: usize| mean(&runs.column(i, |_b, s| s.mean_idle_fraction()));
        // Never stealing must idle at least as much as the default
        // strategy (Figure 9b).
        assert!(idle_of(0) + 1e-9 >= idle_of(1));
        // Tables render with one row per strategy.
        assert_eq!(throughput_table(&runs).rows.len(), 2);
        assert_eq!(idleness_table(&runs).rows.len(), 2);
        assert_eq!(icache_table(&runs).rows.len(), 2);
    }
}
