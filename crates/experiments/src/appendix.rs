//! The arXiv appendix experiments ("Sensitivity Analysis of Core
//! Specialization Techniques"): multi-programmed workloads, i-cache
//! sizes, cache configurations, core counts, an instruction prefetcher,
//! and a trace cache.
//!
//! All but the first read the main [`crate::Comparison`] on a different
//! machine template, exactly as the appendix reruns the main methodology
//! per configuration; a configuration equal to the main machine's (the
//! 32 KB i-cache, Config3, 32 cores) reads its cells back from the
//! [`Runner`].

use crate::comparison::Comparison;
use crate::runner::{throughput_change, ExpParams, ExperimentError, Grid, Runner, Technique};
use crate::table::{f1, Table};
use schedtask_kernel::WorkloadSpec;
use schedtask_metrics::geometric_mean_pct;
use schedtask_sim::HierarchyConfig;
use schedtask_workload::{BenchmarkKind, MultiProgrammedWorkload};

/// Appendix Figure 1: multi-programmed workloads MPW-A .. MPW-F.
pub fn multiprog_table(runner: &mut Runner, params: &ExpParams) -> Result<Table, ExperimentError> {
    let bags = MultiProgrammedWorkload::all();
    let grid = Grid::new(
        params,
        bags.iter().map(WorkloadSpec::from),
        Technique::all(),
    );
    let r = runner.run(&grid).complete()?;
    let names: Vec<String> = bags.iter().map(|b| b.name.to_string()).collect();
    let rows = Technique::compared().into_iter().enumerate().map(|(i, t)| {
        (
            t.name().to_string(),
            r.vs_baseline(i + 1, throughput_change),
        )
    });
    Ok(Table::new(
        "Appendix Figure 1: multi-programmed workloads — change in instruction throughput (%)",
    )
    .with_note("The paper reports SLICC collapsing here (its per-application collectives cannot share common OS execution across applications).")
    .with_value_rows("technique", &names, ("gmean", geometric_mean_pct), f1, rows))
}

/// The comparison over `kinds` at 2X on each labelled machine.
fn on_machines<L>(
    runner: &mut Runner,
    kinds: &[BenchmarkKind],
    machines: impl IntoIterator<Item = (L, ExpParams)>,
) -> Result<Vec<(L, Comparison)>, ExperimentError> {
    machines
        .into_iter()
        .map(|(label, p)| Ok((label, Comparison::run(runner, &p, 2.0, kinds)?)))
        .collect()
}

/// `params` on the cache hierarchy `h`.
fn on_hierarchy(params: &ExpParams, h: HierarchyConfig) -> ExpParams {
    let system = params.system.clone().with_hierarchy(h);
    params.clone().with_system(system)
}

/// Each comparison's Figure 8a throughput table under its own title.
fn throughput_tables<L>(sweep: &[(L, Comparison)], title: impl Fn(&L) -> String) -> Vec<Table> {
    sweep
        .iter()
        .map(|(label, c)| Table {
            title: title(label),
            ..c.fig08a_throughput()
        })
        .collect()
}

/// Appendix Table 2: i-cache size sweep (16 / 32 / 64 KB) over `kinds`.
/// Returns one comparison per size.
pub fn icache_size_sweep(
    runner: &mut Runner,
    params: &ExpParams,
    kinds: &[BenchmarkKind],
) -> Result<Vec<(u64, Comparison)>, ExperimentError> {
    let machines = [16u64, 32, 64].map(|kb| {
        let h = params.system.hierarchy.clone().with_icache_size(kb * 1024);
        (kb, on_hierarchy(params, h))
    });
    on_machines(runner, kinds, machines)
}

/// Formats the i-cache sweep as throughput-change tables.
pub fn icache_size_tables(sweep: &[(u64, Comparison)]) -> Vec<Table> {
    throughput_tables(sweep, |kb| {
        format!("Appendix Table 2 ({kb} KB i-cache): change in instruction throughput (%)")
    })
}

/// Appendix Table 3: cache configurations Config1 / Config2 / Config3
/// over `kinds`.
pub fn cache_config_sweep(
    runner: &mut Runner,
    params: &ExpParams,
    kinds: &[BenchmarkKind],
) -> Result<Vec<(&'static str, Comparison)>, ExperimentError> {
    let machines = [
        ("Config1", HierarchyConfig::config1()),
        ("Config2", HierarchyConfig::config2()),
        ("Config3", HierarchyConfig::config3()),
    ]
    .map(|(name, h)| (name, on_hierarchy(params, h)));
    on_machines(runner, kinds, machines)
}

/// Formats the cache-configuration sweep.
pub fn cache_config_tables(sweep: &[(&'static str, Comparison)]) -> Vec<Table> {
    throughput_tables(sweep, |name| {
        format!("Appendix Table 3 ({name}): change in instruction throughput (%)")
    })
}

/// Appendix Table 4: core-count sweep (8 / 16 / 24 / 32) over `kinds`.
pub fn core_count_sweep(
    runner: &mut Runner,
    params: &ExpParams,
    counts: &[usize],
    kinds: &[BenchmarkKind],
) -> Result<Vec<(usize, Comparison)>, ExperimentError> {
    let machines = counts
        .iter()
        .map(|&cores| (cores, params.scaled_to_cores(cores)));
    on_machines(runner, kinds, machines)
}

/// Formats the core-count sweep.
pub fn core_count_tables(sweep: &[(usize, Comparison)]) -> Vec<Table> {
    throughput_tables(sweep, |cores| {
        format!("Appendix Table 4 ({cores} cores): change in instruction throughput (%)")
    })
}

/// Appendix Figure 2: the comparison with a CGP-like instruction
/// prefetcher in the baseline machine.
pub fn prefetcher_comparison(
    runner: &mut Runner,
    params: &ExpParams,
    kinds: &[BenchmarkKind],
) -> Result<Comparison, ExperimentError> {
    let p = params
        .clone()
        .with_system(params.system.clone().with_call_graph_prefetcher());
    Comparison::run(runner, &p, 2.0, kinds)
}

/// Appendix Figure 3: the comparison with a trace cache.
pub fn trace_cache_comparison(
    runner: &mut Runner,
    params: &ExpParams,
    kinds: &[BenchmarkKind],
) -> Result<Comparison, ExperimentError> {
    let p = params
        .clone()
        .with_system(params.system.clone().with_trace_cache());
    Comparison::run(runner, &p, 2.0, kinds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpParams {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 250_000;
        p.warmup_instructions = 50_000;
        p
    }

    #[test]
    fn icache_sweep_builds_three_machines() {
        let mut runner = Runner::new(1);
        let sweep = icache_size_sweep(&mut runner, &tiny(), &[BenchmarkKind::Find])
            .expect("comparison runs");
        let tables = icache_size_tables(&sweep);
        assert_eq!(tables.len(), 3);
        assert!(tables[0].title.contains("16 KB"));
        // Three machines, six techniques, one benchmark.
        assert_eq!(runner.simulated(), 18);
    }

    #[test]
    fn multiprog_table_renders() {
        let t = multiprog_table(&mut Runner::new(1), &tiny()).expect("table runs");
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.headers.len(), 8); // technique + 6 bags + gmean
    }
}
