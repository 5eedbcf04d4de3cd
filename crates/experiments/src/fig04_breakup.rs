//! Figure 4 (instruction breakup per benchmark) and Section 4.4
//! (cosine similarity of breakups across consecutive epochs).

use crate::runner::{ExpParams, ExperimentError, Grid, Runner, Technique, Variant};
use crate::table::{f1, f3, Table};
use schedtask_metrics::cosine_similarity;
use schedtask_workload::BenchmarkKind;

/// Per-benchmark characterization results.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// Benchmark.
    pub kind: BenchmarkKind,
    /// `[application, syscall, interrupt, bottom half]` fractions (%).
    pub breakup: [f64; 4],
    /// Cosine similarity between consecutive epochs' breakups, in epoch
    /// order (Section 4.4: low at start, then stabilizes > 0.995).
    pub epoch_similarities: Vec<f64>,
}

/// Runs the Figure 4 characterization under the baseline Linux
/// scheduler, every benchmark at 1X.
pub fn run(
    runner: &mut Runner,
    params: &ExpParams,
) -> Result<Vec<Characterization>, ExperimentError> {
    let kinds = BenchmarkKind::all();
    let linux = Variant::from(Technique::Linux).with_epoch_breakups();
    let r = runner
        .run(&Grid::benchmarks(params, &kinds, 1.0, [linux]))
        .complete()?;
    Ok(kinds
        .iter()
        .enumerate()
        .map(|(col, &kind)| {
            let stats = r.stats(0, col);
            Characterization {
                kind,
                breakup: stats.instructions.breakup_percent(),
                epoch_similarities: stats
                    .epoch_breakups
                    .windows(2)
                    .map(|w| cosine_similarity(&w[0], &w[1]))
                    .collect(),
            }
        })
        .collect())
}

/// Formats Figure 4.
pub fn breakup_table(results: &[Characterization]) -> Table {
    let mut t = Table::new("Figure 4: instruction breakup (%)")
        .with_note("Fraction of instructions per SuperFunction category (Linux scheduler; scheduler code excluded).")
        .with_headers(["benchmark", "application", "system call", "interrupt", "bottom half"]);
    for r in results {
        t.push_row([
            r.kind.name().to_string(),
            f1(r.breakup[0]),
            f1(r.breakup[1]),
            f1(r.breakup[2]),
            f1(r.breakup[3]),
        ]);
    }
    t
}

/// Formats the Section 4.4 epoch-similarity summary.
pub fn epoch_similarity_table(results: &[Characterization]) -> Table {
    let mut t = Table::new("Section 4.4: cosine similarity of instruction breakups across consecutive epochs")
        .with_note("First window vs. steady state; the paper reports low similarity at startup stabilizing above 0.995.")
        .with_headers(["benchmark", "first", "median", "last", "min", "#epochs"]);
    for r in results {
        let mut sorted = r.epoch_similarities.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = if sorted.is_empty() {
            0.0
        } else {
            sorted[sorted.len() / 2]
        };
        let first = r.epoch_similarities.first().copied().unwrap_or(0.0);
        let last = r.epoch_similarities.last().copied().unwrap_or(0.0);
        let min = sorted.first().copied().unwrap_or(0.0);
        t.push_row([
            r.kind.name().to_string(),
            f3(first),
            f3(median),
            f3(last),
            f3(min),
            format!("{}", r.epoch_similarities.len() + 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterization_produces_sane_breakups() {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 400_000;
        p.warmup_instructions = 100_000;
        let results = run(&mut Runner::new(1), &p).expect("characterization runs");
        assert_eq!(results.len(), 8);
        for r in &results {
            let sum: f64 = r.breakup.iter().sum();
            assert!(
                (sum - 100.0).abs() < 1e-6,
                "{}: {:?}",
                r.kind.name(),
                r.breakup
            );
            assert!(
                !r.epoch_similarities.is_empty(),
                "{} has no epochs",
                r.kind.name()
            );
        }
        // DSS is application-dominated; MailSrvIO is syscall-dominated.
        let dss = results
            .iter()
            .find(|r| r.kind == BenchmarkKind::Dss)
            .unwrap();
        assert!(dss.breakup[0] > 50.0);
        let mail = results
            .iter()
            .find(|r| r.kind == BenchmarkKind::MailSrvIo)
            .unwrap();
        assert!(mail.breakup[1] > mail.breakup[0]);
        // Tables render.
        let t = breakup_table(&results);
        assert_eq!(t.rows.len(), 8);
        let t = epoch_similarity_table(&results);
        assert_eq!(t.rows.len(), 8);
    }

    #[test]
    fn steady_state_epochs_are_similar() {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 800_000;
        p.warmup_instructions = 100_000;
        p.epoch_cycles = 120_000; // larger epochs give less sampling noise
        let results = run(&mut Runner::new(1), &p).expect("characterization runs");
        // After warm-up, the workload is repetitive: median similarity
        // should be very high (the paper reports > 0.995 at steady
        // state). FileSrv and Apache are excluded at this miniature
        // scale: their interrupt/bottom-half arrivals come in clumps of
        // tens of thousands of instructions, which only average out at
        // paper-sized (3 ms) epochs.
        for r in results
            .iter()
            .filter(|r| !matches!(r.kind, BenchmarkKind::FileSrv | BenchmarkKind::Apache))
        {
            let mut sorted = r.epoch_similarities.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = sorted[sorted.len() / 2];
            assert!(
                median > 0.9,
                "{}: median epoch similarity {median}",
                r.kind.name()
            );
        }
    }
}
