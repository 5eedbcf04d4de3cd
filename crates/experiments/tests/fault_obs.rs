//! Fault-injection observability: every fault the injector fires must
//! appear in the JSONL event stream exactly once, per kind, matching
//! the run's `SimStats::faults` counters field-for-field.
//!
//! The injector increments its `FaultCounts` at the moment a roll
//! fires; each injection site emits `ObsEvent::FaultInjected` adjacent
//! to that roll. This test pins the two streams together so neither
//! can drift without failing CI.

use std::sync::Arc;

use schedtask_experiments::runner::RunBuilder;
use schedtask_experiments::{ExpParams, Technique};
use schedtask_kernel::obs::JsonlSink;
use schedtask_kernel::{FaultPlan, WorkloadSpec};
use schedtask_workload::BenchmarkKind;

/// Counts JSONL `"ev":"fault"` lines carrying the given kind.
fn fault_lines(jsonl: &str, kind: &str) -> u64 {
    let needle = format!("\"kind\":\"{kind}\"");
    jsonl
        .lines()
        .filter(|l| l.contains("\"ev\":\"fault\"") && l.contains(&needle))
        .count() as u64
}

#[test]
fn jsonl_records_every_injected_fault_exactly_once() {
    let mut p = ExpParams::quick();
    p.cores = 4;
    p.max_instructions = 200_000;
    p.warmup_instructions = 50_000;
    let p = p.with_faults(FaultPlan::light(7));
    let sink = Arc::new(JsonlSink::buffered());
    let w = WorkloadSpec::single(BenchmarkKind::Find, 1.0);
    let stats = RunBuilder::new(&p)
        .technique(Technique::SchedTask)
        .workload(&w)
        .observer(sink.clone())
        .run()
        .expect("faulted run succeeds");
    let text = sink.take();

    // The plan actually fired; otherwise the equalities below are vacuous.
    assert!(
        stats.faults.total() > 0,
        "light fault plan injected nothing"
    );

    assert_eq!(
        fault_lines(&text, "heatmap_bit_flip"),
        stats.faults.heatmap_bit_flips,
        "heatmap bit-flip events diverge from the injector count"
    );
    assert_eq!(
        fault_lines(&text, "dropped_irq"),
        stats.faults.dropped_irqs,
        "dropped-IRQ events diverge from the injector count"
    );
    assert_eq!(
        fault_lines(&text, "spurious_irq"),
        stats.faults.spurious_irqs,
        "spurious-IRQ events diverge from the injector count"
    );
    assert_eq!(
        fault_lines(&text, "delayed_completion"),
        stats.faults.delayed_completions,
        "delayed-completion events diverge from the injector count"
    );
    assert_eq!(
        fault_lines(&text, "core_stall"),
        stats.faults.core_stalls,
        "core-stall events diverge from the injector count"
    );

    // No fault line carries an unknown kind: the five fields above
    // partition the full set of "fault" lines.
    let total = text
        .lines()
        .filter(|l| l.contains("\"ev\":\"fault\""))
        .count() as u64;
    assert_eq!(total, stats.faults.total());
    assert_eq!(sink.write_errors(), 0);
}

#[test]
fn baseline_technique_reports_faults_identically() {
    // The contract holds for baseline schedulers too, not just
    // SchedTask: the injection sites live in the engine, below the
    // scheduler interface.
    let mut p = ExpParams::quick();
    p.cores = 4;
    p.max_instructions = 120_000;
    p.warmup_instructions = 30_000;
    let p = p.with_faults(FaultPlan::light(11));
    let sink = Arc::new(JsonlSink::buffered());
    let w = WorkloadSpec::single(BenchmarkKind::Iscp, 1.0);
    let stats = RunBuilder::new(&p)
        .technique(Technique::Linux)
        .workload(&w)
        .observer(sink.clone())
        .run()
        .expect("faulted baseline run succeeds");
    let text = sink.take();
    assert!(
        stats.faults.total() > 0,
        "light fault plan injected nothing"
    );
    let total = text
        .lines()
        .filter(|l| l.contains("\"ev\":\"fault\""))
        .count() as u64;
    assert_eq!(total, stats.faults.total());
}
