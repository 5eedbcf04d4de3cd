//! Golden determinism digests: for a few small cells of every
//! technique, the FNV-1a digest of the canonical `SimStats` JSON and of
//! the full JSONL event stream is pinned.
//!
//! The SchedTask cells cover every event source the engine drives —
//! core quanta, timer ticks, epochs, a benchmark's spontaneous
//! interrupts and blocked-I/O completions — with fault injection and
//! the invariant sanitizer switched on, so an engine change that moves
//! a single byte of output fails here, in the fast root-level `cargo
//! test`. The Iscp, Oscp and Apache cells run a `network_irq` stream,
//! the one interrupt source no SuperFunction waits on, so they pin
//! `Scheduler::route_interrupt`. One cell per baseline pins its
//! `Enqueued` and `Stolen` events, and two SchedTask variants pin the
//! software rendition's charge and the max-waiting steal.
//!
//! A digest changes only when simulated behaviour changes on purpose.
//! Re-record it then: the failure message prints every cell's actual
//! digests.

use schedtask_suite::core::{SchedTaskConfig, SchedTaskScheduler, StealPolicy};
use schedtask_suite::experiments::runner::RunBuilder;
use schedtask_suite::experiments::serve_api::fnv1a64;
use schedtask_suite::experiments::{ExpParams, Technique};
use schedtask_suite::kernel::obs::{JsonlSink, Observer};
use schedtask_suite::kernel::FaultPlan;
use schedtask_suite::workload::{BenchmarkKind, BenchmarkSpec};
use std::sync::Arc;

/// One pinned cell: its parameters, technique, benchmark, and the
/// expected `(stats, jsonl)` digests.
struct Cell {
    name: &'static str,
    params: ExpParams,
    technique: Technique,
    /// A SchedTask configuration other than the default; such a cell
    /// runs `find_plain`'s parameters and must differ from it.
    variant: Option<SchedTaskConfig>,
    benchmark: BenchmarkKind,
    stats_digest: u64,
    jsonl_digest: u64,
}

/// A small-but-real run: large enough that timers, epochs and
/// interrupts all fire, small enough for the fast check.
fn params(seed: u64) -> ExpParams {
    let mut p = ExpParams::quick().with_cores(4);
    p.max_instructions = 120_000;
    p.warmup_instructions = 30_000;
    p.seed = seed;
    p
}

fn cells() -> Vec<Cell> {
    // Long enough for every fault class, dropped and spurious
    // interrupts included, to fire at least once.
    let mut long = params(0xFACE);
    long.max_instructions = 900_000;
    vec![
        Cell {
            name: "find_plain",
            params: params(0x5EED_5EED),
            technique: Technique::SchedTask,
            variant: None,
            benchmark: BenchmarkKind::Find,
            stats_digest: 0x9db84df2d87d5a62,
            jsonl_digest: 0x6208ab3d59a6cd5e,
        },
        Cell {
            name: "iscp_light_faults",
            params: params(0x5EED_5EED).with_faults(FaultPlan::light(11)),
            technique: Technique::SchedTask,
            variant: None,
            benchmark: BenchmarkKind::Iscp,
            stats_digest: 0xf3c93fcecf3af564,
            jsonl_digest: 0xe8b6113aa9e8a944,
        },
        Cell {
            name: "oscp_sanitized",
            params: params(0xFACE).with_sanitize(),
            technique: Technique::SchedTask,
            variant: None,
            benchmark: BenchmarkKind::Oscp,
            stats_digest: 0xfa97df4e02b4a3a2,
            jsonl_digest: 0x76f81ce032434822,
        },
        Cell {
            name: "apache_heavy_faults_sanitized",
            params: long.with_faults(FaultPlan::heavy(11)).with_sanitize(),
            technique: Technique::SchedTask,
            variant: None,
            benchmark: BenchmarkKind::Apache,
            stats_digest: 0x8e9049f5b7e6ba98,
            jsonl_digest: 0xa6aa4bac5a27d464,
        },
        Cell {
            name: "linux_iscp_light_faults_sanitized",
            params: params(0xFACE)
                .with_faults(FaultPlan::light(11))
                .with_sanitize(),
            technique: Technique::Linux,
            variant: None,
            benchmark: BenchmarkKind::Iscp,
            stats_digest: 0xac63bb6208fe06d3,
            jsonl_digest: 0xd54c645d73eb0209,
        },
        Cell {
            name: "selective_offload_mailsrvio_sanitized",
            params: params(0xFACE).with_sanitize(),
            technique: Technique::SelectiveOffload,
            variant: None,
            benchmark: BenchmarkKind::MailSrvIo,
            stats_digest: 0x482b458310136c45,
            jsonl_digest: 0x9b7efdbf4b20ad86,
        },
        Cell {
            name: "flexsc_find_sanitized",
            params: params(0x5EED_5EED).with_sanitize(),
            technique: Technique::FlexSc,
            variant: None,
            benchmark: BenchmarkKind::Find,
            stats_digest: 0xda9b873893b7100f,
            jsonl_digest: 0x3c3328be3be57997,
        },
        Cell {
            name: "disaggregate_apache_sanitized",
            params: params(0xFACE).with_sanitize(),
            technique: Technique::DisAggregateOs,
            variant: None,
            benchmark: BenchmarkKind::Apache,
            stats_digest: 0x9ee2bb0c6d5ec9d2,
            jsonl_digest: 0xebea8e161003c50c,
        },
        Cell {
            name: "slicc_mailsrvio_light_faults",
            params: params(0xFACE).with_faults(FaultPlan::light(11)),
            technique: Technique::Slicc,
            variant: None,
            benchmark: BenchmarkKind::MailSrvIo,
            stats_digest: 0xa68578629a80c0ab,
            jsonl_digest: 0x5186e0a7161078f2,
        },
        Cell {
            name: "find_software_rendition",
            params: params(0x5EED_5EED),
            technique: Technique::SchedTask,
            variant: Some(SchedTaskConfig {
                software_rendition: true,
                ..SchedTaskConfig::default()
            }),
            benchmark: BenchmarkKind::Find,
            stats_digest: 0xda58b88bf8db96bf,
            jsonl_digest: 0xd78cd978d38d83d7,
        },
        Cell {
            name: "find_max_waiting_steal",
            params: params(0x5EED_5EED),
            technique: Technique::SchedTask,
            variant: Some(SchedTaskConfig {
                steal_policy: StealPolicy::MaxWaitingTime,
                ..SchedTaskConfig::default()
            }),
            benchmark: BenchmarkKind::Find,
            stats_digest: 0xecd81bce0e088e4f,
            jsonl_digest: 0x775c80f2751bfedf,
        },
    ]
}

/// Runs one cell and returns its `(stats, jsonl)` digests.
fn digests(cell: &Cell) -> (u64, u64) {
    let sink = Arc::new(JsonlSink::with_label(Vec::new(), None));
    let mut run = RunBuilder::new(&cell.params).technique(cell.technique);
    if let Some(cfg) = &cell.variant {
        let sched = SchedTaskScheduler::new(cell.params.cores, cfg.clone());
        run = run.scheduler(Box::new(sched));
    }
    let stats = run
        .benchmark(cell.benchmark, 1.0)
        .observer(Arc::clone(&sink) as Arc<dyn Observer>)
        .run()
        .expect("golden cell runs");
    let jsonl = sink.take();
    assert!(
        !jsonl.is_empty(),
        "{}: observer stream was empty",
        cell.name
    );
    let spontaneous = BenchmarkSpec::for_kind(cell.benchmark).spontaneous_irq;
    if spontaneous.is_some() {
        // Each completion answers one block, so a surplus of routed
        // interrupts came from the spontaneous stream.
        let count = |ev: &str| jsonl.matches(&format!("\"ev\":\"{ev}\"")).count();
        assert!(
            count("irq_routed") > count("blocked"),
            "{}: no spontaneous interrupt was routed",
            cell.name
        );
    }
    if cell.params.sanitize {
        assert!(stats.sanitizer_checks > 0, "{}: sanitizer idle", cell.name);
    }
    if cell.params.faults.is_some() {
        assert!(stats.faults.total() > 0, "{}: no fault fired", cell.name);
    }
    (
        fnv1a64(stats.to_canonical_json().as_bytes()),
        fnv1a64(jsonl.as_bytes()),
    )
}

#[test]
fn stats_and_event_stream_match_the_golden_digests() {
    let cells = cells();
    let actual: Vec<(u64, u64)> = cells.iter().map(digests).collect();
    assert_eq!(cells[0].name, "find_plain");
    let plain = actual[0];
    let mut mismatches = Vec::new();
    for (cell, &(stats, jsonl)) in cells.iter().zip(&actual) {
        if cell.variant.is_some() {
            assert!(
                stats != plain.0 && jsonl != plain.1,
                "{}: same output as find_plain, the variant's path did not run",
                cell.name
            );
        }
        if (stats, jsonl) != (cell.stats_digest, cell.jsonl_digest) {
            mismatches.push(format!(
                "{}: stats_digest: 0x{stats:016x}, jsonl_digest: 0x{jsonl:016x}",
                cell.name
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "determinism digests moved:\n{}",
        mismatches.join("\n")
    );
}
