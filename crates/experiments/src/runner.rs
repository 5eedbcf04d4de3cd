//! Shared experiment infrastructure: technique construction, run
//! execution, derived metrics, and the resilient sweep harness.
//!
//! Every run returns `Result<SimStats, ExperimentError>`: engine and
//! scheduler failures surface as structured diagnostics instead of
//! panics, so a sweep over the full technique × benchmark matrix can
//! record which cells failed and keep going (see [`run_sweep`]).

use schedtask::{SchedTaskConfig, SchedTaskScheduler};
use schedtask_baselines::{
    DisAggregateOsScheduler, FlexScScheduler, LinuxScheduler, SelectiveOffloadScheduler,
    SliccScheduler,
};
use schedtask_kernel::obs::{Aggregator, CounterSnapshot, JsonlSink, Observer, SpanRow};
use schedtask_kernel::{
    CoreId, DeviceModelConfig, Engine, EngineConfig, EngineCore, EngineError, FaultPlan,
    SchedError, SchedEvent, Scheduler, SfId, SimStats, SwitchReason, WorkloadSpec,
};
use schedtask_sim::SystemConfig;
use schedtask_workload::BenchmarkKind;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A failed experiment run: which cell failed and why.
///
/// Wraps the engine's typed error with the technique/workload labels a
/// sweep report needs; panics caught at a cell boundary are folded into
/// the same shape (see [`run_sweep`]).
#[derive(Debug)]
pub struct ExperimentError {
    /// Technique display name.
    pub technique: String,
    /// Workload label (benchmark name or bag name).
    pub workload: String,
    /// What went wrong.
    pub cause: FailureCause,
}

/// The underlying cause of an [`ExperimentError`].
#[derive(Debug)]
pub enum FailureCause {
    /// The engine returned a typed error (config, scheduler, watchdog,
    /// invariant violation, ...).
    Engine(EngineError),
    /// The cell panicked; the payload message is preserved.
    Panic(String),
    /// A [`RunBuilder`] was started without a required input, or the
    /// technique cannot run on the configured machine (FlexSC on one
    /// core).
    Builder(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cause {
            FailureCause::Engine(e) => {
                write!(f, "{} on {}: {e}", self.technique, self.workload)
            }
            FailureCause::Panic(msg) => {
                write!(f, "{} on {}: panic: {msg}", self.technique, self.workload)
            }
            FailureCause::Builder(msg) => {
                write!(f, "{} on {}: {msg}", self.technique, self.workload)
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.cause {
            FailureCause::Engine(e) => Some(e),
            FailureCause::Panic(_) | FailureCause::Builder(_) => None,
        }
    }
}

impl ExperimentError {
    fn engine(technique: &str, workload: &str, source: EngineError) -> Self {
        ExperimentError {
            technique: technique.to_string(),
            workload: workload.to_string(),
            cause: FailureCause::Engine(source),
        }
    }

    fn builder(technique: &str, workload: &str, detail: &str) -> Self {
        ExperimentError {
            technique: technique.to_string(),
            workload: workload.to_string(),
            cause: FailureCause::Builder(detail.to_string()),
        }
    }
}

/// The scheduling techniques of the paper's evaluation, in Figure 7
/// order (the Linux baseline is the reference everything is measured
/// against).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Stock Linux scheduler (the baseline).
    Linux,
    /// SelectiveOffload — runs on 2× the cores (Table 3).
    SelectiveOffload,
    /// FlexSC.
    FlexSc,
    /// Disaggregated OS Services.
    DisAggregateOs,
    /// SLICC (the state of the art the paper compares against).
    Slicc,
    /// SchedTask (the paper's contribution).
    SchedTask,
}

impl Technique {
    /// The five core-specialization techniques compared in Figure 7
    /// (excludes the Linux baseline).
    pub fn compared() -> [Technique; 5] {
        [
            Technique::SelectiveOffload,
            Technique::FlexSc,
            Technique::DisAggregateOs,
            Technique::Slicc,
            Technique::SchedTask,
        ]
    }

    /// Baseline plus the five compared techniques, in report order.
    pub fn all() -> [Technique; 6] {
        [
            Technique::Linux,
            Technique::SelectiveOffload,
            Technique::FlexSc,
            Technique::DisAggregateOs,
            Technique::Slicc,
            Technique::SchedTask,
        ]
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Technique::Linux => "Baseline",
            Technique::SelectiveOffload => "SelectiveOffload",
            Technique::FlexSc => "FlexSC",
            Technique::DisAggregateOs => "DisAggregateOS",
            Technique::Slicc => "SLICC",
            Technique::SchedTask => "SchedTask",
        }
    }

    /// Parses a technique from its display name (case-insensitive).
    /// Variant spellings that differ from the figure labels are accepted
    /// too, so [`Technique::name`] always round-trips — in particular
    /// `"linux"` parses even though the baseline displays as
    /// `"Baseline"`.
    pub fn parse(s: &str) -> Option<Technique> {
        if s.eq_ignore_ascii_case("linux") {
            return Some(Technique::Linux);
        }
        Technique::all()
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(s))
    }

    /// True for techniques that double the core count (Table 3).
    pub fn doubles_cores(self) -> bool {
        self == Technique::SelectiveOffload
    }

    /// Checks that the technique can run on a machine of `engine_cores`
    /// cores: FlexSC and SelectiveOffload give application and OS work
    /// separate cores, so they need two.
    pub fn check_cores(self, engine_cores: usize) -> Result<(), String> {
        let need = match self {
            Technique::FlexSc | Technique::SelectiveOffload => 2,
            _ => 1,
        };
        if engine_cores < need {
            return Err(format!(
                "{} needs at least {need} cores, got {engine_cores}",
                self.name()
            ));
        }
        Ok(())
    }

    /// Builds the scheduler for a machine with `engine_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if [`Technique::check_cores`] refuses `engine_cores`.
    pub fn scheduler(self, engine_cores: usize) -> Box<dyn Scheduler> {
        match self {
            Technique::Linux => Box::new(LinuxScheduler::new(engine_cores)),
            Technique::SelectiveOffload => Box::new(SelectiveOffloadScheduler::new(engine_cores)),
            Technique::FlexSc => Box::new(FlexScScheduler::new(engine_cores)),
            Technique::DisAggregateOs => Box::new(DisAggregateOsScheduler::new(engine_cores)),
            Technique::Slicc => Box::new(SliccScheduler::new(engine_cores)),
            Technique::SchedTask => Box::new(SchedTaskScheduler::new(
                engine_cores,
                SchedTaskConfig::default(),
            )),
        }
    }
}

/// Common knobs of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpParams {
    /// Baseline core count (SelectiveOffload doubles it internally).
    pub cores: usize,
    /// Post-warm-up instruction budget.
    pub max_instructions: u64,
    /// Warm-up instruction budget.
    pub warmup_instructions: u64,
    /// Master seed.
    pub seed: u64,
    /// Machine template (hierarchy, prefetcher, trace cache, ...); the
    /// core count is overridden per technique.
    pub system: SystemConfig,
    /// Scheduling-epoch length in cycles.
    pub epoch_cycles: u64,
    /// Optional deterministic fault plan injected into every run.
    pub faults: Option<FaultPlan>,
    /// Run the engine's invariant sanitizer on every run.
    pub sanitize: bool,
    /// Interrupt-injecting device models attached to every run.
    pub devices: Vec<DeviceModelConfig>,
}

impl ExpParams {
    /// The standard evaluation setup: the paper's Table 2 machine
    /// (32 cores) with a budget that keeps a full figure under a minute.
    pub fn standard() -> Self {
        ExpParams {
            cores: 32,
            max_instructions: 16_000_000,
            warmup_instructions: 4_000_000,
            seed: 0x5EED_5EED,
            system: SystemConfig::table2(),
            epoch_cycles: 60_000,
            faults: None,
            sanitize: false,
            devices: Vec::new(),
        }
    }

    /// A reduced setup for Criterion benches and smoke tests.
    pub fn quick() -> Self {
        ExpParams {
            cores: 8,
            max_instructions: 1_600_000,
            warmup_instructions: 400_000,
            seed: 0x5EED_5EED,
            system: SystemConfig::table2(),
            epoch_cycles: 50_000,
            faults: None,
            sanitize: false,
            devices: Vec::new(),
        }
    }

    /// Same params with a different baseline core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Same params with a different machine template.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Same params with a fault plan injected into every run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Same params with the invariant sanitizer enabled on every run.
    pub fn with_sanitize(mut self) -> Self {
        self.sanitize = true;
        self
    }

    /// Same params with an interrupt-injecting device model attached to
    /// every run (may be called repeatedly).
    pub fn with_device(mut self, device: DeviceModelConfig) -> Self {
        self.devices.push(device);
        self
    }

    /// The engine configuration for `technique`.
    pub fn engine_config(&self, technique: Technique) -> EngineConfig {
        let engine_cores = if technique.doubles_cores() {
            self.cores * 2
        } else {
            self.cores
        };
        let mut cfg = EngineConfig::fast()
            .with_system(self.system.clone().with_cores(engine_cores))
            .with_max_instructions(self.max_instructions)
            .with_seed(self.seed);
        cfg.workload_reference_cores = self.cores;
        cfg.warmup_instructions = self.warmup_instructions;
        cfg.epoch_cycles = self.epoch_cycles;
        if let Some(plan) = &self.faults {
            cfg = cfg.with_faults(plan.clone());
        }
        if self.sanitize {
            cfg = cfg.with_sanitizer();
        }
        for d in &self.devices {
            cfg = cfg.with_device(*d);
        }
        cfg
    }

    /// Engine core count for `technique`.
    pub fn engine_cores(&self, technique: Technique) -> usize {
        if technique.doubles_cores() {
            self.cores * 2
        } else {
            self.cores
        }
    }

    /// Core clock of the configured machine.
    pub fn clock_hz(&self) -> u64 {
        self.system.clock_hz
    }
}

/// Fluent, single entry point for running one simulation: a
/// [`Technique`] or a custom scheduler, an optional full engine-config
/// override, and any number of [`Observer`]s are all accepted
/// uniformly.
///
/// Resolution rules:
///
/// * The workload is required ([`workload`](Self::workload) or
///   [`benchmark`](Self::benchmark)).
/// * A custom [`scheduler`](Self::scheduler) wins over
///   [`technique`](Self::technique); with neither, `run` fails with a
///   [`FailureCause::Builder`] diagnosis.
/// * The engine configuration comes from exactly one source: an
///   explicit [`config`](Self::config), else the one derived from the
///   [`ExpParams`] (fault plan, sanitizer, and device models included).
/// * Without a technique the derived config never doubles cores.
///
/// # Examples
///
/// ```
/// use schedtask_experiments::runner::{ExpParams, RunBuilder, Technique};
/// use schedtask_workload::BenchmarkKind;
///
/// let mut p = ExpParams::quick();
/// p.cores = 4;
/// p.max_instructions = 150_000;
/// p.warmup_instructions = 50_000;
/// let stats = RunBuilder::new(&p)
///     .technique(Technique::Linux)
///     .benchmark(BenchmarkKind::Find, 1.0)
///     .run()
///     .expect("run succeeds");
/// assert!(stats.total_instructions() > 0);
/// ```
pub struct RunBuilder {
    params: Option<ExpParams>,
    technique: Option<Technique>,
    scheduler: Option<Box<dyn Scheduler>>,
    config: Option<EngineConfig>,
    label: Option<String>,
    workload: Option<WorkloadSpec>,
    observers: Vec<Arc<dyn Observer>>,
}

impl RunBuilder {
    /// Starts a run from shared experiment parameters.
    pub fn new(params: &ExpParams) -> Self {
        RunBuilder {
            params: Some(params.clone()),
            technique: None,
            scheduler: None,
            config: None,
            label: None,
            workload: None,
            observers: Vec::new(),
        }
    }

    /// Starts a run from an already-built engine configuration.
    pub fn from_config(cfg: EngineConfig) -> Self {
        RunBuilder {
            params: None,
            technique: None,
            scheduler: None,
            config: Some(cfg),
            label: None,
            workload: None,
            observers: Vec::new(),
        }
    }

    /// Selects one of the paper's techniques (scheduler and, where
    /// applicable, core doubling follow from it).
    pub fn technique(mut self, technique: Technique) -> Self {
        self.technique = Some(technique);
        self
    }

    /// Uses a custom scheduler (e.g. a SchedTask variant). Wins over
    /// [`technique`](Self::technique).
    pub fn scheduler(mut self, sched: Box<dyn Scheduler>) -> Self {
        self.scheduler = Some(sched);
        self
    }

    /// Overrides the engine configuration entirely.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.config = Some(cfg);
        self
    }

    /// Overrides the label used in failure diagnostics.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Sets the workload.
    pub fn workload(mut self, workload: &WorkloadSpec) -> Self {
        self.workload = Some(workload.clone());
        self
    }

    /// Sets a single-benchmark workload at `scale`.
    pub fn benchmark(self, kind: BenchmarkKind, scale: f64) -> Self {
        self.workload(&WorkloadSpec::single(kind, scale))
    }

    /// Attaches an observer for the whole run (warm-up included). May be
    /// called repeatedly; observers see events in attach order.
    pub fn observer(mut self, obs: Arc<dyn Observer>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Builds the engine and runs it.
    pub fn run(mut self) -> Result<SimStats, ExperimentError> {
        let label = self
            .label
            .take()
            .unwrap_or_else(|| match (&self.scheduler, self.technique) {
                (Some(s), _) => s.name().to_string(),
                (None, Some(t)) => t.name().to_string(),
                (None, None) => "unconfigured".to_string(),
            });
        let workload = self.workload.take().ok_or_else(|| {
            ExperimentError::builder(&label, "?", "no workload: call .workload() or .benchmark()")
        })?;
        let wl_label = workload_label(&workload);
        // Without a technique the derived config must not double cores;
        // SchedTask is the neutral shape (run_with_scheduler's contract).
        let shape = self.technique.unwrap_or(Technique::SchedTask);
        let cfg = match self.config.take() {
            Some(cfg) => cfg,
            None => self
                .params
                .as_ref()
                .ok_or_else(|| {
                    ExperimentError::builder(
                        &label,
                        &wl_label,
                        "no engine configuration: use RunBuilder::new or .config()",
                    )
                })?
                .engine_config(shape),
        };
        let sched = match self.scheduler.take() {
            Some(s) => s,
            None => {
                let technique = self.technique.ok_or_else(|| {
                    ExperimentError::builder(
                        &label,
                        &wl_label,
                        "no scheduler: call .technique() or .scheduler()",
                    )
                })?;
                // The config is authoritative about the machine size, so
                // the scheduler always matches it (core doubling
                // included).
                let cores = cfg.system.num_cores;
                technique
                    .check_cores(cores)
                    .map_err(|e| ExperimentError::builder(&label, &wl_label, &e))?;
                technique.scheduler(cores)
            }
        };
        let mut engine = Engine::new(cfg, &workload, sched)
            .map_err(|e| ExperimentError::engine(&label, &wl_label, e))?;
        for obs in self.observers.drain(..) {
            engine.add_observer(obs);
        }
        engine
            .run()
            .cloned()
            .map_err(|e| ExperimentError::engine(&label, &wl_label, e))
    }
}

/// Parses a device spec as accepted by `repro --device` and the serve
/// wire protocol: `KIND[:PERIOD]` where `KIND` is `disk`, `network`, or
/// `timer` and `PERIOD` is the mean inter-arrival time in cycles
/// (default 25 000).
pub fn parse_device_spec(spec: &str) -> Result<DeviceModelConfig, String> {
    use schedtask_workload::DeviceKind;
    let mut parts = spec.split(':');
    let head = parts.next().unwrap_or_default().to_ascii_lowercase();
    let kind = match head.as_str() {
        "disk" => DeviceKind::Disk,
        "network" | "nic" => DeviceKind::Network,
        "timer" => DeviceKind::Timer,
        other => {
            return Err(format!(
                "unknown device kind {other:?} (expected disk, network, or timer)"
            ))
        }
    };
    let period_cycles = match parts.next() {
        None => 25_000,
        Some(p) => p
            .parse::<u64>()
            .map_err(|e| format!("bad device period {p:?}: {e}"))?,
    };
    if parts.next().is_some() {
        return Err("device spec is KIND[:PERIOD]".to_owned());
    }
    Ok(DeviceModelConfig {
        kind,
        period_cycles,
    })
}

fn workload_label(workload: &WorkloadSpec) -> String {
    let mut names: Vec<&str> = workload.parts.iter().map(|(k, _)| k.name()).collect();
    for (spec, _) in &workload.custom {
        names.push(spec.kind.name());
    }
    names.dedup();
    names.join("+")
}

/// Percentage change of instruction throughput relative to `base`.
pub fn throughput_change(base: &SimStats, other: &SimStats) -> f64 {
    schedtask_metrics::pct_change(
        base.instruction_throughput(),
        other.instruction_throughput(),
    )
}

/// Percentage change of application performance (ops/s) relative to
/// `base`.
pub fn performance_change(base: &SimStats, other: &SimStats, clock_hz: u64) -> f64 {
    schedtask_metrics::pct_change(
        base.app_performance(clock_hz),
        other.app_performance(clock_hz),
    )
}

/// Percentage-point change in a hit rate (paper figures report absolute
/// percentage-point deltas for cache hit rates).
pub fn hit_rate_delta_pp(base: f64, other: f64) -> f64 {
    (other - base) * 100.0
}

// ---------------------------------------------------------------------------
// Forced failures (`repro --force-fail`) and the resilient sweep.
// ---------------------------------------------------------------------------

/// Wraps any scheduler and makes `pick_next` fail with a [`SchedError`]
/// after a fixed number of dispatches. The `repro --force-fail` hook:
/// demonstrates (and tests) that the sweep harness records a failed cell
/// and continues with the rest of the matrix.
pub struct FailAfterScheduler {
    inner: Box<dyn Scheduler>,
    remaining: u64,
}

impl FailAfterScheduler {
    /// Fails the wrapped scheduler's `pick_next` after `after_dispatches`
    /// successful dispatches.
    pub fn new(inner: Box<dyn Scheduler>, after_dispatches: u64) -> Self {
        FailAfterScheduler {
            inner,
            remaining: after_dispatches,
        }
    }
}

impl Scheduler for FailAfterScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut EngineCore) -> Result<(), SchedError> {
        self.inner.init(ctx)
    }

    fn enqueue(
        &mut self,
        ctx: &mut EngineCore,
        sf: SfId,
        origin: Option<CoreId>,
    ) -> Result<(), SchedError> {
        self.inner.enqueue(ctx, sf, origin)
    }

    fn pick_next(
        &mut self,
        ctx: &mut EngineCore,
        core: CoreId,
    ) -> Result<Option<SfId>, SchedError> {
        if self.remaining == 0 {
            return Err(SchedError::Internal(
                "forced failure (--force-fail)".to_string(),
            ));
        }
        self.remaining -= 1;
        self.inner.pick_next(ctx, core)
    }

    fn on_dispatch(&mut self, ctx: &mut EngineCore, core: CoreId, sf: SfId) {
        self.inner.on_dispatch(ctx, core, sf);
    }

    fn on_switch_out(
        &mut self,
        ctx: &mut EngineCore,
        core: CoreId,
        sf: SfId,
        reason: SwitchReason,
    ) {
        self.inner.on_switch_out(ctx, core, sf, reason);
    }

    fn on_complete(&mut self, ctx: &mut EngineCore, sf: SfId) {
        self.inner.on_complete(ctx, sf);
    }

    fn on_block(&mut self, ctx: &mut EngineCore, sf: SfId) {
        self.inner.on_block(ctx, sf);
    }

    fn on_epoch(&mut self, ctx: &mut EngineCore) -> Result<(), SchedError> {
        self.inner.on_epoch(ctx)
    }

    fn queued_sfs(&self, out: &mut Vec<SfId>) -> bool {
        self.inner.queued_sfs(out)
    }

    fn route_interrupt(&mut self, ctx: &mut EngineCore, irq: u64) -> CoreId {
        self.inner.route_interrupt(ctx, irq)
    }

    fn route_completion(&mut self, ctx: &mut EngineCore, irq: u64, waiter: SfId) -> CoreId {
        self.inner.route_completion(ctx, irq, waiter)
    }

    fn overhead_for(&self, ctx: &EngineCore, event: SchedEvent, sf: Option<SfId>) -> u64 {
        self.inner.overhead_for(ctx, event, sf)
    }

    fn overhead_instructions(&self, event: SchedEvent) -> u64 {
        self.inner.overhead_instructions(event)
    }
}

/// Per-cell observability data, collected when a sweep is asked to
/// observe its cells (see [`run_sweep_observed`]).
///
/// Lives next to — never inside — the cell's `SimStats`, so the
/// bit-identical serial/parallel determinism contract on the statistics
/// is untouched. The data itself is deterministic too: counters and
/// spans derive from the cell's own event stream.
#[derive(Debug, Clone)]
pub struct CellObs {
    /// Counter totals over the whole run (warm-up included).
    pub counters: CounterSnapshot,
    /// Hierarchical span rows (run / epoch / per-class SuperFunction).
    pub spans: Vec<SpanRow>,
    /// The cell's JSONL event log, one event per line, each labelled
    /// with `technique/benchmark`.
    pub jsonl: String,
}

/// One (technique, benchmark) cell of a sweep.
#[derive(Debug)]
pub struct CellOutcome {
    /// The technique.
    pub technique: Technique,
    /// The benchmark.
    pub benchmark: BenchmarkKind,
    /// Statistics on success, diagnostics on failure.
    pub result: Result<SimStats, ExperimentError>,
    /// Observability data when the sweep collected it.
    pub obs: Option<CellObs>,
}

/// A full technique × benchmark sweep with per-cell failure isolation.
#[derive(Debug)]
pub struct SweepReport {
    /// Every cell, in (technique-major, benchmark-minor) order.
    pub cells: Vec<CellOutcome>,
}

impl SweepReport {
    /// Number of cells that completed.
    pub fn succeeded(&self) -> usize {
        self.cells.iter().filter(|c| c.result.is_ok()).count()
    }

    /// Number of cells that failed.
    pub fn failed(&self) -> usize {
        self.cells.len() - self.succeeded()
    }

    /// The failed cells' diagnostics.
    pub fn failures(&self) -> impl Iterator<Item = &ExperimentError> {
        self.cells.iter().filter_map(|c| c.result.as_err())
    }

    /// Counter totals summed over every observed cell (zero when the
    /// sweep ran unobserved).
    pub fn counter_rollup(&self) -> CounterSnapshot {
        self.cells
            .iter()
            .filter_map(|c| c.obs.as_ref())
            .fold(CounterSnapshot::zero(), |acc, o| acc.merged(&o.counters))
    }

    /// Counter totals per technique, in first-appearance order (for the
    /// `--profile` summary table).
    pub fn counters_by_technique(&self) -> Vec<(String, CounterSnapshot)> {
        let mut columns: Vec<(String, CounterSnapshot)> = Vec::new();
        for cell in &self.cells {
            let Some(obs) = &cell.obs else { continue };
            let name = cell.technique.name();
            match columns.iter().position(|(n, _)| n == name) {
                Some(i) => columns[i].1 = columns[i].1.merged(&obs.counters),
                None => columns.push((name.to_string(), obs.counters)),
            }
        }
        columns
    }

    /// Span rows per technique, in first-appearance order, with
    /// same-kind rows from a technique's cells merged.
    pub fn spans_by_technique(&self) -> Vec<(String, Vec<SpanRow>)> {
        let mut groups: Vec<(String, Vec<SpanRow>)> = Vec::new();
        for cell in &self.cells {
            let Some(obs) = &cell.obs else { continue };
            let name = cell.technique.name();
            let g = match groups.iter().position(|(n, _)| n == name) {
                Some(i) => i,
                None => {
                    groups.push((name.to_string(), Vec::new()));
                    groups.len() - 1
                }
            };
            let rows = &mut groups[g].1;
            for row in &obs.spans {
                match rows.iter().position(|r| r.kind == row.kind) {
                    Some(i) => {
                        rows[i].count += row.count;
                        rows[i].total_cycles += row.total_cycles;
                        rows[i].self_cycles += row.self_cycles;
                    }
                    None => rows.push(row.clone()),
                }
            }
        }
        groups
    }

    /// Every observed cell's JSONL, concatenated in cell order (each
    /// line already carries its cell label).
    pub fn jsonl(&self) -> String {
        self.cells
            .iter()
            .filter_map(|c| c.obs.as_ref())
            .map(|o| o.jsonl.as_str())
            .collect()
    }
}

/// `Result::as_ref().err()` spelled as a helper so `failures()` can
/// return references with a clean lifetime.
trait AsErr<E> {
    fn as_err(&self) -> Option<&E>;
}

impl<T, E> AsErr<E> for Result<T, E> {
    fn as_err(&self) -> Option<&E> {
        self.as_ref().err()
    }
}

/// Runs every technique over every benchmark, isolating each cell: a
/// typed engine error *or a panic* in one cell is recorded as that
/// cell's diagnosis and the sweep continues. `scale` is the workload
/// scale; `force_fail` optionally breaks one cell on purpose after the
/// given number of dispatches (the `--force-fail` hook).
///
/// Serial convenience wrapper over [`run_sweep_jobs`] with `jobs = 1`.
pub fn run_sweep(
    params: &ExpParams,
    techniques: &[Technique],
    benchmarks: &[BenchmarkKind],
    scale: f64,
    force_fail: Option<(Technique, BenchmarkKind, u64)>,
) -> SweepReport {
    run_sweep_jobs(params, techniques, benchmarks, scale, force_fail, 1)
}

/// [`run_sweep`] on up to `jobs` worker threads.
///
/// Cells are independent simulations: each one builds its own engine
/// from the same [`ExpParams`] (the per-cell seed is a pure function of
/// the parameters, never of scheduling order), so the per-cell
/// `SimStats` are **bit-identical** to a serial sweep — parallelism only
/// changes wall-clock time. Per-cell `catch_unwind` isolation and fault
/// plans carry over unchanged; `jobs <= 1` is exactly the serial sweep.
pub fn run_sweep_jobs(
    params: &ExpParams,
    techniques: &[Technique],
    benchmarks: &[BenchmarkKind],
    scale: f64,
    force_fail: Option<(Technique, BenchmarkKind, u64)>,
    jobs: usize,
) -> SweepReport {
    run_sweep_observed(
        params, techniques, benchmarks, scale, force_fail, jobs, false,
    )
}

/// [`run_sweep_jobs`] that additionally attaches an in-memory aggregator
/// and a JSONL sink to every cell when `collect_obs` is set, filling
/// [`CellOutcome::obs`]. Observation does not perturb the simulation:
/// the per-cell `SimStats` stay bit-identical to an unobserved sweep,
/// and the obs data itself is deterministic (serial and parallel sweeps
/// produce equal counters).
#[allow(clippy::too_many_arguments)]
pub fn run_sweep_observed(
    params: &ExpParams,
    techniques: &[Technique],
    benchmarks: &[BenchmarkKind],
    scale: f64,
    force_fail: Option<(Technique, BenchmarkKind, u64)>,
    jobs: usize,
    collect_obs: bool,
) -> SweepReport {
    let pairs: Vec<(Technique, BenchmarkKind)> = techniques
        .iter()
        .flat_map(|&t| benchmarks.iter().map(move |&b| (t, b)))
        .collect();
    let cells = scoped_pool::scoped_map(&pairs, jobs, |&(technique, benchmark)| {
        let w = WorkloadSpec::single(benchmark, scale);
        let forced = match force_fail {
            Some((t, b, after)) if t == technique && b == benchmark => Some(after),
            _ => None,
        };
        let sinks = collect_obs.then(|| {
            let label = format!("{}/{}", technique.name(), benchmark.name());
            (
                Arc::new(Aggregator::new()),
                Arc::new(JsonlSink::with_label(Vec::new(), Some(label))),
            )
        });
        let result = catch_unwind(AssertUnwindSafe(|| {
            let cfg = params.engine_config(technique);
            let cores = params.engine_cores(technique);
            technique
                .check_cores(cores)
                .map_err(|e| ExperimentError::builder(technique.name(), benchmark.name(), &e))?;
            let mut sched = technique.scheduler(cores);
            if let Some(after) = forced {
                sched = Box::new(FailAfterScheduler::new(sched, after));
            }
            let mut builder = RunBuilder::from_config(cfg)
                .label(technique.name())
                .scheduler(sched)
                .workload(&w);
            if let Some((agg, sink)) = &sinks {
                builder = builder
                    .observer(Arc::clone(agg) as Arc<dyn Observer>)
                    .observer(Arc::clone(sink) as Arc<dyn Observer>);
            }
            builder.run()
        }))
        .unwrap_or_else(|payload| {
            Err(ExperimentError {
                technique: technique.name().to_string(),
                workload: benchmark.name().to_string(),
                cause: FailureCause::Panic(panic_message(payload)),
            })
        });
        // Failed cells keep whatever was observed up to the failure — a
        // partial event log is exactly what a post-mortem wants.
        let obs = sinks.map(|(agg, sink)| CellObs {
            counters: agg.counters(),
            spans: agg.span_rows(),
            jsonl: sink.take(),
        });
        CellOutcome {
            technique,
            benchmark,
            result,
            obs,
        }
    });
    SweepReport { cells }
}

/// Extracts a readable message from a panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_names_and_roster() {
        assert_eq!(Technique::compared().len(), 5);
        assert_eq!(Technique::SchedTask.name(), "SchedTask");
        assert!(Technique::SelectiveOffload.doubles_cores());
        assert!(!Technique::SchedTask.doubles_cores());
        assert_eq!(Technique::parse("slicc"), Some(Technique::Slicc));
        assert_eq!(Technique::parse("baseline"), Some(Technique::Linux));
        assert_eq!(Technique::parse("nope"), None);
    }

    #[test]
    fn technique_names_round_trip_through_parse() {
        for t in Technique::all() {
            assert_eq!(
                Technique::parse(t.name()),
                Some(t),
                "{} does not round-trip",
                t.name()
            );
            assert_eq!(
                Technique::parse(&t.name().to_lowercase()),
                Some(t),
                "{} is not case-insensitive",
                t.name()
            );
        }
        // The baseline also parses under its variant spelling.
        assert_eq!(Technique::parse("linux"), Some(Technique::Linux));
        assert_eq!(Technique::parse("Linux"), Some(Technique::Linux));
    }

    #[test]
    fn run_builder_requires_workload_and_scheduler() {
        let p = ExpParams::quick();
        let err = RunBuilder::new(&p)
            .technique(Technique::Linux)
            .run()
            .expect_err("no workload");
        assert!(matches!(err.cause, FailureCause::Builder(_)));
        let err = RunBuilder::new(&p)
            .benchmark(BenchmarkKind::Find, 1.0)
            .run()
            .expect_err("no scheduler");
        assert!(matches!(err.cause, FailureCause::Builder(_)));
    }

    #[test]
    fn device_specs_parse() {
        use schedtask_workload::DeviceKind;
        let d = parse_device_spec("network").expect("parses");
        assert_eq!(d.kind, DeviceKind::Network);
        assert_eq!(d.period_cycles, 25_000);
        let d = parse_device_spec("disk:40000").expect("parses");
        assert_eq!(d.kind, DeviceKind::Disk);
        assert_eq!(d.period_cycles, 40_000);
        assert!(parse_device_spec("floppy").is_err());
        assert!(parse_device_spec("disk:x").is_err());
    }

    #[test]
    fn engine_config_carries_devices() {
        let p = ExpParams::quick().with_device(parse_device_spec("network:30000").expect("parses"));
        let cfg = p.engine_config(Technique::Linux);
        assert_eq!(cfg.devices.len(), 1);
        assert_eq!(cfg.devices[0].period_cycles, 30_000);
    }

    #[test]
    fn observed_sweep_fills_cells_and_rolls_up() {
        use schedtask_kernel::obs::Counter;
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 120_000;
        p.warmup_instructions = 30_000;
        let report = run_sweep_observed(
            &p,
            &[Technique::Linux, Technique::SchedTask],
            &[BenchmarkKind::Find],
            1.0,
            None,
            1,
            true,
        );
        assert!(report.cells.iter().all(|c| c.obs.is_some()));
        let rollup = report.counter_rollup();
        assert!(rollup.get(Counter::Dispatches) > 0);
        let by_tech = report.counters_by_technique();
        assert_eq!(by_tech.len(), 2);
        let jsonl = report.jsonl();
        assert!(jsonl.contains("\"cell\":\"Baseline/Find\""));
        assert!(jsonl.contains("\"cell\":\"SchedTask/Find\""));
        // An unobserved sweep leaves the cells bare.
        let bare = run_sweep(&p, &[Technique::Linux], &[BenchmarkKind::Find], 1.0, None);
        assert!(bare.cells.iter().all(|c| c.obs.is_none()));
        assert_eq!(bare.counter_rollup(), CounterSnapshot::zero());
    }

    #[test]
    fn engine_config_doubles_cores_for_selective_offload() {
        let p = ExpParams::quick();
        let cfg = p.engine_config(Technique::SelectiveOffload);
        assert_eq!(cfg.system.num_cores, p.cores * 2);
        assert_eq!(cfg.workload_reference_cores, p.cores);
        let cfg = p.engine_config(Technique::Slicc);
        assert_eq!(cfg.system.num_cores, p.cores);
    }

    #[test]
    fn a_machine_over_64_cores_is_a_typed_config_error() {
        use schedtask_kernel::ConfigError;
        // SelectiveOffload doubles 33 cores to 66, past the directory's
        // 64-bit sharer mask.
        let err = RunBuilder::new(&ExpParams::quick().with_cores(33))
            .technique(Technique::SelectiveOffload)
            .benchmark(BenchmarkKind::Apache, 1.0)
            .run()
            .expect_err("66 cores must be rejected");
        assert!(
            matches!(
                err.cause,
                FailureCause::Engine(EngineError::Config(ConfigError::System(_)))
            ),
            "{err}"
        );
    }

    #[test]
    fn one_core_flexsc_is_a_typed_diagnosis() {
        let mut p = ExpParams::quick().with_cores(1);
        p.max_instructions = 60_000;
        p.warmup_instructions = 20_000;
        let err = RunBuilder::new(&p)
            .technique(Technique::FlexSc)
            .benchmark(BenchmarkKind::Find, 1.0)
            .run()
            .expect_err("FlexSC needs two cores");
        assert!(matches!(err.cause, FailureCause::Builder(_)), "{err}");
        // SelectiveOffload doubles one core to two and runs.
        let report = run_sweep(
            &p,
            &[Technique::FlexSc, Technique::SelectiveOffload],
            &[BenchmarkKind::Find],
            1.0,
            None,
        );
        assert_eq!(report.succeeded(), 1);
        let failure = report.failures().next().expect("one failure");
        assert_eq!(
            failure.to_string(),
            "FlexSC on Find: FlexSC needs at least 2 cores, got 1"
        );
    }

    #[test]
    fn engine_config_carries_faults_and_sanitizer() {
        let p = ExpParams::quick()
            .with_faults(FaultPlan::light(11))
            .with_sanitize();
        let cfg = p.engine_config(Technique::Linux);
        assert!(cfg.faults.is_some());
        assert!(cfg.sanitize);
    }

    #[test]
    fn smoke_run_every_technique() {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 150_000;
        p.warmup_instructions = 50_000;
        let w = WorkloadSpec::single(BenchmarkKind::Find, 1.0);
        for t in [Technique::Linux].into_iter().chain(Technique::compared()) {
            let stats = RunBuilder::new(&p)
                .technique(t)
                .workload(&w)
                .run()
                .expect("run succeeds");
            assert!(stats.total_instructions() > 0, "{} did not run", t.name());
        }
    }

    #[test]
    fn derived_metrics() {
        assert!((hit_rate_delta_pp(0.80, 0.85) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_isolates_forced_failure() {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 120_000;
        p.warmup_instructions = 30_000;
        let report = run_sweep(
            &p,
            &[Technique::Linux, Technique::Slicc],
            &[BenchmarkKind::Find],
            1.0,
            Some((Technique::Slicc, BenchmarkKind::Find, 5)),
        );
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.succeeded(), 1);
        assert_eq!(report.failed(), 1);
        let failure = report.failures().next().expect("one failure");
        assert_eq!(failure.technique, "SLICC");
        assert!(
            matches!(
                &failure.cause,
                FailureCause::Engine(EngineError::Scheduler(SchedError::Internal(_)))
            ),
            "unexpected cause: {:?}",
            failure.cause
        );
    }

    #[test]
    fn sweep_with_faults_is_deterministic() {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 120_000;
        p.warmup_instructions = 30_000;
        let p = p.with_faults(FaultPlan::light(9)).with_sanitize();
        let summarize = |r: &SweepReport| -> Vec<(u64, u64, u64)> {
            r.cells
                .iter()
                .map(|c| {
                    let s = c.result.as_ref().expect("cell succeeds");
                    (s.total_instructions(), s.final_cycle, s.faults.total())
                })
                .collect()
        };
        let a = run_sweep(&p, &[Technique::Linux], &[BenchmarkKind::Find], 1.0, None);
        let b = run_sweep(&p, &[Technique::Linux], &[BenchmarkKind::Find], 1.0, None);
        assert_eq!(summarize(&a), summarize(&b));
    }
}
