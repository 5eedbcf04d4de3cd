//! Shared experiment infrastructure: technique construction, run
//! execution, derived metrics, and the one cell runner every experiment
//! goes through.
//!
//! An experiment declares a [`Grid`] — variant rows (a technique, a
//! SchedTask configuration, an engine tweak) over workload columns at
//! one [`ExpParams`] — and a [`Runner`] simulates its cells, each
//! distinct cell once per runner, in parallel and in isolation. Every
//! cell ends as `Result<SimStats, ExperimentError>`: engine and
//! scheduler failures and panics surface as structured diagnostics, so
//! a sweep records which cells failed and keeps going.

use schedtask::{EpochRankings, SchedTaskConfig, SchedTaskScheduler};
use schedtask_baselines::{
    DisAggregateOsScheduler, FlexScScheduler, LinuxScheduler, SelectiveOffloadScheduler,
    SliccScheduler,
};
use schedtask_kernel::obs::{Aggregator, CounterSnapshot, JsonlSink, Observer, SpanRow};
use schedtask_kernel::{
    CoreId, Engine, EngineConfig, EngineCore, EngineError, FaultPlan, SchedError, SchedEvent,
    Scheduler, SfId, SimStats, SwitchReason, WorkloadSpec,
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
/// the same shape (see [`Runner`]).
#[derive(Debug, Clone)]
pub struct ExperimentError {
    /// Technique display name.
    pub technique: String,
    /// Workload label (benchmark name or bag name).
    pub workload: String,
    /// What went wrong.
    pub cause: FailureCause,
}

/// The underlying cause of an [`ExperimentError`].
#[derive(Debug, Clone)]
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
        }
    }

    /// Same params with a different baseline core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Same params on `cores` baseline cores, with both instruction
    /// budgets scaled so that each core's share stays the same.
    pub fn scaled_to_cores(&self, cores: usize) -> Self {
        let scale = |budget: u64| budget * cores as u64 / self.cores as u64;
        ExpParams {
            max_instructions: scale(self.max_instructions),
            warmup_instructions: scale(self.warmup_instructions),
            ..self.clone().with_cores(cores)
        }
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

    /// The engine configuration for `technique`.
    pub fn engine_config(&self, technique: Technique) -> EngineConfig {
        let mut cfg = EngineConfig::fast()
            .with_system(self.system.clone().with_cores(self.engine_cores(technique)))
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
}

/// Fluent, single entry point for running one simulation: a
/// [`Technique`] or a custom scheduler, a full engine configuration or
/// one derived from [`ExpParams`], and any number of [`Observer`]s are
/// all accepted uniformly. Experiments go through a [`Runner`], which
/// runs each cell with this builder.
///
/// Resolution rules:
///
/// * The workload is required ([`workload`](Self::workload) or
///   [`benchmark`](Self::benchmark)).
/// * A custom [`scheduler`](Self::scheduler) wins over
///   [`technique`](Self::technique); with neither, `run` fails with a
///   [`FailureCause::Builder`] diagnosis.
/// * The engine configuration comes from exactly one source: the one
///   given to [`from_config`](Self::from_config), else the one derived
///   from the [`ExpParams`] (fault plan and sanitizer included).
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
                        "no engine configuration: use RunBuilder::new or RunBuilder::from_config",
                    )
                })?
                .engine_config(shape),
        };
        // Schedulers allocate per core, so a machine `Engine::new` would
        // refuse must be refused before one is built.
        cfg.validate()
            .map_err(|e| ExperimentError::engine(&label, &wl_label, e.into()))?;
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

fn workload_label(workload: &WorkloadSpec) -> String {
    let mut names: Vec<&str> = workload.parts.iter().map(|(k, _)| k.name()).collect();
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
pub fn performance_change(base: &SimStats, other: &SimStats) -> f64 {
    schedtask_metrics::pct_change(base.app_performance(), other.app_performance())
}

/// Percentage-point change in a hit rate (paper figures report absolute
/// percentage-point deltas for cache hit rates).
pub fn hit_rate_delta_pp(base: f64, other: f64) -> f64 {
    (other - base) * 100.0
}

// ---------------------------------------------------------------------------
// Forced failures (`repro --force-fail`), grids and the cell runner.
// ---------------------------------------------------------------------------

/// Wraps any scheduler and makes `pick_next` fail with a [`SchedError`]
/// after a fixed number of dispatches. The `repro --force-fail` hook
/// ([`Grid::fail_after`]): demonstrates (and tests) that the runner
/// records a failed cell and continues with the rest of the grid.
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

/// Per-cell observability data, collected when a grid is
/// [`observed`](Grid::observed).
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
    /// with `technique/workload`.
    pub jsonl: String,
}

/// What one cell of a grid produced.
#[derive(Debug)]
pub struct CellOutcome {
    /// The technique the cell ran.
    pub technique: Technique,
    /// Statistics on success, diagnostics on failure.
    pub result: Result<SimStats, ExperimentError>,
    /// TAlloc's ranking snapshots, when the variant asked for them
    /// ([`Variant::with_rankings`]); empty otherwise.
    pub rankings: Vec<EpochRankings>,
    /// Observability data when the grid was observed.
    pub obs: Option<CellObs>,
}

/// One row of a [`Grid`]: the scheduler its cells run and any engine
/// setting the row changes.
#[derive(Debug, Clone)]
pub struct Variant {
    technique: Technique,
    schedtask: SchedTaskConfig,
    rankings: bool,
    migration_cost_cycles: Option<u64>,
    epoch_breakups: bool,
}

impl From<Technique> for Variant {
    fn from(technique: Technique) -> Self {
        Variant {
            technique,
            schedtask: SchedTaskConfig::default(),
            rankings: false,
            migration_cost_cycles: None,
            epoch_breakups: false,
        }
    }
}

impl Variant {
    /// SchedTask under `cfg` (its default is the [`Technique::SchedTask`]
    /// row).
    pub fn schedtask(cfg: SchedTaskConfig) -> Self {
        Variant {
            schedtask: cfg,
            ..Technique::SchedTask.into()
        }
    }

    /// Also records TAlloc's Bloom and exact rankings into
    /// [`CellOutcome::rankings`] (Figure 11; SchedTask only).
    pub fn with_rankings(mut self) -> Self {
        self.rankings = true;
        self
    }

    /// Charges `cycles` per thread migration instead of the engine's
    /// default.
    pub fn with_migration_cost(mut self, cycles: u64) -> Self {
        self.migration_cost_cycles = Some(cycles);
        self
    }

    /// Records per-epoch instruction breakups (Section 4.4).
    pub fn with_epoch_breakups(mut self) -> Self {
        self.epoch_breakups = true;
        self
    }
}

/// What an experiment simulates: every variant row over every workload
/// column at one [`ExpParams`]. Linux-relative experiments put the
/// baseline in row 0, which [`SweepReport::vs_baseline`] reads.
#[derive(Debug, Clone)]
pub struct Grid {
    params: ExpParams,
    workloads: Vec<WorkloadSpec>,
    variants: Vec<Variant>,
    observe: bool,
    fail: Option<(usize, usize, u64)>,
}

impl Grid {
    /// `variants` × `workloads` at `params`.
    pub fn new<V: Into<Variant>>(
        params: &ExpParams,
        workloads: impl IntoIterator<Item = WorkloadSpec>,
        variants: impl IntoIterator<Item = V>,
    ) -> Self {
        Grid {
            params: params.clone(),
            workloads: workloads.into_iter().collect(),
            variants: variants.into_iter().map(Into::into).collect(),
            observe: false,
            fail: None,
        }
    }

    /// `variants` × single-benchmark workloads of `kinds` at `scale`.
    pub fn benchmarks<V: Into<Variant>>(
        params: &ExpParams,
        kinds: &[BenchmarkKind],
        scale: f64,
        variants: impl IntoIterator<Item = V>,
    ) -> Self {
        let workloads = kinds.iter().map(|&k| WorkloadSpec::single(k, scale));
        Self::new(params, workloads, variants)
    }

    /// Attaches an in-memory aggregator and a labelled JSONL sink to
    /// every cell, filling [`CellOutcome::obs`]. Observation does not
    /// perturb the simulation, but an observed cell is never served from
    /// an unobserved one: it needs its own event stream.
    pub fn observed(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Breaks cell (`row`, `col`) on purpose: its scheduler fails after
    /// `dispatches` dispatches (the `--force-fail` hook).
    pub fn fail_after(mut self, row: usize, col: usize, dispatches: u64) -> Self {
        self.fail = Some((row, col, dispatches));
        self
    }

    /// Every cell, row-major.
    fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.variants.len() * self.workloads.len());
        for (row, v) in self.variants.iter().enumerate() {
            let mut config = self.params.engine_config(v.technique);
            if let Some(cycles) = v.migration_cost_cycles {
                config.migration_cost_cycles = cycles;
            }
            config.collect_epoch_breakups = v.epoch_breakups;
            for (col, workload) in self.workloads.iter().enumerate() {
                cells.push(Cell {
                    technique: v.technique,
                    rankings: v.rankings,
                    observe: self.observe,
                    fail_after: self
                        .fail
                        .filter(|&(r, c, _)| (r, c) == (row, col))
                        .map(|(_, _, after)| after),
                    workload: workload.clone(),
                    schedtask: v.schedtask.clone(),
                    config: config.clone(),
                });
            }
        }
        cells
    }
}

/// Everything one simulation's outcome depends on. Equal cells give
/// equal outcomes, so a [`Runner`] simulates each distinct cell once.
/// The engine configuration is compared after the variant's tweaks, so
/// a sweep point that equals the default (a 32 KB i-cache, 32 cores at
/// the standard budget, the default migration cost) is the same cell.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    technique: Technique,
    rankings: bool,
    observe: bool,
    fail_after: Option<u64>,
    workload: WorkloadSpec,
    /// SchedTask's configuration; the default for other techniques.
    schedtask: SchedTaskConfig,
    config: EngineConfig,
}

impl Cell {
    /// Simulates the cell, isolating it: a typed engine error *or a
    /// panic* becomes the outcome's diagnosis. Failed cells keep
    /// whatever was observed up to the failure — a partial event log is
    /// exactly what a post-mortem wants.
    fn run(&self) -> CellOutcome {
        let name = self.technique.name();
        let label = workload_label(&self.workload);
        let sinks = self.observe.then(|| {
            (
                Arc::new(Aggregator::new()),
                Arc::new(JsonlSink::with_label(
                    Vec::new(),
                    Some(format!("{name}/{label}")),
                )),
            )
        });
        let mut rankings = None;
        let result = catch_unwind(AssertUnwindSafe(|| {
            // As in `RunBuilder::run`: refuse the machine before a
            // scheduler allocates for it.
            self.config
                .validate()
                .map_err(|e| ExperimentError::engine(name, &label, e.into()))?;
            let cores = self.config.system.num_cores;
            self.technique
                .check_cores(cores)
                .map_err(|e| ExperimentError::builder(name, &label, &e))?;
            let mut sched: Box<dyn Scheduler> = match self.technique {
                Technique::SchedTask if self.rankings => {
                    let (sched, record) =
                        SchedTaskScheduler::with_ranking_observer(cores, self.schedtask.clone());
                    rankings = Some(record);
                    Box::new(sched)
                }
                Technique::SchedTask => {
                    Box::new(SchedTaskScheduler::new(cores, self.schedtask.clone()))
                }
                t => t.scheduler(cores),
            };
            if let Some(after) = self.fail_after {
                sched = Box::new(FailAfterScheduler::new(sched, after));
            }
            let mut builder = RunBuilder::from_config(self.config.clone())
                .label(name)
                .scheduler(sched)
                .workload(&self.workload);
            if let Some((agg, sink)) = &sinks {
                builder = builder
                    .observer(Arc::clone(agg) as Arc<dyn Observer>)
                    .observer(Arc::clone(sink) as Arc<dyn Observer>);
            }
            builder.run()
        }))
        .unwrap_or_else(|payload| {
            Err(ExperimentError {
                technique: name.to_string(),
                workload: label.clone(),
                cause: FailureCause::Panic(panic_message(payload)),
            })
        });
        CellOutcome {
            technique: self.technique,
            result,
            rankings: rankings.map(|r| r.snapshots()).unwrap_or_default(),
            obs: sinks.map(|(agg, sink)| CellObs {
                counters: agg.counters(),
                spans: agg.span_rows(),
                jsonl: sink.take(),
            }),
        }
    }
}

/// Runs grids, simulating each distinct cell once over the runner's
/// lifetime (one `repro` invocation) on up to `jobs` worker threads.
///
/// Cells are independent simulations: each builds its own engine, and
/// its seed is a pure function of its parameters, never of scheduling
/// order, so a cell's `SimStats` are **bit-identical** whichever grid
/// asks first, on however many workers; parallelism only changes
/// wall-clock time. `jobs <= 1` runs cells serially on the caller's
/// thread.
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    done: Vec<(Cell, Arc<CellOutcome>)>,
}

impl Runner {
    /// A runner with no cells simulated yet.
    pub fn new(jobs: usize) -> Self {
        Runner {
            jobs,
            done: Vec::new(),
        }
    }

    /// Simulates the cells of `grid` this runner has not simulated yet,
    /// and returns every cell's outcome.
    pub fn run(&mut self, grid: &Grid) -> SweepReport {
        let cells = grid.cells();
        let mut todo: Vec<Cell> = Vec::new();
        for cell in &cells {
            if self.find(cell).is_none() && !todo.contains(cell) {
                todo.push(cell.clone());
            }
        }
        let outcomes = scoped_pool::scoped_map(&todo, self.jobs, Cell::run);
        self.done
            .extend(todo.into_iter().zip(outcomes.into_iter().map(Arc::new)));
        SweepReport {
            width: grid.workloads.len(),
            cells: cells
                .iter()
                .map(|c| self.find(c).expect("every cell has run"))
                .collect(),
        }
    }

    /// Distinct cells simulated so far.
    pub fn simulated(&self) -> usize {
        self.done.len()
    }

    fn find(&self, cell: &Cell) -> Option<Arc<CellOutcome>> {
        self.done
            .iter()
            .find(|(c, _)| c == cell)
            .map(|(_, outcome)| Arc::clone(outcome))
    }
}

/// One grid's outcomes: variant rows × workload columns.
#[derive(Debug, Clone)]
pub struct SweepReport {
    width: usize,
    /// Every cell, row-major (variant-major, workload-minor).
    pub cells: Vec<Arc<CellOutcome>>,
}

impl SweepReport {
    /// Row `row`'s cells, one per workload.
    pub fn row(&self, row: usize) -> &[Arc<CellOutcome>] {
        &self.cells[row * self.width..(row + 1) * self.width]
    }

    /// The report, or the first failed cell's diagnosis in cell order.
    pub fn complete(self) -> Result<Self, ExperimentError> {
        if let Some(e) = self.failures().next() {
            return Err(e.clone());
        }
        Ok(self)
    }

    /// The statistics of cell (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the cell failed; [`complete`](Self::complete) rules
    /// that out.
    pub fn stats(&self, row: usize, col: usize) -> &SimStats {
        self.row(row)[col]
            .result
            .as_ref()
            .expect("a completed report has no failed cell")
    }

    /// `f(baseline, cell)` for every workload of `row`, the baseline
    /// being row 0's cell on the same workload.
    pub fn vs_baseline<T>(&self, row: usize, f: impl Fn(&SimStats, &SimStats) -> T) -> Vec<T> {
        (0..self.width)
            .map(|col| f(self.stats(0, col), self.stats(row, col)))
            .collect()
    }

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
        self.cells.iter().filter_map(|c| c.result.as_ref().err())
    }

    /// Counter totals summed over every observed cell (zero when the
    /// grid ran unobserved).
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
    fn rescaling_to_cores_keeps_each_cores_budget() {
        let quick = ExpParams::quick();
        assert_eq!(quick.scaled_to_cores(quick.cores), quick);
        let eight = ExpParams::standard().scaled_to_cores(8);
        assert_eq!(eight.cores, 8);
        assert_eq!(eight.max_instructions, 500_000 * 8);
        assert_eq!(eight.warmup_instructions, 125_000 * 8);
    }

    #[test]
    fn observed_sweep_fills_cells_and_rolls_up() {
        use schedtask_kernel::obs::Counter;
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 120_000;
        p.warmup_instructions = 30_000;
        let rows = [Technique::Linux, Technique::SchedTask];
        let grid = Grid::benchmarks(&p, &[BenchmarkKind::Find], 1.0, rows);
        let mut runner = Runner::new(1);
        let report = runner.run(&grid.clone().observed());
        assert!(report.cells.iter().all(|c| c.obs.is_some()));
        let rollup = report.counter_rollup();
        assert!(rollup.get(Counter::Dispatches) > 0);
        let by_tech = report.counters_by_technique();
        assert_eq!(by_tech.len(), 2);
        let jsonl = report.jsonl();
        assert!(jsonl.contains("\"cell\":\"Baseline/Find\""));
        assert!(jsonl.contains("\"cell\":\"SchedTask/Find\""));
        // An unobserved grid leaves the cells bare: it is not served
        // from the observed cells, nor they from it.
        let bare = runner.run(&grid);
        assert!(bare.cells.iter().all(|c| c.obs.is_none()));
        assert_eq!(bare.counter_rollup(), CounterSnapshot::zero());
        assert_eq!(runner.simulated(), 4);
        assert_eq!(
            bare.cells[0].result.as_ref().ok(),
            report.cells[0].result.as_ref().ok()
        );
        assert!(runner.run(&grid.observed()).cells[1].obs.is_some());
        assert_eq!(runner.simulated(), 4);
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
    fn a_machine_too_large_to_allocate_is_refused_before_its_scheduler_is_built() {
        // Building a Linux scheduler for 2^40 cores would ask for
        // terabytes of per-core queues and abort the process.
        let err = RunBuilder::new(&ExpParams::quick().with_cores(1 << 40))
            .technique(Technique::Linux)
            .benchmark(BenchmarkKind::Find, 1.0)
            .run()
            .expect_err("2^40 cores must be rejected");
        assert!(
            err.to_string()
                .contains("num_cores 1099511627776 exceeds 64"),
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
        let rows = [Technique::FlexSc, Technique::SelectiveOffload];
        let report = Runner::new(1).run(&Grid::benchmarks(&p, &[BenchmarkKind::Find], 1.0, rows));
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
        let rows = [Technique::Linux, Technique::Slicc];
        let grid = Grid::benchmarks(&p, &[BenchmarkKind::Find], 1.0, rows);
        let mut runner = Runner::new(1);
        assert_eq!(runner.run(&grid).failed(), 0);
        // The broken cell is its own cell, never served from the sound one.
        let report = runner.run(&grid.fail_after(1, 0, 5));
        assert_eq!(runner.simulated(), 3);
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
    fn equal_cells_are_simulated_once() {
        let mut p = ExpParams::quick();
        p.cores = 2;
        p.max_instructions = 60_000;
        p.warmup_instructions = 20_000;
        let find = [BenchmarkKind::Find];
        let mut runner = Runner::new(2);
        let first = runner.run(&Grid::benchmarks(&p, &find, 2.0, Technique::all()));
        assert_eq!(runner.simulated(), 6);
        // The same cells spelled another way: a default SchedTask
        // configuration, the engine's default migration cost, and an
        // i-cache sweep point equal to the machine's own.
        let l1i = p.system.hierarchy.l1i.size_bytes;
        let same_machine = p.clone().with_system(
            p.system
                .clone()
                .with_hierarchy(p.system.hierarchy.clone().with_icache_size(l1i)),
        );
        let rows = [
            Variant::schedtask(SchedTaskConfig::default()),
            Variant::from(Technique::Linux)
                .with_migration_cost(p.engine_config(Technique::Linux).migration_cost_cycles),
        ];
        let again = runner.run(&Grid::benchmarks(&same_machine, &find, 2.0, rows));
        assert_eq!(runner.simulated(), 6);
        assert!(Arc::ptr_eq(&again.cells[0], &first.cells[5]));
        assert!(Arc::ptr_eq(&again.cells[1], &first.cells[0]));
        // A real change is a new cell.
        let rows = [Variant::from(Technique::Linux).with_migration_cost(0)];
        runner.run(&Grid::benchmarks(&p, &find, 2.0, rows));
        assert_eq!(runner.simulated(), 7);
    }

    #[test]
    fn a_grid_fails_with_its_first_failed_cell() {
        let mut p = ExpParams::quick().with_cores(1);
        p.max_instructions = 60_000;
        p.warmup_instructions = 20_000;
        let rows = [Technique::Linux, Technique::FlexSc];
        let kinds = [BenchmarkKind::Find, BenchmarkKind::Iscp];
        let err = Runner::new(1)
            .run(&Grid::benchmarks(&p, &kinds, 1.0, rows))
            .complete()
            .expect_err("FlexSC needs two cores");
        assert_eq!(
            err.to_string(),
            "FlexSC on Find: FlexSC needs at least 2 cores, got 1"
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
        let grid = Grid::benchmarks(&p, &[BenchmarkKind::Find], 1.0, [Technique::Linux]);
        let a = Runner::new(1).run(&grid);
        let b = Runner::new(1).run(&grid);
        assert_eq!(summarize(&a), summarize(&b));
    }
}
