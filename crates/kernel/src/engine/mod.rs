//! The discrete-event simulation engine, decomposed into subsystems.
//!
//! The engine owns the machine ([`schedtask_sim::MemorySystem`] plus
//! per-core state including the hardware Page-heatmap registers), the OS
//! object model (threads, SuperFunctions, devices, the interrupt
//! controller), and global time. The scheduling *policy* is a plug-in
//! ([`crate::Scheduler`]); the engine invokes it at exactly the points
//! where the paper's TMigrate/TAlloc hooks run.
//!
//! Cores advance private clocks; the engine always processes whichever is
//! earliest — the next device/timer/epoch event or the lowest-clock busy
//! core — so execution is deterministic and causally consistent to within
//! one quantum.
//!
//! # Subsystem layering
//!
//! This module is an orchestrator over five subsystems, each behind a
//! narrow internal API. One loop (`driver`) advances the whole machine:
//! each step runs either the earliest busy core or the earliest queued
//! event, and a `match` on the event kind calls that event's handler.
//!
//! * `machine` — per-core execution state (clocks, preempt stacks,
//!   the hardware Page-heatmap registers), the [`EngineCore`] context
//!   passed to every scheduler hook, and quantum execution through the
//!   cache hierarchy;
//! * `events` — the global timer/epoch/device event queue and its
//!   deterministic ordering;
//! * `interrupts` — the device/IRQ/bottom-half model: routing
//!   (`raise_irq`), delivery, pending queues, and the one mint for OS
//!   SuperFunctions (`EngineCore::mint_sf`) with the interrupt and
//!   bottom-half creators;
//! * `dispatch` — the TMigrate/TAlloc hook sites: quantum boundaries,
//!   system-call creation, blocking, completion, and wakeups;
//! * `driver` — the engine loop, event priming, and the per-event
//!   handlers (timer, epoch, external IRQ, device completion), with the
//!   fault-injection wrapper around them.
//!
//! Everything in the pipeline is [`Send`]: an [`Engine`] can be built on
//! one thread and run on another, which is what lets sweep harnesses run
//! independent (technique × benchmark) cells on worker threads while
//! keeping every cell's statistics bit-identical to a serial run.

pub(crate) mod dispatch;
pub(crate) mod driver;
pub(crate) mod events;
pub(crate) mod interrupts;
pub(crate) mod machine;

pub use machine::EngineCore;

pub(crate) use events::EventKind;

use crate::config::EngineConfig;
use crate::error::{ConfigError, EngineError};
use crate::ids::ThreadId;
use crate::sanitizer::SanitizerState;
use crate::scheduler::Scheduler;
use crate::stats::SimStats;
use schedtask_obs::{ObsEvent, Observer};
use schedtask_workload::{BenchmarkKind, BenchmarkSpec, MultiProgrammedWorkload};
use std::sync::Arc;

/// The `tid` used for kernel contexts that no thread created (external
/// interrupts and their bottom halves).
pub const KERNEL_TID: ThreadId = ThreadId(u64::MAX);

/// What benchmarks run, and at which per-benchmark scale (Section 6.3's
/// 1X/2X/... and the appendix's multi-programmed bags).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadSpec {
    /// (benchmark, scale) pairs.
    pub parts: Vec<(BenchmarkKind, f64)>,
}

impl WorkloadSpec {
    /// A single benchmark at the given scale.
    pub fn single(kind: BenchmarkKind, scale: f64) -> Self {
        WorkloadSpec {
            parts: vec![(kind, scale)],
        }
    }

    /// Threads the workload runs on a machine sized for
    /// `reference_cores`, summed over its parts (saturating).
    pub(crate) fn threads(&self, reference_cores: usize) -> usize {
        self.parts
            .iter()
            .map(|&(kind, scale)| BenchmarkSpec::for_kind(kind).threads(reference_cores, scale))
            .fold(0, usize::saturating_add)
    }
}

impl From<&MultiProgrammedWorkload> for WorkloadSpec {
    fn from(w: &MultiProgrammedWorkload) -> Self {
        WorkloadSpec {
            parts: w.parts.clone(),
        }
    }
}

/// The livelock watchdog's budget: fail with [`EngineError::Livelock`]
/// when this many simulated cycles pass without an application or
/// system-call instruction retiring. Generous enough that no legitimate
/// run (device latencies are well under a million cycles) can trip it,
/// tight enough to catch a scheduler that stops dispatching work.
const MAX_STALL_CYCLES: u64 = 500_000_000;

/// Most instructions a core runs between two engine decision points.
const QUANTUM_INSTRUCTIONS: u64 = 1_000;
/// Disk service latency, in cycles.
const DISK_LATENCY_CYCLES: u64 = 20_000;
/// Network service latency, in cycles.
const NETWORK_LATENCY_CYCLES: u64 = 10_000;
/// How long a timer sleep lasts, in cycles.
const TIMER_SLEEP_CYCLES: u64 = 30_000;
/// Per-core timer-tick period, in cycles (Linux's 1 ms tick, scaled
/// down with the epoch).
const TIMER_TICK_CYCLES: u64 = 400_000;

/// Base cycles per instruction for a 4-wide out-of-order core when every
/// access hits in the L1s (Table 2's retire width of 4 gives a floor of
/// 0.25; queuing effects raise the realistic floor).
pub const BASE_CPI: f64 = 0.4;
/// Counters in each core's gshare predictor when the machine models
/// branches ([`schedtask_sim::SystemConfig::branch_predictor`]).
pub const GSHARE_ENTRIES: u32 = 4096;
/// Cycles a branch misprediction costs when the machine models branches.
pub const MISPREDICT_PENALTY: u64 = 15;

/// Most simulated threads one workload may have. The machine is built
/// thread by thread before anything can fail, so [`Engine::new`]
/// refuses a larger workload up front. The largest any experiment
/// builds is FileSrv at 16X on 64 cores, 12,800 threads.
pub(crate) const MAX_THREADS: usize = 100_000;

/// Watchdog bookkeeping for one run.
#[derive(Debug)]
struct WatchState {
    /// Engine steps processed (events plus core quanta).
    steps: u64,
    /// Application plus system-call instructions at the last observed
    /// progress.
    last_instr: u64,
    /// Simulated cycle of the last observed progress.
    last_progress_cycle: u64,
}

/// The simulation engine: an [`EngineCore`] plus the scheduling policy.
pub struct Engine {
    pub(crate) core: EngineCore,
    pub(crate) scheduler: Box<dyn Scheduler>,
    finished: bool,
    pub(crate) sanitizer: Option<SanitizerState>,
    watch: WatchState,
}

// The whole run pipeline is `Send` by contract: a sweep harness moves
// each cell's engine onto a worker thread. Compile-time proof, so a
// non-`Send` field can never sneak back in.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Engine>();
    assert_send::<EngineCore>();
    assert_send::<Box<dyn Scheduler>>();
};

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("scheduler", &self.scheduler.name())
            .field("now", &self.core.now)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds an engine for `workload` under `scheduler`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] when the configuration fails
    /// [`EngineConfig::validate`], or the workload is empty or has more
    /// simulated threads than the engine builds (100,000).
    pub fn new(
        cfg: EngineConfig,
        workload: &WorkloadSpec,
        scheduler: Box<dyn Scheduler>,
    ) -> Result<Self, EngineError> {
        cfg.validate()?;
        if workload.parts.is_empty() {
            return Err(ConfigError::EmptyWorkload.into());
        }
        let threads = workload.threads(cfg.workload_reference_cores);
        if threads > MAX_THREADS {
            return Err(ConfigError::TooManyThreads { threads }.into());
        }
        let sanitize = cfg.sanitize;
        let core = EngineCore::build(cfg, workload);
        let sanitizer = sanitize.then(|| SanitizerState::new(core.num_cores()));
        Ok(Engine {
            core,
            scheduler,
            finished: false,
            sanitizer,
            watch: WatchState {
                steps: 0,
                last_instr: 0,
                last_progress_cycle: 0,
            },
        })
    }

    /// Attaches a structured-observability sink for the upcoming run.
    ///
    /// Observers see the whole run, warm-up included; attach before
    /// calling [`Engine::run`]. Multiple observers fan out in attach
    /// order.
    pub fn add_observer(&mut self, obs: Arc<dyn Observer>) {
        self.core.attach_observer(obs);
    }

    /// Runs the simulation to completion and returns the statistics.
    ///
    /// # Errors
    ///
    /// Returns a typed [`EngineError`] instead of panicking: scheduler
    /// failures, state corruption, a livelock watchdog trip, and — with
    /// [`EngineConfig::sanitize`] — invariant violations. Calling it a
    /// second time returns [`EngineError::AlreadyRan`].
    pub fn run(&mut self) -> Result<&SimStats, EngineError> {
        if self.finished {
            return Err(EngineError::AlreadyRan);
        }
        self.finished = true;

        let start = self.core.now;
        self.core.obs.emit(|| ObsEvent::RunStart { at: start });

        self.scheduler.init(&mut self.core)?;

        // Enqueue every application SuperFunction.
        let app_sfs: Vec<_> = self.core.threads.iter().map(|t| t.app_sf).collect();
        for sf in app_sfs {
            self.scheduler.enqueue(&mut self.core, sf, None)?;
        }

        self.prime();
        self.drive()?;

        self.finalize();
        Ok(&self.core.stats)
    }

    /// Sanitizer, watchdog, warm-up, and stop checks after one progressed
    /// step (an event or a core quantum). Returns `true` when the run
    /// should stop.
    pub(super) fn post_step(&mut self) -> Result<bool, EngineError> {
        // Invariant sanitizer (opt-in): conservation must hold after
        // every step.
        if let Some(state) = self.sanitizer.as_mut() {
            state
                .check(&self.core, self.scheduler.as_ref())
                .map_err(EngineError::InvariantViolation)?;
        }

        self.watchdog_check()?;

        // Warm-up and stop conditions. After the warm-up reset the
        // counters restart, so the stop check must not see the stale
        // pre-reset count.
        let workload_instr = self.core.stats.instructions.total_workload();
        if !self.core.warmed_up {
            if workload_instr >= self.core.cfg.warmup_instructions {
                self.core.reset_for_measurement();
                if let Some(state) = self.sanitizer.as_mut() {
                    state.rebaseline(&self.core);
                }
            }
        } else if workload_instr >= self.core.cfg.max_instructions {
            return Ok(true);
        }
        Ok(false)
    }

    /// Watchdog: converts livelock into a structured error. Progress is
    /// application plus system-call instructions only: timer ticks keep
    /// retiring interrupt instructions even when the scheduler
    /// dispatches nothing.
    fn watchdog_check(&mut self) -> Result<(), EngineError> {
        self.watch.steps += 1;
        let instr = &self.core.stats.instructions;
        let instr_now = instr.application + instr.syscall;
        if instr_now != self.watch.last_instr {
            self.watch.last_instr = instr_now;
            self.watch.last_progress_cycle = self.core.now;
            return Ok(());
        }
        let stalled = self.core.now.saturating_sub(self.watch.last_progress_cycle);
        if stalled > MAX_STALL_CYCLES {
            return Err(EngineError::Livelock {
                at_cycle: self.core.now,
                stalled_cycles: stalled,
                events_processed: self.watch.steps,
            });
        }
        Ok(())
    }

    fn finalize(&mut self) {
        if !self.core.warmed_up {
            // Tiny runs may never hit the warm-up threshold; measure all.
            self.core.measure_start = 0;
        }
        let end = self
            .core
            .cores
            .iter()
            .map(|c| c.clock)
            .max()
            .unwrap_or(self.core.now)
            .max(self.core.now);
        for c in 0..self.core.cores.len() {
            let core = &mut self.core.cores[c];
            if core.idle && end > core.clock {
                self.core.stats.core_time[c].idle_cycles += end - core.clock;
                core.clock = end;
            }
        }
        self.core.obs.emit(|| ObsEvent::RunEnd { at: end });
        self.core.stats.final_cycle = end.saturating_sub(self.core.measure_start).max(1);
        self.core.stats.mem = self.core.mem.stats().clone();
        if let Some(inj) = &self.core.injector {
            self.core.stats.faults = inj.counts();
        }
        if let Some(state) = &self.sanitizer {
            self.core.stats.sanitizer_checks = state.checks;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CoreId, SfId};
    use schedtask_workload::BenchmarkKind;

    #[test]
    fn workload_spec_constructors() {
        let w = WorkloadSpec::single(BenchmarkKind::Find, 2.0);
        assert_eq!(w.parts, vec![(BenchmarkKind::Find, 2.0)]);

        let bag = MultiProgrammedWorkload::by_name("MPW-B").expect("exists");
        let w = WorkloadSpec::from(&bag);
        assert_eq!(w.parts.len(), 2);
    }

    #[test]
    fn empty_workload_rejected() {
        let cfg = EngineConfig::fast();
        let err = Engine::new(
            cfg,
            &WorkloadSpec::default(),
            Box::new(crate::scheduler::GlobalFifoScheduler::new()),
        )
        .expect_err("empty workload must be rejected");
        assert_eq!(
            err,
            EngineError::Config(crate::error::ConfigError::EmptyWorkload)
        );
    }

    #[test]
    fn a_workload_over_the_thread_bound_is_refused_before_it_is_built() {
        // The largest workload any experiment builds fits.
        let largest = WorkloadSpec::single(BenchmarkKind::FileSrv, 16.0);
        assert_eq!(largest.threads(64), 12_800);
        // FileSrv at 1e9X would be 4e11 threads; building them exhausts
        // memory, so the bound must refuse it first.
        let huge = WorkloadSpec::single(BenchmarkKind::FileSrv, 1e9);
        let err = Engine::new(
            EngineConfig::fast(),
            &huge,
            Box::new(crate::scheduler::GlobalFifoScheduler::new()),
        )
        .expect_err("4e11 threads must be refused");
        assert_eq!(
            err,
            EngineError::Config(ConfigError::TooManyThreads {
                threads: 400_000_000_000
            })
        );
        // Parts sum, saturating.
        let mut both = WorkloadSpec::single(BenchmarkKind::Oltp, f64::MAX);
        both.parts.push((BenchmarkKind::Find, f64::MAX));
        assert_eq!(both.threads(32), usize::MAX);
        let mut over = WorkloadSpec::single(BenchmarkKind::Find, 1.0);
        let per_part = over.threads(32);
        let parts = MAX_THREADS / per_part + 1;
        over.parts = vec![(BenchmarkKind::Find, 1.0); parts];
        assert_eq!(over.threads(32), parts * per_part);
        assert!(matches!(
            Engine::new(
                EngineConfig::fast(),
                &over,
                Box::new(crate::scheduler::GlobalFifoScheduler::new()),
            ),
            Err(EngineError::Config(ConfigError::TooManyThreads { .. }))
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = EngineConfig::fast().with_max_instructions(0);
        let err = Engine::new(
            cfg,
            &WorkloadSpec::single(BenchmarkKind::Find, 0.5),
            Box::new(crate::scheduler::GlobalFifoScheduler::new()),
        )
        .expect_err("zero instruction budget must be rejected");
        assert!(matches!(err, EngineError::Config(_)));
    }

    #[test]
    fn kernel_tid_is_reserved() {
        assert_eq!(KERNEL_TID, ThreadId(u64::MAX));
    }

    #[test]
    fn engine_debug_shows_scheduler_name() {
        let cfg =
            EngineConfig::fast().with_system(schedtask_sim::SystemConfig::table2().with_cores(2));
        let engine = Engine::new(
            cfg,
            &WorkloadSpec::single(BenchmarkKind::Find, 0.5),
            Box::new(crate::scheduler::GlobalFifoScheduler::new()),
        )
        .expect("engine builds");
        let dbg = format!("{engine:?}");
        assert!(dbg.contains("GlobalFifo"));
    }

    #[test]
    fn engine_cannot_run_twice() {
        let cfg = EngineConfig::fast()
            .with_system(schedtask_sim::SystemConfig::table2().with_cores(2))
            .with_max_instructions(20_000);
        let mut engine = Engine::new(
            cfg,
            &WorkloadSpec::single(BenchmarkKind::Find, 0.5),
            Box::new(crate::scheduler::GlobalFifoScheduler::new()),
        )
        .expect("engine builds");
        engine.run().expect("first run succeeds");
        assert_eq!(
            engine.run().expect_err("second run rejected"),
            EngineError::AlreadyRan
        );
    }

    fn small_engine(cfg: EngineConfig) -> Engine {
        Engine::new(
            cfg,
            &WorkloadSpec::single(BenchmarkKind::Find, 0.5),
            Box::new(crate::scheduler::GlobalFifoScheduler::new()),
        )
        .expect("engine builds")
    }

    #[test]
    fn engine_runs_to_completion_on_another_thread() {
        // The `Send` contract in action: build here, run on a worker.
        let cfg = EngineConfig::fast()
            .with_system(schedtask_sim::SystemConfig::table2().with_cores(2))
            .with_max_instructions(30_000);
        let mut engine = small_engine(cfg);
        let total = std::thread::spawn(move || {
            engine
                .run()
                .expect("run succeeds off-thread")
                .total_instructions()
        })
        .join()
        .expect("worker thread survives");
        assert!(total > 0);
    }

    #[test]
    fn sanitized_run_is_clean_and_counts_checks() {
        let cfg = EngineConfig::fast()
            .with_system(schedtask_sim::SystemConfig::table2().with_cores(2))
            .with_max_instructions(50_000)
            .with_sanitizer();
        let mut engine = small_engine(cfg);
        let stats = engine.run().expect("sanitized run stays clean");
        assert!(stats.sanitizer_checks > 0, "sanitizer must actually run");
        assert_eq!(stats.faults.total(), 0);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = || {
            let cfg = EngineConfig::fast()
                .with_system(schedtask_sim::SystemConfig::table2().with_cores(2))
                .with_max_instructions(80_000)
                .with_faults(crate::faults::FaultPlan::heavy(7));
            let mut engine = small_engine(cfg);
            let stats = engine
                .run()
                .expect("faulty run degrades gracefully")
                .clone();
            (
                stats.instructions.total_workload(),
                stats.final_cycle,
                stats.faults,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed + plan must give identical stats");
        assert!(a.2.total() > 0, "heavy plan must inject something");
    }

    #[test]
    fn faulty_run_with_sanitizer_keeps_invariants() {
        let cfg = EngineConfig::fast()
            .with_system(schedtask_sim::SystemConfig::table2().with_cores(2))
            .with_max_instructions(50_000)
            .with_faults(crate::faults::FaultPlan::light(3))
            .with_sanitizer();
        let mut engine = small_engine(cfg);
        let stats = engine
            .run()
            .expect("fault injection must not break invariants");
        assert!(stats.sanitizer_checks > 0);
    }

    /// A scheduler that accepts SuperFunctions and never hands one back:
    /// time advances through timer ticks, which retire only interrupt
    /// instructions, the canonical livelock.
    #[derive(Debug)]
    struct BlackHoleScheduler;

    impl crate::scheduler::Scheduler for BlackHoleScheduler {
        fn name(&self) -> &'static str {
            "BlackHole"
        }
        fn enqueue(
            &mut self,
            _ctx: &mut EngineCore,
            _sf: SfId,
            _origin: Option<CoreId>,
        ) -> Result<(), crate::error::SchedError> {
            Ok(())
        }
        fn pick_next(
            &mut self,
            _ctx: &mut EngineCore,
            _core: CoreId,
        ) -> Result<Option<SfId>, crate::error::SchedError> {
            Ok(None)
        }
    }

    #[test]
    fn watchdog_flags_livelock() {
        let cfg = EngineConfig::fast()
            .with_system(schedtask_sim::SystemConfig::table2().with_cores(2))
            .with_max_instructions(4_000_000);
        let mut engine = Engine::new(
            cfg,
            &WorkloadSpec::single(BenchmarkKind::Find, 0.5),
            Box::new(BlackHoleScheduler),
        )
        .expect("engine builds");
        let err = engine
            .run()
            .expect_err("black-hole scheduler must livelock");
        assert!(
            matches!(err, EngineError::Livelock { .. }),
            "expected livelock, got {err}"
        );
    }

    #[test]
    fn scheduler_error_propagates() {
        #[derive(Debug)]
        struct FailingScheduler;
        impl crate::scheduler::Scheduler for FailingScheduler {
            fn name(&self) -> &'static str {
                "Failing"
            }
            fn enqueue(
                &mut self,
                _ctx: &mut EngineCore,
                _sf: SfId,
                _origin: Option<CoreId>,
            ) -> Result<(), crate::error::SchedError> {
                Err(crate::error::SchedError::CorruptQueue {
                    core: CoreId(0),
                    detail: "synthetic".to_string(),
                })
            }
            fn pick_next(
                &mut self,
                _ctx: &mut EngineCore,
                _core: CoreId,
            ) -> Result<Option<SfId>, crate::error::SchedError> {
                Ok(None)
            }
        }
        let cfg =
            EngineConfig::fast().with_system(schedtask_sim::SystemConfig::table2().with_cores(2));
        let mut engine = Engine::new(
            cfg,
            &WorkloadSpec::single(BenchmarkKind::Find, 0.5),
            Box::new(FailingScheduler),
        )
        .expect("engine builds");
        let err = engine.run().expect_err("enqueue failure must propagate");
        assert!(matches!(err, EngineError::Scheduler(_)));
    }
}
