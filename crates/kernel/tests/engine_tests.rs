//! Behavioural tests for the discrete-event engine.

use schedtask_kernel::obs::{ObsEvent, Observer, SfClass};
use schedtask_kernel::{
    CoreId, Engine, EngineConfig, EngineCore, GlobalFifoScheduler, SchedError, Scheduler, SfId,
    SimStats, WorkloadSpec,
};
use schedtask_sim::{PageHeatmap, SystemConfig};
use schedtask_workload::{BenchmarkKind, SfCategory};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

fn small_cfg(cores: usize, max_instr: u64) -> EngineConfig {
    EngineConfig::fast()
        .with_system(SystemConfig::table2().with_cores(cores))
        .with_max_instructions(max_instr)
}

fn run_fifo(kind: BenchmarkKind, cores: usize, max_instr: u64) -> SimStats {
    let mut engine = Engine::new(
        small_cfg(cores, max_instr),
        &WorkloadSpec::single(kind, 1.0),
        Box::new(GlobalFifoScheduler::new()),
    )
    .expect("engine builds");
    engine.run().expect("run succeeds").clone()
}

#[test]
fn engine_runs_and_counts_instructions() {
    let stats = run_fifo(BenchmarkKind::Find, 4, 300_000);
    assert!(stats.total_instructions() >= 300_000);
    assert!(stats.final_cycle > 0);
    assert!(stats.instruction_throughput() > 0.0);
}

#[test]
fn engine_is_deterministic() {
    let a = run_fifo(BenchmarkKind::Apache, 4, 200_000);
    let b = run_fifo(BenchmarkKind::Apache, 4, 200_000);
    assert_eq!(a.total_instructions(), b.total_instructions());
    assert_eq!(a.final_cycle, b.final_cycle);
    assert_eq!(a.thread_migrations, b.thread_migrations);
    assert_eq!(a.ops_per_benchmark, b.ops_per_benchmark);
}

#[test]
fn different_seeds_change_timing() {
    let cfg_a = small_cfg(4, 200_000).with_seed(1);
    let cfg_b = small_cfg(4, 200_000).with_seed(2);
    let w = WorkloadSpec::single(BenchmarkKind::Find, 1.0);
    let a = Engine::new(cfg_a, &w, Box::new(GlobalFifoScheduler::new()))
        .expect("engine builds")
        .run()
        .expect("run succeeds")
        .clone();
    let b = Engine::new(cfg_b, &w, Box::new(GlobalFifoScheduler::new()))
        .expect("engine builds")
        .run()
        .expect("run succeeds")
        .clone();
    assert_ne!(a.final_cycle, b.final_cycle);
}

#[test]
fn all_four_categories_execute() {
    let stats = run_fifo(BenchmarkKind::FileSrv, 4, 800_000);
    assert!(
        stats.instructions.application > 0,
        "no application instructions"
    );
    assert!(stats.instructions.syscall > 0, "no syscall instructions");
    assert!(
        stats.instructions.interrupt > 0,
        "no interrupt instructions"
    );
    assert!(
        stats.instructions.bottom_half > 0,
        "no bottom-half instructions"
    );
    assert!(
        stats.instructions.scheduler > 0,
        "no scheduler instructions"
    );
}

#[test]
fn interrupts_are_delivered_with_latency() {
    let stats = run_fifo(BenchmarkKind::FileSrv, 4, 500_000);
    assert!(stats.interrupts_delivered > 0);
    assert!(stats.mean_interrupt_latency() >= 0.0);
}

#[test]
fn application_operations_complete() {
    let stats = run_fifo(BenchmarkKind::MailSrvIo, 4, 500_000);
    assert!(stats.ops_per_benchmark[0] > 0, "no operations completed");
}

#[test]
fn per_thread_instructions_tracked() {
    let stats = run_fifo(BenchmarkKind::Apache, 4, 400_000);
    let active = stats
        .per_thread_instructions
        .iter()
        .filter(|&&n| n > 0)
        .count();
    assert!(active > 1, "only {active} threads ran");
    let fairness = stats.fairness();
    assert!(fairness > 0.0 && fairness <= 1.0);
}

#[test]
fn epoch_breakups_collected_when_enabled() {
    let mut cfg = small_cfg(4, 600_000);
    cfg.collect_epoch_breakups = true;
    cfg.epoch_cycles = 60_000;
    let mut engine = Engine::new(
        cfg,
        &WorkloadSpec::single(BenchmarkKind::Find, 1.0),
        Box::new(GlobalFifoScheduler::new()),
    )
    .expect("engine builds");
    let stats = engine.run().expect("run succeeds");
    assert!(stats.epoch_breakups.len() >= 3, "need several epochs");
    for b in &stats.epoch_breakups {
        let sum: f64 = b.iter().sum();
        assert!(sum == 0.0 || (sum - 100.0).abs() < 1e-6);
    }

    // The warm-up reset zeroes statistics, not the simulation: the
    // epoch that straddles it counts instructions from both sides, so
    // the breakups agree wherever the warm-up ends.
    let breakups = |warmup_instructions| {
        let mut cfg = small_cfg(4, 400_000);
        cfg.collect_epoch_breakups = true;
        cfg.epoch_cycles = 20_000;
        cfg.warmup_instructions = warmup_instructions;
        let mut engine = Engine::new(
            cfg,
            &WorkloadSpec::single(BenchmarkKind::Find, 1.0),
            Box::new(GlobalFifoScheduler::new()),
        )
        .expect("engine builds");
        engine.run().expect("run succeeds").epoch_breakups.clone()
    };
    let (early, late) = (breakups(50_000), breakups(130_000));
    let common = early.len().min(late.len());
    assert!(common >= 10, "{common} common epochs");
    assert_eq!(early[..common], late[..common]);
}

#[test]
fn memory_stats_are_populated() {
    let stats = run_fifo(BenchmarkKind::Dss, 4, 400_000);
    assert!(stats.mem.icache_app.total() > 0);
    assert!(stats.mem.icache_os.total() > 0);
    assert!(stats.mem.dcache_app.total() > 0);
    assert!(stats.mem.icache_overall_hit_rate() > 0.3);
}

#[test]
fn idle_time_exists_with_single_thread_on_many_cores() {
    // One Find process (1 thread at reference=1 core) on an 8-core
    // machine: most cores must idle heavily.
    let mut cfg = small_cfg(8, 300_000);
    cfg.workload_reference_cores = 1;
    let mut engine = Engine::new(
        cfg,
        &WorkloadSpec::single(BenchmarkKind::Find, 1.0),
        Box::new(GlobalFifoScheduler::new()),
    )
    .expect("engine builds");
    let stats = engine.run().expect("run succeeds");
    assert!(
        stats.mean_idle_fraction() > 0.5,
        "idle = {}",
        stats.mean_idle_fraction()
    );
}

#[test]
fn migrations_happen_under_global_fifo() {
    // A global queue bounces threads between cores freely.
    let stats = run_fifo(BenchmarkKind::Apache, 4, 400_000);
    assert!(stats.thread_migrations > 0);
}

/// A scheduler that arms the Page-heatmap register on every dispatch and
/// harvests it on every switch-out. It carries no channel of its own:
/// the harvest results flow to the test through the engine's `Observer`
/// stream (`HeatmapStored` events rolled up by an [`Aggregator`]),
/// replacing the old bespoke `Arc<Mutex>` probe plumbing.
struct HeatmapArming(GlobalFifoScheduler);

impl Scheduler for HeatmapArming {
    fn name(&self) -> &'static str {
        "HeatmapArming"
    }

    fn enqueue(
        &mut self,
        ctx: &mut EngineCore,
        sf: SfId,
        origin: Option<CoreId>,
    ) -> Result<(), SchedError> {
        self.0.enqueue(ctx, sf, origin)
    }

    fn pick_next(
        &mut self,
        ctx: &mut EngineCore,
        core: CoreId,
    ) -> Result<Option<SfId>, SchedError> {
        self.0.pick_next(ctx, core)
    }

    fn on_dispatch(&mut self, ctx: &mut EngineCore, core: CoreId, _sf: SfId) {
        ctx.heatmap_load(core, PageHeatmap::new(512));
    }

    fn on_switch_out(
        &mut self,
        ctx: &mut EngineCore,
        core: CoreId,
        _sf: SfId,
        _reason: schedtask_kernel::SwitchReason,
    ) {
        let _ = ctx.heatmap_take(core);
    }
}

#[test]
fn heatmap_register_fills_during_execution() {
    use schedtask_kernel::obs::{Aggregator, Counter};
    let agg = std::sync::Arc::new(Aggregator::new());
    let mut engine = Engine::new(
        small_cfg(2, 150_000),
        &WorkloadSpec::single(BenchmarkKind::Find, 1.0),
        Box::new(HeatmapArming(GlobalFifoScheduler::new())),
    )
    .expect("engine builds");
    engine.add_observer(agg.clone());
    engine.run().expect("run succeeds");
    let counters = agg.counters();
    assert!(
        counters.get(Counter::HeatmapStores) > 0,
        "heatmap register never harvested"
    );
    assert!(
        counters.get(Counter::HeatmapBitsSet) > 0,
        "heatmap register never filled"
    );
}

#[test]
fn segment_clock_opens_at_dispatch_and_closes_at_switch_out() {
    use schedtask_kernel::SwitchReason;
    /// Counts the segments that closed with work in them.
    struct SegmentProbe(GlobalFifoScheduler, Arc<Mutex<u64>>);
    impl Scheduler for SegmentProbe {
        fn name(&self) -> &'static str {
            "SegmentProbe"
        }
        fn enqueue(
            &mut self,
            ctx: &mut EngineCore,
            sf: SfId,
            origin: Option<CoreId>,
        ) -> Result<(), SchedError> {
            self.0.enqueue(ctx, sf, origin)
        }
        fn pick_next(
            &mut self,
            ctx: &mut EngineCore,
            core: CoreId,
        ) -> Result<Option<SfId>, SchedError> {
            self.0.pick_next(ctx, core)
        }
        fn on_dispatch(&mut self, ctx: &mut EngineCore, _core: CoreId, sf: SfId) {
            let segment = (ctx.sf_segment_cycles(sf), ctx.sf_segment_instructions(sf));
            assert_eq!(segment, (0, 0), "{sf} resumed inside an old segment");
        }
        fn on_switch_out(
            &mut self,
            ctx: &mut EngineCore,
            _core: CoreId,
            sf: SfId,
            reason: SwitchReason,
        ) {
            // Only an interrupt can end a segment before its first
            // quantum; every other switch-out follows executed work.
            if reason != SwitchReason::Preempted {
                assert!(ctx.sf_segment_cycles(sf) > 0, "{sf}: {reason:?}");
                assert!(ctx.sf_segment_instructions(sf) > 0, "{sf}: {reason:?}");
                *self.1.lock().expect("probe lock") += 1;
            }
        }
    }
    let closed = Arc::new(Mutex::new(0));
    let mut engine = Engine::new(
        small_cfg(2, 150_000),
        &WorkloadSpec::single(BenchmarkKind::MailSrvIo, 1.0),
        Box::new(SegmentProbe(
            GlobalFifoScheduler::new(),
            Arc::clone(&closed),
        )),
    )
    .expect("engine builds");
    engine.run().expect("run succeeds");
    assert!(*closed.lock().expect("probe lock") > 0, "no segment closed");
}

#[test]
fn exact_page_collection_works() {
    use schedtask_kernel::obs::{Aggregator, Counter};
    struct ExactHarvest(GlobalFifoScheduler);
    impl Scheduler for ExactHarvest {
        fn name(&self) -> &'static str {
            "ExactHarvest"
        }
        fn init(&mut self, ctx: &mut EngineCore) -> Result<(), SchedError> {
            ctx.exact_pages_enable(true);
            Ok(())
        }
        fn enqueue(
            &mut self,
            ctx: &mut EngineCore,
            sf: SfId,
            origin: Option<CoreId>,
        ) -> Result<(), SchedError> {
            self.0.enqueue(ctx, sf, origin)
        }
        fn pick_next(
            &mut self,
            ctx: &mut EngineCore,
            core: CoreId,
        ) -> Result<Option<SfId>, SchedError> {
            self.0.pick_next(ctx, core)
        }
        fn on_switch_out(
            &mut self,
            ctx: &mut EngineCore,
            core: CoreId,
            _sf: SfId,
            _reason: schedtask_kernel::SwitchReason,
        ) {
            let _ = ctx.exact_pages_take(core);
        }
    }
    let agg = std::sync::Arc::new(Aggregator::new());
    let mut engine = Engine::new(
        small_cfg(2, 150_000),
        &WorkloadSpec::single(BenchmarkKind::Find, 1.0),
        Box::new(ExactHarvest(GlobalFifoScheduler::new())),
    )
    .expect("engine builds");
    engine.add_observer(agg.clone());
    engine.run().expect("run succeeds");
    assert!(
        agg.counters().get(Counter::ExactPagesCollected) > 0,
        "no exact pages collected"
    );
}

#[test]
fn multiprogrammed_workload_runs_all_parts() {
    let w = WorkloadSpec {
        parts: vec![(BenchmarkKind::Find, 0.5), (BenchmarkKind::MailSrvIo, 0.5)],
    };
    let mut engine = Engine::new(
        small_cfg(4, 400_000),
        &w,
        Box::new(GlobalFifoScheduler::new()),
    )
    .expect("engine builds");
    let stats = engine.run().expect("run succeeds");
    assert_eq!(stats.ops_per_benchmark.len(), 2);
    assert!(stats.ops_per_benchmark.iter().all(|&n| n > 0));
}

#[test]
fn syscall_category_dominates_mailsrv() {
    // MailSrvIO is ~70 % system calls in Figure 4; the synthetic model
    // must put syscalls clearly above application work.
    let stats = run_fifo(BenchmarkKind::MailSrvIo, 4, 600_000);
    let b = stats.instructions.breakup_percent();
    let (app, sys) = (b[0], b[1]);
    assert!(
        sys > app,
        "MailSrvIO should be syscall-dominated: app={app:.1}% sys={sys:.1}%"
    );
    assert!(sys > 50.0, "sys = {sys:.1}%");
}

#[test]
fn dss_is_application_dominated() {
    let stats = run_fifo(BenchmarkKind::Dss, 4, 600_000);
    let b = stats.instructions.breakup_percent();
    assert!(b[0] > 60.0, "DSS application fraction = {:.1}%", b[0]);
}

#[test]
fn filesrv_has_heavy_bottom_halves() {
    let stats = run_fifo(BenchmarkKind::FileSrv, 4, 800_000);
    let b = stats.instructions.breakup_percent();
    assert!(
        b[3] > 15.0,
        "FileSrv bottom-half fraction = {:.1}% (expected heavy)",
        b[3]
    );
}

#[test]
fn category_enum_helper() {
    // Regression guard: breakup order is [app, syscall, irq, bh].
    assert_eq!(SfCategory::all()[0], SfCategory::SystemCall);
}

/// An observer that keeps every structured event it sees.
#[derive(Default)]
struct Collect(Mutex<Vec<ObsEvent>>);

impl Observer for Collect {
    fn event(&self, ev: &ObsEvent) {
        self.0.lock().expect("collector poisoned").push(*ev);
    }
}

/// Runs `engine` with a [`Collect`] observer attached and returns the
/// events it saw.
fn run_collecting(mut engine: Engine) -> Vec<ObsEvent> {
    let events = Arc::new(Collect::default());
    engine.add_observer(Arc::clone(&events) as Arc<dyn Observer>);
    engine.run().expect("run succeeds");
    let seen = std::mem::take(&mut *events.0.lock().expect("collector poisoned"));
    seen
}

#[test]
fn observer_sees_the_sf_lifecycle() {
    let engine = Engine::new(
        small_cfg(2, 150_000),
        &WorkloadSpec::single(BenchmarkKind::Find, 1.0),
        Box::new(GlobalFifoScheduler::new()),
    )
    .expect("engine builds");
    let events = run_collecting(engine);
    let count = |want: fn(&ObsEvent) -> bool| events.iter().filter(|e| want(e)).count();
    let created = count(|e| matches!(e, ObsEvent::SfCreated { .. }));
    let dispatched = count(|e| matches!(e, ObsEvent::Dispatched { .. }));
    let completed = count(|e| matches!(e, ObsEvent::Completed { .. }));
    assert!(created > 0 && dispatched > 0 && completed > 0);
    // Dispatches at least match completions (every completed SF was
    // dispatched at least once).
    assert!(dispatched >= completed);
}

#[test]
fn explicit_branch_modelling_charges_mispredictions() {
    let mut cfg = small_cfg(2, 200_000);
    cfg.system = cfg.system.clone().with_branch_predictor();
    let mut engine = Engine::new(
        cfg,
        &WorkloadSpec::single(BenchmarkKind::Find, 1.0),
        Box::new(GlobalFifoScheduler::new()),
    )
    .expect("engine builds");
    let stats = engine.run().expect("run succeeds");
    assert!(stats.branches > 0, "no branches counted");
    assert!(
        stats.branch_mispredictions > 0,
        "perfect prediction is implausible"
    );
    let acc = stats.branch_accuracy();
    assert!((0.5..1.0).contains(&acc), "accuracy {acc}");
}

#[test]
fn branch_modelling_off_by_default_and_slower_when_on() {
    let base = run_fifo(BenchmarkKind::Find, 2, 200_000);
    assert_eq!(base.branches, 0);
    let mut cfg = small_cfg(2, 200_000);
    cfg.system = cfg.system.clone().with_branch_predictor();
    let mut engine = Engine::new(
        cfg,
        &WorkloadSpec::single(BenchmarkKind::Find, 1.0),
        Box::new(GlobalFifoScheduler::new()),
    )
    .expect("engine builds");
    let with_bp = engine.run().expect("run succeeds");
    assert!(
        with_bp.instruction_throughput() < base.instruction_throughput(),
        "mispredict penalties must cost cycles"
    );
}

#[test]
fn nuca_model_runs_and_costs_versus_flat() {
    let flat = run_fifo(BenchmarkKind::Dss, 4, 300_000);
    let mut cfg = small_cfg(4, 300_000);
    cfg.system = cfg.system.clone().with_nuca();
    let mut engine = Engine::new(
        cfg,
        &WorkloadSpec::single(BenchmarkKind::Dss, 1.0),
        Box::new(GlobalFifoScheduler::new()),
    )
    .expect("engine builds");
    let nuca = engine.run().expect("run succeeds");
    // Both complete; NUCA changes timing but not instruction counts.
    assert_eq!(nuca.total_instructions() > 0, flat.total_instructions() > 0);
    assert_ne!(nuca.final_cycle, flat.final_cycle);
}

/// Routing test: a scheduler that pins every interrupt (including device
/// completions) to core 1 must see all interrupt SuperFunctions dispatch
/// there.
#[test]
fn interrupts_run_on_the_routed_core() {
    use schedtask_kernel::SwitchReason;

    struct PinnedIrq(GlobalFifoScheduler);
    impl Scheduler for PinnedIrq {
        fn name(&self) -> &'static str {
            "PinnedIrq"
        }
        fn enqueue(
            &mut self,
            ctx: &mut EngineCore,
            sf: SfId,
            origin: Option<CoreId>,
        ) -> Result<(), SchedError> {
            self.0.enqueue(ctx, sf, origin)
        }
        fn pick_next(
            &mut self,
            ctx: &mut EngineCore,
            core: CoreId,
        ) -> Result<Option<SfId>, SchedError> {
            self.0.pick_next(ctx, core)
        }
        fn on_switch_out(&mut self, _: &mut EngineCore, _: CoreId, _: SfId, _: SwitchReason) {}
        fn route_interrupt(&mut self, _ctx: &mut EngineCore, _irq: u64) -> CoreId {
            CoreId(1)
        }
        fn route_completion(&mut self, _ctx: &mut EngineCore, _irq: u64, _w: SfId) -> CoreId {
            CoreId(1)
        }
    }

    let engine = Engine::new(
        small_cfg(4, 400_000),
        &WorkloadSpec::single(BenchmarkKind::FileSrv, 1.0),
        Box::new(PinnedIrq(GlobalFifoScheduler::new())),
    )
    .expect("engine builds");
    let events = run_collecting(engine);
    let irq_sfs: HashSet<u64> = events
        .iter()
        .filter_map(|e| match *e {
            ObsEvent::SfCreated {
                sf,
                class: SfClass::Interrupt,
                ..
            } => Some(sf),
            _ => None,
        })
        .collect();
    let mut irq_dispatches = 0;
    for e in &events {
        if let ObsEvent::Dispatched { sf, core, .. } = *e {
            if irq_sfs.contains(&sf) {
                irq_dispatches += 1;
                assert_eq!(core, 1, "interrupt sf{sf} dispatched on core{core}");
            }
        }
    }
    assert!(
        irq_dispatches > 0,
        "no interrupt SuperFunction was dispatched"
    );
}
