//! The SchedTask scheduler: TAlloc (Section 5.2) + TMigrate (Section 5.3)
//! on top of the hardware Page-heatmap registers.

use crate::alloc_table::AllocationTable;
use crate::overlap::OverlapTable;
use crate::stats_table::StatsTable;
use crate::stealing::StealPolicy;
use schedtask_kernel::obs::{ObsEvent, StealLevel};
use schedtask_kernel::{
    CoreId, CoreQueues, EngineCore, SchedError, SchedEvent, Scheduler, SfId, SwitchReason,
};
use schedtask_metrics::cosine_similarity;
use schedtask_sim::PageHeatmap;
use schedtask_workload::{SfCategory, SuperFuncType};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Configuration of the SchedTask technique.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedTaskConfig {
    /// Page-heatmap register width in bits (the paper chooses 512;
    /// Figure 11 sweeps 128-2048).
    pub heatmap_bits: u32,
    /// Work-stealing strategy (Figure 9; the paper's default is
    /// *steal similar work also*).
    pub steal_policy: StealPolicy,
    /// TAlloc re-allocates cores only when the cosine similarity of the
    /// last two epochs' execution fractions drops below this threshold
    /// (Section 5.2: 0.98).
    pub realloc_threshold: f64,
    /// Use exact page sets instead of Bloom heatmaps when building the
    /// overlap table (Figure 11's "ideal ranking" configuration;
    /// impossible in real hardware).
    pub use_exact_overlap: bool,
    /// Model the *software rendition* of the Page-heatmap that
    /// Section 3.2 discusses and rejects: without the hardware register,
    /// software must translate every instruction's virtual address to
    /// its PFN through the TLB/page tables. Charged as extra kernel
    /// instructions proportional to each executed segment.
    pub software_rendition: bool,
    /// Ablation of TMigrate's "steal half of them": when true, the
    /// similar-work steal takes only a single SuperFunction, paying the
    /// cold i-cache warm-up once per steal instead of amortizing it.
    pub steal_one_only: bool,
}

impl Default for SchedTaskConfig {
    fn default() -> Self {
        SchedTaskConfig {
            heatmap_bits: PageHeatmap::DEFAULT_BITS,
            steal_policy: StealPolicy::SimilarWorkAlso,
            realloc_threshold: 0.98,
            use_exact_overlap: false,
            software_rendition: false,
            steal_one_only: false,
        }
    }
}

/// Pairwise overlaps recorded at one TAlloc pass: for each type, every
/// same-domain candidate with its Bloom overlap and exact page overlap.
pub type EpochRankings = Vec<(SuperFuncType, Vec<(SuperFuncType, u32, u32)>)>;

/// TAlloc's ranking-validation snapshots (Figure 11): at every TAlloc
/// pass, the Bloom and the exact pairwise overlaps of every type.
///
/// The scheduler pushes these typed rows directly; they are too rich for
/// the generic event stream, so this is not an `Observer` and never
/// attaches to the engine. The scheduler half lives inside an engine
/// that parallel sweeps move onto worker threads, while the experiment
/// half reads the snapshots after `run()` returns — hence the shared
/// `Arc` and the interior `Mutex`.
#[derive(Debug, Default)]
pub struct RankingObserver {
    shared: Mutex<Vec<EpochRankings>>,
}

impl RankingObserver {
    /// A fresh, empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one TAlloc pass's rankings (scheduler side).
    fn record(&self, epoch: EpochRankings) {
        self.shared
            .lock()
            .expect("ranking observer lock")
            .push(epoch);
    }

    /// True if no TAlloc pass recorded rankings yet.
    pub fn is_empty(&self) -> bool {
        self.shared
            .lock()
            .expect("ranking observer lock")
            .is_empty()
    }

    /// Number of recorded TAlloc passes.
    pub fn len(&self) -> usize {
        self.shared.lock().expect("ranking observer lock").len()
    }

    /// A copy of every recorded epoch's rankings (experiment side).
    pub fn snapshots(&self) -> Vec<EpochRankings> {
        self.shared.lock().expect("ranking observer lock").clone()
    }
}

/// The SchedTask scheduler.
///
/// # Examples
///
/// ```
/// use schedtask::{SchedTaskConfig, SchedTaskScheduler};
/// use schedtask_kernel::{Engine, EngineConfig, WorkloadSpec};
/// use schedtask_sim::SystemConfig;
/// use schedtask_workload::BenchmarkKind;
///
/// let cfg = EngineConfig::fast()
///     .with_system(SystemConfig::table2().with_cores(4))
///     .with_max_instructions(200_000);
/// let sched = SchedTaskScheduler::new(4, SchedTaskConfig::default());
/// let mut engine = Engine::new(
///     cfg,
///     &WorkloadSpec::single(BenchmarkKind::Find, 1.0),
///     Box::new(sched),
/// )
/// .expect("valid config");
/// let stats = engine.run().expect("run succeeds");
/// assert!(stats.total_instructions() > 0);
/// ```
#[derive(Debug)]
pub struct SchedTaskScheduler {
    cfg: SchedTaskConfig,
    per_core_stats: Vec<StatsTable>,
    alloc: AllocationTable,
    overlap: OverlapTable,
    /// Per-core queues; TAlloc sets their estimates to its per-epoch
    /// mean execution times.
    queues: CoreQueues,
    prev_fractions: BTreeMap<SuperFuncType, f64>,
    irq_routes: HashMap<u64, CoreId>,
    validation: Option<Arc<RankingObserver>>,
    spread_counter: usize,
}

impl SchedTaskScheduler {
    /// Creates a SchedTask scheduler for `num_cores` cores.
    pub fn new(num_cores: usize, cfg: SchedTaskConfig) -> Self {
        SchedTaskScheduler {
            per_core_stats: (0..num_cores)
                .map(|_| StatsTable::new(cfg.heatmap_bits))
                .collect(),
            alloc: AllocationTable::new(num_cores),
            overlap: OverlapTable::new(),
            queues: CoreQueues::new(num_cores),
            prev_fractions: BTreeMap::new(),
            irq_routes: HashMap::new(),
            validation: None,
            spread_counter: 0,
            cfg,
        }
    }

    /// Creates the scheduler plus the shared record of Figure 11's
    /// ranking validation: every TAlloc then records both the Bloom and
    /// the exact pairwise overlaps, so experiments can compute Kendall's
    /// τ_B.
    pub fn with_ranking_observer(
        num_cores: usize,
        cfg: SchedTaskConfig,
    ) -> (Self, Arc<RankingObserver>) {
        let mut s = Self::new(num_cores, cfg);
        let observer = Arc::new(RankingObserver::new());
        s.validation = Some(Arc::clone(&observer));
        (s, observer)
    }

    /// Exact page sets are harvested for the ideal ranking and for
    /// ranking validation.
    fn tracks_exact_pages(&self) -> bool {
        self.cfg.use_exact_overlap || self.validation.is_some()
    }

    /// Steal-same-work-only: take one SuperFunction whose type is mapped
    /// to `me`, preferring the victim with the maximum waiting time.
    fn steal_same(&mut self, ctx: &EngineCore, me: usize) -> Option<SfId> {
        let my_types = self.alloc.types_on(CoreId(me)).to_vec();
        if my_types.is_empty() {
            return None;
        }
        let mut victims: Vec<usize> = (0..self.queues.num_cores()).filter(|&c| c != me).collect();
        victims.sort_by(|&a, &b| {
            self.queues
                .waiting(b)
                .partial_cmp(&self.queues.waiting(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for v in victims {
            let pos = self
                .queues
                .queue(v)
                .iter()
                .position(|&sf| my_types.contains(&ctx.sf_type(sf)));
            if let Some(pos) = pos {
                if let Some(sf) = self.queues.remove_at(ctx, v, pos) {
                    let at = ctx.now();
                    ctx.emit_obs(|| ObsEvent::Stolen {
                        at,
                        sf: sf.0,
                        thief: me as u32,
                        victim: v as u32,
                        level: StealLevel::SameWork,
                    });
                    return Some(sf);
                }
            }
        }
        None
    }

    /// Steal-similar-work-also: walk the combined overlap ranking of the
    /// local types in decreasing overlap order; at the first type found
    /// in a remote queue, steal half of that core's matching
    /// SuperFunctions (to amortize the initial cold misses) and run the
    /// first.
    fn steal_similar(&mut self, ctx: &EngineCore, me: usize) -> Option<SfId> {
        let my_types = self.alloc.types_on(CoreId(me)).to_vec();
        let ranking = self.overlap.combined_ranking(&my_types);
        for (cand, _ov) in ranking {
            for v in 0..self.queues.num_cores() {
                if v == me {
                    continue;
                }
                let positions: Vec<usize> = self
                    .queues
                    .queue(v)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &sf)| ctx.sf_type(sf) == cand)
                    .map(|(i, _)| i)
                    .collect();
                if positions.is_empty() {
                    continue;
                }
                // Steal half (at least one), from the back of the list so
                // earlier indices stay valid.
                let take = if self.cfg.steal_one_only {
                    1
                } else {
                    positions.len().div_ceil(2)
                };
                let mut stolen = Vec::with_capacity(take);
                for &pos in positions.iter().rev().take(take) {
                    stolen.extend(self.queues.remove_at(ctx, v, pos));
                }
                if stolen.is_empty() {
                    continue;
                }
                stolen.reverse();
                let at = ctx.now();
                for &sf in &stolen {
                    ctx.emit_obs(|| ObsEvent::Stolen {
                        at,
                        sf: sf.0,
                        thief: me as u32,
                        victim: v as u32,
                        level: StealLevel::SimilarWork,
                    });
                }
                let first = stolen.remove(0);
                for sf in stolen {
                    self.queues.insert(ctx, me, sf);
                }
                return Some(first);
            }
        }
        None
    }

    /// The TAlloc pass (Section 5.2).
    fn talloc(&mut self, ctx: &mut EngineCore) {
        let num_cores = ctx.num_cores();

        // 1. Aggregate per-core stats tables into the system-wide table.
        let mut system = StatsTable::new(self.cfg.heatmap_bits);
        for t in &self.per_core_stats {
            system.merge(t);
        }
        if system.is_empty() {
            return;
        }

        // 2. Update mean execution times (for waiting-time estimates).
        for (ty, e) in system.iter() {
            self.queues.set_estimate(*ty, e.mean_exec_cycles());
        }

        // 3. Re-allocate cores only if the breakup changed enough.
        let fractions: BTreeMap<SuperFuncType, f64> = system.exec_fractions().into_iter().collect();
        let keys: Vec<SuperFuncType> = fractions
            .keys()
            .chain(self.prev_fractions.keys())
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let cur: Vec<f64> = keys
            .iter()
            .map(|k| *fractions.get(k).unwrap_or(&0.0))
            .collect();
        let prev: Vec<f64> = keys
            .iter()
            .map(|k| *self.prev_fractions.get(k).unwrap_or(&0.0))
            .collect();
        let similarity = cosine_similarity(&cur, &prev);
        if self.alloc.is_empty() || similarity < self.cfg.realloc_threshold {
            self.alloc = AllocationTable::from_stats(&system, num_cores);
            let at = ctx.now();
            ctx.emit_obs(|| ObsEvent::EpochRealloc { at });

            // Program the interrupt controller: IRQ x served by the first
            // core allocated to its type; unrouted IRQs go to core 0.
            self.irq_routes.clear();
            for (ty, cores) in self.alloc.iter() {
                if ty.category() == SfCategory::Interrupt {
                    if let Some(&first) = cores.first() {
                        self.irq_routes.insert(ty.subcategory(), first);
                    }
                }
            }
        }
        self.prev_fractions = fractions;

        // 4. Rebuild the overlap table from this epoch's heatmaps.
        self.overlap = OverlapTable::from_stats(&system, self.cfg.use_exact_overlap);

        // 5. Ranking validation for Figure 11.
        if let Some(obs) = &self.validation {
            let mut epoch: EpochRankings = Vec::new();
            for (&a, sa) in system.iter() {
                let mut row = Vec::new();
                for (&b, sb) in system.iter() {
                    if a == b || a.is_os() != b.is_os() {
                        continue;
                    }
                    let bloom = sa.heatmap.overlap(&sb.heatmap);
                    let exact = sa.exact_pages.intersection(&sb.exact_pages).count() as u32;
                    row.push((b, bloom, exact));
                }
                if !row.is_empty() {
                    epoch.push((a, row));
                }
            }
            if !epoch.is_empty() {
                obs.record(epoch);
            }
        }

        // 6. Fresh epoch: clear the per-core tables.
        for t in &mut self.per_core_stats {
            t.clear();
        }
    }
}

impl Scheduler for SchedTaskScheduler {
    fn name(&self) -> &'static str {
        "SchedTask"
    }

    fn init(&mut self, ctx: &mut EngineCore) -> Result<(), SchedError> {
        if self.tracks_exact_pages() {
            ctx.exact_pages_enable(true);
        }
        Ok(())
    }

    fn enqueue(
        &mut self,
        ctx: &mut EngineCore,
        sf: SfId,
        origin: Option<CoreId>,
    ) -> Result<(), SchedError> {
        let ty = ctx.sf_type(sf);
        let cores = self.alloc.cores_for(ty);
        let target = if cores.is_empty() {
            // No allocation-table entry: run on the local core
            // (Section 5.3), spreading initial threads round-robin.
            match origin {
                Some(c) => c.0,
                None => {
                    self.spread_counter = (self.spread_counter + 1) % self.queues.num_cores();
                    self.spread_counter
                }
            }
        } else {
            // The allocated core with the least waiting time; among
            // near-equally loaded cores, prefer the thread's last core to
            // preserve its private-data locality.
            let min_core = self.queues.least_loaded(cores.iter().map(|c| c.0));
            match ctx.thread_last_core(ctx.sf_tid(sf)) {
                Some(last)
                    if cores.contains(&last)
                        && self.queues.waiting(last.0)
                            <= self.queues.waiting(min_core) + self.queues.exec_estimate(ty) =>
                {
                    last.0
                }
                _ => min_core,
            }
        };
        // Bottom halves are softirqs and run ahead of ordinary work;
        // everything else is FCFS (which is what gives SchedTask its
        // 0.99 Jain fairness, Section 6.1).
        self.queues.push(ctx, target, sf);
        Ok(())
    }

    fn pick_next(
        &mut self,
        ctx: &mut EngineCore,
        core: CoreId,
    ) -> Result<Option<SfId>, SchedError> {
        if let Some(sf) = self.queues.pop(ctx, core.0) {
            return Ok(Some(sf));
        }
        let max_waiting = |queues: &mut CoreQueues| {
            queues.steal_any(ctx, core.0, 0..queues.num_cores(), StealLevel::MaxWaiting)
        };
        Ok(match self.cfg.steal_policy {
            StealPolicy::Nothing => None,
            StealPolicy::SameWorkOnly => self.steal_same(ctx, core.0),
            StealPolicy::SimilarWorkAlso => self
                .steal_same(ctx, core.0)
                .or_else(|| self.steal_similar(ctx, core.0))
                // Last resort: take anything from the most backlogged
                // core rather than idling. Similarity is exhausted at
                // this point (the overlap table never spans the OS ↔
                // application divide), and the paper's measured idleness
                // for the default strategy is ≈0 %.
                .or_else(|| max_waiting(&mut self.queues)),
            StealPolicy::MaxWaitingTime => max_waiting(&mut self.queues),
        })
    }

    fn queued_sfs(&self, out: &mut Vec<SfId>) -> bool {
        self.queues.all_queued(out);
        true
    }

    fn on_dispatch(&mut self, ctx: &mut EngineCore, core: CoreId, _sf: SfId) {
        // startStatsCollection: clear and arm the Page-heatmap register.
        ctx.heatmap_load(core, PageHeatmap::new(self.cfg.heatmap_bits));
    }

    fn on_switch_out(
        &mut self,
        ctx: &mut EngineCore,
        core: CoreId,
        sf: SfId,
        _reason: SwitchReason,
    ) {
        // stopStatsCollection: account execution time, OR the register
        // into this core's stats-table entry.
        let segment = ctx.sf_segment_cycles(sf);
        let heatmap = ctx.heatmap_take(core);
        let exact = if self.tracks_exact_pages() {
            Some(ctx.exact_pages_take(core))
        } else {
            None
        };
        let ty = ctx.sf_type(sf);
        self.per_core_stats[core.0].record_execution(ty, segment, heatmap.as_ref(), exact.as_ref());
    }

    fn on_epoch(&mut self, ctx: &mut EngineCore) -> Result<(), SchedError> {
        self.talloc(ctx);
        Ok(())
    }

    fn route_interrupt(&mut self, _ctx: &mut EngineCore, irq: u64) -> CoreId {
        self.irq_routes.get(&irq).copied().unwrap_or(CoreId(0))
    }

    fn route_completion(&mut self, ctx: &mut EngineCore, irq: u64, waiter: SfId) -> CoreId {
        // TAlloc programs the interrupt controller (Section 5.2); until
        // it has, completions steer to the submitting thread's core.
        if let Some(&core) = self.irq_routes.get(&irq) {
            return core;
        }
        let tid = ctx.sf_tid(waiter);
        ctx.thread_last_core(tid).unwrap_or(CoreId(0))
    }

    fn overhead_for(&self, ctx: &EngineCore, event: SchedEvent, sf: Option<SfId>) -> u64 {
        let base = self.overhead_instructions(event);
        if !self.cfg.software_rendition {
            return base;
        }
        // Software rendition (Section 3.2): mapping each instruction's
        // virtual address to its PFN costs extra kernel work — modelled
        // as ~12 % of the just-executed segment, charged when the
        // segment ends.
        let extra = match (event, sf) {
            (SchedEvent::SfStop | SchedEvent::SfPause, Some(id)) => {
                ctx.sf_segment_instructions(id) / 8
            }
            _ => 0,
        };
        base + extra
    }

    fn overhead_instructions(&self, event: SchedEvent) -> u64 {
        match event {
            // TMigrate: ≈3.2 % of execution (Section 6.1).
            SchedEvent::SfStart | SchedEvent::SfStop => 60,
            SchedEvent::SfPause | SchedEvent::SfWakeup => 40,
            // TAlloc: executed once per epoch on core 0, <0.01 %.
            SchedEvent::EpochAlloc => 5_000,
            SchedEvent::FullReschedule => 1_800,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedtask_kernel::obs::{Aggregator, Counter};
    use schedtask_kernel::{Engine, EngineConfig, WorkloadSpec};
    use schedtask_sim::SystemConfig;
    use schedtask_workload::BenchmarkKind;

    fn run(policy: StealPolicy, kind: BenchmarkKind, cores: usize) -> schedtask_kernel::SimStats {
        let cfg = EngineConfig::fast()
            .with_system(SystemConfig::table2().with_cores(cores))
            .with_max_instructions(600_000);
        let sched = SchedTaskScheduler::new(
            cores,
            SchedTaskConfig {
                steal_policy: policy,
                ..SchedTaskConfig::default()
            },
        );
        let mut engine = Engine::new(cfg, &WorkloadSpec::single(kind, 2.0), Box::new(sched))
            .expect("engine builds");
        engine.run().expect("run succeeds").clone()
    }

    #[test]
    fn schedtask_runs_all_benchmark_categories() {
        let stats = run(StealPolicy::SimilarWorkAlso, BenchmarkKind::FileSrv, 4);
        assert!(stats.instructions.application > 0);
        assert!(stats.instructions.syscall > 0);
        assert!(stats.instructions.bottom_half > 0);
    }

    #[test]
    fn stealing_reduces_idleness() {
        let none = run(StealPolicy::Nothing, BenchmarkKind::FileSrv, 4);
        let similar = run(StealPolicy::SimilarWorkAlso, BenchmarkKind::FileSrv, 4);
        assert!(
            similar.mean_idle_fraction() <= none.mean_idle_fraction() + 1e-9,
            "similar {} vs none {}",
            similar.mean_idle_fraction(),
            none.mean_idle_fraction()
        );
    }

    #[test]
    fn epochs_and_allocations_happen() {
        let cores = 4;
        let (sched, observer) =
            SchedTaskScheduler::with_ranking_observer(cores, SchedTaskConfig::default());
        let cfg = EngineConfig::fast()
            .with_system(SystemConfig::table2().with_cores(cores))
            .with_max_instructions(800_000);
        let mut engine = Engine::new(
            cfg,
            &WorkloadSpec::single(BenchmarkKind::Apache, 1.0),
            Box::new(sched),
        )
        .expect("engine builds");
        let agg = Arc::new(Aggregator::new());
        engine.add_observer(agg.clone());
        engine.run().expect("run succeeds");
        let counters = agg.counters();
        assert!(counters.get(Counter::EpochsRun) > 0, "no epochs ran");
        assert!(
            counters.get(Counter::EpochReallocations) > 0,
            "TAlloc never allocated cores"
        );
        assert!(!observer.is_empty(), "no TAlloc ranking snapshots recorded");
    }

    #[test]
    fn the_realloc_trigger_fires_once_at_threshold_zero_and_every_epoch_above_one() {
        // Cosine similarity lies in [0, 1]: below a 0.0 threshold only
        // the empty first table re-allocates, and below 1.01 every
        // epoch does (Section 5.2's trigger at its two extremes).
        let cores = 4;
        let reallocs_and_epochs = |kind: BenchmarkKind, realloc_threshold: f64| {
            let sched = SchedTaskScheduler::new(
                cores,
                SchedTaskConfig {
                    realloc_threshold,
                    ..SchedTaskConfig::default()
                },
            );
            let cfg = EngineConfig::fast()
                .with_system(SystemConfig::table2().with_cores(cores))
                .with_max_instructions(800_000);
            let mut engine = Engine::new(cfg, &WorkloadSpec::single(kind, 2.0), Box::new(sched))
                .expect("engine builds");
            let agg = Arc::new(Aggregator::new());
            engine.add_observer(agg.clone());
            engine.run().expect("run succeeds");
            let counters = agg.counters();
            (
                counters.get(Counter::EpochReallocations),
                counters.get(Counter::EpochsRun),
            )
        };
        for kind in [
            BenchmarkKind::MailSrvIo,
            BenchmarkKind::Apache,
            BenchmarkKind::Find,
        ] {
            assert_eq!(reallocs_and_epochs(kind, 0.0).0, 1, "{kind:?}");
            let (reallocs, epochs) = reallocs_and_epochs(kind, 1.01);
            assert!(epochs > 1, "{kind:?} ran {epochs} epochs");
            assert_eq!(reallocs, epochs, "{kind:?}");
        }
    }

    #[test]
    fn ranking_validation_contains_bloom_and_exact() {
        let cores = 4;
        let (sched, observer) =
            SchedTaskScheduler::with_ranking_observer(cores, SchedTaskConfig::default());
        let cfg = EngineConfig::fast()
            .with_system(SystemConfig::table2().with_cores(cores))
            .with_max_instructions(600_000);
        let mut engine = Engine::new(
            cfg,
            &WorkloadSpec::single(BenchmarkKind::Find, 1.0),
            Box::new(sched),
        )
        .expect("engine builds");
        engine.run().expect("run succeeds");
        let snaps = observer.snapshots();
        assert!(!snaps.is_empty());
        let any_overlap = snaps
            .iter()
            .flat_map(|e| e.iter())
            .flat_map(|(_, row)| row.iter())
            .any(|&(_, bloom, exact)| bloom > 0 && exact > 0);
        assert!(any_overlap, "expected overlapping fs syscalls");
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = SchedTaskConfig::default();
        assert_eq!(cfg.heatmap_bits, 512);
        assert_eq!(cfg.realloc_threshold, 0.98);
        assert_eq!(cfg.steal_policy, StealPolicy::SimilarWorkAlso);
        assert!(!cfg.use_exact_overlap);
    }
}
