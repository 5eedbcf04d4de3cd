//! The machine subsystem: per-core execution state (private clocks,
//! preempt stacks, the hardware Page-heatmap registers of Section 5.4),
//! the [`EngineCore`] context handed to every scheduler hook, and
//! quantum execution through the modelled cache hierarchy.
//!
//! Narrow API to the other subsystems: sibling modules read and update
//! `pub(super)` state through [`EngineCore`], but everything that touches
//! the memory system, the heatmap registers, or the per-quantum
//! instruction walk lives here.

use super::events::HeapEvent;
use super::interrupts::PendingIrq;
use super::{BASE_CPI, GSHARE_ENTRIES, KERNEL_TID, MISPREDICT_PENALTY};
use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::faults::FaultInjector;
use crate::ids::{CoreId, SfId, SfIdAllocator, ThreadId};
use crate::observe::ObserverSet;
use crate::stats::SimStats;
use crate::superfunction::{SfBody, SfState, SuperFunction};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schedtask_obs::{FaultKind, ObsEvent, Observer};
use schedtask_sim::{CodeDomain, GshareBranchPredictor, MemorySystem, PageHeatmap};
use schedtask_workload::{
    BenchmarkInstance, BenchmarkSpec, Footprint, FootprintWalker, PageAllocator, ServiceCatalog,
    SfCategory, SuperFuncType, WalkParams, LINES_PER_PAGE,
};
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

// The quantum loop takes a block's page as the workload lays it out;
// the memory system's TLBs must see the same page.
const _: () = assert!(schedtask_sim::LINES_PER_PAGE == LINES_PER_PAGE);

/// One simulated thread (or single-threaded process instance).
#[derive(Debug)]
pub(super) struct Thread {
    pub(super) benchmark: usize,
    pub(super) app_sf: SfId,
    pub(super) private_data: Arc<Footprint>,
    pub(super) rng: SmallRng,
    pub(super) last_core: Option<CoreId>,
}

/// Per-core execution state.
#[derive(Debug)]
pub(crate) struct CoreState {
    pub(crate) clock: u64,
    pub(crate) current: Option<SfId>,
    pub(crate) preempt_stack: Vec<SfId>,
    pub(crate) pending_irqs: VecDeque<PendingIrq>,
    pub(super) idle: bool,
    /// The hardware Page-heatmap register (Section 5.4), if armed.
    heatmap: Option<PageHeatmap>,
    /// Exact page collection (Figure 11's ideal-ranking baseline).
    exact_pages: Option<HashSet<u64>>,
    sched_walker: FootprintWalker,
    /// Explicit branch predictor, when the machine models branches.
    branch_predictor: Option<GshareBranchPredictor>,
}

/// What ended an execution quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Boundary {
    None,
    AppBurstEnd,
    Blocked(schedtask_workload::DeviceKind),
    Completed,
}

/// The engine's state, passed to every scheduler hook as the context.
///
/// Schedulers use this to query SuperFunction metadata, read the hardware
/// Page-heatmap registers, probe i-caches (SLICC's remote-tag search), and
/// inspect workload structure.
#[derive(Debug)]
pub struct EngineCore {
    pub(super) cfg: EngineConfig,
    pub(super) mem: MemorySystem,
    pub(super) catalog: ServiceCatalog,
    pub(super) instances: Vec<BenchmarkInstance>,
    pub(super) threads: Vec<Thread>,
    pub(crate) sfs: HashMap<SfId, SuperFunction>,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) events: BinaryHeap<HeapEvent>,
    pub(super) event_seq: u64,
    pub(super) id_alloc: SfIdAllocator,
    pub(crate) stats: SimStats,
    pub(super) rng: SmallRng,
    pub(crate) now: u64,
    pub(super) measure_start: u64,
    pub(super) warmed_up: bool,
    epoch_prev: crate::stats::CategoryInstructions,
    pub(super) irq_rate_interval: Vec<u64>,
    pub(super) obs: ObserverSet,
    /// Completed system calls per benchmark since the last whole
    /// operation (operations are counted benchmark-wide: every
    /// `op_syscalls` completed system calls is one application-level
    /// operation).
    pub(super) op_progress: Vec<u32>,
    /// Deterministic fault injector, when the configuration has a
    /// [`crate::faults::FaultPlan`].
    pub(super) injector: Option<FaultInjector>,
    /// Instructions retired by SuperFunctions that completed and were
    /// reaped (they no longer appear in [`EngineCore::sfs`]).
    /// Maintained unconditionally by the completion path; read by the
    /// opt-in sanitizer's instruction-conservation check.
    pub(crate) retired_completed: u64,
}

impl EngineCore {
    // ---- Public query API (for schedulers) ---------------------------

    /// Current simulated time in cycles (the time of the event or core
    /// step being processed).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// SuperFunction type.
    ///
    /// # Panics
    ///
    /// Panics if the SuperFunction does not exist.
    pub fn sf_type(&self, sf: SfId) -> SuperFuncType {
        self.sf(sf).sf_type
    }

    /// SuperFunction parent (`parentSuperFuncPtr`).
    pub fn sf_parent(&self, sf: SfId) -> Option<SfId> {
        self.sf(sf).parent
    }

    /// Owning thread id.
    pub fn sf_tid(&self, sf: SfId) -> ThreadId {
        self.sf(sf).tid
    }

    /// Cycles the SuperFunction has consumed since it was last
    /// dispatched: its current execution segment, or its latest one once
    /// it has been switched out.
    pub fn sf_segment_cycles(&self, sf: SfId) -> u64 {
        let s = self.sf(sf);
        s.cycles_used - s.segment_start.0
    }

    /// Instructions the SuperFunction has retired since it was last
    /// dispatched (see [`EngineCore::sf_segment_cycles`]).
    pub fn sf_segment_instructions(&self, sf: SfId) -> u64 {
        let s = self.sf(sf);
        s.instructions_retired - s.segment_start.1
    }

    /// The physical code pages the SuperFunction executes from (models
    /// hardware that can observe the upcoming fetch stream, as SLICC's
    /// migration unit does).
    pub fn sf_code_pages(&self, sf: SfId) -> Vec<u64> {
        self.sf(sf).walker.code().pages().to_vec()
    }

    /// True if the SuperFunction's thread belongs to a single-threaded
    /// benchmark (Find/Iscp/Oscp) — FlexSC's behaviour differs for these.
    pub fn sf_is_single_threaded_app(&self, sf: SfId) -> bool {
        let tid = self.sf_tid(sf);
        if tid == KERNEL_TID {
            return false;
        }
        let t = &self.threads[tid.0 as usize];
        self.instances[t.benchmark].spec.single_threaded
    }

    /// The core the thread last executed on, if any.
    pub fn thread_last_core(&self, tid: ThreadId) -> Option<CoreId> {
        if tid == KERNEL_TID {
            return None;
        }
        self.threads[tid.0 as usize].last_core
    }

    /// Loads the hardware Page-heatmap register of `core` (the paper's
    /// special load instruction). Subsequent committed instruction pages
    /// set bits in it.
    pub fn heatmap_load(&mut self, core: CoreId, heatmap: PageHeatmap) {
        self.cores[core.0].heatmap = Some(heatmap);
    }

    /// Stores the Page-heatmap register out of `core` (the paper's
    /// special store instruction), disarming collection.
    pub fn heatmap_take(&mut self, core: CoreId) -> Option<PageHeatmap> {
        let taken = self.cores[core.0].heatmap.take();
        if let Some(hm) = &taken {
            let at = self.cores[core.0].clock;
            let popcount = if self.obs.is_enabled() {
                hm.popcount()
            } else {
                0
            };
            self.obs.emit(|| ObsEvent::HeatmapStored {
                at,
                core: core.0 as u32,
                popcount,
            });
        }
        taken
    }

    /// Enables exact page-set collection on every core (used only to
    /// compute Figure 11's ideal ranking; real hardware has no such
    /// facility).
    pub fn exact_pages_enable(&mut self, enabled: bool) {
        for c in &mut self.cores {
            c.exact_pages = if enabled { Some(HashSet::new()) } else { None };
        }
    }

    /// Takes and clears the exact page set collected on `core`.
    pub fn exact_pages_take(&mut self, core: CoreId) -> HashSet<u64> {
        let taken = match self.cores[core.0].exact_pages.as_mut() {
            Some(set) => std::mem::take(set),
            None => HashSet::new(),
        };
        if !taken.is_empty() {
            let at = self.cores[core.0].clock;
            let pages = taken.len() as u64;
            self.obs.emit(|| ObsEvent::ExactPagesStored {
                at,
                core: core.0 as u32,
                pages,
            });
        }
        taken
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Emits a structured observability event to every attached sink.
    ///
    /// The closure runs only when an observer is attached, so
    /// callers may compute event fields inside it without paying
    /// anything on the unobserved fast path.
    pub fn emit_obs(&self, make: impl FnOnce() -> ObsEvent) {
        self.obs.emit(make);
    }

    /// Attaches an observer (normally called through
    /// [`super::Engine::add_observer`] before the run starts).
    pub(crate) fn attach_observer(&mut self, obs: std::sync::Arc<dyn Observer>) {
        self.obs.attach(obs);
    }

    // ---- Internal helpers (shared with sibling subsystems) -----------

    pub(super) fn sf(&self, id: SfId) -> &SuperFunction {
        self.sfs
            .get(&id)
            .unwrap_or_else(|| panic!("unknown SuperFunction {id}"))
    }

    pub(super) fn try_sf(&self, id: SfId) -> Result<&SuperFunction, EngineError> {
        self.sfs
            .get(&id)
            .ok_or(EngineError::UnknownSuperFunction(id))
    }

    pub(super) fn try_sf_mut(&mut self, id: SfId) -> Result<&mut SuperFunction, EngineError> {
        self.sfs
            .get_mut(&id)
            .ok_or(EngineError::UnknownSuperFunction(id))
    }

    pub(super) fn wake_core(&mut self, c: usize) {
        let now = self.now;
        let core = &mut self.cores[c];
        if core.idle {
            if now > core.clock {
                self.stats.core_time[c].idle_cycles += now - core.clock;
                core.clock = now;
            }
            core.idle = false;
        }
    }

    pub(super) fn wake_all_idle(&mut self) {
        for c in 0..self.cores.len() {
            self.wake_core(c);
        }
    }

    pub(super) fn go_idle(&mut self, c: usize) {
        self.cores[c].idle = true;
    }

    /// Executes `n` scheduler-code instructions on core `c` (OS domain),
    /// charging cycles and counting them in the scheduler bucket.
    pub(super) fn charge_sched_overhead(&mut self, c: usize, n: u64) {
        if n == 0 {
            return;
        }
        let core = &mut self.cores[c];
        let mut cycles = 0u64;
        let mut executed = 0u64;
        while executed < n {
            let block = core.sched_walker.next_block();
            cycles += self.mem.fetch_code(c, block.line, CodeDomain::Os);
            if let Some(d) = block.data_ref {
                cycles += self.mem.access_data(c, d.line, d.write, CodeDomain::Os);
            }
            executed += block.instructions as u64;
        }
        cycles += (executed as f64 * BASE_CPI).round() as u64;
        core.clock += cycles;
        self.stats.core_time[c].busy_cycles += cycles;
        self.stats.instructions.scheduler += executed;
    }

    /// Runs one quantum of the core's current SuperFunction. Returns the
    /// boundary reached, if any.
    pub(super) fn execute_quantum(&mut self, c: usize) -> Result<Boundary, EngineError> {
        let sf_id = self.cores[c]
            .current
            .ok_or(EngineError::NoCurrentSf { core: CoreId(c) })?;
        let quantum = super::QUANTUM_INSTRUCTIONS;

        let sf = self
            .sfs
            .get_mut(&sf_id)
            .ok_or(EngineError::UnknownSuperFunction(sf_id))?;
        let domain = if sf.category() == SfCategory::Application {
            CodeDomain::Application
        } else {
            CodeDomain::Os
        };
        let boundary_in = sf.instructions_until_boundary();
        let target = boundary_in.min(quantum).max(1);

        let core = &mut self.cores[c];
        let mut cycles = 0u64;
        let mut executed = 0u64;
        let mut branches = 0u64;
        let mut mispredicts = 0u64;
        while executed < target {
            let block = sf.walker.next_block();
            cycles += self.mem.fetch_code(c, block.line, domain);
            let page = block.line / LINES_PER_PAGE;
            if let Some(hm) = core.heatmap.as_mut() {
                hm.insert_pfn(page);
            }
            if let Some(set) = core.exact_pages.as_mut() {
                set.insert(page);
            }
            if let Some(d) = block.data_ref {
                cycles += self.mem.access_data(c, d.line, d.write, domain);
            }
            if let Some(bp) = core.branch_predictor.as_mut() {
                branches += 1;
                if !bp.predict_and_train(block.line, block.branch_taken) {
                    mispredicts += 1;
                    cycles += MISPREDICT_PENALTY;
                }
            }
            executed += block.instructions as u64;
        }
        self.stats.branches += branches;
        self.stats.branch_mispredictions += mispredicts;
        cycles += (executed as f64 * BASE_CPI).round() as u64;

        core.clock += cycles;
        sf.cycles_used += cycles;
        sf.instructions_retired += executed;
        self.stats.core_time[c].busy_cycles += cycles;
        self.stats.instructions.add(sf.category(), executed);

        // Per-thread accounting for thread-context SuperFunctions.
        if sf.tid != KERNEL_TID
            && matches!(
                sf.category(),
                SfCategory::Application | SfCategory::SystemCall
            )
        {
            let idx = sf.tid.0 as usize;
            if self.stats.per_thread_instructions.len() <= idx {
                self.stats.per_thread_instructions.resize(idx + 1, 0);
            }
            self.stats.per_thread_instructions[idx] += executed;
        }

        // Advance the body and detect boundaries.
        let mut boundary = match &mut sf.body {
            SfBody::Application { burst_left } => {
                *burst_left = burst_left.saturating_sub(executed);
                if *burst_left == 0 {
                    Boundary::AppBurstEnd
                } else {
                    Boundary::None
                }
            }
            SfBody::Syscall { remaining, block } => {
                *remaining = remaining.saturating_sub(executed);
                match block {
                    Some((at, dev)) if *remaining <= *at => {
                        let dev = *dev;
                        *block = None;
                        Boundary::Blocked(dev)
                    }
                    _ => {
                        if *remaining == 0 {
                            Boundary::Completed
                        } else {
                            Boundary::None
                        }
                    }
                }
            }
            SfBody::Interrupt { remaining, .. } | SfBody::BottomHalf { remaining, .. } => {
                *remaining = remaining.saturating_sub(executed);
                if *remaining == 0 {
                    Boundary::Completed
                } else {
                    Boundary::None
                }
            }
        };

        // Fault injection: an SRAM soft error toggles one heatmap bit.
        // The roll is consumed every quantum so the injector's stream
        // stays aligned with fault opportunities across techniques.
        if let Some(bit) = self
            .injector
            .as_mut()
            .and_then(FaultInjector::heatmap_bit_flip)
        {
            if let Some(hm) = self.cores[c].heatmap.as_mut() {
                hm.toggle_bit(bit);
            }
            let at = self.cores[c].clock;
            self.obs.emit(|| ObsEvent::FaultInjected {
                at,
                kind: FaultKind::HeatmapBitFlip,
            });
        }

        // Fault injection: a slow device path delays an OS
        // SuperFunction's completion by a burst of extra instructions.
        if boundary == Boundary::Completed {
            if let Some(extra) = self
                .injector
                .as_mut()
                .and_then(FaultInjector::delay_completion)
            {
                let sf = self
                    .sfs
                    .get_mut(&sf_id)
                    .ok_or(EngineError::UnknownSuperFunction(sf_id))?;
                match &mut sf.body {
                    SfBody::Syscall { remaining, .. }
                    | SfBody::Interrupt { remaining, .. }
                    | SfBody::BottomHalf { remaining, .. } => *remaining += extra,
                    SfBody::Application { .. } => {}
                }
                boundary = Boundary::None;
                let at = self.cores[c].clock;
                self.obs.emit(|| ObsEvent::FaultInjected {
                    at,
                    kind: FaultKind::DelayedCompletion,
                });
            }
        }

        Ok(boundary)
    }

    pub(super) fn snapshot_epoch_breakup(&mut self) {
        let cur = self.stats.instructions;
        let delta = cur.since(&self.epoch_prev);
        self.epoch_prev = cur;
        self.stats.epoch_breakups.push(delta.breakup_percent());
    }

    pub(super) fn reset_for_measurement(&mut self) {
        let num_cores = self.cores.len();
        let num_bench = self.instances.len();
        let breakups = std::mem::take(&mut self.stats.epoch_breakups);
        // Epoch history spans warm-up: the epoch that straddles this
        // reset keeps what it retired before it, as a baseline that
        // much below the zeroed counters.
        let straddled = self.stats.instructions.since(&self.epoch_prev);
        self.stats = SimStats::new(num_cores, num_bench);
        self.stats.epoch_breakups = breakups;
        self.stats.per_thread_instructions = vec![0; self.threads.len()];
        self.mem.reset_stats();
        self.epoch_prev = crate::stats::CategoryInstructions::default().since(&straddled);
        self.measure_start = self.now;
        self.warmed_up = true;
    }

    // ---- Construction -------------------------------------------------

    /// Builds the machine: memory system, cores, benchmark instances,
    /// threads, and their application SuperFunctions. The caller
    /// ([`super::Engine::new`]) has already validated `cfg` and checked
    /// the workload is non-empty.
    pub(super) fn build(cfg: EngineConfig, workload: &super::WorkloadSpec) -> EngineCore {
        let mut alloc = PageAllocator::new();
        let catalog = ServiceCatalog::standard(&mut alloc);
        let num_cores = cfg.system.num_cores;
        let mem = MemorySystem::new(&cfg.system);
        let mut id_alloc = SfIdAllocator::new(num_cores);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);

        // Instantiate benchmarks and threads.
        let mut instances = Vec::new();
        let mut threads: Vec<Thread> = Vec::new();
        let mut sfs = HashMap::new();
        let mut irq_rate_interval = Vec::new();
        for (pi, &(kind, scale)) in workload.parts.iter().enumerate() {
            let inst = BenchmarkInstance::new(BenchmarkSpec::for_kind(kind), &mut alloc);
            let n_threads = inst.spec.threads(cfg.workload_reference_cores, scale);
            // Spontaneous interrupt pacing for this benchmark.
            let interval = match inst.spec.spontaneous_irq {
                Some((_, per_core_per_mcycle)) if per_core_per_mcycle > 0.0 => {
                    (1_000_000.0 / (per_core_per_mcycle * num_cores as f64)) as u64
                }
                _ => 0,
            };
            irq_rate_interval.push(interval.max(1));

            for t in 0..n_threads {
                let tid = ThreadId(threads.len() as u64);
                let home = CoreId(threads.len() % num_cores);
                let private = Arc::new(inst.private_data(&mut alloc, &format!("b{pi}t{t}")));
                let app_params = WalkParams {
                    hot_fraction: inst.spec.app_hot_fraction,
                    ..WalkParams::default()
                };
                let seed = cfg
                    .seed
                    .wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .wrapping_add(tid.0);
                let walker = FootprintWalker::new(
                    Arc::clone(&inst.app_code),
                    Arc::clone(&inst.app_shared_data),
                    Arc::clone(&private),
                    app_params,
                    seed,
                );
                let mut t_rng = SmallRng::seed_from_u64(seed ^ 0xABCD_EF01);
                let first_burst = inst.spec.app_burst.sample(&mut t_rng).max(1);
                let sf_id = id_alloc.next(home);
                let sf = SuperFunction {
                    id: sf_id,
                    sf_type: inst.app_super_func_type,
                    parent: None,
                    tid,
                    state: SfState::Runnable,
                    body: SfBody::Application {
                        burst_left: first_burst,
                    },
                    walker,
                    cycles_used: 0,
                    instructions_retired: 0,
                    segment_start: (0, 0),
                    runnable_since: 0,
                };
                sfs.insert(sf_id, sf);
                threads.push(Thread {
                    benchmark: pi,
                    app_sf: sf_id,
                    private_data: private,
                    rng: t_rng,
                    last_core: None,
                });
            }
            instances.push(inst);
        }

        // Per-core scheduler-code walkers (the scheduler pollutes the
        // i-cache like any other kernel code).
        let sched_region = alloc.region("k:sched", 4);
        let sched_data = alloc.region("kd:sched", 3);
        let sched_code = Arc::new(Footprint::from_regions([&sched_region]));
        let sched_shared = Arc::new(Footprint::from_regions([&sched_data]));
        let cores = (0..num_cores)
            .map(|c| CoreState {
                clock: 0,
                current: None,
                preempt_stack: Vec::new(),
                pending_irqs: VecDeque::new(),
                idle: false,
                heatmap: None,
                exact_pages: None,
                sched_walker: FootprintWalker::new(
                    Arc::clone(&sched_code),
                    Arc::clone(&sched_shared),
                    Arc::new(Footprint::new()),
                    WalkParams::default(),
                    rng.gen::<u64>() ^ c as u64,
                ),
                branch_predictor: cfg
                    .system
                    .branch_predictor
                    .then(|| GshareBranchPredictor::new(GSHARE_ENTRIES)),
            })
            .collect();

        let num_benchmarks = instances.len();
        let mut stats = SimStats::new(num_cores, num_benchmarks);
        stats.per_thread_instructions = vec![0; threads.len()];

        let injector = cfg.faults.clone().map(FaultInjector::new);
        EngineCore {
            cfg,
            mem,
            catalog,
            instances,
            threads,
            sfs,
            cores,
            events: BinaryHeap::new(),
            event_seq: 0,
            id_alloc,
            stats,
            rng,
            now: 0,
            measure_start: 0,
            warmed_up: false,
            epoch_prev: crate::stats::CategoryInstructions::default(),
            irq_rate_interval,
            obs: ObserverSet::default(),
            op_progress: vec![0; num_benchmarks],
            injector,
            retired_completed: 0,
        }
    }
}
