//! Disaggregated OS Services (Lee): region-based core specialization.
//!
//! System-call handlers are grouped into programmer-defined *regions*
//! keyed by the kernel data they access — all filesystem calls form one
//! region, all networking calls another, and so on (Section 2.1). Each
//! application is its own region. Regions receive cores in proportion to
//! their execution, and a zero-cost micro-scheduler (Table 3) migrates
//! threads to their region's cores. Like FlexSC, the technique ignores
//! the i-cache pollution of interrupts and bottom halves, and it has no
//! idle-core work stealing — its idle fraction is high at 1X and shrinks
//! as the workload scales (Table 4).

use schedtask_kernel::{
    apportion_cores, CoreId, CoreQueues, EngineCore, SchedError, SchedEvent, Scheduler, SfId,
    SwitchReason,
};
use schedtask_workload::{SfCategory, SuperFuncType};
use std::collections::HashMap;

/// The programmer-defined syscall regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Region {
    Filesystem,
    Network,
    Memory,
    OtherOs,
    /// One region per application superFuncType.
    App(u64),
}

/// Maps a Linux syscall id to its data region — the static table "the OS
/// programmer" writes (Section 2.1).
fn syscall_region(id: u64) -> Region {
    match id {
        // read, write, open, close, creat, unlink, stat, fsync, getdents,
        // pread, epoll_wait
        3 | 4 | 5 | 6 | 8 | 10 | 106 | 118 | 141 | 180 | 256 => Region::Filesystem,
        // socket family + the crypto-read used by scp
        359 | 364 | 369 | 371 | 397 => Region::Network,
        // brk, mmap, fork
        45 | 90 | 2 => Region::Memory,
        _ => Region::OtherOs,
    }
}

fn region_of(ty: SuperFuncType) -> Option<Region> {
    match ty.category() {
        SfCategory::SystemCall => Some(syscall_region(ty.subcategory())),
        SfCategory::Application => Some(Region::App(ty.subcategory())),
        // Interrupts and bottom halves are not managed by the technique.
        SfCategory::Interrupt | SfCategory::BottomHalf => None,
    }
}

/// The Disaggregated OS Services scheduler.
#[derive(Debug)]
pub struct DisAggregateOsScheduler {
    queues: CoreQueues,
    /// Region → allocated cores (rebuilt each epoch).
    allocation: HashMap<Region, Vec<usize>>,
    /// Cycles observed per region this epoch.
    region_cycles: HashMap<Region, u64>,
    spread: usize,
}

impl DisAggregateOsScheduler {
    /// Creates the scheduler for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        DisAggregateOsScheduler {
            queues: CoreQueues::new(num_cores),
            allocation: HashMap::new(),
            region_cycles: HashMap::new(),
            spread: 0,
        }
    }
}

impl Scheduler for DisAggregateOsScheduler {
    fn name(&self) -> &'static str {
        "DisAggregateOS"
    }

    fn enqueue(
        &mut self,
        ctx: &mut EngineCore,
        sf: SfId,
        origin: Option<CoreId>,
    ) -> Result<(), SchedError> {
        let region = region_of(ctx.sf_type(sf));
        let core = match region.and_then(|r| self.allocation.get(&r)) {
            Some(cores) if !cores.is_empty() => self.queues.least_loaded(cores.iter().copied()),
            _ => match origin {
                Some(c) => c.0,
                None => {
                    self.spread = (self.spread + 1) % self.queues.num_cores();
                    self.spread
                }
            },
        };
        self.queues.push(ctx, core, sf);
        Ok(())
    }

    fn pick_next(
        &mut self,
        ctx: &mut EngineCore,
        core: CoreId,
    ) -> Result<Option<SfId>, SchedError> {
        // No idle-core stealing.
        Ok(self.queues.pop(ctx, core.0))
    }

    fn queued_sfs(&self, out: &mut Vec<SfId>) -> bool {
        self.queues.all_queued(out);
        true
    }

    fn on_switch_out(&mut self, ctx: &mut EngineCore, _core: CoreId, sf: SfId, _r: SwitchReason) {
        let seg = ctx.sf_segment_cycles(sf);
        let ty = ctx.sf_type(sf);
        self.queues.record_exec(ty, seg);
        if let Some(r) = region_of(ty) {
            *self.region_cycles.entry(r).or_insert(0) += seg;
        }
    }

    fn on_epoch(&mut self, ctx: &mut EngineCore) -> Result<(), SchedError> {
        // Proportional core allocation per region; an epoch without
        // region cycles keeps the allocation and the zero-cycle entries.
        let mut regions: Vec<(Region, u64)> =
            self.region_cycles.iter().map(|(&r, &c)| (r, c)).collect();
        regions.sort();
        if let Some(runs) = apportion_cores(&regions, ctx.num_cores()) {
            self.allocation = runs.into_iter().collect();
            self.region_cycles.clear();
        }
        Ok(())
    }

    fn route_interrupt(&mut self, ctx: &mut EngineCore, irq: u64) -> CoreId {
        CoreId((irq as usize) % ctx.num_cores())
    }

    fn overhead_instructions(&self, event: SchedEvent) -> u64 {
        match event {
            // Zero-cycle micro-scheduling (Table 3).
            SchedEvent::SfStart | SchedEvent::SfStop => 0,
            SchedEvent::SfPause | SchedEvent::SfWakeup => 0,
            SchedEvent::EpochAlloc => 2_000,
            SchedEvent::FullReschedule => 1_800,
        }
    }
}
