//! The baseline Linux scheduler model.
//!
//! Section 6.2: "Linux's scheduler tries to allocate the same amount of
//! work to all cores and it migrates a thread from one core to another
//! only if there is a significant imbalance of work across cores." Every
//! SuperFunction of a thread (application code and its system calls)
//! executes on the thread's home core; bottom halves run where their
//! interrupt fired; interrupts are spread across cores statically (as
//! `irqbalance` does).

use schedtask_kernel::obs::StealLevel;
use schedtask_kernel::{
    CoreId, CoreQueues, EngineCore, SchedError, Scheduler, SfId, SwitchReason, KERNEL_TID,
};
use schedtask_workload::SfCategory;
use std::collections::HashMap;

/// Queue-length ratio above which periodic load balancing moves one
/// thread (the "significant imbalance" trigger).
const IMBALANCE_RATIO: f64 = 2.0;

/// The standard Linux scheduler (the paper's baseline).
#[derive(Debug)]
pub struct LinuxScheduler {
    queues: CoreQueues,
    /// Thread → home core.
    home: HashMap<u64, usize>,
    next_home: usize,
}

impl LinuxScheduler {
    /// Creates the baseline scheduler for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        LinuxScheduler {
            queues: CoreQueues::new(num_cores),
            home: HashMap::new(),
            next_home: 0,
        }
    }

    fn home_of(&mut self, tid: u64) -> usize {
        let n = self.queues.num_cores();
        match self.home.get(&tid) {
            Some(&h) => h,
            None => {
                let h = self.next_home;
                self.next_home = (self.next_home + 1) % n;
                self.home.insert(tid, h);
                h
            }
        }
    }
}

impl Scheduler for LinuxScheduler {
    fn name(&self) -> &'static str {
        "Linux"
    }

    fn enqueue(
        &mut self,
        ctx: &mut EngineCore,
        sf: SfId,
        origin: Option<CoreId>,
    ) -> Result<(), SchedError> {
        let tid = ctx.sf_tid(sf);
        let category = ctx.sf_type(sf).category();
        let core = if category == SfCategory::BottomHalf || tid == KERNEL_TID {
            // Softirqs run where the interrupt fired.
            origin.map(|c| c.0).unwrap_or(0)
        } else {
            self.home_of(tid.0)
        };
        self.queues.push(ctx, core, sf);
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
        // CFS idle balancing: pull from the busiest run queue, re-homing
        // the thread (this is the "significant imbalance" migration — an
        // idle core vs. a backlogged one).
        let n = self.queues.num_cores();
        let Some(stolen) = self.queues.steal_any(ctx, core.0, 0..n, StealLevel::Any) else {
            return Ok(None);
        };
        let tid = ctx.sf_tid(stolen);
        if tid != KERNEL_TID {
            self.home.insert(tid.0, core.0);
        }
        Ok(Some(stolen))
    }

    fn queued_sfs(&self, out: &mut Vec<SfId>) -> bool {
        self.queues.all_queued(out);
        true
    }

    fn on_switch_out(&mut self, ctx: &mut EngineCore, _core: CoreId, sf: SfId, _r: SwitchReason) {
        self.queues
            .record_exec(ctx.sf_type(sf), ctx.sf_segment_cycles(sf));
    }

    fn on_epoch(&mut self, ctx: &mut EngineCore) -> Result<(), SchedError> {
        // Periodic load balancing: move one queued thread-context
        // SuperFunction from the most- to the least-loaded core if the
        // imbalance is significant.
        let n = self.queues.num_cores();
        let Some(busiest) = self.queues.most_loaded_nonempty(0..n) else {
            return Ok(());
        };
        let idlest = self.queues.least_loaded(0..n);
        if busiest == idlest {
            return Ok(());
        }
        let heavy = self.queues.waiting(busiest);
        let light = self.queues.waiting(idlest).max(1.0);
        if heavy / light >= IMBALANCE_RATIO {
            if let Some(pos) = self.queues.queue(busiest).iter().position(|&sf| {
                ctx.sf_tid(sf) != KERNEL_TID && ctx.sf_type(sf).category() != SfCategory::BottomHalf
            }) {
                let sf = self.queues.remove_at(ctx, busiest, pos).ok_or_else(|| {
                    SchedError::CorruptQueue {
                        core: CoreId(busiest),
                        detail: format!("balance position {pos} out of range"),
                    }
                })?;
                let tid = ctx.sf_tid(sf);
                self.home.insert(tid.0, idlest);
                self.queues.push(ctx, idlest, sf);
            }
        }
        Ok(())
    }

    fn route_interrupt(&mut self, ctx: &mut EngineCore, irq: u64) -> CoreId {
        // Static spread, as irqbalance configures.
        CoreId((irq as usize) % ctx.num_cores())
    }
}
