//! SelectiveOffload (Nellans et al.): static application/OS core split.
//!
//! Table 3's configuration: a 64-core system (twice the baseline's
//! cores); half the cores run application code, the other half run OS
//! code; system calls whose run length exceeds 100 instructions are
//! offloaded to an OS core. The technique has **no load-balancing
//! algorithm** (Section 2.1), which is why its idle fraction sits at
//! ≈50 % in Figure 8b, and it does not specialize OS cores for specific
//! OS tasks, so OS-side i-cache pollution stays high.

use schedtask_kernel::{
    CoreId, CoreQueues, EngineCore, SchedError, Scheduler, SfId, SwitchReason, KERNEL_TID,
};
use schedtask_workload::SfCategory;
use std::collections::HashMap;

/// Offload threshold in instructions (Table 3).
const OFFLOAD_RUN_LENGTH: f64 = 100.0;

/// The SelectiveOffload scheduler. Construct the engine with twice the
/// baseline core count ([`schedtask_kernel::EngineConfig::workload_reference_cores`]
/// kept at the baseline) to reproduce the paper's configuration.
#[derive(Debug)]
pub struct SelectiveOffloadScheduler {
    queues: CoreQueues,
    app_cores: usize,
    /// Thread → dedicated application core (one thread per core at a
    /// time; extra threads share round-robin).
    app_home: HashMap<u64, usize>,
    /// Application core → the single thread that owns it ("executes only
    /// one application thread on each application core", Section 6.1) —
    /// the core waits while its thread is in a system call instead of
    /// multiplexing another thread, which is what pins the technique's
    /// idle fraction near 50 % at every workload scale (Table 4).
    bound: HashMap<usize, u64>,
    /// Thread → static OS core.
    os_home: HashMap<u64, usize>,
    next_app: usize,
    next_os: usize,
}

impl SelectiveOffloadScheduler {
    /// Creates the scheduler for `num_cores` total cores; the first half
    /// are application cores, the rest OS cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores < 2`.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores >= 2, "need at least one app and one OS core");
        SelectiveOffloadScheduler {
            queues: CoreQueues::new(num_cores),
            app_cores: num_cores / 2,
            app_home: HashMap::new(),
            bound: HashMap::new(),
            os_home: HashMap::new(),
            next_app: 0,
            next_os: 0,
        }
    }

    fn app_home_of(&mut self, tid: u64) -> usize {
        match self.app_home.get(&tid) {
            Some(&c) => c,
            None => {
                let c = self.next_app;
                self.next_app = (self.next_app + 1) % self.app_cores;
                self.app_home.insert(tid, c);
                c
            }
        }
    }

    fn os_home_of(&mut self, tid: u64) -> usize {
        let os_count = self.queues.num_cores() - self.app_cores;
        match self.os_home.get(&tid) {
            Some(&c) => c,
            None => {
                let c = self.app_cores + self.next_os;
                self.next_os = (self.next_os + 1) % os_count;
                self.os_home.insert(tid, c);
                c
            }
        }
    }

    /// First OS core (default interrupt target).
    fn first_os_core(&self) -> usize {
        self.app_cores
    }
}

impl Scheduler for SelectiveOffloadScheduler {
    fn name(&self) -> &'static str {
        "SelectiveOffload"
    }

    fn enqueue(
        &mut self,
        ctx: &mut EngineCore,
        sf: SfId,
        origin: Option<CoreId>,
    ) -> Result<(), SchedError> {
        let ty = ctx.sf_type(sf);
        let tid = ctx.sf_tid(sf);
        let core = match ty.category() {
            SfCategory::Application => self.app_home_of(tid.0),
            SfCategory::SystemCall => {
                // Offload only when the expected run length exceeds the
                // threshold; short calls stay on the application core.
                // OS cores are shared and unspecialized — any handler of
                // any thread lands on the least-loaded one, which is why
                // the paper observes "high i-cache pollution in the OS
                // cores" (Section 2.1).
                if self.queues.exec_estimate(ty) > OFFLOAD_RUN_LENGTH {
                    self.os_home_of(tid.0)
                } else if tid != KERNEL_TID {
                    self.app_home_of(tid.0)
                } else {
                    self.first_os_core()
                }
            }
            SfCategory::Interrupt | SfCategory::BottomHalf => {
                // OS work stays on OS cores; bottom halves follow their
                // interrupt's core when it is an OS core.
                match origin {
                    Some(c) if c.0 >= self.app_cores => c.0,
                    _ => self.first_os_core(),
                }
            }
        };
        self.queues.push(ctx, core, sf);
        Ok(())
    }

    fn pick_next(
        &mut self,
        ctx: &mut EngineCore,
        core: CoreId,
    ) -> Result<Option<SfId>, SchedError> {
        // No work stealing whatsoever (the technique's main drawback).
        if core.0 >= self.app_cores {
            // OS cores multiplex all offloaded OS work.
            return Ok(self.queues.pop(ctx, core.0));
        }
        // Application cores serve exactly one thread. Claim one if the
        // core is unowned, then only ever run that thread's work.
        let owner = match self.bound.get(&core.0) {
            Some(&tid) => tid,
            None => {
                let Some(tid) = self
                    .queues
                    .queue(core.0)
                    .iter()
                    .map(|&sf| ctx.sf_tid(sf))
                    .find(|&tid| tid != KERNEL_TID)
                else {
                    return Ok(None);
                };
                self.bound.insert(core.0, tid.0);
                tid.0
            }
        };
        let Some(pos) = self
            .queues
            .queue(core.0)
            .iter()
            .position(|&sf| ctx.sf_tid(sf).0 == owner)
        else {
            return Ok(None);
        };
        Ok(self.queues.remove_at(ctx, core.0, pos))
    }

    fn queued_sfs(&self, out: &mut Vec<SfId>) -> bool {
        self.queues.all_queued(out);
        true
    }

    fn on_switch_out(&mut self, ctx: &mut EngineCore, _core: CoreId, sf: SfId, _r: SwitchReason) {
        self.queues
            .record_exec(ctx.sf_type(sf), ctx.sf_segment_cycles(sf));
    }

    fn route_interrupt(&mut self, ctx: &mut EngineCore, irq: u64) -> CoreId {
        // Interrupts go to OS cores, spread statically.
        let os_count = ctx.num_cores() - self.app_cores;
        CoreId(self.app_cores + (irq as usize) % os_count)
    }

    fn route_completion(&mut self, ctx: &mut EngineCore, irq: u64, waiter: SfId) -> CoreId {
        // Completions stay on OS cores: steer to the waiting thread's
        // static OS core so the follow-up bottom half lands there too.
        let tid = ctx.sf_tid(waiter);
        if tid == KERNEL_TID {
            return self.route_interrupt(ctx, irq);
        }
        CoreId(self.os_home_of(tid.0))
    }
}
