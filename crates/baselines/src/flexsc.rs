//! FlexSC (Soares & Stumm, OSDI 2010): exception-less system calls.
//!
//! User applications and system-call handlers execute on separate cores;
//! the user-level scheduler is modelled at zero cost (Table 3). The
//! model reproduces FlexSC's two signature behaviours from the paper:
//!
//! * **single-threaded applications** yield to the Linux scheduler on
//!   every system call (Section 2.1), charged as a full reschedule —
//!   this is what collapses Find/Iscp/Oscp performance (Figure 7);
//! * **aggressive load balancing** inside each core group keeps idleness
//!   near zero, but migrating the OS threads between syscall cores costs
//!   d-cache locality (Section 6.1) — which emerges here from the
//!   least-loaded placement of every system call.
//!
//! FlexSC specializes cores for *all* system calls together (no
//! per-handler grouping) and is agnostic to interrupts and bottom halves.

use schedtask_kernel::obs::StealLevel;
use schedtask_kernel::{
    CoreId, CoreQueues, EngineCore, SchedError, SchedEvent, Scheduler, SfId, SwitchReason,
    KERNEL_TID,
};
use schedtask_workload::SfCategory;

/// Instructions of Linux-scheduler code a single-threaded application
/// pays per system call (entering and leaving the kernel scheduler).
const SINGLE_THREADED_RESCHEDULE: u64 = 8_000;

/// The FlexSC scheduler.
#[derive(Debug)]
pub struct FlexScScheduler {
    queues: CoreQueues,
    /// Cores `0..syscall_cores` run system calls; the rest run
    /// application threads. Re-proportioned each epoch.
    syscall_cores: usize,
    /// Cycles observed per group in the current epoch (for adaptation).
    syscall_cycles: u64,
    app_cycles: u64,
}

impl FlexScScheduler {
    /// Creates the scheduler for `num_cores` cores, initially split
    /// half-and-half.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores < 2`.
    pub fn new(num_cores: usize) -> Self {
        assert!(
            num_cores >= 2,
            "FlexSC needs separate app and syscall cores"
        );
        FlexScScheduler {
            queues: CoreQueues::new(num_cores),
            syscall_cores: (num_cores / 2).max(1),
            syscall_cycles: 0,
            app_cycles: 0,
        }
    }

    fn group_of(&self, ctx: &EngineCore, sf: SfId) -> Vec<usize> {
        let n = self.queues.num_cores();
        match ctx.sf_type(sf).category() {
            SfCategory::SystemCall => (0..self.syscall_cores).collect(),
            SfCategory::Application => (self.syscall_cores..n).collect(),
            // Interrupt-side work is unmanaged: it stays wherever the
            // interrupt controller put it.
            _ => Vec::new(),
        }
    }
}

impl Scheduler for FlexScScheduler {
    fn name(&self) -> &'static str {
        "FlexSC"
    }

    fn enqueue(
        &mut self,
        ctx: &mut EngineCore,
        sf: SfId,
        origin: Option<CoreId>,
    ) -> Result<(), SchedError> {
        let group = self.group_of(ctx, sf);
        let core = if group.is_empty() {
            origin.map(|c| c.0).unwrap_or(0)
        } else if ctx.sf_type(sf).category() == SfCategory::Application {
            // Application threads stay with their user-level scheduler:
            // affine to a home core inside the app group.
            let tid = ctx.sf_tid(sf).0 as usize;
            group[tid % group.len()]
        } else {
            // System calls go to the least-loaded syscall core — the
            // aggressive balancing that migrates OS threads and erodes
            // their d-cache locality (Section 6.1).
            self.queues.least_loaded(group)
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
        // Steal within the core's own group first, then anywhere —
        // FlexSC's balancing keeps idleness at ~0 % (Figure 8b).
        let n = self.queues.num_cores();
        let own = if core.0 < self.syscall_cores {
            0..self.syscall_cores
        } else {
            self.syscall_cores..n
        };
        Ok(self
            .queues
            .steal_any(ctx, core.0, own, StealLevel::Any)
            .or_else(|| self.queues.steal_any(ctx, core.0, 0..n, StealLevel::Any)))
    }

    fn queued_sfs(&self, out: &mut Vec<SfId>) -> bool {
        self.queues.all_queued(out);
        true
    }

    fn on_switch_out(&mut self, ctx: &mut EngineCore, _core: CoreId, sf: SfId, _r: SwitchReason) {
        let seg = ctx.sf_segment_cycles(sf);
        let ty = ctx.sf_type(sf);
        self.queues.record_exec(ty, seg);
        match ty.category() {
            SfCategory::SystemCall => self.syscall_cycles += seg,
            SfCategory::Application => self.app_cycles += seg,
            _ => {}
        }
    }

    fn on_epoch(&mut self, _ctx: &mut EngineCore) -> Result<(), SchedError> {
        // Re-proportion the core split to the observed work mix.
        let total = self.syscall_cycles + self.app_cycles;
        if total > 0 {
            let n = self.queues.num_cores();
            let share = self.syscall_cycles as f64 / total as f64;
            self.syscall_cores = ((share * n as f64).round() as usize).clamp(1, n - 1);
        }
        self.syscall_cycles = 0;
        self.app_cycles = 0;
        Ok(())
    }

    fn route_interrupt(&mut self, ctx: &mut EngineCore, irq: u64) -> CoreId {
        // Agnostic to interrupts: spread statically over all cores.
        CoreId((irq as usize) % ctx.num_cores())
    }

    fn overhead_for(&self, ctx: &EngineCore, event: SchedEvent, sf: Option<SfId>) -> u64 {
        let base = self.overhead_instructions(event);
        // A single-threaded application cannot overlap its own system
        // call: FlexSC hands execution to the Linux scheduler on every
        // call (Section 2.1 / Section 6.1).
        if event == SchedEvent::SfStart {
            if let Some(sf) = sf {
                if ctx.sf_type(sf).category() == SfCategory::SystemCall
                    && ctx.sf_tid(sf) != KERNEL_TID
                    && ctx.sf_is_single_threaded_app(sf)
                {
                    return base + SINGLE_THREADED_RESCHEDULE;
                }
            }
        }
        base
    }
}
