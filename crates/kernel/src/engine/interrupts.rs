//! The interrupts subsystem: the device/IRQ/bottom-half model and the
//! one mint for OS SuperFunctions.
//!
//! A routed interrupt ([`raise_irq`]) is delivered to a core's pending
//! queue ([`PendingIrq`]) and serviced at the next core step by
//! preempting whatever runs. Every OS SuperFunction — system call,
//! interrupt or bottom half — is minted by [`EngineCore::mint_sf`] from
//! its [`ServiceSpec`] in the OS service catalog.

use super::{EngineCore, KERNEL_TID};
use crate::error::EngineError;
use crate::ids::{CoreId, SfId, ThreadId};
use crate::observe::class_of;
use crate::scheduler::{SchedEvent, Scheduler, SwitchReason};
use crate::superfunction::{SfBody, SfState, SuperFunction};
use schedtask_obs::ObsEvent;
use schedtask_workload::{
    Footprint, FootprintWalker, ServiceCatalog, ServiceSpec, SfCategory, WalkParams,
};
use std::sync::Arc;

/// An interrupt delivered to a core but not yet serviced.
#[derive(Debug, Clone)]
pub(crate) struct PendingIrq {
    pub(super) name: &'static str,
    pub(crate) waiter: Option<SfId>,
    pub(super) raised_at: u64,
}

/// Looks up the `category` handler called `name`, a typed error if the
/// catalog has none.
pub(super) fn service<'a>(
    catalog: &'a ServiceCatalog,
    category: SfCategory,
    name: &str,
) -> Result<&'a ServiceSpec, EngineError> {
    catalog
        .get(category, name)
        .ok_or_else(|| EngineError::UnknownService {
            category,
            name: name.to_string(),
        })
}

impl EngineCore {
    /// Mints a runnable OS SuperFunction of `spec` on core `c`: allocates
    /// its id on the core, seeds its walker with `cfg.seed ^ id·salt`
    /// (one salt per category), inserts it and announces it.
    pub(super) fn mint_sf(
        &mut self,
        c: usize,
        spec: ServiceSpec,
        private_data: Arc<Footprint>,
        parent: Option<SfId>,
        tid: ThreadId,
        body: SfBody,
    ) -> SfId {
        let sf_type = spec.sf_type;
        let salt: u64 = match sf_type.category() {
            SfCategory::SystemCall => 0x9E37_79B9_7F4A_7C15,
            SfCategory::Interrupt => 0xD134_2543_DE82_EF95,
            // Application SuperFunctions are built with the engine.
            SfCategory::BottomHalf | SfCategory::Application => 0xA076_1D64_78BD_642F,
        };
        let id = self.id_alloc.next(CoreId(c));
        let walker = FootprintWalker::new(
            spec.code,
            spec.shared_data,
            private_data,
            WalkParams::default(),
            self.cfg.seed ^ id.0.wrapping_mul(salt),
        );
        let at = self.cores[c].clock;
        let sf = SuperFunction {
            id,
            sf_type,
            parent,
            tid,
            state: SfState::Runnable,
            body,
            walker,
            cycles_used: 0,
            instructions_retired: 0,
            segment_start: (0, 0),
            runnable_since: at,
        };
        self.sfs.insert(id, sf);
        self.obs.emit(|| ObsEvent::SfCreated {
            at,
            sf: id.0,
            sf_type: sf_type.raw(),
            class: class_of(sf_type.category()),
            tid: tid.0,
        });
        id
    }

    /// The thread an interrupt or bottom half runs for: the waiting
    /// SuperFunction's, or the kernel's.
    fn waiter_tid(&self, waiter: Option<SfId>) -> Result<ThreadId, EngineError> {
        Ok(match waiter {
            Some(w) => self.try_sf(w)?.tid,
            None => KERNEL_TID,
        })
    }

    /// Creates an interrupt SuperFunction on core `c`; its length comes
    /// from the engine RNG.
    pub(super) fn create_interrupt_sf(
        &mut self,
        c: usize,
        irq_name: &'static str,
        waiter: Option<SfId>,
    ) -> Result<SfId, EngineError> {
        let spec = service(&self.catalog, SfCategory::Interrupt, irq_name)?.clone();
        let body = SfBody::Interrupt {
            remaining: spec.len.sample(&mut self.rng).max(1),
            bottom_half: spec.bottom_half,
            waiter,
        };
        let tid = self.waiter_tid(waiter)?;
        Ok(self.mint_sf(c, spec, Arc::new(Footprint::new()), None, tid, body))
    }

    /// Creates a bottom-half SuperFunction on core `c`; its length comes
    /// from the engine RNG.
    pub(super) fn create_bottom_half_sf(
        &mut self,
        c: usize,
        name: &'static str,
        wake: Option<SfId>,
    ) -> Result<SfId, EngineError> {
        let spec = service(&self.catalog, SfCategory::BottomHalf, name)?.clone();
        let body = SfBody::BottomHalf {
            remaining: spec.len.sample(&mut self.rng).max(1),
            wake,
        };
        let tid = self.waiter_tid(wake)?;
        Ok(self.mint_sf(c, spec, Arc::new(Footprint::new()), None, tid, body))
    }
}

/// Routes interrupt line `irq` (catalog handler `name`) to a core and
/// delivers it there: a device completion carrying `waiter` goes
/// through the scheduler's `route_completion`, any other interrupt
/// through `route_interrupt`.
pub(super) fn raise_irq(
    ctx: &mut EngineCore,
    sched: &mut dyn Scheduler,
    name: &'static str,
    irq: u64,
    waiter: Option<SfId>,
) {
    let at = ctx.now;
    let target = match waiter {
        Some(w) => sched.route_completion(ctx, irq, w),
        None => sched.route_interrupt(ctx, irq),
    };
    ctx.obs.emit(|| ObsEvent::IrqRouted {
        at,
        irq,
        core: target.0 as u32,
    });
    deliver_irq(ctx, target.0, name, waiter, at);
}

/// Queues an interrupt on core `c` and wakes the core if idle.
///
/// Free function (not an `Engine` method) so event handlers and device
/// models can deliver interrupts through a split-borrowed
/// [`EngineCore`].
pub(super) fn deliver_irq(
    core: &mut EngineCore,
    c: usize,
    name: &'static str,
    waiter: Option<SfId>,
    raised_at: u64,
) {
    core.cores[c].pending_irqs.push_back(PendingIrq {
        name,
        waiter,
        raised_at,
    });
    core.wake_core(c);
}

/// Services the head of core `c`'s pending-interrupt queue, if any:
/// preempts the current SuperFunction, mints the interrupt
/// SuperFunction, and dispatches it. Returns `true` when an
/// interrupt was serviced (the core step is then complete).
pub(super) fn service_pending_irq(
    core: &mut EngineCore,
    sched: &mut dyn Scheduler,
    c: usize,
) -> Result<bool, EngineError> {
    let Some(pending) = core.cores[c].pending_irqs.pop_front() else {
        return Ok(false);
    };
    if let Some(cur) = core.cores[c].current.take() {
        core.span_exit_current(c);
        let at = core.cores[c].clock;
        core.obs.emit(|| ObsEvent::Preempted {
            at,
            sf: cur.0,
            core: c as u32,
        });
        core.sfs
            .get_mut(&cur)
            .ok_or(EngineError::UnknownSuperFunction(cur))?
            .state = SfState::Preempted;
        core.cores[c].preempt_stack.push(cur);
        sched.on_switch_out(core, CoreId(c), cur, SwitchReason::Preempted);
    }
    let clock = core.cores[c].clock;
    core.stats.interrupts_delivered += 1;
    core.stats.interrupt_latency_cycles += clock.saturating_sub(pending.raised_at);
    let sf = core.create_interrupt_sf(c, pending.name, pending.waiter)?;
    let overhead = sched.overhead_for(core, SchedEvent::SfStart, Some(sf));
    core.charge_sched_overhead(c, overhead);
    core.prepare_dispatch(c, sf)?;
    sched.on_dispatch(core, CoreId(c), sf);
    Ok(true)
}
