//! The interrupts subsystem: the device/IRQ/bottom-half model.
//!
//! Interrupts are delivered to a core's pending queue ([`PendingIrq`])
//! and serviced at the next core step by preempting whatever runs; the
//! interrupt and deferred-work (bottom-half) SuperFunctions are minted
//! here from the OS service catalog.

use super::{EngineCore, KERNEL_TID};
use crate::error::EngineError;
use crate::ids::{CoreId, SfId};
use crate::scheduler::{SchedEvent, Scheduler, SwitchReason};
use crate::superfunction::{SfBody, SfState, SuperFunction};
use schedtask_obs::{ObsEvent, SfClass};
use schedtask_workload::{Footprint, FootprintWalker, WalkParams};
use std::sync::Arc;

/// An interrupt delivered to a core but not yet serviced.
#[derive(Debug, Clone)]
pub(crate) struct PendingIrq {
    pub(super) name: &'static str,
    pub(crate) waiter: Option<SfId>,
    pub(super) raised_at: u64,
}

impl EngineCore {
    /// Creates an interrupt SuperFunction on core `c`.
    pub(super) fn create_interrupt_sf(
        &mut self,
        c: usize,
        irq_name: &'static str,
        waiter: Option<SfId>,
    ) -> Result<SfId, EngineError> {
        let spec =
            self.catalog
                .try_interrupt(irq_name)
                .ok_or_else(|| EngineError::UnknownService {
                    kind: "interrupt",
                    name: irq_name.to_string(),
                })?;
        let len = spec.len.sample(&mut self.rng).max(1);
        let id = self.id_alloc.next(CoreId(c));
        let seed = self.cfg.seed ^ id.0.wrapping_mul(0xD134_2543_DE82_EF95);
        let tid = match waiter {
            Some(w) => self.try_sf(w)?.tid,
            None => KERNEL_TID,
        };
        let walker = FootprintWalker::new(
            Arc::clone(&spec.code),
            Arc::clone(&spec.shared_data),
            Arc::new(Footprint::new()),
            WalkParams::default(),
            seed,
        );
        let sf = SuperFunction {
            id,
            sf_type: spec.super_func_type(),
            parent: None,
            tid,
            state: SfState::Runnable,
            body: SfBody::Interrupt {
                remaining: len,
                bottom_half: spec.bottom_half,
                waiter,
            },
            walker,
            cycles_used: 0,
            instructions_retired: 0,
            segment_start: (0, 0),
            runnable_since: self.cores[c].clock,
        };
        let sf_type = sf.sf_type;
        self.sfs.insert(id, sf);
        let at = self.cores[c].clock;
        self.obs.emit(|| ObsEvent::SfCreated {
            at,
            sf: id.0,
            sf_type: sf_type.raw(),
            class: SfClass::Interrupt,
            tid: tid.0,
        });
        Ok(id)
    }

    /// Creates a bottom-half SuperFunction on core `c`.
    pub(super) fn create_bottom_half_sf(
        &mut self,
        c: usize,
        name: &'static str,
        wake: Option<SfId>,
    ) -> Result<SfId, EngineError> {
        let spec =
            self.catalog
                .try_bottom_half(name)
                .ok_or_else(|| EngineError::UnknownService {
                    kind: "bottom half",
                    name: name.to_string(),
                })?;
        let len = spec.len.sample(&mut self.rng).max(1);
        let id = self.id_alloc.next(CoreId(c));
        let seed = self.cfg.seed ^ id.0.wrapping_mul(0xA076_1D64_78BD_642F);
        let tid = match wake {
            Some(w) => self.try_sf(w)?.tid,
            None => KERNEL_TID,
        };
        let walker = FootprintWalker::new(
            Arc::clone(&spec.code),
            Arc::clone(&spec.shared_data),
            Arc::new(Footprint::new()),
            WalkParams::default(),
            seed,
        );
        let sf = SuperFunction {
            id,
            sf_type: spec.super_func_type(),
            parent: None,
            tid,
            state: SfState::Runnable,
            body: SfBody::BottomHalf {
                remaining: len,
                wake,
            },
            walker,
            cycles_used: 0,
            instructions_retired: 0,
            segment_start: (0, 0),
            runnable_since: self.cores[c].clock,
        };
        let sf_type = sf.sf_type;
        self.sfs.insert(id, sf);
        let at = self.cores[c].clock;
        self.obs.emit(|| ObsEvent::SfCreated {
            at,
            sf: id.0,
            sf_type: sf_type.raw(),
            class: SfClass::BottomHalf,
            tid: tid.0,
        });
        Ok(id)
    }
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
        core.span_exit_current(c, cur);
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
