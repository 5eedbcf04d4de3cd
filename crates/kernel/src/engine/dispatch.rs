//! The dispatch subsystem: the TMigrate/TAlloc hook sites.
//!
//! A core step is "service an interrupt, else ask the scheduler, else run
//! one quantum"; quantum boundaries (application burst end, blocking
//! system call, SuperFunction completion) land here, and every one of
//! them is a point where the paper's scheduler hooks fire — enqueue,
//! pick_next, on_switch_out, on_complete, and the overhead charges.

use super::machine::Boundary;
use super::{
    interrupts, EngineCore, EventKind, DISK_LATENCY_CYCLES, KERNEL_TID, NETWORK_LATENCY_CYCLES,
    TIMER_SLEEP_CYCLES,
};
use crate::error::EngineError;
use crate::faults::FaultInjector;
use crate::ids::{CoreId, SfId, ThreadId};
use crate::observe::class_of;
use crate::scheduler::{SchedEvent, Scheduler, SwitchReason};
use crate::superfunction::{SfBody, SfState};
use schedtask_obs::{FaultKind, ObsEvent, SpanKind};
use schedtask_workload::{DeviceKind, SfCategory};
use std::sync::Arc;

impl EngineCore {
    /// Marks `sf` running on core `c`, starting its execution segment,
    /// counting thread migrations and resampling the application burst
    /// if needed.
    pub(super) fn prepare_dispatch(&mut self, c: usize, sf_id: SfId) -> Result<(), EngineError> {
        let sf = self
            .sfs
            .get_mut(&sf_id)
            .ok_or(EngineError::UnknownSuperFunction(sf_id))?;
        debug_assert!(
            matches!(sf.state, SfState::Runnable | SfState::Preempted),
            "dispatching SF in state {:?}",
            sf.state
        );
        sf.state = SfState::Running;
        sf.segment_start = (sf.cycles_used, sf.instructions_retired);
        let tid = sf.tid;
        let category = sf.category();

        if let SfBody::Application { burst_left } = &mut sf.body {
            if *burst_left == 0 {
                let t = &mut self.threads[tid.0 as usize];
                let spec = &self.instances[t.benchmark].spec;
                *burst_left = spec.app_burst.sample(&mut t.rng).max(1);
            }
        }

        // Thread-migration accounting (Figure 10): application and
        // system-call SuperFunctions execute in thread context.
        if tid != KERNEL_TID && matches!(category, SfCategory::Application | SfCategory::SystemCall)
        {
            let t = &mut self.threads[tid.0 as usize];
            if let Some(prev) = t.last_core {
                if prev.0 != c {
                    self.stats.thread_migrations += 1;
                    let cost = self.cfg.migration_cost_cycles;
                    self.cores[c].clock += cost;
                    self.stats.core_time[c].busy_cycles += cost;
                    let at = self.cores[c].clock;
                    self.obs.emit(|| ObsEvent::Migrated {
                        at,
                        tid: tid.0,
                        from: prev.0 as u32,
                        to: c as u32,
                    });
                }
            }
            self.threads[tid.0 as usize].last_core = Some(CoreId(c));
        }

        self.cores[c].current = Some(sf_id);
        let at = self.cores[c].clock;
        self.obs.emit(|| ObsEvent::Dispatched {
            at,
            sf: sf_id.0,
            core: c as u32,
        });
        self.obs
            .span_enter(c as u32, SpanKind::Sf(class_of(category)), at);
        Ok(())
    }

    /// Closes the SF execution-segment span open on core `c` (no-op on
    /// the unobserved fast path). `sf_id` must still exist.
    pub(super) fn span_exit_current(&self, c: usize, sf_id: SfId) {
        if self.obs.is_enabled() {
            let class = class_of(self.sf(sf_id).category());
            let at = self.cores[c].clock;
            self.obs.span_exit(c as u32, SpanKind::Sf(class), at);
        }
    }

    /// Creates a system-call SuperFunction for `tid` on core `c`; its
    /// name, length and blocking roll come from the thread's RNG.
    pub(super) fn create_syscall_sf(
        &mut self,
        c: usize,
        tid: ThreadId,
        parent: SfId,
    ) -> Result<SfId, EngineError> {
        let t = &mut self.threads[tid.0 as usize];
        let inst = &self.instances[t.benchmark];
        let progress = self.syscalls_completed[t.benchmark];
        let name = inst.sample_syscall_at(&mut t.rng, progress);
        let spec = interrupts::service(&self.catalog, SfCategory::SystemCall, name)?.clone();
        let len = spec.len.sample(&mut t.rng).max(1);
        let block_mult = inst.spec.blocking_multiplier;
        let block = spec.blocking.and_then(|b| {
            use rand::Rng;
            if t.rng.gen_bool((b.probability * block_mult).clamp(0.0, 1.0)) {
                let at = (len as f64 * (1.0 - b.at_fraction)) as u64;
                Some((at.min(len - 1), b.device))
            } else {
                None
            }
        });
        let private_data = Arc::clone(&t.private_data);
        let body = SfBody::Syscall {
            remaining: len,
            block,
        };
        Ok(self.mint_sf(c, spec, private_data, Some(parent), tid, body))
    }
}

/// Advances core `c` by one step: service an interrupt, else ask the
/// scheduler for work, else execute one quantum and handle whatever
/// boundary it reached.
///
/// A free function over `(EngineCore, Scheduler)` rather than an
/// `Engine` method so the engine loop can call it with the engine's
/// fields split-borrowed.
pub(super) fn step_core(
    core: &mut EngineCore,
    sched: &mut dyn Scheduler,
    c: usize,
) -> Result<(), EngineError> {
    // 0. Fault injection: the core stalls (SMM excursion / frequency
    // dip). Queues and pending interrupts stay intact; time is lost.
    if let Some(stall) = core.injector.as_mut().and_then(FaultInjector::stall_core) {
        core.cores[c].clock += stall;
        core.stats.core_time[c].idle_cycles += stall;
        let at = core.cores[c].clock;
        core.obs.emit(|| ObsEvent::FaultInjected {
            at,
            kind: FaultKind::CoreStall,
        });
        return Ok(());
    }

    // 1. Service a pending interrupt: preempt whatever runs.
    if interrupts::service_pending_irq(core, sched, c)? {
        return Ok(());
    }

    // 2. Nothing running? Ask the scheduler.
    if core.cores[c].current.is_none() {
        match sched.pick_next(core, CoreId(c))? {
            Some(sf) => {
                core.prepare_dispatch(c, sf)?;
                sched.on_dispatch(core, CoreId(c), sf);
            }
            None => core.go_idle(c),
        }
        return Ok(());
    }

    // 3. Execute one quantum.
    match core.execute_quantum(c)? {
        Boundary::None => Ok(()),
        Boundary::AppBurstEnd => on_app_burst_end(core, sched, c),
        Boundary::Blocked(device) => on_blocked(core, sched, c, device),
        Boundary::Completed => on_completed(core, sched, c),
    }
}

fn on_app_burst_end(
    core: &mut EngineCore,
    sched: &mut dyn Scheduler,
    c: usize,
) -> Result<(), EngineError> {
    let app_sf = core.cores[c]
        .current
        .take()
        .ok_or(EngineError::NoCurrentSf { core: CoreId(c) })?;
    let tid = core.try_sf(app_sf)?.tid;
    core.span_exit_current(c, app_sf);
    core.sfs
        .get_mut(&app_sf)
        .ok_or(EngineError::UnknownSuperFunction(app_sf))?
        .state = SfState::PausedForChild;
    sched.on_switch_out(core, CoreId(c), app_sf, SwitchReason::PausedForChild);

    let syscall_sf = core.create_syscall_sf(c, tid, app_sf)?;
    let overhead = sched.overhead_for(core, SchedEvent::SfStart, Some(syscall_sf));
    core.charge_sched_overhead(c, overhead);
    sched.enqueue(core, syscall_sf, Some(CoreId(c)))?;
    core.wake_all_idle();
    Ok(())
}

fn on_blocked(
    core: &mut EngineCore,
    sched: &mut dyn Scheduler,
    c: usize,
    device: DeviceKind,
) -> Result<(), EngineError> {
    let sf = core.cores[c]
        .current
        .take()
        .ok_or(EngineError::NoCurrentSf { core: CoreId(c) })?;
    core.span_exit_current(c, sf);
    core.try_sf_mut(sf)?.state = SfState::Waiting;
    let at = core.cores[c].clock;
    core.obs.emit(|| ObsEvent::Blocked { at, sf: sf.0 });
    sched.on_switch_out(core, CoreId(c), sf, SwitchReason::Blocked);
    sched.on_block(core, sf);
    let overhead = sched.overhead_for(core, SchedEvent::SfPause, Some(sf));
    core.charge_sched_overhead(c, overhead);

    let latency = match device {
        DeviceKind::Disk => DISK_LATENCY_CYCLES,
        DeviceKind::Network => NETWORK_LATENCY_CYCLES,
        DeviceKind::Timer => TIMER_SLEEP_CYCLES,
    };
    let when = core.cores[c].clock + latency;
    core.schedule_event(when, EventKind::DeviceComplete { device, waiter: sf });
    Ok(())
}

fn on_completed(
    core: &mut EngineCore,
    sched: &mut dyn Scheduler,
    c: usize,
) -> Result<(), EngineError> {
    let sf_id = core.cores[c]
        .current
        .take()
        .ok_or(EngineError::NoCurrentSf { core: CoreId(c) })?;
    core.span_exit_current(c, sf_id);
    let at = core.cores[c].clock;
    core.obs.emit(|| ObsEvent::Completed { at, sf: sf_id.0 });
    let overhead = sched.overhead_for(core, SchedEvent::SfStop, Some(sf_id));
    core.charge_sched_overhead(c, overhead);
    core.try_sf_mut(sf_id)?.state = SfState::Done;
    sched.on_switch_out(core, CoreId(c), sf_id, SwitchReason::Completed);
    sched.on_complete(core, sf_id);

    let sf = core
        .sfs
        .remove(&sf_id)
        .ok_or(EngineError::UnknownSuperFunction(sf_id))?;
    core.retired_completed += sf.instructions_retired;
    match sf.body {
        SfBody::Syscall { .. } => {
            // Operation accounting: one application-level operation
            // per `op_syscalls` completed system calls of the
            // benchmark.
            let bench = core.threads[sf.tid.0 as usize].benchmark;
            core.op_progress[bench] += 1;
            core.syscalls_completed[bench] += 1;
            if core.op_progress[bench] >= core.instances[bench].spec.op_syscalls {
                core.op_progress[bench] = 0;
                core.stats.ops_per_benchmark[bench] += 1;
            }
            // Return to the parent (the paper's parentSuperFuncPtr
            // hand-off in TMigrate).
            let parent = sf.parent.ok_or_else(|| EngineError::StateCorruption {
                detail: format!("syscall {sf_id} completed without a parent"),
            })?;
            let p = core
                .sfs
                .get_mut(&parent)
                .ok_or(EngineError::UnknownSuperFunction(parent))?;
            debug_assert_eq!(p.state, SfState::PausedForChild);
            p.state = SfState::Runnable;
            p.runnable_since = core.cores[c].clock;
            sched.enqueue(core, parent, Some(CoreId(c)))?;
        }
        SfBody::Interrupt {
            bottom_half,
            waiter,
            ..
        } => {
            if let Some(bh_name) = bottom_half {
                let bh = core.create_bottom_half_sf(c, bh_name, waiter)?;
                let overhead = sched.overhead_for(core, SchedEvent::SfStart, Some(bh));
                core.charge_sched_overhead(c, overhead);
                sched.enqueue(core, bh, Some(CoreId(c)))?;
            } else if let Some(w) = waiter {
                wake_sf(core, sched, c, w)?;
            }
            // Resume whatever the interrupt preempted.
            if let Some(prev) = core.cores[c].preempt_stack.pop() {
                core.prepare_dispatch(c, prev)?;
                sched.on_dispatch(core, CoreId(c), prev);
            }
        }
        SfBody::BottomHalf { wake, .. } => {
            if let Some(w) = wake {
                wake_sf(core, sched, c, w)?;
            }
        }
        SfBody::Application { .. } => {
            return Err(EngineError::StateCorruption {
                detail: format!("application {sf_id} reached Completed boundary"),
            });
        }
    }
    core.wake_all_idle();
    Ok(())
}

fn wake_sf(
    core: &mut EngineCore,
    sched: &mut dyn Scheduler,
    c: usize,
    sf: SfId,
) -> Result<(), EngineError> {
    let overhead = sched.overhead_for(core, SchedEvent::SfWakeup, Some(sf));
    core.charge_sched_overhead(c, overhead);
    let clock = core.cores[c].clock;
    let s = core.try_sf_mut(sf)?;
    debug_assert_eq!(s.state, SfState::Waiting);
    s.state = SfState::Runnable;
    s.runnable_since = clock;
    sched.enqueue(core, sf, Some(CoreId(c)))?;
    core.wake_all_idle();
    Ok(())
}
