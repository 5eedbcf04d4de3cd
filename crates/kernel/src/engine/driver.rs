//! The engine's one loop and its event routing.
//!
//! Every step either advances the earliest busy core by one quantum or
//! pops the earliest queued event, whichever comes first in simulated
//! time (the queue head wins ties). A popped event goes through one
//! `match` on [`EventKind`] to its handler: the per-core timer tick, the
//! TAlloc epoch, a benchmark's spontaneous interrupt, or a blocked-I/O
//! completion.

use super::{dispatch, interrupts, Engine, EngineCore, EventKind, TIMER_TICK_CYCLES};
use crate::error::EngineError;
use crate::faults::FaultInjector;
use crate::ids::SfId;
use crate::scheduler::{SchedEvent, Scheduler};
use schedtask_obs::{FaultKind, ObsEvent};
use schedtask_workload::{DeviceKind, SfCategory};

impl Engine {
    /// Seeds the recurring event streams: per-core timer ticks, the
    /// first epoch, then each benchmark's spontaneous interrupt. This
    /// order fixes the queue sequence numbers, so it must not change.
    pub(super) fn prime(&mut self) {
        let ctx = &mut self.core;
        let tick = TIMER_TICK_CYCLES;
        for c in 0..ctx.num_cores() {
            let stagger = tick / ctx.num_cores() as u64 * c as u64;
            ctx.schedule_event(tick + stagger, EventKind::TimerTick { core: c });
        }
        ctx.schedule_event(ctx.cfg.epoch_cycles, EventKind::Epoch);
        for bench in 0..ctx.instances.len() {
            if ctx.instances[bench].spec.spontaneous_irq.is_some() {
                let interval = ctx.irq_rate_interval[bench];
                ctx.schedule_event(interval, EventKind::ExternalIrq { bench });
            }
        }
    }

    /// Runs to completion: until no core is busy and no event is queued,
    /// or a stop condition from [`Engine::post_step`].
    pub(super) fn drive(&mut self) -> Result<(), EngineError> {
        while self.step_once()? {
            if self.post_step()? {
                break;
            }
        }
        Ok(())
    }

    /// One step: runs the non-idle core with the lowest `(clock, index)`
    /// or the queue head, the queue winning ties. Returns `false` when
    /// there is nothing left to run.
    fn step_once(&mut self) -> Result<bool, EngineError> {
        let core_next = self
            .core
            .cores
            .iter()
            .enumerate()
            .filter(|(_, cs)| !cs.idle)
            .map(|(c, cs)| (cs.clock, c))
            .min();
        let event_next = self.core.events.peek().map(|e| e.time);
        match (core_next, event_next) {
            (None, None) => return Ok(false),
            (Some((clock, c)), event) if event.is_none_or(|at| clock < at) => {
                self.core.now = clock;
                dispatch::step_core(&mut self.core, self.scheduler.as_mut(), c)?;
            }
            _ => self.process_next_event()?,
        }
        Ok(true)
    }

    /// Pops the earliest event and routes it to its handler, wrapped in
    /// the engine-level fault-injection checks (dropped and spurious
    /// interrupts).
    fn process_next_event(&mut self) -> Result<(), EngineError> {
        let ev = self
            .core
            .events
            .pop()
            .ok_or(EngineError::EventQueueUnderflow)?;
        self.core.now = ev.time;

        // Fault injection: the interrupt carried by this event is lost.
        // A dropped event is re-raised after the modelled retry delay
        // (hardware timeout / software re-poll), so wakeups are delayed —
        // never lost — and slowdown stays bounded.
        if !matches!(ev.kind, EventKind::Epoch) {
            if let Some(delay) = self
                .core
                .injector
                .as_mut()
                .and_then(FaultInjector::drop_irq)
            {
                self.core.schedule_event(ev.time + delay, ev.kind);
                self.core.obs.emit(|| ObsEvent::FaultInjected {
                    at: ev.time,
                    kind: FaultKind::DroppedIrq,
                });
                return Ok(());
            }
        }

        let ctx = &mut self.core;
        let sched = self.scheduler.as_mut();
        match ev.kind {
            EventKind::TimerTick { core } => on_timer_tick(ctx, core),
            EventKind::Epoch => on_epoch(ctx, sched)?,
            EventKind::ExternalIrq { bench } => on_external_irq(ctx, sched, bench)?,
            EventKind::DeviceComplete { device, waiter } => {
                on_device_complete(ctx, sched, device, waiter);
            }
        }

        // Fault injection: a spurious interrupt (no waiting SuperFunction)
        // lands on a deterministic-random core.
        let num_cores = self.core.cores.len();
        let spurious = self
            .core
            .injector
            .as_mut()
            .and_then(|inj| inj.spurious_irq().then(|| inj.spurious_target(num_cores)));
        if let Some(target) = spurious {
            let at = self.core.now;
            self.core.obs.emit(|| ObsEvent::FaultInjected {
                at,
                kind: FaultKind::SpuriousIrq,
            });
            interrupts::deliver_irq(&mut self.core, target, "timer_irq", None, at);
        }
        Ok(())
    }
}

/// The periodic timer interrupt on `core`, re-armed one tick ahead.
fn on_timer_tick(ctx: &mut EngineCore, core: usize) {
    let at = ctx.now;
    interrupts::deliver_irq(ctx, core, "timer_irq", None, at);
    ctx.schedule_event(at + TIMER_TICK_CYCLES, EventKind::TimerTick { core });
}

/// The scheduler's TAlloc epoch boundary, re-armed one epoch ahead.
fn on_epoch(ctx: &mut EngineCore, sched: &mut dyn Scheduler) -> Result<(), EngineError> {
    let at = ctx.now;
    ctx.obs.emit(|| ObsEvent::EpochStart { at });
    let overhead = sched.overhead_for(ctx, SchedEvent::EpochAlloc, None);
    ctx.charge_sched_overhead(0, overhead);
    sched.on_epoch(ctx)?;
    if ctx.cfg.collect_epoch_breakups {
        ctx.snapshot_epoch_breakup();
    }
    ctx.schedule_event(at + ctx.cfg.epoch_cycles, EventKind::Epoch);
    Ok(())
}

/// Benchmark `bench`'s spontaneous external interrupt: routed by the
/// scheduler, then re-armed with ±50 % jitter.
fn on_external_irq(
    ctx: &mut EngineCore,
    sched: &mut dyn Scheduler,
    bench: usize,
) -> Result<(), EngineError> {
    let at = ctx.now;
    let Some((irq_name, _)) = ctx.instances[bench].spec.spontaneous_irq else {
        return Err(EngineError::StateCorruption {
            detail: format!(
                "external irq scheduled for benchmark {bench} with no spontaneous rate"
            ),
        });
    };
    let irq = interrupts::service(&ctx.catalog, SfCategory::Interrupt, irq_name)?
        .sf_type
        .subcategory();
    interrupts::raise_irq(ctx, sched, irq_name, irq, None);
    let base = ctx.irq_rate_interval[bench];
    let jitter = {
        use rand::Rng;
        ctx.rng.gen_range(base / 2..=base + base / 2)
    };
    ctx.schedule_event(at + jitter.max(1), EventKind::ExternalIrq { bench });
    Ok(())
}

/// A blocked-I/O completion: a routed interrupt carrying the waiting
/// SuperFunction.
fn on_device_complete(
    ctx: &mut EngineCore,
    sched: &mut dyn Scheduler,
    device: DeviceKind,
    waiter: SfId,
) {
    let spec = ctx.catalog.interrupt_for_device(device);
    let (name, irq) = (spec.name, spec.sf_type.subcategory());
    interrupts::raise_irq(ctx, sched, name, irq, Some(waiter));
}

#[cfg(test)]
mod tests {
    use super::super::{Engine, EventKind, WorkloadSpec};
    use crate::config::EngineConfig;
    use crate::error::EngineError;
    use crate::scheduler::GlobalFifoScheduler;
    use schedtask_workload::BenchmarkKind;

    #[test]
    fn external_irq_without_a_spontaneous_rate_is_a_typed_error() {
        let cfg = EngineConfig::fast()
            .with_system(schedtask_sim::SystemConfig::table2().with_cores(2))
            .with_max_instructions(60_000);
        // Find raises no spontaneous interrupts.
        let workload = WorkloadSpec::single(BenchmarkKind::Find, 0.5);
        let mut engine = Engine::new(cfg, &workload, Box::new(GlobalFifoScheduler::new()))
            .expect("engine builds");
        engine
            .core
            .schedule_event(1, EventKind::ExternalIrq { bench: 0 });
        let err = engine.run().expect_err("a stray event must fail the run");
        assert!(
            matches!(&err, EngineError::StateCorruption { detail } if detail.contains("no spontaneous rate")),
            "got {err}"
        );
    }
}
