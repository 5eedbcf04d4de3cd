//! The engine's one loop and its event routing.
//!
//! Every step either advances the earliest busy core by one quantum or
//! pops the earliest queued event, whichever comes first in simulated
//! time (the queue head wins ties). A popped event goes through one
//! `match` on [`EventKind`] to its handler: the per-core timer tick, the
//! TAlloc epoch, a benchmark's spontaneous interrupt, a blocked-I/O
//! completion, or a DMA device model's next arrival.

use super::{dispatch, interrupts, Engine, EngineCore, EventKind};
use crate::error::EngineError;
use crate::faults::FaultInjector;
use crate::ids::SfId;
use crate::scheduler::{SchedEvent, Scheduler};
use schedtask_obs::{FaultKind, ObsEvent};
use schedtask_workload::{DeviceKind, SfCategory};

impl Engine {
    /// Seeds the recurring event streams: per-core timer ticks, the
    /// first epoch, each benchmark's spontaneous interrupt, then each
    /// device model in configuration order. This order fixes the queue
    /// sequence numbers, so it must not change.
    pub(super) fn prime(&mut self) {
        let ctx = &mut self.core;
        let tick = ctx.cfg.timer_tick_cycles;
        if tick > 0 {
            for c in 0..ctx.num_cores() {
                let stagger = tick / ctx.num_cores() as u64 * c as u64;
                ctx.schedule_event(tick + stagger, EventKind::TimerTick { core: c });
            }
        }
        ctx.schedule_event(ctx.cfg.epoch_cycles, EventKind::Epoch);
        for bench in 0..ctx.instances.len() {
            if ctx.instances[bench].spec.spontaneous_irq.is_some() {
                let interval = ctx.irq_rate_interval[bench];
                ctx.schedule_event(interval, EventKind::ExternalIrq { bench });
            }
        }
        for device in &mut self.devices {
            device.prime(ctx);
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
            EventKind::DeviceTick { device } => self
                .devices
                .get_mut(device)
                .ok_or_else(|| EngineError::StateCorruption {
                    detail: format!("tick for device {device}, which is not configured"),
                })?
                .tick(ctx, sched),
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
    ctx.schedule_event(
        at + ctx.cfg.timer_tick_cycles,
        EventKind::TimerTick { core },
    );
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
    use crate::config::{DeviceModelConfig, EngineConfig};
    use crate::error::EngineError;
    use crate::scheduler::GlobalFifoScheduler;
    use schedtask_workload::{BenchmarkKind, DeviceKind};

    fn engine_with(cfg: EngineConfig) -> Engine {
        Engine::new(
            cfg,
            &WorkloadSpec::single(BenchmarkKind::Find, 0.5),
            Box::new(GlobalFifoScheduler::new()),
        )
        .expect("engine builds")
    }

    fn base_cfg() -> EngineConfig {
        EngineConfig::fast()
            .with_system(schedtask_sim::SystemConfig::table2().with_cores(2))
            .with_max_instructions(60_000)
    }

    fn run_stats(cfg: EngineConfig) -> crate::stats::SimStats {
        engine_with(cfg).run().expect("run succeeds").clone()
    }

    #[test]
    fn device_model_injects_interrupt_traffic() {
        let quiet = run_stats(base_cfg());
        let noisy = run_stats(base_cfg().with_device(DeviceModelConfig {
            kind: DeviceKind::Network,
            period_cycles: 25_000,
        }));
        assert!(
            noisy.interrupts_delivered > quiet.interrupts_delivered,
            "device model must add interrupts: {} vs {}",
            noisy.interrupts_delivered,
            quiet.interrupts_delivered
        );
    }

    /// Runs with `kind` queued at cycle 1 and returns the run's error.
    fn run_with_stray_event(kind: EventKind) -> EngineError {
        let mut engine = engine_with(base_cfg());
        engine.core.schedule_event(1, kind);
        engine.run().expect_err("a stray event must fail the run")
    }

    #[test]
    fn tick_for_an_unconfigured_device_is_a_typed_error() {
        let err = run_with_stray_event(EventKind::DeviceTick { device: 3 });
        assert!(
            matches!(&err, EngineError::StateCorruption { detail } if detail.contains("device 3")),
            "got {err}"
        );
    }

    #[test]
    fn external_irq_without_a_spontaneous_rate_is_a_typed_error() {
        // Find raises no spontaneous interrupts.
        let err = run_with_stray_event(EventKind::ExternalIrq { bench: 0 });
        assert!(
            matches!(&err, EngineError::StateCorruption { detail } if detail.contains("no spontaneous rate")),
            "got {err}"
        );
    }
}
