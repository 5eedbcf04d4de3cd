//! The DMA/NIC-style device model: injects realistic interrupt traffic
//! at jittered inter-arrival times.
//!
//! Each device owns a private RNG (decoupled from the engine RNG so
//! adding a device never perturbs existing event streams) and schedules
//! its next [`EventKind::DeviceTick`] one delta ahead.

use super::{interrupts, EngineCore, EventKind};
use crate::config::DeviceModelConfig;
use crate::scheduler::Scheduler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schedtask_obs::{ComponentClass, ObsEvent};

/// One interrupt-injecting device model.
#[derive(Debug)]
pub(crate) struct DmaDevice {
    /// Index into [`crate::EngineConfig::devices`].
    index: usize,
    cfg: DeviceModelConfig,
    /// Private arrival RNG; never shared with the engine RNG.
    rng: SmallRng,
}

impl DmaDevice {
    pub(super) fn new(index: usize, cfg: DeviceModelConfig, engine_seed: u64) -> Self {
        let seed = engine_seed
            ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407)
            ^ 0x0D15_EA5E_0D15_EA5E;
        DmaDevice {
            index,
            cfg,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The next inter-arrival delta: the configured period with ±50 %
    /// jitter.
    fn draw(&mut self) -> u64 {
        let base = self.cfg.period_cycles.max(1);
        self.rng.gen_range(base / 2..=base + base / 2).max(1)
    }

    /// Schedules the first arrival.
    pub(super) fn prime(&mut self, ctx: &mut EngineCore) {
        let first = self.draw();
        ctx.schedule_event(first, EventKind::DeviceTick { device: self.index });
    }

    /// One arrival: raises the device's interrupt, then schedules the
    /// next arrival.
    pub(super) fn tick(&mut self, ctx: &mut EngineCore, sched: &mut dyn Scheduler) {
        let at = ctx.now;
        let spec = ctx.catalog.interrupt_for_device(self.cfg.kind);
        let (name, irq) = (spec.name, spec.sf_type.subcategory());
        interrupts::raise_irq(ctx, sched, name, irq, None);
        ctx.obs.emit(|| ObsEvent::ComponentTick {
            at,
            component: self.index as u32,
            class: ComponentClass::DmaDevice,
            irqs: 1,
        });
        let delta = self.draw();
        ctx.schedule_event(at + delta, EventKind::DeviceTick { device: self.index });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedtask_workload::DeviceKind;

    #[test]
    fn deltas_are_jittered_around_the_period() {
        let mut d = DmaDevice::new(
            0,
            DeviceModelConfig {
                kind: DeviceKind::Network,
                period_cycles: 10_000,
            },
            42,
        );
        for _ in 0..100 {
            let delta = d.draw();
            assert!(
                (5_000..=15_000).contains(&delta),
                "delta {delta} out of band"
            );
        }
    }
}
