//! Engine configuration.

use crate::error::ConfigError;
use crate::faults::FaultPlan;
use schedtask_sim::SystemConfig;
use schedtask_workload::DeviceKind;

/// One DMA/NIC-style device model injecting spontaneous interrupt
/// traffic, independent of any SuperFunction blocking on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceModelConfig {
    /// Which device's interrupt vector the model raises.
    pub kind: DeviceKind,
    /// Mean inter-arrival period in cycles; actual arrivals jitter
    /// uniformly in `[period/2, period + period/2]` from the device's
    /// private RNG stream.
    pub period_cycles: u64,
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The simulated machine.
    pub system: SystemConfig,
    /// Cores used to size the workload's thread counts. Usually equal to
    /// `system.num_cores`; SelectiveOffload doubles the cores (Table 3)
    /// while keeping the 32-core workload, so its experiments set this
    /// to the baseline core count.
    pub workload_reference_cores: usize,
    /// Cycles per scheduling epoch (the paper uses 3 ms; scaled-down
    /// experiment runs shrink this proportionally).
    pub epoch_cycles: u64,
    /// Maximum instructions executed between engine decision points.
    pub quantum_instructions: u64,
    /// Disk service latency in cycles.
    pub disk_latency_cycles: u64,
    /// Network service latency in cycles.
    pub network_latency_cycles: u64,
    /// Timer sleep duration in cycles.
    pub timer_sleep_cycles: u64,
    /// Per-core timer-tick period in cycles (Linux's 1 ms tick).
    pub timer_tick_cycles: u64,
    /// Fixed cycles charged on the destination core when a thread
    /// migrates (context transfer).
    pub migration_cost_cycles: u64,
    /// Stop after this many post-warm-up workload instructions.
    pub max_instructions: u64,
    /// Instructions executed before statistics are reset (cache warm-up).
    pub warmup_instructions: u64,
    /// Master seed for all deterministic randomness.
    pub seed: u64,
    /// Record per-epoch instruction breakups (Section 4.4).
    pub collect_epoch_breakups: bool,
    /// Optional deterministic fault-injection plan (see
    /// [`crate::faults`]). `None` injects nothing.
    pub faults: Option<FaultPlan>,
    /// Run the invariant sanitizer after every engine step (placement,
    /// monotone time, instruction conservation, no lost wakeups). Costs
    /// roughly 2-4x wall clock; intended for tests and debugging, off by
    /// default.
    pub sanitize: bool,
    /// DMA/NIC-style device models injecting interrupt traffic.
    pub devices: Vec<DeviceModelConfig>,
}

impl EngineConfig {
    /// Paper-faithful configuration: Table 2 machine, 3 ms epochs at
    /// 2 GHz.
    pub fn paper() -> Self {
        let system = SystemConfig::table2();
        EngineConfig {
            workload_reference_cores: system.num_cores,
            epoch_cycles: 6_000_000, // 3 ms at 2 GHz
            quantum_instructions: 1_000,
            disk_latency_cycles: 60_000,    // ≈30 µs SSD-class storage
            network_latency_cycles: 30_000, // ≈15 µs LAN round trip
            timer_sleep_cycles: 100_000,
            timer_tick_cycles: 2_000_000, // 1 ms tick
            migration_cost_cycles: 100,
            max_instructions: 50_000_000,
            warmup_instructions: 2_000_000,
            seed: 0x5EED_5EED,
            collect_epoch_breakups: false,
            faults: None,
            sanitize: false,
            devices: Vec::new(),
            system,
        }
    }

    /// Scaled-down configuration for experiments and tests: the same
    /// machine but short epochs and proportionally shorter device
    /// latencies, so multi-epoch behaviour emerges within a few million
    /// instructions.
    pub fn fast() -> Self {
        let mut cfg = Self::paper();
        cfg.epoch_cycles = 100_000;
        cfg.disk_latency_cycles = 20_000;
        cfg.network_latency_cycles = 10_000;
        cfg.timer_sleep_cycles = 30_000;
        cfg.timer_tick_cycles = 400_000;
        cfg.max_instructions = 4_000_000;
        cfg.warmup_instructions = 400_000;
        cfg
    }

    /// Replaces the machine configuration, keeping the workload reference
    /// core count in sync.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.workload_reference_cores = system.num_cores;
        self.system = system;
        self
    }

    /// Overrides the instruction budget.
    pub fn with_max_instructions(mut self, n: u64) -> Self {
        self.max_instructions = n;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables the invariant sanitizer.
    pub fn with_sanitizer(mut self) -> Self {
        self.sanitize = true;
        self
    }

    /// Adds a device model.
    pub fn with_device(mut self, device: DeviceModelConfig) -> Self {
        self.devices.push(device);
        self
    }

    /// Validates the whole configuration. [`crate::Engine::new`] calls
    /// this, so a bad configuration fails fast with a typed error
    /// instead of panicking mid-run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.system.validate().map_err(ConfigError::System)?;
        if self.workload_reference_cores == 0 {
            return Err(ConfigError::ZeroReferenceCores);
        }
        // An epoch shorter than one quantum (at 1 IPC) or longer than ten
        // simulated minutes at 2 GHz is a unit mistake, not a sweep point.
        if self.epoch_cycles == 0 || self.epoch_cycles > 1_200_000_000_000 {
            return Err(ConfigError::EpochOutOfRange {
                cycles: self.epoch_cycles,
            });
        }
        if self.quantum_instructions == 0 {
            return Err(ConfigError::ZeroQuantum);
        }
        if self.max_instructions == 0 {
            return Err(ConfigError::ZeroMaxInstructions);
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        for (index, dev) in self.devices.iter().enumerate() {
            if dev.period_cycles == 0 {
                return Err(ConfigError::BadDevicePeriod { index });
            }
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_epoch_is_3ms_at_2ghz() {
        let cfg = EngineConfig::paper();
        assert_eq!(cfg.epoch_cycles, 6_000_000);
    }

    #[test]
    fn with_system_syncs_reference_cores() {
        let cfg = EngineConfig::fast().with_system(SystemConfig::table2().with_cores(8));
        assert_eq!(cfg.workload_reference_cores, 8);
        assert_eq!(cfg.system.num_cores, 8);
    }

    #[test]
    fn builders_override() {
        let cfg = EngineConfig::fast().with_max_instructions(123).with_seed(9);
        assert_eq!(cfg.max_instructions, 123);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn presets_validate() {
        assert!(EngineConfig::paper().validate().is_ok());
        assert!(EngineConfig::fast().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_fields() {
        let mut cfg = EngineConfig::fast();
        cfg.system.num_cores = 0;
        assert!(matches!(cfg.validate(), Err(ConfigError::System(_))));

        let mut cfg = EngineConfig::fast();
        cfg.epoch_cycles = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::EpochOutOfRange { cycles: 0 })
        ));

        let mut cfg = EngineConfig::fast();
        cfg.epoch_cycles = u64::MAX;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::EpochOutOfRange { .. })
        ));

        let mut cfg = EngineConfig::fast();
        cfg.quantum_instructions = 0;
        assert!(matches!(cfg.validate(), Err(ConfigError::ZeroQuantum)));

        let mut cfg = EngineConfig::fast();
        cfg.max_instructions = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroMaxInstructions)
        ));

        let mut cfg = EngineConfig::fast();
        cfg.workload_reference_cores = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroReferenceCores)
        ));

        let mut cfg = EngineConfig::fast();
        cfg.faults = Some(crate::faults::FaultPlan {
            drop_irq_rate: -0.5,
            ..crate::faults::FaultPlan::none(0)
        });
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadFaultRate { .. })
        ));
    }

    #[test]
    fn device_and_divider_builders_validate() {
        let cfg = EngineConfig::fast().with_device(DeviceModelConfig {
            kind: DeviceKind::Network,
            period_cycles: 80_000,
        });
        assert!(cfg.validate().is_ok());

        let cfg = EngineConfig::fast().with_device(DeviceModelConfig {
            kind: DeviceKind::Disk,
            period_cycles: 0,
        });
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadDevicePeriod { index: 0 })
        ));
    }

    #[test]
    fn fault_and_sanitizer_builders() {
        let cfg = EngineConfig::fast()
            .with_faults(crate::faults::FaultPlan::light(3))
            .with_sanitizer();
        assert!(cfg.faults.as_ref().is_some_and(|p| p.is_active()));
        assert!(cfg.sanitize);
        assert!(cfg.validate().is_ok());
    }
}
