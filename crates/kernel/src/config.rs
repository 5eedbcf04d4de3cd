//! Engine configuration.

use crate::error::ConfigError;
use crate::faults::FaultPlan;
use schedtask_sim::SystemConfig;

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
}

impl EngineConfig {
    /// The configuration every experiment and test starts from: the
    /// Table 2 machine with short epochs, so multi-epoch behaviour
    /// emerges within a few million instructions.
    pub fn fast() -> Self {
        let system = SystemConfig::table2();
        EngineConfig {
            workload_reference_cores: system.num_cores,
            epoch_cycles: 100_000,
            migration_cost_cycles: 100,
            max_instructions: 4_000_000,
            warmup_instructions: 400_000,
            seed: 0x5EED_5EED,
            collect_epoch_breakups: false,
            faults: None,
            sanitize: false,
            system,
        }
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
        if self.max_instructions == 0 {
            return Err(ConfigError::ZeroMaxInstructions);
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fault_and_sanitizer_builders() {
        let cfg = EngineConfig::fast()
            .with_faults(crate::faults::FaultPlan::light(3))
            .with_sanitizer();
        assert!(cfg.faults.as_ref().is_some_and(|p| p.is_active()));
        assert!(cfg.sanitize);
        assert!(cfg.validate().is_ok());
    }
}
