//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] describes *what* to corrupt and *how often*; the
//! engine owns a [`FaultInjector`] built from the plan, whose private
//! RNG stream is seeded only by [`FaultPlan::seed`] and therefore
//! independent of the workload RNG. Given the same engine configuration
//! and the same plan, every injected fault lands at the same point of
//! the simulation — reruns are byte-identical, which is what lets the
//! property tests assert "SchedTask degrades gracefully" instead of
//! "SchedTask got lucky".
//!
//! Four fault classes are modelled, mirroring the hardware failure
//! modes a SchedTask deployment would see:
//!
//! * **heatmap bit-flips** — a random bit of the 512-bit Page-heatmap
//!   Bloom filter toggles during a quantum (SRAM soft error). The
//!   overlap table sees slightly wrong similarity numbers and must
//!   still converge.
//! * **dropped / spurious interrupts** — a device-completion or
//!   external interrupt is lost (and re-raised later by the modelled
//!   retry timer, so wakeups are delayed, never lost) or an extra
//!   spurious interrupt fires.
//! * **delayed completions** — a SuperFunction that was about to
//!   complete is charged extra instructions first (a slow device path).
//! * **stalled cores** — a core freezes for a fixed number of cycles
//!   (SMM excursion / frequency dip) while its queues stay intact.

use crate::error::ConfigError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How often and how hard to inject faults. All `*_rate` fields are
/// per-opportunity probabilities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// Probability (per executed quantum) of toggling one random bit of
    /// the executing core's Page heatmap.
    pub heatmap_bitflip_rate: f64,
    /// Probability (per device-completion or external interrupt) that
    /// the interrupt is dropped and re-raised `irq_retry_cycles` later.
    pub drop_irq_rate: f64,
    /// Re-delivery delay, in cycles, for a dropped interrupt.
    pub irq_retry_cycles: u64,
    /// Probability (per processed event) of raising an extra spurious
    /// external interrupt with no waiting SuperFunction.
    pub spurious_irq_rate: f64,
    /// Probability (per OS SuperFunction completion) that completion is
    /// delayed by `delay_completion_instructions` extra instructions.
    pub delay_completion_rate: f64,
    /// Extra instructions charged to a delayed completion.
    pub delay_completion_instructions: u64,
    /// Probability (per core scheduling step) that the core stalls for
    /// `stall_cycles` cycles doing nothing.
    pub stall_core_rate: f64,
    /// Length of an injected core stall, in cycles.
    pub stall_cycles: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a determinism control).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            heatmap_bitflip_rate: 0.0,
            drop_irq_rate: 0.0,
            irq_retry_cycles: 20_000,
            spurious_irq_rate: 0.0,
            delay_completion_rate: 0.0,
            delay_completion_instructions: 2_000,
            stall_core_rate: 0.0,
            stall_cycles: 50_000,
        }
    }

    /// A light plan: rare faults of every class.
    pub fn light(seed: u64) -> Self {
        FaultPlan {
            heatmap_bitflip_rate: 0.001,
            drop_irq_rate: 0.005,
            spurious_irq_rate: 0.002,
            delay_completion_rate: 0.005,
            stall_core_rate: 0.0005,
            ..FaultPlan::none(seed)
        }
    }

    /// A heavy plan: every class fires often enough that a fragile
    /// scheduler would deadlock or corrupt its tables.
    pub fn heavy(seed: u64) -> Self {
        FaultPlan {
            heatmap_bitflip_rate: 0.02,
            drop_irq_rate: 0.05,
            spurious_irq_rate: 0.02,
            delay_completion_rate: 0.05,
            stall_core_rate: 0.005,
            ..FaultPlan::none(seed)
        }
    }

    /// True if any fault class has a non-zero rate.
    pub fn is_active(&self) -> bool {
        self.heatmap_bitflip_rate > 0.0
            || self.drop_irq_rate > 0.0
            || self.spurious_irq_rate > 0.0
            || self.delay_completion_rate > 0.0
            || self.stall_core_rate > 0.0
    }

    /// Checks every rate is a probability.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let rates = [
            ("heatmap_bitflip_rate", self.heatmap_bitflip_rate),
            ("drop_irq_rate", self.drop_irq_rate),
            ("spurious_irq_rate", self.spurious_irq_rate),
            ("delay_completion_rate", self.delay_completion_rate),
            ("stall_core_rate", self.stall_core_rate),
        ];
        for (field, value) in rates {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::BadFaultRate { field, value });
            }
        }
        Ok(())
    }

    /// Parses the `repro --faults` spec in the [`parse_plan`] grammar,
    /// e.g. `heavy@42` or `drop_irq_rate=0.05,stall_core_rate=0.001,seed=7`.
    pub fn parse(spec: &str, default_seed: u64) -> Result<Self, String> {
        fn field<'a>(p: &'a mut FaultPlan, key: &str) -> Option<PlanField<'a>> {
            use PlanField::{F64, U64};
            Some(match key {
                "seed" => U64(&mut p.seed),
                "heatmap_bitflip_rate" => F64(&mut p.heatmap_bitflip_rate),
                "drop_irq_rate" => F64(&mut p.drop_irq_rate),
                "irq_retry_cycles" => U64(&mut p.irq_retry_cycles),
                "spurious_irq_rate" => F64(&mut p.spurious_irq_rate),
                "delay_completion_rate" => F64(&mut p.delay_completion_rate),
                "delay_completion_instructions" => U64(&mut p.delay_completion_instructions),
                "stall_core_rate" => F64(&mut p.stall_core_rate),
                "stall_cycles" => U64(&mut p.stall_cycles),
                _ => return None,
            })
        }
        parse_plan(
            spec,
            default_seed,
            "fault",
            [FaultPlan::none, FaultPlan::light, FaultPlan::heavy],
            field,
            |plan| plan.validate().map_err(|e| e.to_string()),
        )
    }
}

/// The field one `key=value` key of a plan spec sets.
#[derive(Debug)]
pub enum PlanField<'a> {
    /// A rate, parsed as `f64`.
    F64(&'a mut f64),
    /// A seed, count or duration, parsed as `u64`.
    U64(&'a mut u64),
}

/// Parses a plan spec in the grammar `--faults` and `--chaos` share:
/// a preset (`none`, `light`, `heavy`), optionally with an explicit
/// seed (`light@42`), or a comma-separated `key=value` list applied to
/// the `none` preset. `presets` builds the three presets at a seed,
/// `field` is the plan's key table (`None` rejects the key), and
/// `validate` checks a plan built from keys. `noun` names the plan in
/// errors (`"fault"` gives "unknown fault plan key ...").
pub fn parse_plan<P>(
    spec: &str,
    default_seed: u64,
    noun: &str,
    presets: [fn(u64) -> P; 3],
    field: for<'a> fn(&'a mut P, &str) -> Option<PlanField<'a>>,
    validate: fn(&P) -> Result<(), String>,
) -> Result<P, String> {
    let (preset, seed) = match spec.split_once('@') {
        Some((name, seed)) => {
            let seed = seed
                .trim()
                .parse::<u64>()
                .map_err(|e| format!("bad {noun} plan seed {seed:?}: {e}"))?;
            (name.trim(), seed)
        }
        None => (spec, default_seed),
    };
    if let Some(i) = ["none", "light", "heavy"].iter().position(|&p| p == preset) {
        return Ok(presets[i](seed));
    }
    if spec.contains('@') {
        return Err(format!(
            "unknown {noun} plan preset {preset:?}, want none|light|heavy"
        ));
    }
    let mut plan = presets[0](default_seed);
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad {noun} spec component {part:?}, want key=value"))?;
        let (key, value) = (key.trim(), value.trim());
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {key}: {e}");
        match field(&mut plan, key) {
            Some(PlanField::F64(slot)) => *slot = value.parse().map_err(|e| bad(&e))?,
            Some(PlanField::U64(slot)) => *slot = value.parse().map_err(|e| bad(&e))?,
            None => return Err(format!("unknown {noun} plan key {key:?}")),
        }
    }
    validate(&plan)?;
    Ok(plan)
}

/// How many faults of each class were actually injected during a run.
/// Reported in [`crate::SimStats::faults`] so experiments can correlate
/// degradation with injected load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Heatmap Bloom-filter bits toggled.
    pub heatmap_bit_flips: u64,
    /// Interrupts dropped (and re-raised later).
    pub dropped_irqs: u64,
    /// Spurious interrupts raised.
    pub spurious_irqs: u64,
    /// SuperFunction completions delayed.
    pub delayed_completions: u64,
    /// Core stalls injected.
    pub core_stalls: u64,
}

impl FaultCounts {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.heatmap_bit_flips
            + self.dropped_irqs
            + self.spurious_irqs
            + self.delayed_completions
            + self.core_stalls
    }
}

/// The engine-side injector: a plan plus a private deterministic RNG
/// stream and running counts.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SmallRng,
    counts: FaultCounts,
}

impl FaultInjector {
    /// Builds an injector from a validated plan.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SmallRng::seed_from_u64(plan.seed ^ 0xFA_17_FA_17_FA_17_FA_17);
        FaultInjector {
            plan,
            rng,
            counts: FaultCounts::default(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counts so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    // Each decision consumes exactly one draw from the private stream
    // regardless of outcome, so the stream stays aligned with the
    // simulation's fault *opportunities* and reruns are reproducible.
    fn roll(&mut self, rate: f64) -> bool {
        let draw: f64 = self.rng.gen();
        rate > 0.0 && draw < rate
    }

    /// Should this quantum flip a heatmap bit? Returns the bit index to
    /// toggle (mod the filter width) if so.
    pub fn heatmap_bit_flip(&mut self) -> Option<u32> {
        if self.roll(self.plan.heatmap_bitflip_rate) {
            self.counts.heatmap_bit_flips += 1;
            Some(self.rng.gen_range(0..u32::MAX))
        } else {
            None
        }
    }

    /// Should this interrupt be dropped? Returns the re-delivery delay
    /// if so.
    pub fn drop_irq(&mut self) -> Option<u64> {
        if self.roll(self.plan.drop_irq_rate) {
            self.counts.dropped_irqs += 1;
            Some(self.plan.irq_retry_cycles.max(1))
        } else {
            None
        }
    }

    /// Should a spurious interrupt be raised after this event?
    pub fn spurious_irq(&mut self) -> bool {
        if self.roll(self.plan.spurious_irq_rate) {
            self.counts.spurious_irqs += 1;
            true
        } else {
            false
        }
    }

    /// Uniformly picks the core a spurious interrupt lands on. Drawn
    /// from the injector's private stream so reruns pick the same core.
    pub fn spurious_target(&mut self, num_cores: usize) -> usize {
        self.rng.gen_range(0..num_cores.max(1))
    }

    /// Should this completion be delayed? Returns the extra
    /// instructions to charge if so.
    pub fn delay_completion(&mut self) -> Option<u64> {
        if self.roll(self.plan.delay_completion_rate) {
            self.counts.delayed_completions += 1;
            Some(self.plan.delay_completion_instructions.max(1))
        } else {
            None
        }
    }

    /// Should this core step stall? Returns the stall length if so.
    pub fn stall_core(&mut self) -> Option<u64> {
        if self.roll(self.plan.stall_core_rate) {
            self.counts.core_stalls += 1;
            Some(self.plan.stall_cycles.max(1))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inactive_and_valid() {
        let plan = FaultPlan::none(1);
        assert!(!plan.is_active());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn presets_are_valid_and_active() {
        for plan in [FaultPlan::light(3), FaultPlan::heavy(3)] {
            assert!(plan.is_active());
            assert!(plan.validate().is_ok());
        }
    }

    #[test]
    fn bad_rate_rejected() {
        let plan = FaultPlan {
            drop_irq_rate: 1.5,
            ..FaultPlan::none(0)
        };
        assert!(matches!(
            plan.validate(),
            Err(ConfigError::BadFaultRate {
                field: "drop_irq_rate",
                ..
            })
        ));
        let plan = FaultPlan {
            stall_core_rate: f64::NAN,
            ..FaultPlan::none(0)
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn injector_is_deterministic() {
        let plan = FaultPlan::heavy(99);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for _ in 0..10_000 {
            assert_eq!(a.heatmap_bit_flip(), b.heatmap_bit_flip());
            assert_eq!(a.drop_irq(), b.drop_irq());
            assert_eq!(a.spurious_irq(), b.spurious_irq());
            assert_eq!(a.delay_completion(), b.delay_completion());
            assert_eq!(a.stall_core(), b.stall_core());
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().total() > 0, "heavy plan injected nothing");
    }

    #[test]
    fn zero_rate_classes_never_fire() {
        let mut inj = FaultInjector::new(FaultPlan::none(5));
        for _ in 0..10_000 {
            assert!(inj.heatmap_bit_flip().is_none());
            assert!(inj.drop_irq().is_none());
            assert!(!inj.spurious_irq());
            assert!(inj.delay_completion().is_none());
            assert!(inj.stall_core().is_none());
        }
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn parse_presets_and_keys() {
        assert_eq!(FaultPlan::parse("light", 7).unwrap(), FaultPlan::light(7));
        let plan = FaultPlan::parse("drop_irq_rate=0.25,seed=11,stall_cycles=123", 7).unwrap();
        assert_eq!(plan.seed, 11);
        assert_eq!(plan.drop_irq_rate, 0.25);
        assert_eq!(plan.stall_cycles, 123);
        assert!(FaultPlan::parse("bogus_key=1", 7).is_err());
        assert!(FaultPlan::parse("drop_irq_rate=2.0", 7).is_err());
        assert!(FaultPlan::parse("drop_irq_rate", 7).is_err());
    }

    #[test]
    fn parse_sets_each_key_and_names_the_fault_plan_in_errors() {
        let spec = "seed=1,heatmap_bitflip_rate=0.1,drop_irq_rate=0.2,irq_retry_cycles=3,\
                    spurious_irq_rate=0.4,delay_completion_rate=0.5,\
                    delay_completion_instructions=6,stall_core_rate=0.7,stall_cycles=8";
        let want = FaultPlan {
            seed: 1,
            heatmap_bitflip_rate: 0.1,
            drop_irq_rate: 0.2,
            irq_retry_cycles: 3,
            spurious_irq_rate: 0.4,
            delay_completion_rate: 0.5,
            delay_completion_instructions: 6,
            stall_core_rate: 0.7,
            stall_cycles: 8,
        };
        assert_eq!(FaultPlan::parse(spec, 9), Ok(want));
        assert_eq!(FaultPlan::parse("heavy@42", 7), Ok(FaultPlan::heavy(42)));
        for (spec, err) in [
            (
                "bogus@1",
                "unknown fault plan preset \"bogus\", want none|light|heavy",
            ),
            (
                "light@x",
                "bad fault plan seed \"x\": invalid digit found in string",
            ),
            (
                "stall_cycles",
                "bad fault spec component \"stall_cycles\", want key=value",
            ),
            ("bogus_key=1", "unknown fault plan key \"bogus_key\""),
            (
                "stall_cycles=-1",
                "bad value for stall_cycles: invalid digit found in string",
            ),
            (
                "drop_irq_rate=x",
                "bad value for drop_irq_rate: invalid float literal",
            ),
        ] {
            assert_eq!(FaultPlan::parse(spec, 7), Err(err.to_string()), "{spec}");
        }
    }
}
