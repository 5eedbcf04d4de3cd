//! Deterministic, seed-driven chaos injection for the serve path.
//!
//! A [`ChaosPlan`] is to `schedtaskd` what
//! [`FaultPlan`](schedtask_kernel::FaultPlan) is to the simulation
//! engine: a declaration of *what* to break and *how often*, with a
//! private RNG stream seeded only by [`ChaosPlan::seed`] so the same
//! plan breaks the same things in the same order on every run. The
//! serve proptests (`tests/chaos_server.rs` for a worker killed and
//! restarted on its cache directory, `tests/fleet_chaos.rs` for a
//! fleet) lean on that determinism to assert invariants — no corrupt
//! bytes served, recovery converges, a retrying client eventually gets
//! byte-identical results — instead of hoping a flaky run happens to
//! exercise the right path.
//!
//! Five failure classes are modelled:
//!
//! * **torn cache writes** — a disk append stops partway through a
//!   record, as a crash mid-`write` would leave it.
//! * **disk full** — an append fails outright; the job still succeeds
//!   from memory, the disk tier just misses one record.
//! * **worker panics** — an executor panics mid-job; the existing
//!   `catch_unwind` isolation must convert it into a per-job error.
//! * **delayed / truncated responses** — the daemon stalls before
//!   responding or sends only a prefix of the response line.
//! * **dropped connections** — the daemon closes the socket before
//!   responding at all.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schedtask_kernel::faults::{parse_plan, PlanField};

/// How often to inject each serve-path failure class. All `*_rate`
/// fields are per-opportunity probabilities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// Probability (per disk append) that the write is torn partway.
    pub torn_write_rate: f64,
    /// Probability (per disk append) that the write fails as if the
    /// disk were full.
    pub disk_full_rate: f64,
    /// Probability (per executed job) that the worker panics mid-job.
    pub worker_panic_rate: f64,
    /// Probability (per response) that the daemon stalls
    /// [`ChaosPlan::delay_ms`] before writing it.
    pub delay_response_rate: f64,
    /// Stall length for a delayed response, in milliseconds.
    pub delay_ms: u64,
    /// Probability (per response) that only a prefix of the line is
    /// written before the connection closes.
    pub truncate_response_rate: f64,
    /// Probability (per response) that the connection is dropped
    /// without writing anything.
    pub drop_connection_rate: f64,
}

impl ChaosPlan {
    /// A plan that injects nothing (determinism control).
    pub fn none(seed: u64) -> Self {
        ChaosPlan {
            seed,
            torn_write_rate: 0.0,
            disk_full_rate: 0.0,
            worker_panic_rate: 0.0,
            delay_response_rate: 0.0,
            delay_ms: 50,
            truncate_response_rate: 0.0,
            drop_connection_rate: 0.0,
        }
    }

    /// A light plan: rare injections of every class — rough weather,
    /// not a hurricane. A retrying client should sail through.
    pub fn light(seed: u64) -> Self {
        ChaosPlan {
            torn_write_rate: 0.05,
            disk_full_rate: 0.02,
            worker_panic_rate: 0.02,
            delay_response_rate: 0.05,
            truncate_response_rate: 0.03,
            drop_connection_rate: 0.03,
            ..ChaosPlan::none(seed)
        }
    }

    /// A heavy plan: every class fires often; only a disciplined
    /// retry/backoff client makes progress.
    pub fn heavy(seed: u64) -> Self {
        ChaosPlan {
            torn_write_rate: 0.25,
            disk_full_rate: 0.10,
            worker_panic_rate: 0.10,
            delay_response_rate: 0.20,
            truncate_response_rate: 0.15,
            drop_connection_rate: 0.15,
            ..ChaosPlan::none(seed)
        }
    }

    /// True if any class has a non-zero rate.
    pub fn is_active(&self) -> bool {
        self.torn_write_rate > 0.0
            || self.disk_full_rate > 0.0
            || self.worker_panic_rate > 0.0
            || self.delay_response_rate > 0.0
            || self.truncate_response_rate > 0.0
            || self.drop_connection_rate > 0.0
    }

    /// Checks every rate is a probability.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("torn_write_rate", self.torn_write_rate),
            ("disk_full_rate", self.disk_full_rate),
            ("worker_panic_rate", self.worker_panic_rate),
            ("delay_response_rate", self.delay_response_rate),
            ("truncate_response_rate", self.truncate_response_rate),
            ("drop_connection_rate", self.drop_connection_rate),
        ];
        for (field, value) in rates {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(format!("chaos rate {field} must be in [0, 1], got {value}"));
            }
        }
        Ok(())
    }

    /// Parses the `--chaos` spec in the grammar `--faults` shares
    /// ([`parse_plan`]), e.g. `light@42` or
    /// `torn_write_rate=0.5,drop_connection_rate=0.1,seed=7`.
    pub fn parse(spec: &str, default_seed: u64) -> Result<Self, String> {
        fn field<'a>(p: &'a mut ChaosPlan, key: &str) -> Option<PlanField<'a>> {
            use PlanField::{F64, U64};
            Some(match key {
                "seed" => U64(&mut p.seed),
                "torn_write_rate" => F64(&mut p.torn_write_rate),
                "disk_full_rate" => F64(&mut p.disk_full_rate),
                "worker_panic_rate" => F64(&mut p.worker_panic_rate),
                "delay_response_rate" => F64(&mut p.delay_response_rate),
                "delay_ms" => U64(&mut p.delay_ms),
                "truncate_response_rate" => F64(&mut p.truncate_response_rate),
                "drop_connection_rate" => F64(&mut p.drop_connection_rate),
                _ => return None,
            })
        }
        parse_plan(
            spec,
            default_seed,
            "chaos",
            [ChaosPlan::none, ChaosPlan::light, ChaosPlan::heavy],
            field,
            ChaosPlan::validate,
        )
    }
}

/// What the transport layer should do with one outgoing response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseAction {
    /// Write the response normally.
    Normal,
    /// Sleep this many milliseconds, then write normally.
    Delay(u64),
    /// Write only this many bytes of the line, then close.
    Truncate(usize),
    /// Close the connection without writing anything.
    Drop,
}

/// The server-side injector: a plan plus a private deterministic RNG
/// stream. One injector is shared across the daemon behind a mutex;
/// injection order therefore depends on request interleaving, but each
/// *decision stream* is reproducible for a given seed and arrival
/// order (the chaos proptests drive a single-threaded client, which
/// pins the order completely).
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    plan: ChaosPlan,
    rng: SmallRng,
}

impl ChaosInjector {
    /// Builds an injector from a validated plan.
    pub fn new(plan: ChaosPlan) -> Self {
        let rng = SmallRng::seed_from_u64(plan.seed ^ 0xC4A0_5C4A_05C4_A05C);
        ChaosInjector { plan, rng }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    // One draw per decision regardless of outcome, so the stream stays
    // aligned with injection *opportunities* across reruns.
    fn roll(&mut self, rate: f64) -> bool {
        let draw: f64 = self.rng.gen();
        rate > 0.0 && draw < rate
    }

    /// Should this disk append be torn? Returns the number of bytes to
    /// keep (at least 1) given the full record length.
    pub fn torn_write(&mut self, record_len: usize) -> Option<usize> {
        if self.roll(self.plan.torn_write_rate) {
            Some(self.rng.gen_range(1..record_len.max(2)))
        } else {
            None
        }
    }

    /// Should this disk append fail as if the disk were full?
    pub fn disk_full(&mut self) -> bool {
        self.roll(self.plan.disk_full_rate)
    }

    /// Should this job's worker panic mid-execution?
    pub fn worker_panic(&mut self) -> bool {
        self.roll(self.plan.worker_panic_rate)
    }

    /// Picks the fate of one outgoing response line of `line_len`
    /// bytes. Classes are rolled in a fixed order (drop, truncate,
    /// delay) with one draw each.
    pub fn response_action(&mut self, line_len: usize) -> ResponseAction {
        let drop_conn = self.roll(self.plan.drop_connection_rate);
        let truncate = self.roll(self.plan.truncate_response_rate);
        let delay = self.roll(self.plan.delay_response_rate);
        if drop_conn {
            ResponseAction::Drop
        } else if truncate {
            ResponseAction::Truncate(self.rng.gen_range(0..line_len.max(1)))
        } else if delay {
            ResponseAction::Delay(self.plan.delay_ms)
        } else {
            ResponseAction::Normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inactive_and_valid() {
        let plan = ChaosPlan::none(1);
        assert!(!plan.is_active());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn presets_are_valid_and_active() {
        for plan in [ChaosPlan::light(3), ChaosPlan::heavy(3)] {
            assert!(plan.is_active());
            assert!(plan.validate().is_ok());
        }
    }

    #[test]
    fn parse_presets_seeds_and_keys() {
        assert_eq!(ChaosPlan::parse("light", 7).unwrap(), ChaosPlan::light(7));
        assert_eq!(
            ChaosPlan::parse("heavy@42", 7).unwrap(),
            ChaosPlan::heavy(42)
        );
        let plan = ChaosPlan::parse("torn_write_rate=0.5,seed=11,delay_ms=9", 7).unwrap();
        assert_eq!(plan.seed, 11);
        assert_eq!(plan.torn_write_rate, 0.5);
        assert_eq!(plan.delay_ms, 9);
        assert!(ChaosPlan::parse("bogus@1", 7).is_err());
        assert!(ChaosPlan::parse("bogus_key=1", 7).is_err());
        assert!(ChaosPlan::parse("torn_write_rate=2.0", 7).is_err());
        assert!(ChaosPlan::parse("torn_write_rate", 7).is_err());
    }

    #[test]
    fn parse_sets_each_key_and_names_the_chaos_plan_in_errors() {
        let spec = "seed=1,torn_write_rate=0.1,disk_full_rate=0.2,worker_panic_rate=0.3,\
                    delay_response_rate=0.4,delay_ms=5,truncate_response_rate=0.6,\
                    drop_connection_rate=0.7";
        let want = ChaosPlan {
            seed: 1,
            torn_write_rate: 0.1,
            disk_full_rate: 0.2,
            worker_panic_rate: 0.3,
            delay_response_rate: 0.4,
            delay_ms: 5,
            truncate_response_rate: 0.6,
            drop_connection_rate: 0.7,
        };
        assert_eq!(ChaosPlan::parse(spec, 9), Ok(want));
        for (spec, err) in [
            (
                "bogus@1",
                "unknown chaos plan preset \"bogus\", want none|light|heavy",
            ),
            (
                "light@x",
                "bad chaos plan seed \"x\": invalid digit found in string",
            ),
            (
                "delay_ms",
                "bad chaos spec component \"delay_ms\", want key=value",
            ),
            ("bogus_key=1", "unknown chaos plan key \"bogus_key\""),
            (
                "delay_ms=-1",
                "bad value for delay_ms: invalid digit found in string",
            ),
            (
                "disk_full_rate=2",
                "chaos rate disk_full_rate must be in [0, 1], got 2",
            ),
        ] {
            assert_eq!(ChaosPlan::parse(spec, 7), Err(err.to_string()), "{spec}");
        }
    }

    #[test]
    fn injector_is_deterministic() {
        let plan = ChaosPlan::heavy(99);
        let mut a = ChaosInjector::new(plan.clone());
        let mut b = ChaosInjector::new(plan);
        let mut fired = 0u64;
        for _ in 0..10_000 {
            assert_eq!(a.torn_write(100), b.torn_write(100));
            assert_eq!(a.disk_full(), b.disk_full());
            assert_eq!(a.worker_panic(), b.worker_panic());
            let act = a.response_action(80);
            assert_eq!(act, b.response_action(80));
            if act != ResponseAction::Normal {
                fired += 1;
            }
        }
        assert!(fired > 0, "heavy plan injected nothing");
    }

    #[test]
    fn zero_rate_classes_never_fire() {
        let mut inj = ChaosInjector::new(ChaosPlan::none(5));
        for _ in 0..10_000 {
            assert!(inj.torn_write(100).is_none());
            assert!(!inj.disk_full());
            assert!(!inj.worker_panic());
            assert_eq!(inj.response_action(80), ResponseAction::Normal);
        }
    }
}
