//! Typed errors for the simulation engine and scheduler plug-ins.
//!
//! The robustness layer's contract: library code never aborts the
//! process. Conditions that used to be `panic!`/`expect` sites surface
//! as [`EngineError`] from [`crate::Engine::run`] (or [`SchedError`]
//! from scheduler hooks, which the engine wraps), so sweep harnesses can
//! isolate a failing (technique, benchmark) cell, record a diagnostic,
//! and continue.

use crate::ids::{CoreId, SfId};
use schedtask_workload::SfCategory;
use std::fmt;

/// A configuration rejected at construction time (instead of panicking
/// mid-run).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The workload has no benchmark parts.
    EmptyWorkload,
    /// The scheduling epoch length is zero or implausibly long.
    EpochOutOfRange {
        /// The rejected epoch length.
        cycles: u64,
    },
    /// The execution quantum is zero.
    ZeroQuantum,
    /// The post-warm-up instruction budget is zero.
    ZeroMaxInstructions,
    /// `workload_reference_cores` is zero.
    ZeroReferenceCores,
    /// A fault-injection rate is outside `[0, 1]` or not finite.
    BadFaultRate {
        /// Which rate field was rejected.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A device model's inter-arrival period is zero.
    BadDevicePeriod {
        /// Index of the rejected device in `EngineConfig::devices`.
        index: usize,
    },
    /// The simulated machine failed validation (`schedtask-sim`).
    System(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyWorkload => write!(f, "workload must not be empty"),
            ConfigError::EpochOutOfRange { cycles } => {
                write!(f, "epoch length of {cycles} cycles is out of range")
            }
            ConfigError::ZeroQuantum => write!(f, "quantum_instructions must be positive"),
            ConfigError::ZeroMaxInstructions => {
                write!(f, "max_instructions must be positive")
            }
            ConfigError::ZeroReferenceCores => {
                write!(f, "workload_reference_cores must be positive")
            }
            ConfigError::BadFaultRate { field, value } => {
                write!(f, "fault rate {field} = {value} is not in [0, 1]")
            }
            ConfigError::BadDevicePeriod { index } => {
                write!(f, "device model {index} has a zero inter-arrival period")
            }
            ConfigError::System(msg) => write!(f, "invalid machine configuration: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// An error raised by a [`crate::Scheduler`] hook.
///
/// Schedulers own runnable queues and placement tables; when those
/// internal structures become inconsistent (a queued SuperFunction that
/// no longer exists, an empty candidate set where the policy guarantees
/// one), the hook reports it instead of panicking and the engine
/// converts it into [`EngineError::Scheduler`].
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// A per-core queue is internally inconsistent (bad position, lost
    /// entry).
    CorruptQueue {
        /// Which core's queue.
        core: CoreId,
        /// What went wrong.
        detail: String,
    },
    /// A policy invariant guaranteed a non-empty candidate set but it was
    /// empty.
    NoCandidate {
        /// What was being selected.
        detail: String,
    },
    /// Any other internal inconsistency.
    Internal(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::CorruptQueue { core, detail } => {
                write!(f, "corrupt runnable queue on {core}: {detail}")
            }
            SchedError::NoCandidate { detail } => {
                write!(f, "empty candidate set: {detail}")
            }
            SchedError::Internal(msg) => write!(f, "scheduler internal error: {msg}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// One invariant violation detected by the opt-in sanitizer
/// ([`crate::EngineConfig::sanitize`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Simulated cycle at which the check ran.
    pub at_cycle: u64,
    /// Which conservation property failed.
    pub check: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant {:?} violated at cycle {}: {}",
            self.check, self.at_cycle, self.detail
        )
    }
}

/// A failed simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The configuration or workload was rejected at construction.
    Config(ConfigError),
    /// The engine referenced a SuperFunction that does not exist.
    UnknownSuperFunction(SfId),
    /// A core was asked to execute with no current SuperFunction.
    NoCurrentSf {
        /// The affected core.
        core: CoreId,
    },
    /// The event queue was popped while empty.
    EventQueueUnderflow,
    /// A service-catalog lookup (syscall / interrupt / bottom half) failed.
    UnknownService {
        /// The category searched.
        category: SfCategory,
        /// The name no handler of that category has.
        name: String,
    },
    /// A scheduler hook failed.
    Scheduler(SchedError),
    /// The watchdog observed no forward progress for too long.
    Livelock {
        /// Simulated cycle at detection.
        at_cycle: u64,
        /// Simulated cycles since the last retired application or
        /// system-call instruction.
        stalled_cycles: u64,
        /// Events processed in total.
        events_processed: u64,
    },
    /// The sanitizer detected an invariant violation.
    InvariantViolation(Violation),
    /// Internal state corruption that has no more specific variant (a
    /// condition the engine's own logic should make impossible).
    StateCorruption {
        /// What was found.
        detail: String,
    },
    /// [`crate::Engine::run`] was called a second time.
    AlreadyRan,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid configuration: {e}"),
            EngineError::UnknownSuperFunction(sf) => {
                write!(f, "unknown SuperFunction {sf}")
            }
            EngineError::NoCurrentSf { core } => {
                write!(f, "{core} has no current SuperFunction to execute")
            }
            EngineError::EventQueueUnderflow => write!(f, "event queue underflow"),
            EngineError::UnknownService { category, name } => {
                write!(f, "unknown {category} {name:?} in service catalog")
            }
            EngineError::Scheduler(e) => write!(f, "scheduler failure: {e}"),
            EngineError::Livelock {
                at_cycle,
                stalled_cycles,
                events_processed,
            } => write!(
                f,
                "livelock: no workload progress for {stalled_cycles} cycles \
                 (at cycle {at_cycle}, {events_processed} events processed)"
            ),
            EngineError::InvariantViolation(v) => write!(f, "{v}"),
            EngineError::StateCorruption { detail } => {
                write!(f, "engine state corruption: {detail}")
            }
            EngineError::AlreadyRan => write!(f, "engine already ran"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<SchedError> for EngineError {
    fn from(e: SchedError) -> Self {
        EngineError::Scheduler(e)
    }
}

impl From<Violation> for EngineError {
    fn from(v: Violation) -> Self {
        EngineError::InvariantViolation(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = EngineError::UnknownSuperFunction(SfId(7));
        assert!(e.to_string().contains("sf7"));
        let e = EngineError::NoCurrentSf { core: CoreId(3) };
        assert!(e.to_string().contains("core3"));
        let e = EngineError::from(ConfigError::ZeroQuantum);
        assert!(e.to_string().contains("quantum_instructions"));
        let e = EngineError::from(SchedError::NoCandidate {
            detail: "steal victim".into(),
        });
        assert!(e.to_string().contains("steal victim"));
    }

    #[test]
    fn violation_displays_check_and_cycle() {
        let v = Violation {
            at_cycle: 42,
            check: "monotone-time",
            detail: "now went backwards".into(),
        };
        let msg = EngineError::from(v).to_string();
        assert!(msg.contains("monotone-time") && msg.contains("42"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&EngineError::EventQueueUnderflow);
        takes_err(&SchedError::Internal("x".into()));
        takes_err(&ConfigError::ZeroQuantum);
    }
}
