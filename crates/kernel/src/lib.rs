//! The OS model and discrete-event simulation engine for the SchedTask
//! reproduction.
//!
//! This crate supplies everything between the memory-hierarchy substrate
//! (`schedtask-sim`) and the scheduling policies (`schedtask-baselines`,
//! `schedtask`):
//!
//! * the SuperFunction object model of Section 3.3
//!   ([`SuperFunction`], [`SfState`], [`SfBody`]), including the paper's
//!   distributed `superFuncID` allocation ([`ids::SfIdAllocator`]);
//! * threads, system-call dispatch, the interrupt controller, bottom
//!   halves, and blocking devices;
//! * the [`Scheduler`] plug-in trait — every technique the paper
//!   evaluates implements it — and the placement machinery they share:
//!   per-core run queues ([`CoreQueues`]) and largest-remainder core
//!   apportionment ([`apportion_cores`]);
//! * the [`Engine`], which executes SuperFunctions quantum by quantum
//!   through the cache hierarchy and collects the statistics every figure
//!   of the paper reports ([`SimStats`]);
//! * a robustness layer: typed errors ([`EngineError`], [`SchedError`],
//!   [`ConfigError`]), a deterministic fault-injection framework
//!   ([`FaultPlan`]), an opt-in invariant sanitizer
//!   ([`EngineConfig::sanitize`]), and a per-run watchdog that converts
//!   livelock into [`EngineError::Livelock`].
//!
//! # Examples
//!
//! ```
//! use schedtask_kernel::{Engine, EngineConfig, GlobalFifoScheduler, WorkloadSpec};
//! use schedtask_sim::SystemConfig;
//! use schedtask_workload::BenchmarkKind;
//!
//! let cfg = EngineConfig::fast()
//!     .with_system(SystemConfig::table2().with_cores(4))
//!     .with_max_instructions(200_000);
//! let workload = WorkloadSpec::single(BenchmarkKind::Find, 1.0);
//! let mut engine = Engine::new(cfg, &workload, Box::new(GlobalFifoScheduler::new()))
//!     .expect("valid config");
//! let stats = engine.run().expect("run succeeds");
//! assert!(stats.total_instructions() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod common;
pub mod config;
pub mod engine;
pub mod error;
pub mod faults;
pub mod ids;
pub(crate) mod observe;
pub(crate) mod sanitizer;
pub mod scheduler;
pub mod stats;
pub mod superfunction;

/// The structured observability layer (re-exported so downstream crates
/// can name `Observer`, `ObsEvent`, sinks, and counters without a
/// separate dependency edge).
pub use schedtask_obs as obs;

pub use common::{apportion_cores, CoreQueues};
pub use config::EngineConfig;
pub use engine::{
    Engine, EngineCore, WorkloadSpec, BASE_CPI, GSHARE_ENTRIES, KERNEL_TID, MISPREDICT_PENALTY,
};
pub use error::{ConfigError, EngineError, SchedError, Violation};
pub use faults::{FaultCounts, FaultPlan};
pub use ids::{CoreId, SfId, ThreadId};
pub use scheduler::{GlobalFifoScheduler, SchedEvent, Scheduler, SwitchReason};
pub use stats::{CategoryInstructions, CoreTime, SimStats, CLOCK_HZ};
pub use superfunction::{SfBody, SfState, SuperFunction};
