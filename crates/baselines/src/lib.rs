//! Baseline schedulers reproduced from the literature, as configured in
//! the paper's Table 3:
//!
//! | Technique | Source | Key modelled property |
//! |---|---|---|
//! | [`LinuxScheduler`] | stock kernel | per-thread home cores, imbalance-only migration |
//! | [`SelectiveOffloadScheduler`] | Nellans et al. | 2× cores, app/OS split, >100-instr offload, **no** load balancing |
//! | [`FlexScScheduler`] | Soares & Stumm | syscall cores, zero-cost user scheduler, Linux reschedule per syscall for single-threaded apps |
//! | [`DisAggregateOsScheduler`] | Lee | programmer-defined syscall regions, zero-cost micro-scheduling, no stealing |
//! | [`SliccScheduler`] | Atta et al. | per-application footprint collectives, zero-cost tag search, no stealing |
//!
//! All five implement [`schedtask_kernel::Scheduler`] and run on the same
//! engine and workloads as SchedTask, exactly as in the paper's
//! methodology.
//!
//! # Examples
//!
//! ```
//! use schedtask_baselines::LinuxScheduler;
//! use schedtask_kernel::{Engine, EngineConfig, WorkloadSpec};
//! use schedtask_sim::SystemConfig;
//! use schedtask_workload::BenchmarkKind;
//!
//! let cfg = EngineConfig::fast()
//!     .with_system(SystemConfig::table2().with_cores(4))
//!     .with_max_instructions(100_000);
//! let mut engine = Engine::new(
//!     cfg,
//!     &WorkloadSpec::single(BenchmarkKind::Find, 1.0),
//!     Box::new(LinuxScheduler::new(4)),
//! )
//! .expect("valid config");
//! let stats = engine.run().expect("run succeeds");
//! assert!(stats.total_instructions() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod disaggregate;
pub mod flexsc;
pub mod linux;
pub mod selective_offload;
pub mod slicc;

pub use disaggregate::DisAggregateOsScheduler;
pub use flexsc::FlexScScheduler;
pub use linux::LinuxScheduler;
pub use selective_offload::SelectiveOffloadScheduler;
pub use slicc::SliccScheduler;
