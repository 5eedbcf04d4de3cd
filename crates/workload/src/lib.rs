//! Synthetic OS-intensive workload models for the SchedTask reproduction.
//!
//! The paper characterizes 8 benchmarks by the SuperFunctions they
//! execute (Section 4). This crate replaces the paper's Qemu-collected
//! full-system traces with *footprint-faithful synthetic workloads*:
//!
//! * a shared physical address space ([`PageAllocator`]) in which named
//!   regions model shared kernel code, shared libraries, and shared
//!   executables;
//! * an OS service catalog ([`ServiceCatalog`]) of system-call handlers,
//!   interrupt handlers, and bottom halves with realistic footprints,
//!   lengths, and blocking behaviour;
//! * per-benchmark models ([`BenchmarkSpec`]/[`BenchmarkInstance`])
//!   calibrated to Figure 4's instruction breakups; and
//! * deterministic [`FootprintWalker`]s that turn footprints into the
//!   instruction-line/data-reference streams the timing substrate
//!   consumes.
//!
//! # Examples
//!
//! ```
//! use schedtask_workload::{BenchmarkInstance, BenchmarkKind, BenchmarkSpec, PageAllocator};
//!
//! let mut alloc = PageAllocator::new();
//! let apache = BenchmarkInstance::new(
//!     BenchmarkSpec::for_kind(BenchmarkKind::Apache),
//!     &mut alloc,
//! );
//! // 96 simultaneous requests on 32 cores at the 1X workload.
//! assert_eq!(apache.spec.threads(32, 1.0), 96);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod benchmarks;
pub mod dist;
pub mod footprint;
pub mod multiprog;
pub mod pagealloc;
pub mod services;
pub mod types;
pub mod walker;

pub use benchmarks::{BenchmarkInstance, BenchmarkKind, BenchmarkSpec, SyscallMix};
pub use dist::LenDist;
pub use footprint::{Footprint, Region, LINES_PER_PAGE};
pub use multiprog::MultiProgrammedWorkload;
pub use pagealloc::PageAllocator;
pub use services::{BlockingProfile, DeviceKind, ServiceCatalog, ServiceSpec};
pub use types::{SfCategory, SuperFuncType};
pub use walker::{CodeBlock, DataRef, FootprintWalker, WalkParams};
