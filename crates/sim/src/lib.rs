//! Cycle-approximate multicore memory-hierarchy substrate for the
//! SchedTask reproduction.
//!
//! The paper evaluates scheduling techniques on a 32-core machine
//! simulated by Tejas (Table 2). This crate supplies the equivalent
//! substrate: set-associative caches with LRU replacement, instruction and
//! data TLBs, a lightweight ownership-based coherence model, the
//! appendix's optional instruction prefetcher and trace cache, and the
//! machine configurations used in every experiment (Table 2 baseline,
//! Config1/2/3, i-cache and core-count sweeps). [`SystemConfig`] holds
//! only what those experiments vary; the values the paper fixes are named
//! constants: [`LINE_BYTES`] and the [`memory`] module's latencies, TLB
//! sizes and optional-part sizes.
//!
//! The central type is [`MemorySystem`]: the discrete-event engine in
//! `schedtask-kernel` calls [`MemorySystem::fetch_code`] for every
//! executed instruction cache line and [`MemorySystem::access_data`] for
//! every data reference, and receives stall cycles back.
//!
//! # Examples
//!
//! ```
//! use schedtask_sim::{CodeDomain, MemorySystem, SystemConfig};
//!
//! let cfg = SystemConfig::table2().with_cores(2);
//! let mut mem = MemorySystem::new(&cfg);
//!
//! // A cold fetch pays the full memory round-trip...
//! let cold = mem.fetch_code(0, 0x4_0000, CodeDomain::Application);
//! // ...and a warm one is free (latency hidden by the pipeline).
//! let warm = mem.fetch_code(0, 0x4_0000, CodeDomain::Application);
//! assert!(cold > 0 && warm == 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod branch;
pub mod cache;
pub mod coherence;
pub mod config;
pub mod heatmap;
pub mod memory;
pub mod nuca;
pub mod prefetch;
pub mod stats;
pub mod tlb;
pub mod trace_cache;

pub use branch::GshareBranchPredictor;
pub use cache::{ReplacementPolicy, SetAssocCache};
pub use coherence::{Directory, LineState, ReadOutcome, SharerMask, WriteOutcome};
pub use config::{CacheParams, HierarchyConfig, SystemConfig, LINE_BYTES, MAX_CORES};
pub use heatmap::PageHeatmap;
pub use memory::{MemorySystem, LINES_PER_PAGE, PAGE_BYTES};
pub use nuca::NucaModel;
pub use prefetch::CallGraphPrefetcher;
pub use stats::{CodeDomain, HitMiss, MemStats};
pub use tlb::Tlb;
pub use trace_cache::TraceCache;
