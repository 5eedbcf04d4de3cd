//! Experiment harness regenerating every table and figure of the
//! SchedTask paper (MICRO 2017) and its arXiv appendix.
//!
//! Each module corresponds to one table/figure and keeps only its table
//! formatting: it declares the [`Grid`] of cells it needs, and one
//! [`Runner`] simulates them, each distinct cell once per runner, so the
//! figures of one `repro` invocation share their common cells. The
//! `repro` binary exposes the modules as subcommands. See DESIGN.md's
//! experiment index for the mapping:
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Figure 4, Section 4.4 | [`fig04_breakup`] |
//! | Figures 7, 8a-f, 10 | [`comparison`] |
//! | Figure 9a-c | [`fig09_stealing`] |
//! | Figure 11, Section 6.5 | [`fig11_heatmap`] |
//! | Section 6.1 overheads | [`overheads`] |
//! | Table 4 | [`table4_workload`] |
//! | Appendix Figures 1-3, Tables 2-4 | [`appendix`] |
//! | Design-choice ablations (beyond the paper) | [`ablations`] |
//!
//! # Examples
//!
//! ```no_run
//! use schedtask_experiments::{table4_workload, Comparison, ExpParams, Runner};
//! use schedtask_workload::BenchmarkKind;
//!
//! let mut runner = Runner::new(4); // up to four cells at a time
//! let p = ExpParams::standard();
//! let comparison =
//!     Comparison::run(&mut runner, &p, 2.0, &BenchmarkKind::all()).expect("runs succeed");
//! println!("{}", comparison.fig07_performance());
//! // Table 4's 2X block is the same grid: read back, not re-simulated.
//! let blocks = table4_workload::run(&mut runner, &p, &[2.0]).expect("runs succeed");
//! println!("{}", table4_workload::block_table(&blocks[0]));
//! assert_eq!(runner.simulated(), 48);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod ablations;
pub mod appendix;
pub mod comparison;
pub mod fig04_breakup;
pub mod fig09_stealing;
pub mod fig11_heatmap;
pub mod overheads;
pub mod runner;
pub mod serve_api;
pub mod table;
pub mod table4_workload;

pub use comparison::Comparison;
pub use runner::{
    CellObs, CellOutcome, ExpParams, ExperimentError, FailAfterScheduler, FailureCause, Grid,
    RunBuilder, Runner, SweepReport, Technique, Variant,
};
pub use serve_api::{Endpoint, JobSpec, Request, RequestOp, Response, ServeClient};
pub use table::Table;
