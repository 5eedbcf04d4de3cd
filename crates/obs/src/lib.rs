//! Structured observability for the SchedTask reproduction.
//!
//! This crate is the answer to "where did the cycles go": cheap atomic
//! [counters](Counter), hierarchical [spans](SpanKind) (run → epoch →
//! SuperFunction execution segment) with self/child cycle attribution,
//! and pluggable sinks — the in-memory [`Aggregator`], the
//! [`JsonlSink`] event writer, and the human summary tables rendered by
//! [`render_counter_table`] / [`render_span_table`].
//!
//! The event and span vocabulary is the simulator's: only the engine
//! and its schedulers emit [`ObsEvent`]s. The `schedtaskd` worker and
//! router have no events of their own; each adds to a [`CounterSet`]
//! of its own and prints it with [`render_counter_table`].
//!
//! # The `Observer` trait
//!
//! Everything funnels through one trait. The engine (and schedulers,
//! via the engine's context) announce [`ObsEvent`]s and SF execution
//! segments; sinks decide what to keep. Observers take `&self` and must
//! be `Send + Sync` so one sink can be shared across sweep worker
//! threads behind an `Arc`.
//!
//! # Zero overhead when disabled
//!
//! The engine keeps a cached "any observer attached?" flag and skips
//! event *construction* — not just delivery — when it is false, so an
//! unobserved simulation pays one predictable branch per hook site.
//! `crates/bench/benches/obs_overhead.rs` holds the contract that even
//! an attached no-op observer stays within 1% of an unobserved run.
//!
//! This crate is a dependency-free leaf: events carry raw `u64`/`u32`
//! identifiers so every layer (kernel, core, baselines, experiments)
//! can link against it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod aggregate;
mod counters;
mod event;
mod jsonl;

pub use aggregate::{render_counter_table, render_span_table, Aggregator, SpanRow};
pub use counters::{Counter, CounterSet, CounterSnapshot};
pub use event::{FaultKind, ObsEvent, SfClass, SpanKind, StealLevel};
pub use jsonl::{escape_json, event_to_json, push_escaped, JsonlSink};

/// A sink for structured observability data.
///
/// All methods default to no-ops so sinks implement only what they
/// need: [`JsonlSink`] keeps events, the [`Aggregator`] keeps both
/// events and spans, a test probe might watch a single event kind.
pub trait Observer: Send + Sync {
    /// A structured event occurred.
    fn event(&self, ev: &ObsEvent) {
        let _ = ev;
    }

    /// A span opened. `core` is the core executing the SuperFunction
    /// segment; `at` is its clock in cycles.
    fn span_enter(&self, core: u32, kind: SpanKind, at: u64) {
        let _ = (core, kind, at);
    }

    /// The matching close of [`Observer::span_enter`].
    fn span_exit(&self, core: u32, kind: SpanKind, at: u64) {
        let _ = (core, kind, at);
    }
}

/// The do-nothing observer.
///
/// Attaching a `NoopObserver` deliberately puts the engine on its
/// "observed" path (event construction plus a virtual call that
/// discards everything). That is the configuration the overhead bench
/// compares against a fully unobserved run, proving the observed path
/// itself is affordable.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn event(&self, _ev: &ObsEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn observer_is_object_safe_and_shareable() {
        let obs: Arc<dyn Observer> = Arc::new(NoopObserver);
        obs.event(&ObsEvent::RunStart { at: 0 });
        obs.span_enter(0, SpanKind::Sf(SfClass::Application), 0);
        obs.span_exit(0, SpanKind::Sf(SfClass::Application), 1);
    }
}
