//! Opt-in invariant sanitizer ([`crate::EngineConfig::sanitize`]).
//!
//! After every engine step (event or core quantum) the sanitizer checks
//! the conservation properties the simulation's correctness rests on:
//!
//! * **placement** — every live SuperFunction is in exactly one place:
//!   `Running` on exactly one core, `Preempted` on exactly one core's
//!   preempt stack, `Runnable` in exactly one scheduler queue (when the
//!   scheduler exposes its queues via
//!   [`crate::Scheduler::queued_sfs`]), never two places at once;
//! * **monotone virtual time** — global `now` and every core clock only
//!   move forward;
//! * **instruction conservation** — the per-category instruction
//!   counters equal the sum of instructions retired by live plus
//!   completed SuperFunctions (modulo the warm-up reset baseline);
//! * **no lost wakeups** — every `Waiting` SuperFunction has a pending
//!   device completion, an undelivered interrupt, or a live
//!   interrupt/bottom-half SuperFunction that will wake it.
//!
//! A failed check aborts the run with
//! [`crate::EngineError::InvariantViolation`]; the number of clean
//! passes is reported in [`crate::SimStats::sanitizer_checks`].

use crate::engine::{EngineCore, EventKind};
use crate::error::Violation;
use crate::ids::SfId;
use crate::scheduler::Scheduler;
use crate::superfunction::{SfBody, SfState};
use std::collections::{HashMap, HashSet};

/// Rolling sanitizer bookkeeping, owned by the engine when
/// [`crate::EngineConfig::sanitize`] is set.
#[derive(Debug)]
pub(crate) struct SanitizerState {
    last_now: u64,
    last_clocks: Vec<u64>,
    /// Offset absorbing the warm-up statistics reset: at rebaseline the
    /// counters restart from zero while SuperFunctions keep their
    /// lifetime totals.
    baseline: u64,
    pub(crate) checks: u64,
}

impl SanitizerState {
    pub(crate) fn new(num_cores: usize) -> Self {
        SanitizerState {
            last_now: 0,
            last_clocks: vec![0; num_cores],
            baseline: 0,
            checks: 0,
        }
    }

    /// The warm-up statistics reset just zeroed the counters.
    ///
    /// Instructions retired by already-reaped SuperFunctions live in
    /// [`EngineCore::retired_completed`], maintained unconditionally by
    /// the completion path so engine code never needs a sanitizer
    /// handle.
    pub(crate) fn rebaseline(&mut self, core: &EngineCore) {
        let live: u64 = core.sfs.values().map(|s| s.instructions_retired).sum();
        self.baseline = live + core.retired_completed;
    }

    /// Runs one full pass; returns the first violation found.
    pub(crate) fn check(
        &mut self,
        core: &EngineCore,
        sched: &dyn Scheduler,
    ) -> Result<(), Violation> {
        let at_cycle = core.now;
        let fail = |check: &'static str, detail: String| -> Result<(), Violation> {
            Err(Violation {
                at_cycle,
                check,
                detail,
            })
        };

        // Monotone virtual time.
        if core.now < self.last_now {
            return fail(
                "monotone-time",
                format!("now went backwards: {} -> {}", self.last_now, core.now),
            );
        }
        self.last_now = core.now;
        for (i, cs) in core.cores.iter().enumerate() {
            if cs.clock < self.last_clocks[i] {
                return fail(
                    "monotone-time",
                    format!(
                        "core{i} clock went backwards: {} -> {}",
                        self.last_clocks[i], cs.clock
                    ),
                );
            }
            self.last_clocks[i] = cs.clock;
        }

        // Placement: each live SF in exactly one place.
        let mut seen: HashMap<SfId, String> = HashMap::new();
        let mut place = |sf: SfId, place: String| -> Result<(), Violation> {
            if let Some(prev) = seen.insert(sf, place.clone()) {
                return Err(Violation {
                    at_cycle,
                    check: "single-placement",
                    detail: format!("{sf} is both {prev} and {place}"),
                });
            }
            Ok(())
        };
        for (i, cs) in core.cores.iter().enumerate() {
            if let Some(cur) = cs.current {
                place(cur, format!("current on core{i}"))?;
            }
            for &p in &cs.preempt_stack {
                place(p, format!("preempted on core{i}"))?;
            }
        }
        let mut queued = Vec::new();
        let queues_known = sched.queued_sfs(&mut queued);
        if queues_known {
            for &q in &queued {
                place(q, "queued".to_string())?;
            }
        }

        // State/placement agreement for every live SF, and wakeup-holder
        // collection for the lost-wakeup check.
        let mut wakeup_holders: HashSet<SfId> = HashSet::new();
        let mut paused_parents: HashSet<SfId> = HashSet::new();
        for ev in core.events.iter() {
            if let EventKind::DeviceComplete { waiter, .. } = ev.kind {
                wakeup_holders.insert(waiter);
            }
        }
        for cs in &core.cores {
            for irq in &cs.pending_irqs {
                if let Some(w) = irq.waiter {
                    wakeup_holders.insert(w);
                }
            }
        }
        for sf in core.sfs.values() {
            match &sf.body {
                SfBody::Interrupt {
                    waiter: Some(w), ..
                } => {
                    wakeup_holders.insert(*w);
                }
                SfBody::BottomHalf { wake: Some(w), .. } => {
                    wakeup_holders.insert(*w);
                }
                _ => {}
            }
            if let Some(parent) = sf.parent {
                paused_parents.insert(parent);
            }
        }

        for sf in core.sfs.values() {
            let placement = seen.get(&sf.id).map(String::as_str);
            match sf.state {
                SfState::Running => {
                    if !placement.is_some_and(|p| p.starts_with("current")) {
                        return fail(
                            "single-placement",
                            format!("{} is Running but current on no core", sf.id),
                        );
                    }
                }
                SfState::Preempted => {
                    if !placement.is_some_and(|p| p.starts_with("preempted")) {
                        return fail(
                            "single-placement",
                            format!("{} is Preempted but on no preempt stack", sf.id),
                        );
                    }
                }
                SfState::Runnable => {
                    if queues_known && placement != Some("queued") {
                        return fail(
                            "single-placement",
                            format!(
                                "{} is Runnable but in no scheduler queue ({})",
                                sf.id,
                                placement.unwrap_or("nowhere")
                            ),
                        );
                    }
                    if !queues_known && placement.is_some() {
                        return fail(
                            "single-placement",
                            format!(
                                "{} is Runnable but placed as {}",
                                sf.id,
                                placement.unwrap_or("?")
                            ),
                        );
                    }
                }
                SfState::Waiting => {
                    if placement.is_some() {
                        return fail(
                            "single-placement",
                            format!(
                                "{} is Waiting but placed as {}",
                                sf.id,
                                placement.unwrap_or("?")
                            ),
                        );
                    }
                    if !wakeup_holders.contains(&sf.id) {
                        return fail(
                            "no-lost-wakeups",
                            format!("{} is Waiting with no pending wakeup path", sf.id),
                        );
                    }
                }
                SfState::PausedForChild => {
                    if placement.is_some() {
                        return fail(
                            "single-placement",
                            format!(
                                "{} is PausedForChild but placed as {}",
                                sf.id,
                                placement.unwrap_or("?")
                            ),
                        );
                    }
                    if !paused_parents.contains(&sf.id) {
                        return fail(
                            "no-lost-wakeups",
                            format!("{} is PausedForChild but no live child points at it", sf.id),
                        );
                    }
                }
                SfState::Done => {
                    return fail(
                        "single-placement",
                        format!("{} is Done but was not reaped", sf.id),
                    );
                }
            }
        }
        if queues_known {
            for &q in &queued {
                if !core.sfs.contains_key(&q) {
                    return fail(
                        "single-placement",
                        format!("scheduler queue holds unknown {q}"),
                    );
                }
            }
        }

        // Instruction conservation.
        let live: u64 = core.sfs.values().map(|s| s.instructions_retired).sum();
        let lhs = live + core.retired_completed;
        let rhs = core.stats.instructions.total_workload() + self.baseline;
        if lhs != rhs {
            return fail(
                "instruction-conservation",
                format!(
                    "retired by SuperFunctions = {lhs} but counters say {rhs} \
                     (live {live}, completed {}, baseline {})",
                    core.retired_completed, self.baseline
                ),
            );
        }

        self.checks += 1;
        Ok(())
    }
}
