//! The in-memory sink: rolls events into counters and a three-level
//! span hierarchy (run → epoch → SuperFunction execution segments).

use std::collections::HashMap;
use std::sync::Mutex;

use crate::counters::{Counter, CounterSet, CounterSnapshot};
use crate::event::{ObsEvent, SfClass, SpanKind, StealLevel};
use crate::{FaultKind, Observer};

/// One row of the span summary: how many spans of a kind ran, their
/// total wall cycles, and the cycles not attributed to child spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// Human-readable span kind ("run", "epoch", or an SF class name).
    pub kind: String,
    /// Number of spans of this kind that closed.
    pub count: u64,
    /// Total cycles spent inside spans of this kind.
    pub total_cycles: u64,
    /// Cycles not accounted to child spans. For SF segments this equals
    /// `total_cycles`; for run/epoch spans child time on multiple cores
    /// can exceed the wall clock, in which case self time clamps to 0.
    pub self_cycles: u64,
}

#[derive(Debug, Default)]
struct SpanState {
    run_start: Option<u64>,
    run_total: u64,
    epoch_start: Option<u64>,
    epoch_total: u64,
    epoch_count: u64,
    /// Open SF segment per core: (class, entry cycle).
    open: HashMap<u32, (SfClass, u64)>,
    /// Closed SF segments per class: (count, cycles).
    sf: HashMap<SfClass, (u64, u64)>,
}

impl SpanState {
    fn close_epoch(&mut self, at: u64) {
        if let Some(start) = self.epoch_start.take() {
            self.epoch_total += at.saturating_sub(start);
            self.epoch_count += 1;
        }
    }
}

/// In-memory aggregating sink: atomic counters plus span bookkeeping.
///
/// Attach one per run (or per sweep cell); read results back with
/// [`Aggregator::counters`] and [`Aggregator::span_rows`] after the
/// engine finishes.
#[derive(Debug, Default)]
pub struct Aggregator {
    counters: CounterSet,
    spans: Mutex<SpanState>,
}

impl Aggregator {
    /// A fresh, zeroed aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of every counter accumulated so far.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// The span summary: run, epoch, then one row per SF class that
    /// executed, in stable order.
    pub fn span_rows(&self) -> Vec<SpanRow> {
        let state = self.spans.lock().expect("span state poisoned");
        let mut rows = Vec::new();
        let sf_total: u64 = state.sf.values().map(|&(_, cycles)| cycles).sum();
        if state.run_total > 0 || state.run_start.is_some() {
            rows.push(SpanRow {
                kind: "run".to_owned(),
                count: 1,
                total_cycles: state.run_total,
                self_cycles: state.run_total.saturating_sub(state.epoch_total),
            });
        }
        if state.epoch_count > 0 {
            rows.push(SpanRow {
                kind: "epoch".to_owned(),
                count: state.epoch_count,
                total_cycles: state.epoch_total,
                self_cycles: state.epoch_total.saturating_sub(sf_total),
            });
        }
        for class in SfClass::ALL {
            if let Some(&(count, cycles)) = state.sf.get(&class) {
                rows.push(SpanRow {
                    kind: class.name().to_owned(),
                    count,
                    total_cycles: cycles,
                    self_cycles: cycles,
                });
            }
        }
        rows
    }

    fn on_fault(&self, kind: FaultKind) {
        let counter = match kind {
            FaultKind::HeatmapBitFlip => Counter::FaultHeatmapBitFlips,
            FaultKind::DroppedIrq => Counter::FaultDroppedIrqs,
            FaultKind::SpuriousIrq => Counter::FaultSpuriousIrqs,
            FaultKind::DelayedCompletion => Counter::FaultDelayedCompletions,
            FaultKind::CoreStall => Counter::FaultCoreStalls,
        };
        self.counters.add(counter, 1);
    }
}

impl Observer for Aggregator {
    fn event(&self, ev: &ObsEvent) {
        match *ev {
            ObsEvent::RunStart { at } => {
                let mut s = self.spans.lock().expect("span state poisoned");
                s.run_start = Some(at);
            }
            ObsEvent::RunEnd { at } => {
                let mut s = self.spans.lock().expect("span state poisoned");
                s.close_epoch(at);
                if let Some(start) = s.run_start.take() {
                    s.run_total += at.saturating_sub(start);
                }
            }
            ObsEvent::SfCreated { class, .. } => {
                let counter = match class {
                    SfClass::SystemCall => Counter::SyscallsCreated,
                    SfClass::Interrupt => Counter::InterruptSfsCreated,
                    SfClass::BottomHalf => Counter::BottomHalvesCreated,
                    // Application SFs are pre-built, but count them if
                    // an engine ever announces one.
                    SfClass::Application => Counter::Dispatches,
                };
                if class != SfClass::Application {
                    self.counters.add(counter, 1);
                }
            }
            ObsEvent::Enqueued { .. } => self.counters.add(Counter::Enqueues, 1),
            ObsEvent::Dispatched { .. } => self.counters.add(Counter::Dispatches, 1),
            ObsEvent::Preempted { .. } => self.counters.add(Counter::Preemptions, 1),
            ObsEvent::Blocked { .. } => self.counters.add(Counter::Blocks, 1),
            ObsEvent::Completed { .. } => self.counters.add(Counter::Completions, 1),
            ObsEvent::Migrated { .. } => self.counters.add(Counter::ThreadMigrations, 1),
            ObsEvent::Stolen { level, .. } => {
                let counter = match level {
                    StealLevel::SameWork => Counter::StealsSameWork,
                    StealLevel::SimilarWork => Counter::StealsSimilarWork,
                    StealLevel::MaxWaiting => Counter::StealsMaxWaiting,
                    StealLevel::Any => Counter::StealsAny,
                };
                self.counters.add(counter, 1);
            }
            ObsEvent::IrqRouted { .. } => self.counters.add(Counter::IrqRoutes, 1),
            ObsEvent::FaultInjected { kind, .. } => self.on_fault(kind),
            ObsEvent::EpochStart { at } => {
                self.counters.add(Counter::EpochsRun, 1);
                let mut s = self.spans.lock().expect("span state poisoned");
                s.close_epoch(at);
                s.epoch_start = Some(at);
            }
            ObsEvent::EpochRealloc { .. } => self.counters.add(Counter::EpochReallocations, 1),
            ObsEvent::HeatmapStored { popcount, .. } => {
                self.counters.add(Counter::HeatmapStores, 1);
                self.counters
                    .add(Counter::HeatmapBitsSet, u64::from(popcount));
            }
            ObsEvent::ExactPagesStored { pages, .. } => {
                self.counters.add(Counter::ExactPageStores, 1);
                self.counters.add(Counter::ExactPagesCollected, pages);
            }
        }
    }

    fn span_enter(&self, core: u32, kind: SpanKind, at: u64) {
        let SpanKind::Sf(class) = kind;
        let mut s = self.spans.lock().expect("span state poisoned");
        s.open.insert(core, (class, at));
    }

    fn span_exit(&self, core: u32, _kind: SpanKind, at: u64) {
        let mut s = self.spans.lock().expect("span state poisoned");
        if let Some((class, start)) = s.open.remove(&core) {
            let entry = s.sf.entry(class).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += at.saturating_sub(start);
        }
    }
}

/// Renders `(label, counters)` columns as a fixed-width text table,
/// skipping counters that are zero in every column.
///
/// Returns an empty string when nothing was counted anywhere.
pub fn render_counter_table(columns: &[(String, CounterSnapshot)]) -> String {
    if columns.is_empty() {
        return String::new();
    }
    let live: Vec<Counter> = Counter::ALL
        .iter()
        .copied()
        .filter(|&c| columns.iter().any(|(_, snap)| snap.get(c) > 0))
        .collect();
    if live.is_empty() {
        return String::new();
    }
    let name_width = live
        .iter()
        .map(|c| c.name().len())
        .max()
        .unwrap_or(0)
        .max("counter".len());
    let col_widths: Vec<usize> = columns
        .iter()
        .map(|(label, snap)| {
            live.iter()
                .map(|&c| snap.get(c).to_string().len())
                .max()
                .unwrap_or(0)
                .max(label.len())
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!("{:<name_width$}", "counter"));
    for ((label, _), w) in columns.iter().zip(&col_widths) {
        out.push_str(&format!("  {label:>w$}"));
    }
    out.push('\n');
    for &c in &live {
        out.push_str(&format!("{:<name_width$}", c.name()));
        for ((_, snap), w) in columns.iter().zip(&col_widths) {
            out.push_str(&format!("  {:>w$}", snap.get(c)));
        }
        out.push('\n');
    }
    out
}

/// Renders span rows (`kind count total self`) as a fixed-width table.
pub fn render_span_table(rows: &[SpanRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let kind_width = rows
        .iter()
        .map(|r| r.kind.len())
        .max()
        .unwrap_or(0)
        .max("span".len());
    let mut out = String::new();
    out.push_str(&format!(
        "{:<kind_width$}  {:>10}  {:>14}  {:>14}\n",
        "span", "count", "total_cycles", "self_cycles"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<kind_width$}  {:>10}  {:>14}  {:>14}\n",
            r.kind, r.count, r.total_cycles, r.self_cycles
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roll_into_counters() {
        let agg = Aggregator::new();
        agg.event(&ObsEvent::Dispatched {
            at: 10,
            sf: 1,
            core: 0,
        });
        agg.event(&ObsEvent::Dispatched {
            at: 20,
            sf: 2,
            core: 1,
        });
        agg.event(&ObsEvent::Stolen {
            at: 30,
            sf: 2,
            thief: 1,
            victim: 0,
            level: StealLevel::SameWork,
        });
        agg.event(&ObsEvent::FaultInjected {
            at: 40,
            kind: FaultKind::DroppedIrq,
        });
        let snap = agg.counters();
        assert_eq!(snap.get(Counter::Dispatches), 2);
        assert_eq!(snap.get(Counter::StealsSameWork), 1);
        assert_eq!(snap.get(Counter::FaultDroppedIrqs), 1);
    }

    #[test]
    fn spans_nest_run_epoch_sf() {
        let agg = Aggregator::new();
        agg.event(&ObsEvent::RunStart { at: 0 });
        agg.event(&ObsEvent::EpochStart { at: 0 });
        agg.span_enter(0, SpanKind::Sf(SfClass::SystemCall), 10);
        agg.span_exit(0, SpanKind::Sf(SfClass::SystemCall), 40);
        agg.event(&ObsEvent::EpochStart { at: 100 });
        agg.event(&ObsEvent::RunEnd { at: 150 });
        let rows = agg.span_rows();
        let run = rows.iter().find(|r| r.kind == "run").expect("run row");
        assert_eq!(run.total_cycles, 150);
        let epoch = rows.iter().find(|r| r.kind == "epoch").expect("epoch row");
        assert_eq!(epoch.count, 2);
        assert_eq!(epoch.total_cycles, 150);
        assert_eq!(epoch.self_cycles, 120);
        let sf = rows
            .iter()
            .find(|r| r.kind == "system_call")
            .expect("sf row");
        assert_eq!(sf.count, 1);
        assert_eq!(sf.total_cycles, 30);
    }

    #[test]
    fn counter_table_renders_nonzero_rows() {
        let a = Aggregator::new();
        a.event(&ObsEvent::Dispatched {
            at: 1,
            sf: 1,
            core: 0,
        });
        let table = render_counter_table(&[("Linux".to_owned(), a.counters())]);
        assert!(table.contains("dispatches"));
        assert!(!table.contains("steals_any"));
    }
}
