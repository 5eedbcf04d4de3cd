//! The events subsystem: the global timer/epoch/device event queue and
//! its deterministic ordering.
//!
//! The queue is a [`BinaryHeap`](std::collections::BinaryHeap) of
//! [`HeapEvent`]s whose `Ord` is reversed over `(time, seq)`, so it pops
//! the earliest event first and ties break on insertion sequence. That
//! keeps runs bit-reproducible regardless of container internals.
//!
//! Popped events are routed to their handlers by the engine loop in
//! `driver.rs`; this module owns only the event type and its ordering
//! contract.

use crate::ids::SfId;
use schedtask_workload::DeviceKind;
use std::cmp::Ordering;

/// A simulation event: something that happens at an absolute cycle,
/// independent of any core's private clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A device finished the request `waiter` blocked on.
    DeviceComplete {
        /// Which device class completed.
        device: DeviceKind,
        /// The SuperFunction waiting for the completion.
        waiter: SfId,
    },
    /// A spontaneous external interrupt attributed to benchmark `bench`.
    ExternalIrq {
        /// Index of the benchmark whose device raises the interrupt.
        bench: usize,
    },
    /// The periodic per-core timer interrupt.
    TimerTick {
        /// Target core.
        core: usize,
    },
    /// The scheduler's TAlloc epoch boundary.
    Epoch,
}

/// An entry in the global event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeapEvent {
    pub(super) time: u64,
    pub(super) seq: u64,
    pub(crate) kind: EventKind,
}

impl Ord for HeapEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl super::EngineCore {
    /// Enqueues `kind` at absolute cycle `time`.
    pub(super) fn schedule_event(&mut self, time: u64, kind: EventKind) {
        self.event_seq += 1;
        self.events.push(HeapEvent {
            time,
            seq: self.event_seq,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(time: u64, seq: u64) -> HeapEvent {
        HeapEvent {
            time,
            seq,
            kind: EventKind::Epoch,
        }
    }

    #[test]
    fn events_pop_in_time_order_with_seq_tiebreak() {
        let mut q = BinaryHeap::new();
        q.push(ev(30, 1));
        q.push(ev(10, 3));
        q.push(HeapEvent {
            time: 10,
            seq: 2,
            kind: EventKind::TimerTick { core: 0 },
        });
        q.push(ev(20, 4));
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek().map(|e| (e.time, e.seq)), Some((10, 2)));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(order, vec![(10, 2), (10, 3), (20, 4), (30, 1)]);
        assert!(q.is_empty());
        assert!(q.peek().is_none());
    }
}
