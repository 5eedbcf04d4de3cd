//! The events subsystem: the global timer/epoch/device event queue and
//! its deterministic ordering.
//!
//! The queue pops the earliest event first; ties break on insertion
//! sequence, which keeps runs bit-reproducible regardless of container
//! internals. It is a calendar-style [`EventQueue`]: a ring of
//! near-future time buckets absorbs the common short-horizon events
//! (timer ticks, device completions) with O(1) pushes and an O(1)
//! cached-minimum peek, while a [`BinaryHeap`] holds the far-future
//! tail beyond the ring's window.
//!
//! Popped events are routed to their handlers by the engine loop in
//! `driver.rs`; this module owns only the container and its ordering
//! contract.

use crate::ids::SfId;
use schedtask_workload::DeviceKind;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    /// A DMA/NIC-style device model's next interrupt arrival
    /// ([`super::device::DmaDevice`]).
    DeviceTick {
        /// Index into the engine's configured device models.
        device: usize,
    },
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

/// True when `a` fires strictly before `b` in the queue's total order
/// (ascending time, then ascending insertion sequence). Spelled out
/// rather than via `Ord`, which is reversed for the max-heap.
#[inline]
fn earlier(a: &HeapEvent, b: &HeapEvent) -> bool {
    (a.time, a.seq) < (b.time, b.seq)
}

/// log2 of the bucket width in cycles (131 072-cycle buckets).
const BUCKET_SHIFT: u32 = 17;
/// Ring size; must stay 64 so slot occupancy fits one `u64` word.
const NUM_BUCKETS: usize = 64;

/// Where the cached minimum currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MinLoc {
    /// In ring bucket `.0`.
    Ring(usize),
    /// At the top of the far-future heap.
    Far,
}

/// Calendar-queue event container preserving exact (time, seq) order.
///
/// Near-future events — bucket number `time >> BUCKET_SHIFT` within the
/// window `[base, base + 64)` — go into a 64-slot ring of unordered
/// vectors; everything later goes into the reversed-[`BinaryHeap`]
/// fallback. The minimum is cached, so `peek` is a field read; a pop
/// removes the minimum from its slot by `swap_remove` and rescans only
/// the first occupied bucket (found via one word of per-slot occupancy
/// bits) plus the heap top. Events behind the window start (possible
/// only transiently) are parked in the window's first slot, which the
/// rescan always visits first, so the total order never breaks.
#[derive(Debug)]
pub(crate) struct EventQueue {
    buckets: Vec<Vec<HeapEvent>>,
    /// Bit `s` set iff `buckets[s]` is non-empty.
    nonempty: u64,
    far: BinaryHeap<HeapEvent>,
    /// Bucket number the ring window starts at.
    base: u64,
    ring_len: usize,
    min: Option<(HeapEvent, MinLoc)>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            buckets: vec![Vec::new(); NUM_BUCKETS],
            nonempty: 0,
            far: BinaryHeap::new(),
            base: 0,
            ring_len: 0,
            min: None,
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The earliest event, if any (O(1): cached).
    pub(crate) fn peek(&self) -> Option<&HeapEvent> {
        self.min.as_ref().map(|(m, _)| m)
    }

    /// Visits every queued event in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &HeapEvent> {
        self.buckets.iter().flatten().chain(self.far.iter())
    }

    pub(crate) fn push(&mut self, ev: HeapEvent) {
        let bucket = ev.time >> BUCKET_SHIFT;
        let loc = if bucket < self.base + NUM_BUCKETS as u64 {
            // A bucket before the window start (a straggler) parks in
            // the window's first slot; the rescan starts there.
            let slot = (bucket.max(self.base) % NUM_BUCKETS as u64) as usize;
            self.buckets[slot].push(ev);
            self.nonempty |= 1 << slot;
            self.ring_len += 1;
            MinLoc::Ring(slot)
        } else {
            self.far.push(ev);
            MinLoc::Far
        };
        match &self.min {
            Some((m, _)) if !earlier(&ev, m) => {}
            _ => self.min = Some((ev, loc)),
        }
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<HeapEvent> {
        let (m, loc) = self.min?;
        match loc {
            MinLoc::Ring(slot) => {
                let bucket = &mut self.buckets[slot];
                let pos = bucket
                    .iter()
                    .position(|e| e.seq == m.seq)
                    .expect("cached minimum must be present in its ring bucket");
                bucket.swap_remove(pos);
                if bucket.is_empty() {
                    self.nonempty &= !(1 << slot);
                }
                self.ring_len -= 1;
            }
            MinLoc::Far => {
                self.far.pop();
            }
        }
        self.recompute_min();
        Some(m)
    }

    /// Recomputes the cached minimum after a pop: advance the window to
    /// the first occupied bucket, min-scan that bucket, and compare with
    /// the far-heap top (which can undercut the ring once the window has
    /// advanced past an old far event's bucket).
    fn recompute_min(&mut self) {
        if self.ring_len == 0 {
            if self.far.is_empty() {
                self.min = None;
                return;
            }
            // Ring drained: jump the window to the earliest far event
            // and pull every far event that now fits. The heap yields
            // ascending times, so the in-window events are a prefix.
            let earliest = self.far.peek().expect("checked non-empty");
            self.base = earliest.time >> BUCKET_SHIFT;
            while let Some(e) = self.far.peek() {
                if (e.time >> BUCKET_SHIFT) >= self.base + NUM_BUCKETS as u64 {
                    break;
                }
                let e = self.far.pop().expect("peeked");
                let slot = ((e.time >> BUCKET_SHIFT) % NUM_BUCKETS as u64) as usize;
                self.buckets[slot].push(e);
                self.nonempty |= 1 << slot;
                self.ring_len += 1;
            }
        }
        let start = (self.base % NUM_BUCKETS as u64) as u32;
        let offset = self.nonempty.rotate_right(start).trailing_zeros();
        debug_assert!(offset < 64, "ring_len > 0 implies an occupied slot");
        self.base += u64::from(offset);
        let slot = ((start + offset) as usize) % NUM_BUCKETS;
        let bucket = &self.buckets[slot];
        let mut best = bucket[0];
        for e in &bucket[1..] {
            if earlier(e, &best) {
                best = *e;
            }
        }
        let mut loc = MinLoc::Ring(slot);
        if let Some(f) = self.far.peek() {
            if earlier(f, &best) {
                best = *f;
                loc = MinLoc::Far;
            }
        }
        self.min = Some((best, loc));
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

/// Benchmark-only wrapper over the internal calendar [`EventQueue`],
/// exposed (hidden from docs) so `benches/hotpath.rs` can time push/pop
/// without making the queue itself part of the public API.
#[doc(hidden)]
pub struct BenchEventQueue {
    queue: EventQueue,
    seq: u64,
}

impl Default for BenchEventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl BenchEventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        BenchEventQueue {
            queue: EventQueue::new(),
            seq: 0,
        }
    }

    /// Enqueues a generic event at absolute cycle `time`.
    pub fn push(&mut self, time: u64) {
        self.seq += 1;
        self.queue.push(HeapEvent {
            time,
            seq: self.seq,
            kind: EventKind::Epoch,
        });
    }

    /// Pops the earliest event's time, if any.
    pub fn pop(&mut self) -> Option<u64> {
        self.queue.pop().map(|e| e.time)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, seq: u64) -> HeapEvent {
        HeapEvent {
            time,
            seq,
            kind: EventKind::Epoch,
        }
    }

    #[test]
    fn events_pop_in_time_order_with_seq_tiebreak() {
        let mut q = EventQueue::new();
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

    #[test]
    fn far_future_events_cross_the_window_boundary_in_order() {
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        // One event per region: ring, just past the window (far), and
        // several windows out (far), interleaved with ring refills.
        q.push(ev(window * 3, 1));
        q.push(ev(5, 2));
        q.push(ev(window + 1, 3));
        assert_eq!(q.pop().map(|e| e.seq), Some(2));
        // After draining the ring the window jumps to the far events.
        q.push(ev(window + 2, 4));
        assert_eq!(q.pop().map(|e| e.seq), Some(3));
        assert_eq!(q.pop().map(|e| e.seq), Some(4));
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn straggler_behind_the_window_start_pops_first() {
        let mut q = EventQueue::new();
        // Advance the window far from zero.
        let t = 100u64 << BUCKET_SHIFT;
        q.push(ev(t, 1));
        q.push(ev(t + 7, 2));
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        // A push earlier than the window start must still pop next.
        q.push(ev(3, 3));
        assert_eq!(q.peek().map(|e| e.seq), Some(3));
        assert_eq!(q.pop().map(|e| e.seq), Some(3));
        assert_eq!(q.pop().map(|e| e.seq), Some(2));
    }

    #[test]
    fn iter_visits_ring_and_far_events() {
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        q.push(ev(1, 1));
        q.push(ev(window * 2, 2));
        let mut seqs: Vec<u64> = q.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn matches_binary_heap_on_mixed_streams() {
        // Deterministic pseudo-random interleavings of pushes and pops,
        // spanning bucket boundaries and the far-future heap, checked
        // against the reference container the engine used to rely on.
        let mut rng = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut q = EventQueue::new();
        let mut reference = std::collections::BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..20_000 {
            let r = next();
            if r % 5 < 3 || q.is_empty() {
                // Mostly-increasing schedule times with a heavy near tail
                // and occasional multi-window jumps, like the engine's.
                let delta = match r % 7 {
                    0 => (NUM_BUCKETS as u64) << (BUCKET_SHIFT + 2),
                    1..=3 => next() % (1 << BUCKET_SHIFT),
                    _ => next() % (4 << BUCKET_SHIFT),
                };
                seq += 1;
                let e = ev(now + delta, seq);
                q.push(e);
                reference.push(e);
            } else {
                let got = q.pop().expect("non-empty");
                let want = reference.pop().expect("same length");
                assert_eq!((got.time, got.seq), (want.time, want.seq));
                now = got.time;
            }
            assert_eq!(q.len(), reference.len());
            assert_eq!(
                q.peek().map(|e| (e.time, e.seq)),
                reference.peek().map(|e| (e.time, e.seq))
            );
        }
        while let Some(got) = q.pop() {
            let want = reference.pop().expect("same length");
            assert_eq!((got.time, got.seq), (want.time, want.seq));
        }
        assert!(reference.is_empty());
    }
}
