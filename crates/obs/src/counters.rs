//! Cheap atomic counters with stable names and snapshot arithmetic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Every counter the observability layer knows about.
///
/// The discriminant doubles as an index into [`CounterSet`] /
/// [`CounterSnapshot`], so new counters must be appended (and added to
/// [`Counter::ALL`]) rather than inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// SF execution segments started on a core.
    Dispatches,
    /// Running SFs switched out by an interrupt.
    Preemptions,
    /// SFs that blocked on a device operation.
    Blocks,
    /// SFs that ran to completion.
    Completions,
    /// System-call SuperFunctions minted.
    SyscallsCreated,
    /// Top-half interrupt SuperFunctions minted.
    InterruptSfsCreated,
    /// Bottom-half SuperFunctions minted.
    BottomHalvesCreated,
    /// Thread SF chains that changed cores.
    ThreadMigrations,
    /// Scheduler queue placements.
    Enqueues,
    /// Steals satisfied by the same-work level.
    StealsSameWork,
    /// Steals satisfied by the similar-work level.
    StealsSimilarWork,
    /// Steals that fell back to the max-waiting queue.
    StealsMaxWaiting,
    /// Undifferentiated steals (baseline schedulers).
    StealsAny,
    /// Interrupts and completions routed to a core by the scheduler.
    IrqRoutes,
    /// TAlloc epoch boundaries processed.
    EpochsRun,
    /// Epoch allocator recomputations of core assignments.
    EpochReallocations,
    /// Injected heatmap bit flips.
    FaultHeatmapBitFlips,
    /// Injected dropped IRQs.
    FaultDroppedIrqs,
    /// Injected spurious IRQs.
    FaultSpuriousIrqs,
    /// Injected delayed completions.
    FaultDelayedCompletions,
    /// Injected core stalls.
    FaultCoreStalls,
    /// Page-heatmap registers harvested by the scheduler.
    HeatmapStores,
    /// Total bits set across harvested heatmap registers.
    HeatmapBitsSet,
    /// Exact-page buffers harvested by the scheduler.
    ExactPageStores,
    /// Total page addresses collected from exact-page buffers.
    ExactPagesCollected,
    /// Job requests received by the serve layer.
    ServeSubmitted,
    /// Job requests answered from the result cache.
    ServeCacheHits,
    /// Job requests that missed the cache and were admitted for
    /// execution.
    ServeCacheMisses,
    /// Job requests coalesced onto an identical in-flight execution.
    ServeCoalesced,
    /// Job requests rejected because the bounded queue was full.
    ServeRejected,
    /// Jobs actually simulated by the worker fleet.
    ServeExecuted,
    /// Always zero: each executor takes one job at a time, so nothing
    /// counts batches. Kept because the benchmark reads it as
    /// `worker.batches`.
    ServeBatches,
    /// Total wall-clock microseconds spent simulating jobs.
    ServeExecMicros,
    /// Always zero: recovery fills the memory tier, so a recovered key
    /// counts as a `serve_cache_hits` hit. Kept because the benchmark
    /// reads it as `worker.disk_hits`.
    ServeDiskHits,
    /// Completed jobs appended to the persistent cache.
    ServeDiskWrites,
    /// Total bytes appended to the persistent cache (incl. framing).
    ServeDiskWriteBytes,
    /// Persistent-cache appends that failed (I/O error, injected tear,
    /// simulated disk-full).
    ServeDiskWriteErrors,
    /// Intact records recovered from the segment log at startup.
    ServeDiskRecovered,
    /// Corrupt records quarantined during recovery (never served).
    ServeDiskCorrupt,
    /// Torn segment tails truncated during recovery.
    ServeDiskTruncatedTails,
    /// Injected torn disk writes (chaos).
    ServeChaosTornWrites,
    /// Injected disk-full append failures (chaos).
    ServeChaosDiskFull,
    /// Injected worker panics (chaos).
    ServeChaosWorkerPanics,
    /// Injected response delays (chaos).
    ServeChaosDelayedResponses,
    /// Injected truncated responses (chaos).
    ServeChaosTruncatedResponses,
    /// Injected dropped connections (chaos).
    ServeChaosDroppedConns,
    /// Self-driven device-component ticks processed by the engine.
    EngineComponentTicks,
    /// Interrupts raised by device components.
    EngineComponentIrqs,
    /// Run requests the router forwarded to a downstream worker.
    ServeRouterForwarded,
    /// Run requests answered from the router's hot-key cache tier.
    ServeRouterHotHits,
    /// Run requests coalesced onto a router-level in-flight forward.
    ServeRouterCoalesced,
    /// Run requests shed by the router with a backpressure hint
    /// (worker queue full, propagated upstream).
    ServeRouterShed,
    /// Forwards rerouted to the next ring worker after a transport
    /// failure on the hashed owner.
    ServeRouterFailovers,
}

impl Counter {
    /// Number of distinct counters.
    pub const COUNT: usize = Counter::ALL.len();

    /// All counters, in index order.
    pub const ALL: [Counter; 53] = [
        Counter::Dispatches,
        Counter::Preemptions,
        Counter::Blocks,
        Counter::Completions,
        Counter::SyscallsCreated,
        Counter::InterruptSfsCreated,
        Counter::BottomHalvesCreated,
        Counter::ThreadMigrations,
        Counter::Enqueues,
        Counter::StealsSameWork,
        Counter::StealsSimilarWork,
        Counter::StealsMaxWaiting,
        Counter::StealsAny,
        Counter::IrqRoutes,
        Counter::EpochsRun,
        Counter::EpochReallocations,
        Counter::FaultHeatmapBitFlips,
        Counter::FaultDroppedIrqs,
        Counter::FaultSpuriousIrqs,
        Counter::FaultDelayedCompletions,
        Counter::FaultCoreStalls,
        Counter::HeatmapStores,
        Counter::HeatmapBitsSet,
        Counter::ExactPageStores,
        Counter::ExactPagesCollected,
        Counter::ServeSubmitted,
        Counter::ServeCacheHits,
        Counter::ServeCacheMisses,
        Counter::ServeCoalesced,
        Counter::ServeRejected,
        Counter::ServeExecuted,
        Counter::ServeBatches,
        Counter::ServeExecMicros,
        Counter::ServeDiskHits,
        Counter::ServeDiskWrites,
        Counter::ServeDiskWriteBytes,
        Counter::ServeDiskWriteErrors,
        Counter::ServeDiskRecovered,
        Counter::ServeDiskCorrupt,
        Counter::ServeDiskTruncatedTails,
        Counter::ServeChaosTornWrites,
        Counter::ServeChaosDiskFull,
        Counter::ServeChaosWorkerPanics,
        Counter::ServeChaosDelayedResponses,
        Counter::ServeChaosTruncatedResponses,
        Counter::ServeChaosDroppedConns,
        Counter::EngineComponentTicks,
        Counter::EngineComponentIrqs,
        Counter::ServeRouterForwarded,
        Counter::ServeRouterHotHits,
        Counter::ServeRouterCoalesced,
        Counter::ServeRouterShed,
        Counter::ServeRouterFailovers,
    ];

    /// Stable snake_case name used in summary tables and CI diffs.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Dispatches => "dispatches",
            Counter::Preemptions => "preemptions",
            Counter::Blocks => "blocks",
            Counter::Completions => "completions",
            Counter::SyscallsCreated => "syscalls_created",
            Counter::InterruptSfsCreated => "interrupt_sfs_created",
            Counter::BottomHalvesCreated => "bottom_halves_created",
            Counter::ThreadMigrations => "thread_migrations",
            Counter::Enqueues => "enqueues",
            Counter::StealsSameWork => "steals_same_work",
            Counter::StealsSimilarWork => "steals_similar_work",
            Counter::StealsMaxWaiting => "steals_max_waiting",
            Counter::StealsAny => "steals_any",
            Counter::IrqRoutes => "irq_routes",
            Counter::EpochsRun => "epochs_run",
            Counter::EpochReallocations => "epoch_reallocations",
            Counter::FaultHeatmapBitFlips => "fault_heatmap_bit_flips",
            Counter::FaultDroppedIrqs => "fault_dropped_irqs",
            Counter::FaultSpuriousIrqs => "fault_spurious_irqs",
            Counter::FaultDelayedCompletions => "fault_delayed_completions",
            Counter::FaultCoreStalls => "fault_core_stalls",
            Counter::HeatmapStores => "heatmap_stores",
            Counter::HeatmapBitsSet => "heatmap_bits_set",
            Counter::ExactPageStores => "exact_page_stores",
            Counter::ExactPagesCollected => "exact_pages_collected",
            Counter::ServeSubmitted => "serve_jobs_submitted",
            Counter::ServeCacheHits => "serve_cache_hits",
            Counter::ServeCacheMisses => "serve_cache_misses",
            Counter::ServeCoalesced => "serve_jobs_coalesced",
            Counter::ServeRejected => "serve_jobs_rejected",
            Counter::ServeExecuted => "serve_jobs_executed",
            Counter::ServeBatches => "serve_batches",
            Counter::ServeExecMicros => "serve_exec_micros",
            Counter::ServeDiskHits => "serve_disk_hits",
            Counter::ServeDiskWrites => "serve_disk_writes",
            Counter::ServeDiskWriteBytes => "serve_disk_write_bytes",
            Counter::ServeDiskWriteErrors => "serve_disk_write_errors",
            Counter::ServeDiskRecovered => "serve_disk_recovered",
            Counter::ServeDiskCorrupt => "serve_disk_corrupt",
            Counter::ServeDiskTruncatedTails => "serve_disk_truncated_tails",
            Counter::ServeChaosTornWrites => "serve_chaos_torn_writes",
            Counter::ServeChaosDiskFull => "serve_chaos_disk_full",
            Counter::ServeChaosWorkerPanics => "serve_chaos_worker_panics",
            Counter::ServeChaosDelayedResponses => "serve_chaos_delayed_responses",
            Counter::ServeChaosTruncatedResponses => "serve_chaos_truncated_responses",
            Counter::ServeChaosDroppedConns => "serve_chaos_dropped_conns",
            Counter::EngineComponentTicks => "engine_component_ticks",
            Counter::EngineComponentIrqs => "engine_component_irqs",
            Counter::ServeRouterForwarded => "serve_router_forwarded",
            Counter::ServeRouterHotHits => "serve_router_hot_hits",
            Counter::ServeRouterCoalesced => "serve_router_coalesced",
            Counter::ServeRouterShed => "serve_router_shed",
            Counter::ServeRouterFailovers => "serve_router_failovers",
        }
    }
}

/// A fixed bank of lock-free counters, one slot per [`Counter`].
///
/// Increments use `Ordering::Relaxed`: counters are statistics, not
/// synchronization, and every test that compares them reads after the
/// producing threads have been joined.
#[derive(Debug)]
pub struct CounterSet {
    slots: [AtomicU64; Counter::COUNT],
}

// Derived `Default` only covers arrays up to 32 elements; the counter
// bank outgrew that, so zero the slots by hand.
impl Default for CounterSet {
    fn default() -> Self {
        CounterSet {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl CounterSet {
    /// A zeroed counter bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `c`.
    #[inline]
    pub fn add(&self, c: Counter, delta: u64) {
        self.slots[c as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.slots[c as usize].load(Ordering::Relaxed)
    }

    /// A plain-value copy of every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut values = [0u64; Counter::COUNT];
        for (slot, value) in self.slots.iter().zip(values.iter_mut()) {
            *value = slot.load(Ordering::Relaxed);
        }
        CounterSnapshot { values }
    }
}

/// An immutable point-in-time copy of a [`CounterSet`], comparable and
/// summable so sweep cells can be rolled up and diffed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; Counter::COUNT],
}

impl Default for CounterSnapshot {
    fn default() -> Self {
        CounterSnapshot {
            values: [0; Counter::COUNT],
        }
    }
}

impl CounterSnapshot {
    /// An all-zero snapshot (useful as a fold seed).
    pub fn zero() -> Self {
        Self::default()
    }

    /// Value of counter `c` in this snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Iterate `(counter, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c, self.values[c as usize]))
    }

    /// Sum of every counter (a quick "did anything happen" check).
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }

    /// Element-wise sum with another snapshot (saturating).
    pub fn merged(&self, other: &CounterSnapshot) -> CounterSnapshot {
        let mut values = [0u64; Counter::COUNT];
        for ((out, a), b) in values
            .iter_mut()
            .zip(self.values.iter())
            .zip(other.values.iter())
        {
            *out = a.saturating_add(*b);
        }
        CounterSnapshot { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_snapshot_roundtrip() {
        let set = CounterSet::new();
        set.add(Counter::Dispatches, 3);
        set.add(Counter::Dispatches, 2);
        set.add(Counter::StealsAny, 1);
        assert_eq!(set.get(Counter::Dispatches), 5);
        let snap = set.snapshot();
        assert_eq!(snap.get(Counter::Dispatches), 5);
        assert_eq!(snap.get(Counter::StealsAny), 1);
        assert_eq!(snap.get(Counter::Blocks), 0);
        assert_eq!(snap.total(), 6);
    }

    #[test]
    fn merged_is_elementwise() {
        let a = CounterSet::new();
        a.add(Counter::EpochsRun, 4);
        let b = CounterSet::new();
        b.add(Counter::EpochsRun, 6);
        b.add(Counter::IrqRoutes, 1);
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.get(Counter::EpochsRun), 10);
        assert_eq!(m.get(Counter::IrqRoutes), 1);
    }

    #[test]
    fn all_indexes_are_consistent() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{} out of order", c.name());
        }
    }
}
