//! The structured event vocabulary emitted by the simulation engine and
//! schedulers.
//!
//! Events use raw integer identifiers (`u64` SuperFunction ids, `u32`
//! core ids) rather than kernel-crate types so that `schedtask-obs`
//! stays a dependency-free leaf crate every layer can link against.

/// Coarse classification of a SuperFunction, mirroring the workload
/// crate's `SfCategory` without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SfClass {
    /// Application (user-mode) work.
    Application,
    /// A system-call SuperFunction.
    SystemCall,
    /// A top-half interrupt handler SuperFunction.
    Interrupt,
    /// A deferred bottom-half SuperFunction.
    BottomHalf,
}

impl SfClass {
    /// All classes, in a stable order.
    pub const ALL: [SfClass; 4] = [
        SfClass::Application,
        SfClass::SystemCall,
        SfClass::Interrupt,
        SfClass::BottomHalf,
    ];

    /// Stable snake_case name used in JSONL output and summary tables.
    pub fn name(self) -> &'static str {
        match self {
            SfClass::Application => "application",
            SfClass::SystemCall => "system_call",
            SfClass::Interrupt => "interrupt",
            SfClass::BottomHalf => "bottom_half",
        }
    }
}

/// Which level of the SchedTask stealing hierarchy satisfied a steal,
/// or `Any` for baselines with a single flat steal path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StealLevel {
    /// Stole an SF of the exact same SuperFunction type.
    SameWork,
    /// Stole an SF of a similar type (same category).
    SimilarWork,
    /// Fell back to the queue with the maximum waiting work.
    MaxWaiting,
    /// Undifferentiated steal (baseline schedulers).
    Any,
}

impl StealLevel {
    /// Stable snake_case name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            StealLevel::SameWork => "same_work",
            StealLevel::SimilarWork => "similar_work",
            StealLevel::MaxWaiting => "max_waiting",
            StealLevel::Any => "any",
        }
    }
}

/// The kind of fault the injector fired, mirroring the kernel crate's
/// `FaultCounts` fields one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A bit flipped in a hardware page heatmap register.
    HeatmapBitFlip,
    /// An external IRQ delivery was dropped and re-raised later.
    DroppedIrq,
    /// A spurious IRQ was delivered to a random core.
    SpuriousIrq,
    /// A device completion was delayed beyond its nominal latency.
    DelayedCompletion,
    /// A core stalled for a number of cycles before scheduling.
    CoreStall,
}

impl FaultKind {
    /// All fault kinds, in a stable order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::HeatmapBitFlip,
        FaultKind::DroppedIrq,
        FaultKind::SpuriousIrq,
        FaultKind::DelayedCompletion,
        FaultKind::CoreStall,
    ];

    /// Stable snake_case name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::HeatmapBitFlip => "heatmap_bit_flip",
            FaultKind::DroppedIrq => "dropped_irq",
            FaultKind::SpuriousIrq => "spurious_irq",
            FaultKind::DelayedCompletion => "delayed_completion",
            FaultKind::CoreStall => "core_stall",
        }
    }
}

/// The kind of serve-layer chaos the injector fired, mirroring the
/// serve crate's `ChaosPlan` classes without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosKind {
    /// A persistent-cache append was torn mid-record (simulated crash
    /// during a disk write).
    TornWrite,
    /// A persistent-cache append failed outright (simulated disk full).
    DiskFull,
    /// A worker panicked while executing a job.
    WorkerPanic,
    /// A response was delayed before hitting the socket.
    DelayedResponse,
    /// Only a prefix of a response reached the socket before the
    /// connection dropped.
    TruncatedResponse,
    /// The connection was dropped before any response bytes were sent.
    DroppedConnection,
}

impl ChaosKind {
    /// All chaos kinds, in a stable order.
    pub const ALL: [ChaosKind; 6] = [
        ChaosKind::TornWrite,
        ChaosKind::DiskFull,
        ChaosKind::WorkerPanic,
        ChaosKind::DelayedResponse,
        ChaosKind::TruncatedResponse,
        ChaosKind::DroppedConnection,
    ];

    /// Stable snake_case name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            ChaosKind::TornWrite => "torn_write",
            ChaosKind::DiskFull => "disk_full",
            ChaosKind::WorkerPanic => "worker_panic",
            ChaosKind::DelayedResponse => "delayed_response",
            ChaosKind::TruncatedResponse => "truncated_response",
            ChaosKind::DroppedConnection => "dropped_connection",
        }
    }
}

/// Coarse classification of an engine component: a per-core machine,
/// one of the engine's event sources, or a device model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentClass {
    /// A per-core execution machine.
    CoreMachine,
    /// The periodic timer-tick source.
    TimerSource,
    /// The spontaneous external-IRQ source.
    IrqSource,
    /// The TAlloc epoch boundary source.
    EpochSource,
    /// The device-completion bank (blocked-SF wakeups).
    DeviceBank,
    /// A DMA/NIC-style device model injecting interrupt traffic.
    DmaDevice,
}

impl ComponentClass {
    /// All component classes, in a stable order.
    pub const ALL: [ComponentClass; 6] = [
        ComponentClass::CoreMachine,
        ComponentClass::TimerSource,
        ComponentClass::IrqSource,
        ComponentClass::EpochSource,
        ComponentClass::DeviceBank,
        ComponentClass::DmaDevice,
    ];

    /// Stable snake_case name used in JSONL output and summary tables.
    pub fn name(self) -> &'static str {
        match self {
            ComponentClass::CoreMachine => "core_machine",
            ComponentClass::TimerSource => "timer_source",
            ComponentClass::IrqSource => "irq_source",
            ComponentClass::EpochSource => "epoch_source",
            ComponentClass::DeviceBank => "device_bank",
            ComponentClass::DmaDevice => "dma_device",
        }
    }
}

/// Span kinds forming the run → epoch → SuperFunction hierarchy.
///
/// Run and epoch spans are derived by sinks from [`ObsEvent::RunStart`],
/// [`ObsEvent::RunEnd`], and [`ObsEvent::EpochStart`]; only per-core
/// SuperFunction execution segments flow through
/// [`Observer::span_enter`]/[`Observer::span_exit`].
///
/// [`Observer::span_enter`]: crate::Observer::span_enter
/// [`Observer::span_exit`]: crate::Observer::span_exit
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// The whole simulation run.
    Run,
    /// One TAlloc epoch.
    Epoch,
    /// One contiguous execution segment of a SuperFunction on a core.
    Sf(SfClass),
    /// One job handled by the `schedtaskd` serve layer, from admission to
    /// response. Timestamps are microseconds since server start (the serve
    /// layer has no cycle clock).
    Job,
    /// One self-driven action of an engine component (currently device
    /// model ticks; core quanta are far too hot to span individually).
    Component(ComponentClass),
    /// One request forwarded by the fleet router to a downstream
    /// worker, from forward to response. Timestamps are microseconds
    /// since router start.
    RouterHop,
}

/// One structured observability event.
///
/// `at` is always a cycle timestamp: the owning core's clock for
/// core-local events, the global event clock otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// Measured simulation begins (cycle 0 of the engine clock).
    RunStart {
        /// Global cycle timestamp.
        at: u64,
    },
    /// Simulation finished (all work drained or budget exhausted).
    RunEnd {
        /// Global cycle timestamp.
        at: u64,
    },
    /// A SuperFunction was minted mid-run (syscall, interrupt, or
    /// bottom-half; application SFs exist from cycle 0 and are not
    /// announced).
    SfCreated {
        /// Core-local cycle timestamp.
        at: u64,
        /// SuperFunction id.
        sf: u64,
        /// Raw `SuperFuncType` encoding (see `schedtask-workload`).
        sf_type: u64,
        /// Coarse class of the new SF.
        class: SfClass,
        /// Owning thread id.
        tid: u64,
    },
    /// A scheduler placed an SF on a run queue.
    Enqueued {
        /// Global cycle timestamp.
        at: u64,
        /// SuperFunction id.
        sf: u64,
        /// Queue/core the SF was placed on.
        core: u32,
    },
    /// An SF began (or resumed) executing on a core.
    Dispatched {
        /// Core-local cycle timestamp.
        at: u64,
        /// SuperFunction id.
        sf: u64,
        /// Executing core.
        core: u32,
    },
    /// The running SF was preempted by an interrupt.
    Preempted {
        /// Core-local cycle timestamp.
        at: u64,
        /// The SF that was switched out.
        sf: u64,
        /// The core it was running on.
        core: u32,
    },
    /// An SF blocked on a device operation.
    Blocked {
        /// Core-local cycle timestamp.
        at: u64,
        /// SuperFunction id.
        sf: u64,
    },
    /// An SF ran to completion.
    Completed {
        /// Core-local cycle timestamp.
        at: u64,
        /// SuperFunction id.
        sf: u64,
    },
    /// A thread's SF chain moved between cores.
    Migrated {
        /// Core-local cycle timestamp of the destination core.
        at: u64,
        /// Migrating thread id.
        tid: u64,
        /// Previous core.
        from: u32,
        /// New core.
        to: u32,
    },
    /// A work steal succeeded.
    Stolen {
        /// Global cycle timestamp.
        at: u64,
        /// The stolen SF.
        sf: u64,
        /// Core that took the work.
        thief: u32,
        /// Queue it was taken from.
        victim: u32,
        /// Which level of the stealing hierarchy matched.
        level: StealLevel,
    },
    /// The scheduler routed an interrupt or completion to a core.
    IrqRouted {
        /// Global cycle timestamp.
        at: u64,
        /// IRQ vector / device id.
        irq: u64,
        /// Chosen target core.
        core: u32,
    },
    /// The fault injector fired.
    FaultInjected {
        /// Cycle timestamp at the injection site.
        at: u64,
        /// What kind of fault was injected.
        kind: FaultKind,
    },
    /// A TAlloc epoch boundary was reached.
    EpochStart {
        /// Global cycle timestamp.
        at: u64,
    },
    /// The epoch allocator recomputed core-to-type assignments.
    EpochRealloc {
        /// Global cycle timestamp.
        at: u64,
    },
    /// A hardware page-heatmap register was read back by the scheduler.
    HeatmapStored {
        /// Core-local cycle timestamp.
        at: u64,
        /// Core whose register was harvested.
        core: u32,
        /// Number of bits set in the harvested register.
        popcount: u32,
    },
    /// An exact-page tracking buffer was read back by the scheduler.
    ExactPagesStored {
        /// Core-local cycle timestamp.
        at: u64,
        /// Core whose buffer was harvested.
        core: u32,
        /// Number of page addresses collected.
        pages: u64,
    },
    /// The serve layer received a job request over the wire.
    ///
    /// Serve-layer events are stamped with milliseconds since server
    /// start instead of a cycle count — `schedtaskd` has no simulation
    /// clock of its own.
    JobSubmitted {
        /// Milliseconds since server start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
    },
    /// A job request was answered from the result cache without
    /// re-simulating.
    JobCacheHit {
        /// Milliseconds since server start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
    },
    /// A job request arrived while an identical job was already in
    /// flight; the caller was coalesced onto the pending execution.
    JobCoalesced {
        /// Milliseconds since server start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
    },
    /// A cache-miss job was admitted into the bounded queue.
    JobAdmitted {
        /// Milliseconds since server start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
        /// Queue depth after admission.
        depth: u32,
    },
    /// The bounded queue was full; the submission was rejected with a
    /// backpressure response.
    JobRejected {
        /// Milliseconds since server start.
        at: u64,
        /// Queue depth at rejection time.
        depth: u32,
    },
    /// A worker finished simulating a job.
    JobExecuted {
        /// Milliseconds since server start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
        /// Wall-clock execution time in microseconds.
        micros: u64,
    },
    /// The dispatcher drained one batch of compatible jobs from the
    /// queue and ran it on the worker fleet.
    BatchExecuted {
        /// Milliseconds since server start.
        at: u64,
        /// Number of jobs in the batch.
        jobs: u32,
    },
    /// A job request missed the in-memory cache but was answered from
    /// the persistent on-disk tier without re-simulating.
    DiskCacheHit {
        /// Milliseconds since server start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
    },
    /// A completed job's output was appended to the persistent cache.
    DiskWritten {
        /// Milliseconds since server start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
        /// Record size on disk, including framing, in bytes.
        bytes: u64,
    },
    /// An append to the persistent cache failed (I/O error, injected
    /// tear, or simulated disk-full); the in-memory tier still serves
    /// the result, so only durability is lost.
    DiskWriteFailed {
        /// Milliseconds since server start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
    },
    /// Persistent-cache recovery finished scanning the segment log.
    DiskRecovered {
        /// Milliseconds since server start.
        at: u64,
        /// Intact records recovered into the index.
        records: u64,
        /// Corrupt records quarantined (counted, never served).
        corrupt: u64,
        /// Torn segment tails truncated.
        truncated: u64,
    },
    /// The serve-layer chaos injector fired.
    ChaosInjected {
        /// Milliseconds since server start.
        at: u64,
        /// What kind of chaos was injected.
        kind: ChaosKind,
    },
    /// An engine component took one self-driven action (currently
    /// emitted by device models when they raise interrupt traffic).
    ComponentTick {
        /// Global cycle timestamp.
        at: u64,
        /// Index of the component within its class (for device models,
        /// the index among the configured devices).
        component: u32,
        /// Coarse class of the component.
        class: ComponentClass,
        /// Interrupts raised by this tick.
        irqs: u32,
    },
    /// A retrying client scheduled a back-off before its next attempt
    /// (emitted by client-side harnesses such as `repro chaos`).
    RetryScheduled {
        /// Milliseconds since harness start.
        at: u64,
        /// Truncated canonical cache key of the retried job.
        key: u64,
        /// 1-based attempt number that just failed or was rejected.
        attempt: u32,
        /// Chosen back-off before the next attempt, in milliseconds.
        backoff_ms: u64,
    },
    /// The fleet router forwarded a run request to its hashed worker.
    ///
    /// Router events are stamped with milliseconds since router start,
    /// like the serve-layer events.
    RouterForwarded {
        /// Milliseconds since router start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
        /// Ring index of the worker the request was forwarded to.
        worker: u32,
    },
    /// A run request was answered from the router's hot-key cache
    /// without touching any worker.
    RouterHotCacheHit {
        /// Milliseconds since router start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
    },
    /// A run request arrived while an identical key was already being
    /// forwarded; the caller was coalesced onto the pending hop.
    RouterCoalesced {
        /// Milliseconds since router start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
    },
    /// The router shed a request, propagating a worker's backpressure
    /// hint upstream.
    RouterShed {
        /// Milliseconds since router start.
        at: u64,
        /// Ring index of the worker that rejected the request.
        worker: u32,
        /// Backpressure hint propagated to the client, in milliseconds.
        retry_after_ms: u64,
    },
    /// A forward failed on the hashed owner and was rerouted to the
    /// next distinct worker on the ring.
    RouterFailover {
        /// Milliseconds since router start.
        at: u64,
        /// Truncated canonical cache key of the job.
        key: u64,
        /// Ring index of the worker that failed.
        from: u32,
        /// Ring index of the worker tried next.
        to: u32,
    },
}

impl ObsEvent {
    /// Stable snake_case event name used as the `"ev"` field in JSONL.
    pub fn name(&self) -> &'static str {
        match self {
            ObsEvent::RunStart { .. } => "run_start",
            ObsEvent::RunEnd { .. } => "run_end",
            ObsEvent::SfCreated { .. } => "sf_created",
            ObsEvent::Enqueued { .. } => "enqueued",
            ObsEvent::Dispatched { .. } => "dispatched",
            ObsEvent::Preempted { .. } => "preempted",
            ObsEvent::Blocked { .. } => "blocked",
            ObsEvent::Completed { .. } => "completed",
            ObsEvent::Migrated { .. } => "migrated",
            ObsEvent::Stolen { .. } => "stolen",
            ObsEvent::IrqRouted { .. } => "irq_routed",
            ObsEvent::FaultInjected { .. } => "fault",
            ObsEvent::EpochStart { .. } => "epoch_start",
            ObsEvent::EpochRealloc { .. } => "epoch_realloc",
            ObsEvent::HeatmapStored { .. } => "heatmap_stored",
            ObsEvent::ExactPagesStored { .. } => "exact_pages_stored",
            ObsEvent::JobSubmitted { .. } => "job_submitted",
            ObsEvent::JobCacheHit { .. } => "job_cache_hit",
            ObsEvent::JobCoalesced { .. } => "job_coalesced",
            ObsEvent::JobAdmitted { .. } => "job_admitted",
            ObsEvent::JobRejected { .. } => "job_rejected",
            ObsEvent::JobExecuted { .. } => "job_executed",
            ObsEvent::BatchExecuted { .. } => "batch_executed",
            ObsEvent::DiskCacheHit { .. } => "disk_cache_hit",
            ObsEvent::DiskWritten { .. } => "disk_written",
            ObsEvent::DiskWriteFailed { .. } => "disk_write_failed",
            ObsEvent::DiskRecovered { .. } => "disk_recovered",
            ObsEvent::ChaosInjected { .. } => "chaos",
            ObsEvent::ComponentTick { .. } => "component_tick",
            ObsEvent::RetryScheduled { .. } => "retry_scheduled",
            ObsEvent::RouterForwarded { .. } => "router_forwarded",
            ObsEvent::RouterHotCacheHit { .. } => "router_hot_cache_hit",
            ObsEvent::RouterCoalesced { .. } => "router_coalesced",
            ObsEvent::RouterShed { .. } => "router_shed",
            ObsEvent::RouterFailover { .. } => "router_failover",
        }
    }

    /// The event's cycle timestamp, whichever clock it was stamped with.
    pub fn at(&self) -> u64 {
        match *self {
            ObsEvent::RunStart { at }
            | ObsEvent::RunEnd { at }
            | ObsEvent::SfCreated { at, .. }
            | ObsEvent::Enqueued { at, .. }
            | ObsEvent::Dispatched { at, .. }
            | ObsEvent::Preempted { at, .. }
            | ObsEvent::Blocked { at, .. }
            | ObsEvent::Completed { at, .. }
            | ObsEvent::Migrated { at, .. }
            | ObsEvent::Stolen { at, .. }
            | ObsEvent::IrqRouted { at, .. }
            | ObsEvent::FaultInjected { at, .. }
            | ObsEvent::EpochStart { at }
            | ObsEvent::EpochRealloc { at }
            | ObsEvent::HeatmapStored { at, .. }
            | ObsEvent::ExactPagesStored { at, .. }
            | ObsEvent::JobSubmitted { at, .. }
            | ObsEvent::JobCacheHit { at, .. }
            | ObsEvent::JobCoalesced { at, .. }
            | ObsEvent::JobAdmitted { at, .. }
            | ObsEvent::JobRejected { at, .. }
            | ObsEvent::JobExecuted { at, .. }
            | ObsEvent::BatchExecuted { at, .. }
            | ObsEvent::DiskCacheHit { at, .. }
            | ObsEvent::DiskWritten { at, .. }
            | ObsEvent::DiskWriteFailed { at, .. }
            | ObsEvent::DiskRecovered { at, .. }
            | ObsEvent::ChaosInjected { at, .. }
            | ObsEvent::ComponentTick { at, .. }
            | ObsEvent::RetryScheduled { at, .. }
            | ObsEvent::RouterForwarded { at, .. }
            | ObsEvent::RouterHotCacheHit { at, .. }
            | ObsEvent::RouterCoalesced { at, .. }
            | ObsEvent::RouterShed { at, .. }
            | ObsEvent::RouterFailover { at, .. } => at,
        }
    }
}
