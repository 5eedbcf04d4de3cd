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

/// The spans that flow through
/// [`Observer::span_enter`]/[`Observer::span_exit`].
///
/// The run and epoch levels of the run → epoch → SuperFunction
/// hierarchy have no kind: sinks derive them from
/// [`ObsEvent::RunStart`], [`ObsEvent::RunEnd`], and
/// [`ObsEvent::EpochStart`].
///
/// [`Observer::span_enter`]: crate::Observer::span_enter
/// [`Observer::span_exit`]: crate::Observer::span_exit
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One contiguous execution segment of a SuperFunction on a core.
    Sf(SfClass),
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
            | ObsEvent::ExactPagesStored { at, .. } => at,
        }
    }
}
