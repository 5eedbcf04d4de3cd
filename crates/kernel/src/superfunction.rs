//! The SuperFunction structure and lifecycle (Section 3.3).

use crate::ids::{SfId, ThreadId};
use schedtask_workload::{DeviceKind, FootprintWalker, SfCategory, SuperFuncType};

/// Scheduler-visible state of a SuperFunction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SfState {
    /// Ready to run, sitting in some runnable queue.
    Runnable,
    /// Currently executing on a core.
    Running,
    /// Preempted by an interrupt on its core (will resume there).
    Preempted,
    /// Waiting for an event (e.g. a disk completion) — Section 5.3's
    /// waiting queue.
    Waiting,
    /// Paused while a child SuperFunction (e.g. a system call invoked by
    /// an application) runs on its behalf.
    PausedForChild,
    /// Finished; the structure is kept only until deallocation.
    Done,
}

/// What kind of work the SuperFunction performs and what happens at its
/// boundaries.
#[derive(Debug, Clone)]
pub enum SfBody {
    /// An application SuperFunction: runs bursts of user code, invoking a
    /// system call after each burst. Lives for the whole simulation.
    Application {
        /// Instructions left in the current burst.
        burst_left: u64,
    },
    /// A system-call handler.
    Syscall {
        /// Instructions left.
        remaining: u64,
        /// If `Some((at_remaining, device))`, the handler blocks on
        /// `device` once `remaining` drops to `at_remaining`.
        block: Option<(u64, DeviceKind)>,
    },
    /// An interrupt (top-half) handler.
    Interrupt {
        /// Instructions left.
        remaining: u64,
        /// Bottom half to schedule on completion (catalog name).
        bottom_half: Option<&'static str>,
        /// SuperFunction to wake once the hand-off chain completes.
        waiter: Option<SfId>,
    },
    /// A bottom-half handler.
    BottomHalf {
        /// Instructions left.
        remaining: u64,
        /// SuperFunction to wake on completion.
        wake: Option<SfId>,
    },
}

/// A SuperFunction instance: the structure of Section 3.3 plus the
/// execution state the engine needs.
#[derive(Debug)]
pub struct SuperFunction {
    /// Unique id (`superFuncID`).
    pub id: SfId,
    /// Type (`superFuncType`, Table 1).
    pub sf_type: SuperFuncType,
    /// Parent SuperFunction (`parentSuperFuncPtr`): execution returns here
    /// when this SuperFunction completes.
    pub parent: Option<SfId>,
    /// Owning thread (`tid`).
    pub tid: ThreadId,
    /// Execution state.
    pub state: SfState,
    /// What the SuperFunction does.
    pub body: SfBody,
    /// Instruction/data stream generator.
    pub walker: FootprintWalker,
    /// Cycles this SuperFunction has consumed so far.
    pub cycles_used: u64,
    /// Instructions this SuperFunction has retired so far.
    pub instructions_retired: u64,
    /// `(cycles_used, instructions_retired)` when the SuperFunction was
    /// last dispatched: the start of its current (or, once switched out,
    /// its latest) execution segment.
    pub segment_start: (u64, u64),
    /// Cycle at which the SuperFunction became runnable (for queueing
    /// metrics such as interrupt latency).
    pub runnable_since: u64,
}

impl SuperFunction {
    /// The SuperFunction's category (shortcut for `sf_type.category()`).
    pub fn category(&self) -> SfCategory {
        self.sf_type.category()
    }

    /// True if this is an OS SuperFunction.
    pub fn is_os(&self) -> bool {
        self.sf_type.is_os()
    }

    /// Instructions remaining before the next lifecycle boundary
    /// (burst end, block point, or completion).
    pub fn instructions_until_boundary(&self) -> u64 {
        match &self.body {
            SfBody::Application { burst_left } => *burst_left,
            SfBody::Syscall { remaining, block } => match block {
                Some((at, _)) => remaining.saturating_sub(*at),
                None => *remaining,
            },
            SfBody::Interrupt { remaining, .. } => *remaining,
            SfBody::BottomHalf { remaining, .. } => *remaining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedtask_workload::{Footprint, PageAllocator, WalkParams};
    use std::sync::Arc;

    fn mk_sf(body: SfBody) -> SuperFunction {
        let mut alloc = PageAllocator::new();
        let r = alloc.region("x", 2);
        let code = Arc::new(Footprint::from_regions([&r]));
        let empty = Arc::new(Footprint::new());
        SuperFunction {
            id: SfId(1),
            sf_type: SuperFuncType::new(SfCategory::SystemCall, 3),
            parent: None,
            tid: ThreadId(0),
            state: SfState::Runnable,
            body,
            walker: FootprintWalker::new(code, empty.clone(), empty, WalkParams::default(), 1),
            cycles_used: 0,
            instructions_retired: 0,
            segment_start: (0, 0),
            runnable_since: 0,
        }
    }

    #[test]
    fn boundary_for_plain_syscall_is_remaining() {
        let sf = mk_sf(SfBody::Syscall {
            remaining: 500,
            block: None,
        });
        assert_eq!(sf.instructions_until_boundary(), 500);
    }

    #[test]
    fn boundary_for_blocking_syscall_is_block_point() {
        let sf = mk_sf(SfBody::Syscall {
            remaining: 500,
            block: Some((200, DeviceKind::Disk)),
        });
        // Runs 300 instructions, then blocks with 200 still to go.
        assert_eq!(sf.instructions_until_boundary(), 300);
    }

    #[test]
    fn boundary_for_application_is_burst() {
        let sf = mk_sf(SfBody::Application { burst_left: 1234 });
        assert_eq!(sf.instructions_until_boundary(), 1234);
    }

    #[test]
    fn category_comes_from_type() {
        let sf = mk_sf(SfBody::Syscall {
            remaining: 1,
            block: None,
        });
        assert_eq!(sf.category(), SfCategory::SystemCall);
        assert!(sf.is_os());
    }
}
