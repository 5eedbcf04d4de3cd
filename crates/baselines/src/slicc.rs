//! SLICC (Atta et al., MICRO 2012): self-assembly of instruction-cache
//! collectives.
//!
//! SLICC spreads a workload's instruction footprint across cores and
//! migrates threads toward the core that likely holds the i-cache lines
//! they will fetch next; the remote tag search is hardware and modelled
//! at zero cost (Table 3). Two properties from the paper are modelled
//! faithfully:
//!
//! * footprint segments acquire a home core on first sight, so threads
//!   executing the same code converge on the same core (low i-cache
//!   misses) — but **per application**: SLICC's migration unit tracks
//!   threads of one application and cannot group common OS execution
//!   across *different* applications (Section 2.1), which is why it
//!   collapses on multi-programmed workloads (appendix Figure 1);
//! * **no idle-core stealing**: a core with an empty queue waits
//!   (Section 1), producing SLICC's ≈5 % residual idleness at 2X and its
//!   heavy idleness at 1X (Table 4).

use schedtask_kernel::{
    CoreId, CoreQueues, EngineCore, SchedError, SchedEvent, Scheduler, SfId, SwitchReason,
    KERNEL_TID,
};
use std::collections::HashMap;

/// Queue pressure (estimated waiting cycles) above which a footprint
/// segment spills onto an additional core. Real SLICC spreads a hot
/// footprint over several cores' i-caches; threads then pipeline through
/// them instead of serializing on one.
const SPILL_THRESHOLD_CYCLES: f64 = 4_000.0;

/// The SLICC scheduler.
#[derive(Debug)]
pub struct SliccScheduler {
    queues: CoreQueues,
    /// (application group, footprint entry page) → cores holding this
    /// segment's lines. The entry page of the upcoming fetch stream is
    /// what the hardware's tag search effectively keys on; segments
    /// spill onto more cores as their queues back up.
    segment_cores: HashMap<(u64, u64), Vec<usize>>,
}

impl SliccScheduler {
    /// Creates the scheduler for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        SliccScheduler {
            queues: CoreQueues::new(num_cores),
            segment_cores: HashMap::new(),
        }
    }

    /// The application group a SuperFunction belongs to: SLICC assembles
    /// cache collectives per application, so the key includes the
    /// thread's application identity.
    fn app_group(ctx: &EngineCore, sf: SfId) -> u64 {
        let tid = ctx.sf_tid(sf);
        if tid == KERNEL_TID {
            return u64::MAX;
        }
        // Threads of the same benchmark instance share an executable;
        // use the application superFuncType as the group key.
        match ctx.sf_parent(sf) {
            Some(parent) => ctx.sf_type(parent).raw(),
            None => ctx.sf_type(sf).raw(),
        }
    }
}

impl Scheduler for SliccScheduler {
    fn name(&self) -> &'static str {
        "SLICC"
    }

    fn enqueue(
        &mut self,
        ctx: &mut EngineCore,
        sf: SfId,
        origin: Option<CoreId>,
    ) -> Result<(), SchedError> {
        let group = Self::app_group(ctx, sf);
        // Fingerprint of the upcoming fetch footprint: the tag-search
        // hardware effectively identifies which collective holds these
        // lines. A fingerprint (rather than just the entry page)
        // distinguishes handlers that share a common prefix, e.g. the
        // VFS entry code of different filesystem calls.
        let fingerprint = ctx
            .sf_code_pages(sf)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
                (h ^ p).wrapping_mul(0x1000_0000_01b3)
            });
        let key = (group, fingerprint);
        let n = self.queues.num_cores();
        let cores = match self.segment_cores.get(&key) {
            Some(cores) => cores.clone(),
            None => {
                // First time this footprint segment is seen for this
                // application: claim the least-loaded core, spreading the
                // footprint across the collective.
                let c = self.queues.least_loaded(0..n);
                self.segment_cores.insert(key, vec![c]);
                vec![c]
            }
        };
        // Hysteresis: if the thread's current core already holds this
        // segment's lines, stay — SLICC only migrates when the needed
        // lines are remote.
        if let Some(last) = ctx.thread_last_core(ctx.sf_tid(sf)) {
            if cores.contains(&last.0) && self.queues.waiting(last.0) < SPILL_THRESHOLD_CYCLES {
                self.queues.push(ctx, last.0, sf);
                return Ok(());
            }
        }
        let best = self.queues.least_loaded(cores.iter().copied());
        let core = if self.queues.waiting(best) > SPILL_THRESHOLD_CYCLES && cores.len() < n {
            // Hot segment: replicate its lines onto one more core and
            // send this thread there (the migration hardware follows the
            // copy).
            let extra = self.queues.least_loaded(0..n);
            let entry = self.segment_cores.entry(key).or_default();
            if !entry.contains(&extra) {
                entry.push(extra);
            }
            extra
        } else {
            best
        };
        let _ = origin;
        self.queues.push(ctx, core, sf);
        Ok(())
    }

    fn pick_next(
        &mut self,
        ctx: &mut EngineCore,
        core: CoreId,
    ) -> Result<Option<SfId>, SchedError> {
        // SLICC does not allow an idle core to steal pending threads
        // waiting at other cores (Section 1).
        Ok(self.queues.pop(ctx, core.0))
    }

    fn queued_sfs(&self, out: &mut Vec<SfId>) -> bool {
        self.queues.all_queued(out);
        true
    }

    fn on_switch_out(&mut self, ctx: &mut EngineCore, _core: CoreId, sf: SfId, _r: SwitchReason) {
        self.queues
            .record_exec(ctx.sf_type(sf), ctx.sf_segment_cycles(sf));
    }

    fn route_interrupt(&mut self, ctx: &mut EngineCore, irq: u64) -> CoreId {
        // Agnostic to OS events: interrupts spread statically.
        CoreId((irq as usize) % ctx.num_cores())
    }

    fn overhead_instructions(&self, event: SchedEvent) -> u64 {
        match event {
            // Hardware migration: zero-cost tag search, tiny software
            // involvement.
            SchedEvent::SfStart | SchedEvent::SfStop => 10,
            SchedEvent::SfPause | SchedEvent::SfWakeup => 10,
            SchedEvent::EpochAlloc => 0,
            SchedEvent::FullReschedule => 1_800,
        }
    }
}
