//! A [`Scheduler`] wrapper that forwards every hook to a technique's
//! own scheduler and accumulates host time and call counts per hook
//! group. It changes no decision, so a traced run's `SimStats` must
//! equal the untraced run's.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use schedtask_kernel::{CoreId, EngineCore, SchedError, SchedEvent, Scheduler, SfId, SwitchReason};

/// Hook groups, in report order. `epoch` covers `init` and `on_epoch`;
/// `lifecycle` covers `on_dispatch`, `on_switch_out`, `on_complete`,
/// `on_block` and `overhead_for`; `route` covers `route_interrupt` and
/// `route_completion`.
pub const GROUPS: [&str; 5] = ["enqueue", "pick_next", "epoch", "lifecycle", "route"];

const ENQUEUE: usize = 0;
const PICK: usize = 1;
const EPOCH: usize = 2;
const LIFECYCLE: usize = 3;
const ROUTE: usize = 4;

/// Host nanoseconds and calls per hook group.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct HookTimes {
    pub ns: [u64; 5],
    pub calls: [u64; 5],
}

impl HookTimes {
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn add(&mut self, other: &HookTimes) {
        for g in 0..GROUPS.len() {
            self.ns[g] += other.ns[g];
            self.calls[g] += other.calls[g];
        }
    }

    pub fn pick_calls(&self) -> u64 {
        self.calls[PICK]
    }
}

/// Where a wrapper publishes its times when the engine that owns it
/// drops it.
pub type TimesHandle = Arc<Mutex<HookTimes>>;

/// Times every hook of `inner`. `overhead_for` takes `&self`, hence
/// the cells.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    ns: [Cell<u64>; 5],
    calls: [Cell<u64>; 5],
    out: TimesHandle,
}

impl TimedScheduler {
    pub fn wrap(inner: Box<dyn Scheduler>) -> (Box<dyn Scheduler>, TimesHandle) {
        let out = TimesHandle::default();
        let sched = TimedScheduler {
            inner,
            ns: Default::default(),
            calls: Default::default(),
            out: Arc::clone(&out),
        };
        (Box::new(sched), out)
    }

    fn record(&self, group: usize, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.ns[group].set(self.ns[group].get() + ns);
        self.calls[group].set(self.calls[group].get() + 1);
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        if let Ok(mut times) = self.out.lock() {
            *times = HookTimes {
                ns: std::array::from_fn(|g| self.ns[g].get()),
                calls: std::array::from_fn(|g| self.calls[g].get()),
            };
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut EngineCore) -> Result<(), SchedError> {
        let start = Instant::now();
        let out = self.inner.init(ctx);
        self.record(EPOCH, start);
        out
    }

    fn enqueue(
        &mut self,
        ctx: &mut EngineCore,
        sf: SfId,
        origin: Option<CoreId>,
    ) -> Result<(), SchedError> {
        let start = Instant::now();
        let out = self.inner.enqueue(ctx, sf, origin);
        self.record(ENQUEUE, start);
        out
    }

    fn pick_next(
        &mut self,
        ctx: &mut EngineCore,
        core: CoreId,
    ) -> Result<Option<SfId>, SchedError> {
        let start = Instant::now();
        let out = self.inner.pick_next(ctx, core);
        self.record(PICK, start);
        out
    }

    fn on_dispatch(&mut self, ctx: &mut EngineCore, core: CoreId, sf: SfId) {
        let start = Instant::now();
        self.inner.on_dispatch(ctx, core, sf);
        self.record(LIFECYCLE, start);
    }

    fn on_switch_out(
        &mut self,
        ctx: &mut EngineCore,
        core: CoreId,
        sf: SfId,
        reason: SwitchReason,
    ) {
        let start = Instant::now();
        self.inner.on_switch_out(ctx, core, sf, reason);
        self.record(LIFECYCLE, start);
    }

    fn on_complete(&mut self, ctx: &mut EngineCore, sf: SfId) {
        let start = Instant::now();
        self.inner.on_complete(ctx, sf);
        self.record(LIFECYCLE, start);
    }

    fn on_block(&mut self, ctx: &mut EngineCore, sf: SfId) {
        let start = Instant::now();
        self.inner.on_block(ctx, sf);
        self.record(LIFECYCLE, start);
    }

    fn on_epoch(&mut self, ctx: &mut EngineCore) -> Result<(), SchedError> {
        let start = Instant::now();
        let out = self.inner.on_epoch(ctx);
        self.record(EPOCH, start);
        out
    }

    fn queued_sfs(&self, out: &mut Vec<SfId>) -> bool {
        self.inner.queued_sfs(out)
    }

    fn route_interrupt(&mut self, ctx: &mut EngineCore, irq: u64) -> CoreId {
        let start = Instant::now();
        let out = self.inner.route_interrupt(ctx, irq);
        self.record(ROUTE, start);
        out
    }

    fn route_completion(&mut self, ctx: &mut EngineCore, irq: u64, waiter: SfId) -> CoreId {
        let start = Instant::now();
        let out = self.inner.route_completion(ctx, irq, waiter);
        self.record(ROUTE, start);
        out
    }

    fn overhead_for(&self, ctx: &EngineCore, event: SchedEvent, sf: Option<SfId>) -> u64 {
        let start = Instant::now();
        let out = self.inner.overhead_for(ctx, event, sf);
        self.record(LIFECYCLE, start);
        out
    }

    fn overhead_instructions(&self, event: SchedEvent) -> u64 {
        self.inner.overhead_instructions(event)
    }
}
