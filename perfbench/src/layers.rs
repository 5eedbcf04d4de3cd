//! The per-layer metrics of the traced mode. Every workload prints the
//! whole set; a layer that does not run in a workload's timed phase
//! reads 0 there.

use schedtask_kernel::SimStats;
use schedtask_obs::{Counter, CounterSnapshot};

use crate::report::Report;
use crate::sched_trace::{HookTimes, GROUPS};

/// Engine host time, split by the scheduler-hook wrapper.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTimes {
    /// `Engine::new`, nanoseconds.
    pub build_ns: u64,
    /// `Engine::run`, nanoseconds, scheduler hooks included.
    pub run_ns: u64,
    pub hooks: HookTimes,
}

impl EngineTimes {
    pub fn add(&mut self, other: &EngineTimes) {
        self.build_ns += other.build_ns;
        self.run_ns += other.run_ns;
        self.hooks.add(&other.hooks);
    }
}

/// Canonical `SimStats` counts summed over the simulations a workload
/// ran in its timed phase.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SimCounts {
    pub instructions: u64,
    pub cycles: u64,
    pub l1i_accesses: u64,
    pub l1i_misses: u64,
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
    pub llc_misses: u64,
    pub itlb_misses: u64,
    pub dtlb_misses: u64,
    pub coherence_invalidations: u64,
    pub coherence_transfers: u64,
}

impl SimCounts {
    pub fn add(&mut self, s: &SimStats) {
        let m = &s.mem;
        self.instructions += s.total_instructions();
        self.cycles += s.final_cycle;
        self.l1i_accesses +=
            m.icache_app.hits + m.icache_app.misses + m.icache_os.hits + m.icache_os.misses;
        self.l1i_misses += m.icache_app.misses + m.icache_os.misses;
        self.l1d_accesses +=
            m.dcache_app.hits + m.dcache_app.misses + m.dcache_os.hits + m.dcache_os.misses;
        self.l1d_misses += m.dcache_app.misses + m.dcache_os.misses;
        self.llc_misses += m.llc.misses;
        self.itlb_misses += m.itlb.misses;
        self.dtlb_misses += m.dtlb.misses;
        self.coherence_invalidations += m.coherence_invalidations;
        self.coherence_transfers += m.coherence_transfers;
    }
}

/// Router counters over the timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct RouterCounts {
    pub hot_hits: u64,
    pub forwarded: u64,
    pub coalesced: u64,
    pub shed: u64,
    pub failovers: u64,
}

impl RouterCounts {
    pub fn minus(&self, before: &RouterCounts) -> RouterCounts {
        RouterCounts {
            hot_hits: self.hot_hits - before.hot_hits,
            forwarded: self.forwarded - before.forwarded,
            coalesced: self.coalesced - before.coalesced,
            shed: self.shed - before.shed,
            failovers: self.failovers - before.failovers,
        }
    }
}

/// Worker counters over the timed phase, summed over the fleet.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkerCounts {
    pub cache_hits: u64,
    pub disk_hits: u64,
    pub executed: u64,
    pub batches: u64,
    pub rejected: u64,
    pub exec_micros: u64,
    pub disk_writes: u64,
    pub disk_write_bytes: u64,
}

impl WorkerCounts {
    pub fn from_snapshot(s: &CounterSnapshot) -> Self {
        WorkerCounts {
            cache_hits: s.get(Counter::ServeCacheHits),
            disk_hits: s.get(Counter::ServeDiskHits),
            executed: s.get(Counter::ServeExecuted),
            batches: s.get(Counter::ServeBatches),
            rejected: s.get(Counter::ServeRejected),
            exec_micros: s.get(Counter::ServeExecMicros),
            disk_writes: s.get(Counter::ServeDiskWrites),
            disk_write_bytes: s.get(Counter::ServeDiskWriteBytes),
        }
    }

    pub fn minus(&self, before: &WorkerCounts) -> WorkerCounts {
        WorkerCounts {
            cache_hits: self.cache_hits - before.cache_hits,
            disk_hits: self.disk_hits - before.disk_hits,
            executed: self.executed - before.executed,
            batches: self.batches - before.batches,
            rejected: self.rejected - before.rejected,
            exec_micros: self.exec_micros - before.exec_micros,
            disk_writes: self.disk_writes - before.disk_writes,
            disk_write_bytes: self.disk_write_bytes - before.disk_write_bytes,
        }
    }
}

/// Service-side spans reduced to the reported percentiles (µs).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceTimes {
    pub client_p50: f64,
    pub client_p99: f64,
    pub transport_p50: f64,
    pub router_self_p50: f64,
    pub worker_handle_p50: f64,
    pub worker_handle_p99: f64,
    pub worker_wait_p50: f64,
    /// Timed requests, the base of the hot-hit ratio.
    pub requests: u64,
}

/// Everything the traced mode reports.
#[derive(Debug, Default)]
pub struct Layers {
    pub engine: EngineTimes,
    pub sim: SimCounts,
    pub obs: CounterSnapshot,
    pub trace_overhead_pct: f64,
    /// Mean µs per call of the wire codec functions, in [`WIRE`] order.
    pub wire_us: [f64; 5],
    pub service: ServiceTimes,
    pub router: RouterCounts,
    pub worker: WorkerCounts,
}

/// The wire-codec functions timed over a run's own lines.
pub const WIRE: [&str; 5] = [
    "parse_request",
    "cache_key",
    "to_request_line",
    "response_render",
    "response_parse",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Layers {
    pub fn emit(&self, r: &mut Report) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let e = &self.engine;
        let engine_self_ns = e.run_ns.saturating_sub(e.hooks.total_ns());
        r.metric("kernel.build_ms", ms(e.build_ns), "ms");
        r.metric("kernel.run_ms", ms(engine_self_ns), "ms");
        r.metric(
            "kernel.ns_per_instr",
            ratio(engine_self_ns, self.sim.instructions),
            "ns",
        );
        for (g, name) in GROUPS.iter().enumerate() {
            r.metric(&format!("sched.{name}_ms"), ms(e.hooks.ns[g]), "ms");
            r.metric(
                &format!("sched.{name}_calls"),
                e.hooks.calls[g] as f64,
                "count",
            );
        }
        let obs = &self.obs;
        let dispatches = obs.get(Counter::Dispatches);
        r.metric(
            "sched.pick_hit_ratio",
            ratio(dispatches, e.hooks.pick_calls()),
            "ratio",
        );
        let s = &self.sim;
        for (name, v) in [
            ("sim.instructions", s.instructions),
            ("sim.cycles", s.cycles),
            ("sim.l1i_accesses", s.l1i_accesses),
            ("sim.l1i_misses", s.l1i_misses),
            ("sim.l1d_accesses", s.l1d_accesses),
            ("sim.l1d_misses", s.l1d_misses),
            ("sim.llc_misses", s.llc_misses),
            ("sim.itlb_misses", s.itlb_misses),
            ("sim.dtlb_misses", s.dtlb_misses),
            ("sim.coherence_invalidations", s.coherence_invalidations),
            ("sim.coherence_transfers", s.coherence_transfers),
            ("kernel.dispatches", dispatches),
            ("kernel.migrations", obs.get(Counter::ThreadMigrations)),
            ("kernel.irq_routes", obs.get(Counter::IrqRoutes)),
            (
                "kernel.component_ticks",
                obs.get(Counter::EngineComponentTicks),
            ),
            ("sched.epochs", obs.get(Counter::EpochsRun)),
            ("sched.reallocations", obs.get(Counter::EpochReallocations)),
            ("sched.steals_same", obs.get(Counter::StealsSameWork)),
            ("sched.steals_similar", obs.get(Counter::StealsSimilarWork)),
        ] {
            r.metric(name, v as f64, "count");
        }
        r.metric("obs.trace_overhead_pct", self.trace_overhead_pct, "%");
        for (name, us) in WIRE.iter().zip(self.wire_us) {
            r.metric(&format!("wire.{name}_us"), us, "us");
        }
        let t = &self.service;
        r.metric("client.rtt_us_p50", t.client_p50, "us");
        r.metric("client.rtt_us_p99", t.client_p99, "us");
        r.metric("transport.us_p50", t.transport_p50, "us");
        r.metric("router.self_us_p50", t.router_self_p50, "us");
        let rc = &self.router;
        for (name, v) in [
            ("router.hot_hits", rc.hot_hits),
            ("router.forwarded", rc.forwarded),
            ("router.coalesced", rc.coalesced),
            ("router.shed", rc.shed),
            ("router.failovers", rc.failovers),
        ] {
            r.metric(name, v as f64, "count");
        }
        r.metric(
            "router.hot_hit_ratio",
            ratio(rc.hot_hits, t.requests),
            "ratio",
        );
        let w = &self.worker;
        r.metric("worker.handle_us_p50", t.worker_handle_p50, "us");
        r.metric("worker.handle_us_p99", t.worker_handle_p99, "us");
        r.metric(
            "worker.exec_us_mean",
            ratio(w.exec_micros, w.executed),
            "us",
        );
        r.metric("worker.wait_us_p50", t.worker_wait_p50, "us");
        for (name, v) in [
            ("worker.cache_hits", w.cache_hits),
            ("worker.disk_hits", w.disk_hits),
            ("worker.executed", w.executed),
            ("worker.batches", w.batches),
            ("worker.rejected", w.rejected),
            ("disk.writes", w.disk_writes),
        ] {
            r.metric(name, v as f64, "count");
        }
        r.metric("disk.write_bytes", w.disk_write_bytes as f64, "B");
    }
}
