//! The server core: request handling, the dispatcher, and job
//! execution. Transport (sockets, signals) lives in the `schedtaskd`
//! binary; everything here works on request/response strings, which is
//! what the tests drive directly.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use schedtask::{SchedTaskConfig, SchedTaskScheduler};
use schedtask_experiments::runner::{panic_message, RunBuilder};
use schedtask_experiments::serve_api::{
    parse_request, JobSpec, RequestOp, Response, PROTOCOL_VERSION,
};
use schedtask_kernel::SimStats;
use schedtask_obs::{
    render_counter_table, render_span_table, Aggregator, ChaosKind, CounterSnapshot, JsonlSink,
    ObsEvent, Observer, SpanKind,
};

use crate::cache::{JobOutput, Lookup, ResultCache};
use crate::chaos::{ChaosInjector, ChaosPlan, ResponseAction};
use crate::disk::{DiskCache, RecoveryReport};
use crate::queue::{JobQueue, QueuedJob, SubmitError};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// backpressure.
    pub queue_capacity: usize,
    /// Maximum jobs the dispatcher drains into one batch.
    pub batch_max: usize,
    /// Worker threads simulating one batch.
    pub workers: usize,
    /// Directory for the persistent cache tier; `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// Chaos plan for fault injection; `None` (or an inactive plan)
    /// disables it.
    pub chaos: Option<ChaosPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            batch_max: 8,
            workers: 4,
            cache_dir: None,
            chaos: None,
        }
    }
}

/// The server core. Transport-agnostic: hand request lines to
/// [`Server::handle_request_line`] from any number of threads; run
/// [`Server::run_dispatcher`] (or [`Server::spawn_dispatcher`]) to
/// execute admitted jobs.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    cache: ResultCache,
    disk: Option<DiskCache>,
    recovery: Option<RecoveryReport>,
    chaos: Option<Mutex<ChaosInjector>>,
    queue: JobQueue,
    agg: Arc<Aggregator>,
    started: Instant,
}

/// What a chaos-inflected disk append should do.
enum DiskAction {
    Persist,
    Torn(usize),
    Fail,
}

impl Server {
    /// A fresh server with an empty cache and queue. Panics if the
    /// configured cache directory cannot be opened; the daemon uses
    /// [`Server::try_new`] to report that as a startup error instead.
    pub fn new(cfg: ServeConfig) -> Server {
        Server::try_new(cfg).expect("failed to open cache dir")
    }

    /// A fresh server, recovering the persistent tier when
    /// `cfg.cache_dir` is set. Recovery results are published as a
    /// [`ObsEvent::DiskRecovered`] event (visible in `--profile`) and
    /// via [`Server::recovery`].
    pub fn try_new(cfg: ServeConfig) -> io::Result<Server> {
        let started = Instant::now();
        let agg = Arc::new(Aggregator::new());
        let (disk, recovery) = match &cfg.cache_dir {
            Some(dir) => {
                let (disk, report) = DiskCache::open(dir)?;
                agg.event(&ObsEvent::DiskRecovered {
                    at: started.elapsed().as_millis() as u64,
                    records: report.records,
                    corrupt: report.corrupt,
                    truncated: report.truncated_tails,
                });
                (Some(disk), Some(report))
            }
            None => (None, None),
        };
        let chaos = cfg
            .chaos
            .as_ref()
            .filter(|plan| plan.is_active())
            .map(|plan| Mutex::new(ChaosInjector::new(plan.clone())));
        Ok(Server {
            queue: JobQueue::new(cfg.queue_capacity),
            cfg,
            cache: ResultCache::new(),
            disk,
            recovery,
            chaos,
            agg,
            started,
        })
    }

    /// What startup recovery of the persistent tier found, if it ran.
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Number of records in the persistent tier's index.
    pub fn disk_entries(&self) -> usize {
        self.disk.as_ref().map_or(0, DiskCache::len)
    }

    /// Milliseconds since server start (the `at` clock of serve events).
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Microseconds since server start (the job-span clock).
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn emit(&self, ev: ObsEvent) {
        self.agg.event(&ev);
    }

    /// Snapshot of the serve counters.
    pub fn counters(&self) -> CounterSnapshot {
        self.agg.counters()
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// The result cache (tests probe hit/miss/entry counts).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Closes the admission queue: future runs are rejected and the
    /// dispatcher exits once the backlog is drained.
    pub fn close(&self) {
        self.queue.close();
    }

    /// The `--profile` report: counter and span tables.
    pub fn profile_text(&self) -> String {
        let mut out = render_counter_table(&[("schedtaskd".to_owned(), self.agg.counters())]);
        let spans = render_span_table(&self.agg.span_rows());
        if !spans.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&spans);
        }
        out
    }

    /// Runs the dispatcher until the queue is closed and drained.
    pub fn run_dispatcher(&self) {
        while let Some(batch) = self.queue.next_batch(self.cfg.batch_max) {
            self.run_batch(batch);
        }
    }

    /// Spawns the dispatcher on its own thread. Tests that need a full
    /// queue call this only after staging submissions.
    pub fn spawn_dispatcher(self: &Arc<Self>) -> thread::JoinHandle<()> {
        let server = Arc::clone(self);
        thread::spawn(move || server.run_dispatcher())
    }

    fn run_batch(&self, batch: Vec<QueuedJob>) {
        // Single-flight claiming guarantees each queued key is unique,
        // so the batch needs no dedup. Lane indices only label the job
        // spans.
        let items: Vec<(u32, QueuedJob)> = batch
            .into_iter()
            .enumerate()
            .map(|(lane, job)| (lane as u32, job))
            .collect();
        let jobs = items.len() as u32;
        let results = scoped_pool::scoped_map(&items, self.cfg.workers, |(lane, job)| {
            let enter_us = self.now_us();
            self.agg.span_enter(Some(*lane), SpanKind::Job, enter_us);
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if self.chaos_worker_panic() {
                    panic!("chaos: injected worker panic");
                }
                execute_job(&job.spec, job.key)
            }))
            .unwrap_or_else(|payload| Err(format!("job panicked: {}", panic_message(payload))));
            let micros = started.elapsed().as_micros() as u64;
            self.agg
                .span_exit(Some(*lane), SpanKind::Job, enter_us + micros);
            (micros, result)
        });
        for ((_, job), (micros, result)) in items.iter().zip(results) {
            self.emit(ObsEvent::JobExecuted {
                at: self.now_ms(),
                key: job.key,
                micros,
            });
            match result {
                Ok(output) => {
                    // Persist (and fsync) before publishing: once a
                    // response leaves the server, the record must
                    // survive a crash.
                    self.persist(job.key, &output);
                    self.cache.fill(&job.slot, output);
                }
                Err(err) => self.cache.fail(job.key, &job.slot, err),
            }
        }
        self.queue.finish_batch(items.len());
        self.emit(ObsEvent::BatchExecuted {
            at: self.now_ms(),
            jobs,
        });
    }

    /// Appends one fresh result to the persistent tier (when enabled),
    /// letting the chaos plan tear or fail the write. Persistence
    /// failures never fail the job — the result is already served from
    /// memory; the disk tier just loses one record, which a resubmit
    /// after restart will regenerate.
    fn persist(&self, key: u64, out: &JobOutput) {
        let Some(disk) = &self.disk else { return };
        let record_len = out.stats_json.len() + out.jsonl.len() + 24;
        match self.chaos_disk_action(record_len) {
            DiskAction::Persist => match disk.append(key, &out.stats_json, &out.jsonl) {
                Ok(bytes) => self.emit(ObsEvent::DiskWritten {
                    at: self.now_ms(),
                    key,
                    bytes,
                }),
                Err(_) => self.emit(ObsEvent::DiskWriteFailed {
                    at: self.now_ms(),
                    key,
                }),
            },
            DiskAction::Torn(keep) => {
                let _ = disk.append_torn(key, &out.stats_json, &out.jsonl, keep);
                self.emit(ObsEvent::DiskWriteFailed {
                    at: self.now_ms(),
                    key,
                });
            }
            DiskAction::Fail => self.emit(ObsEvent::DiskWriteFailed {
                at: self.now_ms(),
                key,
            }),
        }
    }

    /// Rolls the chaos dice for one disk append.
    fn chaos_disk_action(&self, record_len: usize) -> DiskAction {
        let Some(chaos) = &self.chaos else {
            return DiskAction::Persist;
        };
        let mut inj = chaos.lock().expect("chaos injector poisoned");
        if let Some(keep) = inj.torn_write(record_len) {
            drop(inj);
            self.emit(ObsEvent::ChaosInjected {
                at: self.now_ms(),
                kind: ChaosKind::TornWrite,
            });
            return DiskAction::Torn(keep);
        }
        if inj.disk_full() {
            drop(inj);
            self.emit(ObsEvent::ChaosInjected {
                at: self.now_ms(),
                kind: ChaosKind::DiskFull,
            });
            return DiskAction::Fail;
        }
        DiskAction::Persist
    }

    /// Rolls the chaos dice for one worker execution.
    fn chaos_worker_panic(&self) -> bool {
        let Some(chaos) = &self.chaos else {
            return false;
        };
        let fire = chaos
            .lock()
            .expect("chaos injector poisoned")
            .worker_panic();
        if fire {
            self.emit(ObsEvent::ChaosInjected {
                at: self.now_ms(),
                kind: ChaosKind::WorkerPanic,
            });
        }
        fire
    }

    /// Rolls the chaos dice for one outgoing response line of
    /// `line_len` bytes. The transport layer (the daemon) applies the
    /// returned action; chaos events are emitted here so `--profile`
    /// accounts every injection.
    pub fn chaos_response_action(&self, line_len: usize) -> ResponseAction {
        let Some(chaos) = &self.chaos else {
            return ResponseAction::Normal;
        };
        let action = chaos
            .lock()
            .expect("chaos injector poisoned")
            .response_action(line_len);
        let kind = match action {
            ResponseAction::Normal => return action,
            ResponseAction::Delay(_) => ChaosKind::DelayedResponse,
            ResponseAction::Truncate(_) => ChaosKind::TruncatedResponse,
            ResponseAction::Drop => ChaosKind::DroppedConnection,
        };
        self.emit(ObsEvent::ChaosInjected {
            at: self.now_ms(),
            kind,
        });
        action
    }

    /// Handles one request line and renders one response line. The
    /// returned flag is `true` when the request asked the server to
    /// shut down.
    pub fn handle_request_line(&self, line: &str) -> (String, bool) {
        let line = line.trim();
        if line.is_empty() {
            return (error_response(&None, "empty request"), false);
        }
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(err) => {
                // Version skew is a structured error (code
                // "unsupported_version"), not a parse failure: the
                // client can tell "upgrade me" apart from "fix your
                // request".
                let resp = Response::Error {
                    id: None,
                    code: err.code().map(str::to_owned),
                    error: err.to_string(),
                };
                return (resp.render(), false);
            }
        };
        match req.op {
            RequestOp::Ping => (
                Response::Pong {
                    id: req.id,
                    proto: PROTOCOL_VERSION,
                }
                .render(),
                false,
            ),
            RequestOp::Stats => (self.stats_response(&req.id), false),
            RequestOp::Shutdown => (Response::ShuttingDown { id: req.id }.render(), true),
            RequestOp::Run(spec, want_obs) => (self.handle_run(&req.id, *spec, want_obs), false),
        }
    }

    fn handle_run(&self, id: &Option<String>, spec: JobSpec, want_obs: bool) -> String {
        let key = spec.cache_key();
        let submitted = Instant::now();
        self.emit(ObsEvent::JobSubmitted {
            at: self.now_ms(),
            key,
        });
        let (output, cached, coalesced) = match self.cache.lookup_or_claim(key) {
            Lookup::Hit(out) => {
                self.emit(ObsEvent::JobCacheHit {
                    at: self.now_ms(),
                    key,
                });
                (Ok(out), true, false)
            }
            Lookup::InFlight(slot) => {
                self.emit(ObsEvent::JobCoalesced {
                    at: self.now_ms(),
                    key,
                });
                (slot.wait(), false, true)
            }
            Lookup::Claimed(slot) => {
                // Memory miss: probe the persistent tier before paying
                // for an execution. A disk hit fills the claimed slot,
                // so coalesced waiters and later submitters replay the
                // promoted bytes from memory.
                if let Some(record) = self.disk.as_ref().and_then(|disk| disk.get(key)) {
                    self.emit(ObsEvent::DiskCacheHit {
                        at: self.now_ms(),
                        key,
                    });
                    let out = self.cache.fill(
                        &slot,
                        JobOutput {
                            key: format!("{key:016x}"),
                            stats: SimStats::default(),
                            stats_json: record.stats_json,
                            jsonl: record.jsonl,
                        },
                    );
                    (Ok(out), true, false)
                } else {
                    let job = QueuedJob {
                        spec,
                        key,
                        slot: Arc::clone(&slot),
                    };
                    match self.queue.submit(job) {
                        Ok(depth) => {
                            self.emit(ObsEvent::JobAdmitted {
                                at: self.now_ms(),
                                key,
                                depth: depth as u32,
                            });
                            (slot.wait(), false, false)
                        }
                        Err(SubmitError::Full(bp)) => {
                            self.emit(ObsEvent::JobRejected {
                                at: self.now_ms(),
                                depth: bp.depth as u32,
                            });
                            // Release the claim so a retry after
                            // back-off re-executes instead of waiting
                            // forever.
                            self.cache
                                .fail(key, &slot, "rejected: queue full".to_owned());
                            return Response::Rejected {
                                id: id.clone(),
                                queue_depth: bp.depth as u64,
                                retry_after_ms: bp.retry_after_ms,
                            }
                            .render();
                        }
                        Err(SubmitError::Closed) => {
                            // Terminal: the daemon is shutting down. No
                            // retry hint — the client must not spin
                            // against a dying endpoint.
                            self.cache
                                .fail(key, &slot, "server shutting down".to_owned());
                            return error_response(id, "server shutting down; queue closed");
                        }
                    }
                }
            }
        };
        let latency_us = submitted.elapsed().as_micros() as u64;
        match output {
            Ok(out) => Response::Ok {
                id: id.clone(),
                cached,
                coalesced,
                key: out.key.clone(),
                queue_depth: self.queue.depth() as u64,
                latency_us,
                result: out.stats_json.clone(),
                jsonl: want_obs.then(|| out.jsonl.clone()),
            }
            .render(),
            Err(err) => error_response(id, &err),
        }
    }

    fn stats_response(&self, id: &Option<String>) -> String {
        let snap = self.agg.counters();
        let mut counters = String::from("{");
        let mut first = true;
        for (c, v) in snap.iter().filter(|&(_, v)| v > 0) {
            if !first {
                counters.push(',');
            }
            first = false;
            counters.push_str(&format!("\"{}\":{v}", c.name()));
        }
        counters.push('}');
        format!(
            "{{\"v\":{PROTOCOL_VERSION},{}\"status\":\"ok\",\"queue_depth\":{},\
             \"queue_capacity\":{},\"cache_entries\":{},\"disk_entries\":{},\
             \"counters\":{counters}}}",
            id_field(id),
            self.queue.depth(),
            self.queue.capacity(),
            self.cache.entries(),
            self.disk_entries()
        )
    }
}

/// Renders the optional leading `"id":"...",` response field (stats
/// responses only; typed responses render through [`Response`]).
fn id_field(id: &Option<String>) -> String {
    match id {
        Some(id) => format!(
            "\"id\":\"{}\",",
            schedtask_experiments::serve_api::escape_json(id)
        ),
        None => String::new(),
    }
}

/// Renders an error response line with no machine-readable code.
fn error_response(id: &Option<String>, err: &str) -> String {
    Response::Error {
        id: id.clone(),
        code: None,
        error: err.to_owned(),
    }
    .render()
}

/// Simulates one job, whose cache key is `key`, and packages the
/// cacheable output. The JSONL stream is always captured: it is part of
/// the cached artefact, so replays are byte-identical whether or not the
/// first submitter asked for it.
fn execute_job(spec: &JobSpec, key: u64) -> Result<JobOutput, String> {
    let label = format!("{}/{}", spec.technique.name(), spec.benchmark.name());
    let sink = Arc::new(JsonlSink::with_label(Vec::new(), Some(label)));
    let mut builder =
        RunBuilder::new(&spec.params).observer(Arc::clone(&sink) as Arc<dyn Observer>);
    builder = match spec.steal {
        Some(policy) => builder.scheduler(Box::new(SchedTaskScheduler::new(
            spec.params.cores,
            SchedTaskConfig {
                steal_policy: policy,
                ..SchedTaskConfig::default()
            },
        ))),
        None => builder.technique(spec.technique),
    };
    let stats = builder
        .benchmark(spec.benchmark, spec.scale)
        .run()
        .map_err(|e| e.to_string())?;
    Ok(JobOutput {
        key: format!("{key:016x}"),
        stats_json: stats.to_canonical_json(),
        jsonl: sink.take(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedtask_experiments::serve_api::Json;
    use schedtask_obs::Counter;

    fn quick_run_line(id: &str, workload: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"workload\":\"{workload}\",\"cores\":2,\
             \"max_instructions\":60000,\"warmup_instructions\":20000}}"
        )
    }

    #[test]
    fn run_then_rerun_hits_cache_with_identical_bytes() {
        let server = Arc::new(Server::new(ServeConfig {
            queue_capacity: 4,
            batch_max: 2,
            workers: 2,
            ..ServeConfig::default()
        }));
        let dispatcher = server.spawn_dispatcher();

        let (first, _) = server.handle_request_line(&quick_run_line("a", "Find"));
        let (second, _) = server.handle_request_line(&quick_run_line("b", "Find"));
        let parse = |resp: &str| Json::parse(resp).expect("response is JSON");
        let first_json = parse(&first);
        let second_json = parse(&second);
        assert_eq!(
            first_json.get("status").and_then(Json::as_str),
            Some("ok"),
            "{first}"
        );
        assert_eq!(
            first_json.get("cached").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            second_json.get("cached").and_then(Json::as_bool),
            Some(true)
        );
        // The cached replay carries byte-identical result bytes: strip
        // the differing envelope (id, latency) and compare the payload.
        let result_of = |resp: &str| {
            let start = resp.find("\"result\":").expect("result field") + "\"result\":".len();
            resp[start..resp.len() - 1].to_owned()
        };
        assert_eq!(result_of(&first), result_of(&second));

        let snap = server.counters();
        assert_eq!(snap.get(Counter::ServeSubmitted), 2);
        assert_eq!(snap.get(Counter::ServeCacheMisses), 1);
        assert_eq!(snap.get(Counter::ServeCacheHits), 1);
        assert_eq!(snap.get(Counter::ServeExecuted), 1);

        server.close();
        dispatcher.join().expect("dispatcher exits");
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        // No dispatcher: the queue cannot drain, so filling it is
        // deterministic.
        let server = Arc::new(Server::new(ServeConfig {
            queue_capacity: 2,
            batch_max: 2,
            workers: 1,
            ..ServeConfig::default()
        }));
        let staged: Vec<thread::JoinHandle<String>> = ["Find", "Iscp"]
            .iter()
            .enumerate()
            .map(|(i, workload)| {
                let server = Arc::clone(&server);
                let line = quick_run_line(&format!("s{i}"), workload);
                thread::spawn(move || server.handle_request_line(&line).0)
            })
            .collect();
        // Wait until both staged submissions are admitted.
        while server.queue_depth() < 2 {
            thread::sleep(std::time::Duration::from_millis(5));
        }
        let (rejected, _) = server.handle_request_line(&quick_run_line("r", "Oscp"));
        let json = Json::parse(&rejected).expect("response is JSON");
        assert_eq!(
            json.get("status").and_then(Json::as_str),
            Some("rejected"),
            "{rejected}"
        );
        assert_eq!(json.get("queue_depth").and_then(Json::as_u64), Some(2));
        assert!(
            json.get("retry_after_ms")
                .and_then(Json::as_u64)
                .expect("hint")
                >= 100
        );
        assert_eq!(server.counters().get(Counter::ServeRejected), 1);

        // Draining the queue completes the staged submissions.
        let dispatcher = server.spawn_dispatcher();
        for handle in staged {
            let resp = handle.join().expect("no panic");
            let json = Json::parse(&resp).expect("response is JSON");
            assert_eq!(
                json.get("status").and_then(Json::as_str),
                Some("ok"),
                "{resp}"
            );
        }
        // After back-off, the rejected job can be resubmitted and runs.
        let (retried, _) = server.handle_request_line(&quick_run_line("r2", "Oscp"));
        let json = Json::parse(&retried).expect("response is JSON");
        assert_eq!(
            json.get("status").and_then(Json::as_str),
            Some("ok"),
            "{retried}"
        );
        assert_eq!(json.get("cached").and_then(Json::as_bool), Some(false));
        server.close();
        dispatcher.join().expect("dispatcher exits");
    }

    #[test]
    fn ping_stats_and_shutdown_requests() {
        let server = Server::new(ServeConfig::default());
        let (pong, shutdown) = server.handle_request_line("{\"op\":\"ping\",\"id\":\"p\"}");
        assert!(!shutdown);
        assert_eq!(
            pong,
            "{\"v\":1,\"id\":\"p\",\"status\":\"ok\",\"pong\":true,\"proto\":1}"
        );
        let (stats, _) = server.handle_request_line("{\"op\":\"stats\"}");
        let json = Json::parse(&stats).expect("stats is JSON");
        assert_eq!(json.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("queue_depth").and_then(Json::as_u64), Some(0));
        assert_eq!(json.get("queue_capacity").and_then(Json::as_u64), Some(64));
        let (_, shutdown) = server.handle_request_line("{\"op\":\"shutdown\"}");
        assert!(shutdown);
    }

    #[test]
    fn unsupported_version_is_a_structured_error() {
        let server = Server::new(ServeConfig::default());
        let (resp, shutdown) = server.handle_request_line("{\"v\":2,\"op\":\"ping\"}");
        assert!(!shutdown);
        let json = Json::parse(&resp).expect("error response is JSON");
        assert_eq!(
            json.get("status").and_then(Json::as_str),
            Some("error"),
            "{resp}"
        );
        assert_eq!(
            json.get("code").and_then(Json::as_str),
            Some("unsupported_version"),
            "{resp}"
        );
        // The current version passes the same gate.
        let (resp, _) = server.handle_request_line("{\"v\":1,\"op\":\"ping\"}");
        let json = Json::parse(&resp).expect("pong is JSON");
        assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(json.get("proto").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn restart_serves_disk_tier_as_byte_identical_cache_hit() {
        let dir =
            std::env::temp_dir().join(format!("schedtask-server-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            queue_capacity: 4,
            batch_max: 2,
            workers: 2,
            cache_dir: Some(dir.clone()),
            chaos: None,
        };
        let result_of = |resp: &str| {
            let start = resp.find("\"result\":").expect("result field") + "\"result\":".len();
            resp[start..resp.len() - 1].to_owned()
        };
        // First lifetime: execute and persist.
        let first = {
            let server = Arc::new(Server::new(cfg.clone()));
            let dispatcher = server.spawn_dispatcher();
            let (resp, _) = server.handle_request_line(&quick_run_line("a", "Find"));
            let json = Json::parse(&resp).expect("response is JSON");
            assert_eq!(
                json.get("status").and_then(Json::as_str),
                Some("ok"),
                "{resp}"
            );
            assert_eq!(server.disk_entries(), 1, "result persisted");
            server.close();
            dispatcher.join().expect("dispatcher exits");
            resp
        };
        // Second lifetime, same directory: recovery promotes the disk
        // record — no execution, byte-identical result payload.
        let server = Arc::new(Server::new(cfg));
        assert_eq!(server.recovery().expect("recovery ran").records, 1);
        let (second, _) = server.handle_request_line(&quick_run_line("b", "Find"));
        let json = Json::parse(&second).expect("response is JSON");
        assert_eq!(
            json.get("cached").and_then(Json::as_bool),
            Some(true),
            "{second}"
        );
        assert_eq!(result_of(&first), result_of(&second));
        assert_eq!(server.counters().get(Counter::ServeDiskHits), 1);
        assert_eq!(server.counters().get(Counter::ServeExecuted), 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn closed_queue_yields_terminal_error_response() {
        let server = Server::new(ServeConfig::default());
        server.close();
        let (resp, _) = server.handle_request_line(&quick_run_line("x", "Find"));
        let json = Json::parse(&resp).expect("response is JSON");
        assert_eq!(
            json.get("status").and_then(Json::as_str),
            Some("error"),
            "closed queue must be a terminal error, not backpressure: {resp}"
        );
        assert!(json.get("retry_after_ms").is_none(), "{resp}");
    }

    #[test]
    fn bad_requests_get_error_responses() {
        let server = Server::new(ServeConfig::default());
        for line in ["", "not json", "{\"workload\":\"NoSuch\"}"] {
            let (resp, shutdown) = server.handle_request_line(line);
            assert!(!shutdown);
            let json = Json::parse(&resp).expect("error response is JSON");
            assert_eq!(
                json.get("status").and_then(Json::as_str),
                Some("error"),
                "{resp}"
            );
        }
    }
}
