//! The worker: admission, the cache tiers, the executors, and job
//! execution. Requests reach it through the front end and transport
//! in [`crate::daemon`], signals through the `schedtaskd` binary;
//! everything here works on request/response strings, which is what
//! the tests drive directly.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use schedtask_experiments::runner::panic_message;
use schedtask_experiments::serve_api::{escape_json, JobSpec, Response, PROTOCOL_VERSION};
use schedtask_obs::{Counter, CounterSet, CounterSnapshot};

use crate::cache::{EventStream, JobOutput, Lookup, ResultCache};
use crate::chaos::{ChaosInjector, ChaosPlan, ResponseAction};
use crate::daemon::{error_line, handle_line, ok_line, Backend, Served};
use crate::disk::{DiskCache, DiskRecord, RecordLoc, RecoveryReport};
use crate::queue::{JobQueue, QueuedJob, SubmitError};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// backpressure.
    pub queue_capacity: usize,
    /// Executors, each simulating one job at a time.
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
            workers: 4,
            cache_dir: None,
            chaos: None,
        }
    }
}

/// The server core. Transport-agnostic: hand request lines to
/// [`Server::handle_request_line`] from any number of threads; run
/// [`Server::spawn_dispatcher`] to execute admitted jobs.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    cache: ResultCache,
    disk: Option<DiskCache>,
    recovery: Option<RecoveryReport>,
    chaos: Option<Mutex<ChaosInjector>>,
    queue: JobQueue,
    counters: CounterSet,
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
    /// `cfg.cache_dir` is set: every recovered record's stats bytes and
    /// location are filled into the memory tier, so it is served as an
    /// ordinary cache hit and its stream is read from the log. What
    /// recovery found is added to the `serve_disk_recovered`,
    /// `serve_disk_corrupt` and `serve_disk_truncated_tails` counters
    /// (visible in `--profile`) and returned by [`Server::recovery`].
    pub fn try_new(cfg: ServeConfig) -> io::Result<Server> {
        let counters = CounterSet::new();
        let cache = ResultCache::new();
        let (disk, recovery) = match &cfg.cache_dir {
            Some(dir) => {
                let (disk, report, records) = DiskCache::open(dir)?;
                // The keys are distinct and the cache is empty, so every
                // lookup claims.
                for (key, (stats_json, loc)) in records {
                    if let Lookup::Claimed(slot) = cache.lookup_or_claim(key) {
                        cache.fill(
                            &slot,
                            JobOutput {
                                key: format!("{key:016x}"),
                                stats_json,
                                jsonl: EventStream::Logged(loc),
                            },
                        );
                    }
                }
                counters.add(Counter::ServeDiskRecovered, report.records);
                counters.add(Counter::ServeDiskCorrupt, report.corrupt);
                counters.add(Counter::ServeDiskTruncatedTails, report.truncated_tails);
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
            cache,
            disk,
            recovery,
            chaos,
            counters,
        })
    }

    /// What startup recovery of the persistent tier found, if it ran.
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Records in the persistent tier: those recovered at startup plus
    /// every successful append since.
    pub fn disk_entries(&self) -> u64 {
        self.disk.as_ref().map_or(0, DiskCache::records)
    }

    /// The memory tier's output for a job key, if it is cached.
    pub fn cached(&self, key: u64) -> Option<Arc<JobOutput>> {
        self.cache.get(key)
    }

    /// Snapshot of the serve counters.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Closes the admission queue: future runs are rejected and the
    /// executors exit once the backlog is drained.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Spawns `cfg.workers` executors. Each takes one job at a time
    /// from the queue, so an idle executor never waits for a busy one.
    /// The returned handle finishes once every executor has drained the
    /// closed queue. Tests that need a full queue call this only after
    /// staging submissions.
    pub fn spawn_dispatcher(self: &Arc<Self>) -> thread::JoinHandle<()> {
        let server = Arc::clone(self);
        thread::spawn(move || {
            thread::scope(|scope| {
                for _ in 0..server.cfg.workers.max(1) {
                    scope.spawn(|| server.run_executor());
                }
            });
        })
    }

    /// One executor: runs queued jobs until the queue is closed and
    /// drained.
    fn run_executor(&self) {
        while let Some(job) = self.queue.next() {
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if self.chaos_worker_panic() {
                    panic!("chaos: injected worker panic");
                }
                execute_job(&job.spec)
            }))
            .unwrap_or_else(|payload| Err(format!("job panicked: {}", panic_message(payload))));
            self.counters.add(Counter::ServeExecuted, 1);
            self.counters.add(
                Counter::ServeExecMicros,
                started.elapsed().as_micros() as u64,
            );
            match result {
                Ok(run) => {
                    // Persist (and fsync) before publishing: once a
                    // response leaves the server, the record must
                    // survive a crash. A logged stream is not kept in
                    // memory.
                    let jsonl = match self.persist(job.key, &run) {
                        Some(loc) => EventStream::Logged(loc),
                        None => EventStream::Held(run.jsonl),
                    };
                    let output = JobOutput {
                        key: format!("{:016x}", job.key),
                        stats_json: run.stats_json,
                        jsonl,
                    };
                    self.cache.fill(&job.slot, output);
                }
                Err(err) => self.cache.fail(job.key, &job.slot, err),
            }
            self.queue.finish();
        }
    }

    /// Appends one fresh result to the persistent tier (when enabled),
    /// letting the chaos plan tear or fail the write, and returns where
    /// the record sits. Persistence failures never fail the job: the
    /// stream stays held in memory, and only durability is lost until a
    /// resubmit after a restart regenerates the record.
    fn persist(&self, key: u64, run: &DiskRecord) -> Option<RecordLoc> {
        let disk = self.disk.as_ref()?;
        let record_len = run.stats_json.len() + run.jsonl.len() + 24;
        match self.chaos_disk_action(record_len) {
            DiskAction::Persist => {
                if let Ok(loc) = disk.append(key, &run.stats_json, &run.jsonl) {
                    self.counters.add(Counter::ServeDiskWrites, 1);
                    self.counters
                        .add(Counter::ServeDiskWriteBytes, u64::from(loc.len));
                    return Some(loc);
                }
            }
            DiskAction::Torn(keep) => {
                let _ = disk.append_torn(key, &run.stats_json, &run.jsonl, keep);
            }
            DiskAction::Fail => {}
        }
        self.counters.add(Counter::ServeDiskWriteErrors, 1);
        None
    }

    /// Rolls the chaos dice for one disk append.
    fn chaos_disk_action(&self, record_len: usize) -> DiskAction {
        let Some(chaos) = &self.chaos else {
            return DiskAction::Persist;
        };
        let mut inj = chaos.lock().expect("chaos injector poisoned");
        if let Some(keep) = inj.torn_write(record_len) {
            self.counters.add(Counter::ServeChaosTornWrites, 1);
            return DiskAction::Torn(keep);
        }
        if inj.disk_full() {
            self.counters.add(Counter::ServeChaosDiskFull, 1);
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
            self.counters.add(Counter::ServeChaosWorkerPanics, 1);
        }
        fire
    }

    /// Rolls the chaos dice for one outgoing response line of
    /// `line_len` bytes. The transport layer (the daemon) applies the
    /// returned action; each injection is counted here so `--profile`
    /// accounts for all of them.
    pub fn chaos_response_action(&self, line_len: usize) -> ResponseAction {
        let Some(chaos) = &self.chaos else {
            return ResponseAction::Normal;
        };
        let action = chaos
            .lock()
            .expect("chaos injector poisoned")
            .response_action(line_len);
        let counter = match action {
            ResponseAction::Normal => return action,
            ResponseAction::Delay(_) => Counter::ServeChaosDelayedResponses,
            ResponseAction::Truncate(_) => Counter::ServeChaosTruncatedResponses,
            ResponseAction::Drop => Counter::ServeChaosDroppedConns,
        };
        self.counters.add(counter, 1);
        action
    }

    /// Handles one request line and renders one response line. The
    /// returned flag is `true` when the request asked the server to
    /// shut down.
    pub fn handle_request_line(&self, line: &str) -> (String, bool) {
        handle_line(self, line)
    }

    /// A cached result's JSONL stream: the memory copy when it is held,
    /// else its log record, read back and checked. A damaged record is
    /// an error, never served and never regenerated.
    fn event_stream(&self, key: u64, out: &JobOutput) -> Result<String, String> {
        match &out.jsonl {
            EventStream::Held(jsonl) => Ok(jsonl.clone()),
            EventStream::Logged(loc) => self
                .disk
                .as_ref()
                .expect("a logged stream has a log")
                .read(key, *loc)
                .map(|record| record.jsonl)
                .map_err(|err| format!("event stream unreadable: {err}")),
        }
    }
}

impl Backend for Server {
    fn stats(&self, id: Option<String>) -> String {
        format!(
            "{{\"v\":{PROTOCOL_VERSION},{}\"status\":\"ok\",\"queue_depth\":{},\
             \"queue_capacity\":{},\"cache_entries\":{},\"disk_entries\":{},\
             \"counters\":{}}}",
            id_field(&id),
            self.queue.depth(),
            self.queue.capacity(),
            self.cache.entries(),
            self.disk_entries(),
            counters_object(&self.counters())
        )
    }

    fn run(&self, _line: &str, id: Option<String>, spec: JobSpec, want_obs: bool) -> String {
        let key = spec.cache_key();
        let submitted = Instant::now();
        self.counters.add(Counter::ServeSubmitted, 1);
        let (output, served) = match self.cache.lookup_or_claim(key) {
            Lookup::Hit(out) => {
                self.counters.add(Counter::ServeCacheHits, 1);
                (Ok(out), Served::Hit)
            }
            Lookup::InFlight(slot) => {
                self.counters.add(Counter::ServeCoalesced, 1);
                (slot.wait(), Served::Coalesced)
            }
            Lookup::Claimed(slot) => {
                let job = QueuedJob {
                    spec,
                    key,
                    slot: Arc::clone(&slot),
                };
                match self.queue.submit(job) {
                    Ok(()) => {
                        self.counters.add(Counter::ServeCacheMisses, 1);
                        (slot.wait(), Served::Fresh)
                    }
                    Err(SubmitError::Full(bp)) => {
                        self.counters.add(Counter::ServeRejected, 1);
                        // Release the claim so a retry after back-off
                        // re-executes instead of waiting forever.
                        self.cache
                            .fail(key, &slot, "rejected: queue full".to_owned());
                        return Response::Rejected {
                            id,
                            queue_depth: bp.depth as u64,
                            retry_after_ms: bp.retry_after_ms,
                        }
                        .render();
                    }
                    Err(SubmitError::Closed) => {
                        // Terminal: the daemon is shutting down. No
                        // retry hint — the client must not spin against
                        // a dying endpoint.
                        self.cache
                            .fail(key, &slot, "server shutting down".to_owned());
                        return error_line(id, "server shutting down; queue closed");
                    }
                }
            }
        };
        let out = match output {
            Ok(out) => out,
            Err(err) => return error_line(id, &err),
        };
        match want_obs.then(|| self.event_stream(key, &out)).transpose() {
            Ok(jsonl) => ok_line(
                id,
                &out,
                served,
                self.queue.depth() as u64,
                submitted,
                jsonl,
            ),
            Err(err) => error_line(id, &err),
        }
    }
}

/// Renders the optional leading `"id":"...",` field of a `stats`
/// response, worker or router; typed responses render through
/// [`Response`].
pub(crate) fn id_field(id: &Option<String>) -> String {
    match id {
        Some(id) => format!("\"id\":\"{}\",", escape_json(id)),
        None => String::new(),
    }
}

/// Renders a snapshot's non-zero counters, in index order, as the
/// `{"name":value,...}` object of a `stats` response, worker or router.
pub(crate) fn counters_object(snap: &CounterSnapshot) -> String {
    let mut out = String::from("{");
    for (c, v) in snap.iter().filter(|&(_, v)| v > 0) {
        if out.len() > 1 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", c.name()));
    }
    out.push('}');
    out
}

/// Simulates one job and returns its canonical stats JSON and JSONL
/// stream, as [`JobSpec::run`] captures them.
fn execute_job(spec: &JobSpec) -> Result<DiskRecord, String> {
    let (stats, jsonl) = spec.run().map_err(|e| e.to_string())?;
    Ok(DiskRecord {
        stats_json: stats.to_canonical_json(),
        jsonl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedtask_experiments::serve_api::{parse_request, result_payload, Json, RequestOp};
    use schedtask_obs::Counter;

    fn quick_run_line(id: &str, workload: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"workload\":\"{workload}\",\"cores\":2,\
             \"max_instructions\":60000,\"warmup_instructions\":20000}}"
        )
    }

    /// `quick_run_line` for Find, asking for the JSONL stream.
    const QUICK_OBS_LINE: &str = "{\"id\":\"o\",\"workload\":\"Find\",\"cores\":2,\
        \"max_instructions\":60000,\"warmup_instructions\":20000,\"obs\":true}";

    fn spec_of(line: &str) -> JobSpec {
        match parse_request(line).expect("request parses").op {
            RequestOp::Run(spec, _) => *spec,
            other => panic!("expected a run op, got {other:?}"),
        }
    }

    fn tmp_cache_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("schedtask-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn run_then_rerun_hits_cache_with_identical_bytes() {
        let server = Arc::new(Server::new(ServeConfig {
            queue_capacity: 4,
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
        assert!(result_payload(&first).is_some(), "{first}");
        assert_eq!(result_payload(&first), result_payload(&second));

        let snap = server.counters();
        assert_eq!(snap.get(Counter::ServeSubmitted), 2);
        assert_eq!(snap.get(Counter::ServeCacheMisses), 1);
        assert_eq!(snap.get(Counter::ServeCacheHits), 1);
        assert_eq!(snap.get(Counter::ServeExecuted), 1);

        server.close();
        dispatcher.join().expect("dispatcher exits");
    }

    #[test]
    fn one_core_flexsc_is_refused_before_admission() {
        let server = Arc::new(Server::new(ServeConfig {
            queue_capacity: 4,
            workers: 1,
            ..ServeConfig::default()
        }));
        let dispatcher = server.spawn_dispatcher();
        let line =
            "{\"v\":1,\"op\":\"run\",\"workload\":\"Find\",\"technique\":\"FlexSC\",\"cores\":1}";
        for _ in 0..2 {
            let (resp, _) = server.handle_request_line(line);
            let json = Json::parse(&resp).expect("response is JSON");
            assert_eq!(
                json.get("status").and_then(Json::as_str),
                Some("error"),
                "{resp}"
            );
            assert_eq!(
                json.get("error").and_then(Json::as_str),
                Some("FlexSC needs at least 2 cores, got 1")
            );
        }
        let snap = server.counters();
        assert_eq!(snap.get(Counter::ServeSubmitted), 0);
        assert_eq!(snap.get(Counter::ServeExecuted), 0);
        server.close();
        dispatcher.join().expect("dispatcher exits");
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        // No dispatcher: the queue cannot drain, so filling it is
        // deterministic.
        let server = Arc::new(Server::new(ServeConfig {
            queue_capacity: 2,
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
    fn a_slow_job_does_not_hold_an_idle_executor() {
        let server = Arc::new(Server::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        }));
        let dispatcher = server.spawn_dispatcher();
        let status = |resp: &str| {
            Json::parse(resp)
                .expect("response is JSON")
                .get("status")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        // About 110 ms on a warm debug build; the quick run takes 3.5 ms.
        let slow = {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                let line = "{\"id\":\"slow\",\"workload\":\"Find\",\"cores\":2,\
                            \"max_instructions\":3000000,\"warmup_instructions\":20000}";
                server.handle_request_line(line).0
            })
        };
        // Admitted and no longer queued: an executor holds the slow job.
        while server.counters().get(Counter::ServeCacheMisses) < 1 || server.queue_depth() > 0 {
            thread::sleep(std::time::Duration::from_millis(1));
        }
        let (fast, _) = server.handle_request_line(&quick_run_line("fast", "Find"));
        assert_eq!(status(&fast).as_deref(), Some("ok"), "{fast}");
        assert_eq!(
            server.counters().get(Counter::ServeExecuted),
            1,
            "the idle executor ran the quick job while the slow one ran"
        );
        let slow = slow.join().expect("no panic");
        assert_eq!(status(&slow).as_deref(), Some("ok"), "{slow}");
        assert_eq!(server.counters().get(Counter::ServeExecuted), 2);
        server.close();
        dispatcher.join().expect("executors exit");
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
        let dir = tmp_cache_dir("disk");
        let cfg = ServeConfig {
            queue_capacity: 4,
            workers: 2,
            cache_dir: Some(dir.clone()),
            chaos: None,
        };
        let workloads = ["Find", "Iscp"];
        // First lifetime: execute and persist.
        let first: Vec<String> = {
            let server = Arc::new(Server::new(cfg.clone()));
            let dispatcher = server.spawn_dispatcher();
            let responses = workloads
                .iter()
                .map(|workload| {
                    let (resp, _) = server.handle_request_line(&quick_run_line("a", workload));
                    let json = Json::parse(&resp).expect("response is JSON");
                    assert_eq!(
                        json.get("status").and_then(Json::as_str),
                        Some("ok"),
                        "{resp}"
                    );
                    resp
                })
                .collect();
            assert_eq!(server.disk_entries(), 2, "results persisted");
            server.close();
            dispatcher.join().expect("dispatcher exits");
            responses
        };
        // Second lifetime, same directory: recovery fills the memory
        // tier before any request arrives.
        let server = Arc::new(Server::new(cfg));
        assert_eq!(server.recovery().expect("recovery ran").records, 2);
        let dispatcher = server.spawn_dispatcher();
        let (stats, _) = server.handle_request_line("{\"op\":\"stats\"}");
        let stats = Json::parse(&stats).expect("stats is JSON");
        assert_eq!(stats.get("cache_entries").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("disk_entries").and_then(Json::as_u64), Some(2));
        // A recovered key is a memory hit: no execution, byte-identical
        // result payload.
        for (workload, first) in workloads.iter().zip(&first) {
            let (second, _) = server.handle_request_line(&quick_run_line("b", workload));
            let json = Json::parse(&second).expect("response is JSON");
            assert_eq!(
                json.get("cached").and_then(Json::as_bool),
                Some(true),
                "{second}"
            );
            assert_eq!(result_payload(first), result_payload(&second));
        }
        assert_eq!(server.counters().get(Counter::ServeCacheHits), 2);
        assert_eq!(server.counters().get(Counter::ServeExecuted), 0);
        server.close();
        dispatcher.join().expect("dispatcher exits");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_persisted_stream_is_read_back_from_the_log() {
        let dir = tmp_cache_dir("readback");
        let spec = spec_of(QUICK_OBS_LINE);
        let key = spec.cache_key();
        let fresh = execute_job(&spec).expect("a fresh run").jsonl;
        // The first lifetime executes and persists; the second recovers.
        for executed in [1, 0] {
            let server = Arc::new(Server::new(ServeConfig {
                cache_dir: Some(dir.clone()),
                ..ServeConfig::default()
            }));
            let dispatcher = server.spawn_dispatcher();
            for _ in 0..2 {
                let (resp, _) = server.handle_request_line(QUICK_OBS_LINE);
                let json = Json::parse(&resp).expect("response is JSON");
                assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"));
                assert!(
                    json.get("jsonl").and_then(Json::as_str) == Some(fresh.as_str()),
                    "the obs response carries a fresh run's stream"
                );
            }
            let out = server.cached(key).expect("the key is cached");
            assert!(
                matches!(out.jsonl, EventStream::Logged(_)),
                "the stream is logged, not held"
            );
            assert_eq!(server.counters().get(Counter::ServeExecuted), executed);
            server.close();
            dispatcher.join().expect("dispatcher exits");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_damaged_log_record_is_never_served_as_an_obs_stream() {
        let dir = tmp_cache_dir("damaged");
        let server = Arc::new(Server::new(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        }));
        let dispatcher = server.spawn_dispatcher();
        let (first, _) = server.handle_request_line(QUICK_OBS_LINE);
        let key = spec_of(QUICK_OBS_LINE).cache_key();
        let EventStream::Logged(loc) = server.cached(key).expect("cached").jsonl else {
            panic!("a persisted stream is logged");
        };
        // Flip one byte in the middle of the record's JSONL, the last
        // field of the payload.
        let jsonl_len = Json::parse(&first)
            .expect("response is JSON")
            .get("jsonl")
            .and_then(Json::as_str)
            .expect("obs response carries the stream")
            .len();
        let segment = dir.join(format!("segment-{:05}.log", loc.segment));
        let mut bytes = std::fs::read(&segment).expect("read segment");
        let at = (loc.offset + u64::from(loc.len)) as usize - jsonl_len / 2;
        bytes[at] ^= 0x20;
        std::fs::write(&segment, &bytes).expect("damage segment");

        let (obs, _) = server.handle_request_line(QUICK_OBS_LINE);
        let json = Json::parse(&obs).expect("response is JSON");
        assert_eq!(json.get("status").and_then(Json::as_str), Some("error"));
        let error = json
            .get("error")
            .and_then(Json::as_str)
            .expect("error text");
        assert!(error.contains(&format!("record {key:016x}")), "{error}");
        assert!(error.contains("CRC mismatch"), "{error}");

        let (plain, _) = server.handle_request_line(&quick_run_line("p", "Find"));
        let json = Json::parse(&plain).expect("response is JSON");
        assert_eq!(json.get("cached").and_then(Json::as_bool), Some(true));
        assert!(result_payload(&first).is_some(), "{first}");
        assert_eq!(result_payload(&plain), result_payload(&first));
        assert_eq!(server.counters().get(Counter::ServeExecuted), 1);
        server.close();
        dispatcher.join().expect("dispatcher exits");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn disk_and_chaos_counters_count_what_happened() {
        let line = quick_run_line("c", "Find");
        let key = spec_of(&line).cache_key();
        let run_once = |tag: &str, chaos: Option<ChaosPlan>| {
            let dir = tmp_cache_dir(tag);
            let server = Arc::new(Server::new(ServeConfig {
                cache_dir: Some(dir.clone()),
                chaos,
                ..ServeConfig::default()
            }));
            let dispatcher = server.spawn_dispatcher();
            let (resp, _) = server.handle_request_line(&line);
            let json = Json::parse(&resp).expect("response is JSON");
            assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"));
            server.close();
            dispatcher.join().expect("dispatcher exits");
            (server, dir)
        };

        let (server, dir) = run_once("counted", None);
        let EventStream::Logged(loc) = server.cached(key).expect("cached").jsonl else {
            panic!("a persisted stream is logged");
        };
        let snap = server.counters();
        assert_eq!(snap.get(Counter::ServeDiskWrites), 1);
        assert_eq!(snap.get(Counter::ServeDiskWriteBytes), u64::from(loc.len));
        assert_eq!(snap.get(Counter::ServeDiskWriteErrors), 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");

        let full = ChaosPlan {
            disk_full_rate: 1.0,
            ..ChaosPlan::none(1)
        };
        let (server, dir) = run_once("full", Some(full));
        let snap = server.counters();
        assert_eq!(snap.get(Counter::ServeChaosDiskFull), 1);
        assert_eq!(snap.get(Counter::ServeDiskWriteErrors), 1);
        assert_eq!(snap.get(Counter::ServeDiskWrites), 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");

        let torn = ChaosPlan {
            torn_write_rate: 1.0,
            ..ChaosPlan::none(1)
        };
        let (server, dir) = run_once("torn", Some(torn));
        let snap = server.counters();
        assert_eq!(snap.get(Counter::ServeChaosTornWrites), 1);
        assert_eq!(snap.get(Counter::ServeDiskWriteErrors), 1);
        assert_eq!(snap.get(Counter::ServeDiskWrites), 0);
        let reopened = Server::new(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let report = reopened.recovery().expect("recovery ran");
        assert_eq!(report.truncated_tails, 1, "{report:?}");
        let snap = reopened.counters();
        assert_eq!(snap.get(Counter::ServeDiskRecovered), report.records);
        assert_eq!(snap.get(Counter::ServeDiskCorrupt), report.corrupt);
        assert_eq!(
            snap.get(Counter::ServeDiskTruncatedTails),
            report.truncated_tails
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");

        let none = ChaosPlan::none(1);
        for (plan, counter) in [
            (
                ChaosPlan {
                    delay_response_rate: 1.0,
                    ..none.clone()
                },
                Counter::ServeChaosDelayedResponses,
            ),
            (
                ChaosPlan {
                    truncate_response_rate: 1.0,
                    ..none.clone()
                },
                Counter::ServeChaosTruncatedResponses,
            ),
            (
                ChaosPlan {
                    drop_connection_rate: 1.0,
                    ..none
                },
                Counter::ServeChaosDroppedConns,
            ),
        ] {
            let server = Server::new(ServeConfig {
                chaos: Some(plan),
                ..ServeConfig::default()
            });
            assert_ne!(server.chaos_response_action(80), ResponseAction::Normal);
            let snap = server.counters();
            assert_eq!(snap.get(counter), 1, "{}", counter.name());
            assert_eq!(snap.total(), 1, "{} counts only itself", counter.name());
        }
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
