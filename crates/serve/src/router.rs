//! The fleet router: consistent-hash request routing across downstream
//! `schedtaskd` workers, with a router-side hot-key cache tier.
//!
//! SchedTask's core argument — route for instruction-footprint
//! locality, steal/shed for load — applied one level up. Jobs are
//! routed by their canonical cache key over a consistent-hash ring
//! (virtual nodes per worker), so each key has a stable owner and each
//! worker's memory/disk cache tiers stay hot for their shard of the key
//! space. Above the per-worker tiers sits a router-level
//! [`ResultCache`] reused as a single-flight hot-key cache: duplicate
//! submissions for one key execute once fleet-wide — concurrent
//! duplicates coalesce at the router before a second forward ever
//! happens, and later duplicates replay the router-cached bytes without
//! touching a worker. A duplicate whose line is a canonical hot line
//! again, with another id that needs no escaping, is answered from a
//! line index before it is parsed (DESIGN §14.3).
//!
//! Failure handling preserves the honest-backpressure discipline of the
//! single server: a worker's `rejected` response is propagated verbatim
//! (its `retry_after_ms` hint intact), and a transport failure fails
//! over to the next distinct worker on the ring (counted as
//! `serve_router_failovers`) before giving up with a transient
//! `unreachable` error that retrying clients know to back off on.

use std::collections::HashMap;
use std::sync::{Mutex, RwLock};
use std::time::Instant;

use schedtask_experiments::serve_api::{
    fnv1a64, split_request_line, ClientTimeouts, Endpoint, JobSpec, Json, Response, ServeClient,
    PROTOCOL_VERSION,
};
use schedtask_obs::{Counter, CounterSet, CounterSnapshot};

use crate::cache::{EventStream, JobOutput, Lookup, ResultCache};
use crate::daemon::{error_line, handle_line, ok_line, Backend, Served};
use crate::server::{counters_object, id_field};

/// Virtual nodes per worker on the hash ring. Enough that adding or
/// removing one worker moves ~1/N of the key space and shard sizes stay
/// within a few percent of each other.
pub const RING_REPLICAS: usize = 100;

/// Tunables for one router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Downstream worker endpoints, in ring-index order.
    pub workers: Vec<Endpoint>,
    /// Socket timeouts for worker connections.
    pub timeouts: ClientTimeouts,
}

impl RouterConfig {
    /// A router over `workers` with the default socket timeouts.
    pub fn new(workers: Vec<Endpoint>) -> Self {
        RouterConfig {
            workers,
            timeouts: ClientTimeouts::default(),
        }
    }
}

/// Builds the consistent-hash ring: `replicas` points per worker, each
/// at the FNV-1a hash of `"{endpoint}#{replica}"`, sorted by point.
pub fn build_ring(workers: &[Endpoint], replicas: usize) -> Vec<(u64, usize)> {
    let mut ring = Vec::with_capacity(workers.len() * replicas);
    for (index, worker) in workers.iter().enumerate() {
        for replica in 0..replicas {
            let point = fnv1a64(format!("{worker}#{replica}").as_bytes());
            ring.push((point, index));
        }
    }
    ring.sort_unstable();
    ring
}

/// The failover order for `key`: the owning worker, then each next
/// distinct worker walking clockwise around the ring. The owner is the
/// worker of the first ring point at or after the rehashed key,
/// wrapping at the top of the ring.
///
/// The key is itself an FNV-1a hash of the job's canonical text, but
/// rehashing its bytes decorrelates ring position from the original
/// hash structure, which keeps shards balanced.
pub fn route_candidates(ring: &[(u64, usize)], key: u64, worker_count: usize) -> Vec<usize> {
    assert!(!ring.is_empty(), "cannot route on an empty ring");
    let h = fnv1a64(&key.to_le_bytes());
    let start = ring.partition_point(|&(point, _)| point < h);
    let mut order = Vec::with_capacity(worker_count);
    for offset in 0..ring.len() {
        let worker = ring[(start + offset) % ring.len()].1;
        if !order.contains(&worker) {
            order.push(worker);
            if order.len() == worker_count {
                break;
            }
        }
    }
    order
}

/// The router core. Transport-agnostic like [`crate::Server`]: hand it
/// request lines from any number of connection threads.
pub struct Router {
    cfg: RouterConfig,
    ring: Vec<(u64, usize)>,
    /// Idle pooled connections per worker; forwards check one out and
    /// return it on success, so steady-state traffic re-uses sockets.
    pools: Vec<Mutex<Vec<ServeClient>>>,
    hot: ResultCache,
    /// The hot tier's canonical request lines, keyed by the text after
    /// their verbatim id (see [`split_request_line`]): a repeat of one
    /// is answered from the hot tier without a parse.
    line_index: RwLock<HashMap<String, u64>>,
    counters: CounterSet,
}

impl Router {
    /// Connects to every worker, refusing to start unless each one
    /// answers `ping` with this build's protocol version.
    pub fn new(cfg: RouterConfig) -> Result<Router, String> {
        if cfg.workers.is_empty() {
            return Err("router needs at least one --worker endpoint".to_owned());
        }
        let mut pools = Vec::with_capacity(cfg.workers.len());
        for worker in &cfg.workers {
            let mut client = ServeClient::dial(worker, &cfg.timeouts)
                .map_err(|e| format!("cannot reach worker {worker}: {e}"))?;
            match client.ping_proto() {
                Ok(Some(proto)) if proto == PROTOCOL_VERSION => {}
                Ok(Some(proto)) => {
                    return Err(format!(
                        "worker {worker} speaks protocol v{proto}, \
                         this router speaks v{PROTOCOL_VERSION}; refusing to join"
                    ));
                }
                Ok(None) => {
                    return Err(format!(
                        "worker {worker} did not answer ping with a protocol version"
                    ));
                }
                Err(e) => return Err(format!("worker {worker} ping failed: {e}")),
            }
            pools.push(Mutex::new(vec![client]));
        }
        let ring = build_ring(&cfg.workers, RING_REPLICAS);
        Ok(Router {
            cfg,
            ring,
            pools,
            hot: ResultCache::new(),
            line_index: RwLock::new(HashMap::new()),
            counters: CounterSet::new(),
        })
    }

    /// Number of downstream workers.
    pub fn worker_count(&self) -> usize {
        self.cfg.workers.len()
    }

    /// Snapshot of the router's own counters.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Handles one request line; returns the response line and whether
    /// the connection should close (shutdown acknowledged).
    pub fn handle_request_line(&self, line: &str) -> (String, bool) {
        handle_line(self, line)
    }

    /// Answers `line` from the hot tier when it repeats an indexed
    /// canonical line with another verbatim id. Such a line parses to
    /// the indexed line's spec with this id and `obs:false`, so the full
    /// path would answer it with the same hot hit.
    fn indexed_hit(&self, line: &str) -> Option<String> {
        let started = Instant::now();
        let (id, rest) = split_request_line(line)?;
        let key = *self
            .line_index
            .read()
            .expect("line index poisoned")
            .get(rest)?;
        let out = self.hot.get(key)?;
        Some(self.hot_hit(Some(id.to_owned()), &out, started))
    }

    /// The `ok` line for a hot-tier hit, counted as one.
    fn hot_hit(&self, id: Option<String>, out: &JobOutput, started: Instant) -> String {
        self.counters.add(Counter::ServeRouterHotHits, 1);
        ok_line(id, out, Served::Hit, 0, started, None)
    }

    /// Indexes `line` under `key` when it is the canonical rendering of
    /// `spec` with a verbatim id. There is one canonical line per spec
    /// apart from its id, so the index holds at most one entry per hot
    /// key.
    fn index_line(&self, line: &str, spec: &JobSpec, id: &Option<String>, key: u64) {
        let Some((_, rest)) = split_request_line(line) else {
            return;
        };
        if spec.to_request_line(id.as_deref(), false) == line {
            self.line_index
                .write()
                .expect("line index poisoned")
                .insert(rest.to_owned(), key);
        }
    }

    /// Forwards a run request to the key's owner, walking the ring's
    /// failover order on transport failures, and returns the response
    /// line with its one parse. Worker-level rejections and errors are
    /// final (propagated, not retried elsewhere): the job's owner is the
    /// source of truth for backpressure.
    fn forward_with_failover(
        &self,
        key: u64,
        spec: &JobSpec,
        want_obs: bool,
        id: &Option<String>,
    ) -> (String, Result<Response, String>) {
        // The canonical re-encode of the parsed spec: what we forward.
        // Round-tripping through JobSpec means the worker sees exactly
        // the bytes the cache key was derived from.
        let line = spec.to_request_line(id.as_deref(), want_obs);
        let order = route_candidates(&self.ring, key, self.cfg.workers.len());
        // Every attempt after the first follows a transport failure.
        for (attempt, worker) in order.into_iter().enumerate() {
            if attempt > 0 {
                self.counters.add(Counter::ServeRouterFailovers, 1);
            }
            if let Ok(response) = self.forward_once(worker, &line) {
                self.counters.add(Counter::ServeRouterForwarded, 1);
                let parsed = Response::parse(&response);
                if matches!(parsed, Ok(Response::Rejected { .. })) {
                    self.counters.add(Counter::ServeRouterShed, 1);
                }
                return (response, parsed);
            }
        }
        let unreachable = error_line(id.clone(), "all workers unreachable");
        let parsed = Response::parse(&unreachable);
        (unreachable, parsed)
    }

    /// One forward attempt against one worker: check out (or dial) a
    /// connection, send, and return the connection to the pool on
    /// success. A send failure retries once on a fresh dial before
    /// reporting the worker down.
    fn forward_once(&self, worker: usize, line: &str) -> Result<String, String> {
        let pooled = {
            let mut pool = self.pools[worker].lock().unwrap_or_else(|e| e.into_inner());
            pool.pop()
        };
        if let Some(mut client) = pooled {
            if let Ok(response) = client.request_line(line) {
                self.return_conn(worker, client);
                return Ok(response);
            }
            // Pooled socket went stale (worker restarted, idle drop):
            // fall through to a fresh dial before declaring it down.
        }
        let endpoint = &self.cfg.workers[worker];
        let mut client = ServeClient::dial(endpoint, &self.cfg.timeouts)
            .map_err(|e| format!("dial {endpoint}: {e}"))?;
        let response = client
            .request_line(line)
            .map_err(|e| format!("request to {endpoint}: {e}"))?;
        self.return_conn(worker, client);
        Ok(response)
    }

    fn return_conn(&self, worker: usize, client: ServeClient) {
        let mut pool = self.pools[worker].lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < 8 {
            pool.push(client);
        }
    }

    /// Lifetime count of one router counter (test hook).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c)
    }
}

impl Backend for Router {
    fn answer_unparsed(&self, line: &str) -> Option<String> {
        self.indexed_hit(line)
    }

    /// The router's stats line: its own counters plus every worker's
    /// counters summed, so a fleet-wide execute-once assertion needs
    /// only this one response.
    fn stats(&self, id: Option<String>) -> String {
        let mut worker_sums: Vec<(String, u64)> = Vec::new();
        let mut reachable = 0usize;
        for worker in 0..self.cfg.workers.len() {
            let Ok(line) = self.forward_once(worker, "{\"v\":1,\"op\":\"stats\"}") else {
                continue;
            };
            let Ok(json) = Json::parse(&line) else {
                continue;
            };
            reachable += 1;
            if let Some(Json::Obj(fields)) = json.get("counters") {
                for (name, value) in fields {
                    let Some(v) = value.as_u64() else { continue };
                    match worker_sums.iter_mut().find(|(n, _)| n == name) {
                        Some((_, total)) => *total += v,
                        None => worker_sums.push((name.clone(), v)),
                    }
                }
            }
        }
        let mut workers = String::from("{");
        let mut first = true;
        for (name, v) in &worker_sums {
            if !first {
                workers.push(',');
            }
            first = false;
            workers.push_str(&format!("\"{name}\":{v}"));
        }
        workers.push('}');
        format!(
            "{{\"v\":{PROTOCOL_VERSION},{}\"status\":\"ok\",\"router\":true,\
             \"workers\":{},\"workers_reachable\":{reachable},\
             \"hot_entries\":{},\"counters\":{},\"worker_counters\":{workers}}}",
            id_field(&id),
            self.cfg.workers.len(),
            self.hot.entries(),
            counters_object(&self.counters())
        )
    }

    /// Routes one run request through the hot-key tier and the ring.
    fn run(&self, line: &str, id: Option<String>, spec: JobSpec, want_obs: bool) -> String {
        let key = spec.cache_key();
        let started = Instant::now();

        // Requests that ask for the JSONL event stream bypass the hot
        // tier: the router caches only result bytes (obs streams are
        // large and rarely replayed), and the worker's own cache still
        // replays the jsonl byte-identically.
        if want_obs {
            return self.forward_with_failover(key, &spec, true, &id).0;
        }

        match self.hot.lookup_or_claim(key) {
            Lookup::Hit(out) => {
                self.index_line(line, &spec, &id, key);
                self.hot_hit(id, &out, started)
            }
            Lookup::InFlight(slot) => {
                self.counters.add(Counter::ServeRouterCoalesced, 1);
                match slot.wait() {
                    Ok(out) => ok_line(id, &out, Served::Coalesced, 0, started, None),
                    Err(error) => error_line(id, &error),
                }
            }
            Lookup::Claimed(slot) => {
                let (response, parsed) = self.forward_with_failover(key, &spec, false, &id);
                // Publish into the hot tier only on a successful run;
                // rejections and errors fail the slot so coalesced
                // duplicates see the outcome and a retry re-forwards.
                match parsed {
                    Ok(Response::Ok {
                        key: hex, result, ..
                    }) => {
                        self.hot.fill(
                            &slot,
                            JobOutput {
                                key: hex,
                                stats_json: result,
                                jsonl: EventStream::Held(String::new()),
                            },
                        );
                    }
                    Ok(Response::Rejected { retry_after_ms, .. }) => {
                        self.hot.fail(
                            key,
                            &slot,
                            format!("worker shed the job; retry after {retry_after_ms} ms"),
                        );
                    }
                    Ok(Response::Error { error, .. }) => {
                        self.hot.fail(key, &slot, error);
                    }
                    _ => {
                        self.hot
                            .fail(key, &slot, "unparseable worker response".to_owned());
                    }
                }
                response
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use schedtask_experiments::Technique;
    use schedtask_workload::BenchmarkKind;

    use super::*;
    use crate::{Daemon, ServeConfig, Server, Serving};

    fn endpoints(n: usize) -> Vec<Endpoint> {
        (0..n)
            .map(|i| Endpoint::Tcp(format!("10.0.0.{i}:7000")))
            .collect()
    }

    #[test]
    fn ring_is_sorted_and_covers_all_workers() {
        let ring = build_ring(&endpoints(4), RING_REPLICAS);
        assert_eq!(ring.len(), 4 * RING_REPLICAS);
        assert!(ring.windows(2).all(|w| w[0].0 <= w[1].0));
        for worker in 0..4 {
            assert!(ring.iter().any(|&(_, w)| w == worker));
        }
    }

    fn owner(ring: &[(u64, usize)], key: u64, worker_count: usize) -> usize {
        route_candidates(ring, key, worker_count)[0]
    }

    #[test]
    fn routing_is_deterministic_and_balanced() {
        let ring = build_ring(&endpoints(4), RING_REPLICAS);
        let mut counts = [0usize; 4];
        for key in 0..10_000u64 {
            let w = owner(&ring, key, 4);
            assert_eq!(w, owner(&ring, key, 4), "routing must be stable");
            counts[w] += 1;
        }
        // With 100 vnodes/worker, shards stay within a loose 2x band.
        for &c in &counts {
            assert!(c > 1_000, "shard too small: {counts:?}");
            assert!(c < 5_000, "shard too large: {counts:?}");
        }
    }

    #[test]
    fn adding_a_worker_moves_about_one_nth_of_keys() {
        const KEYS: u64 = 10_000;
        let before = build_ring(&endpoints(4), RING_REPLICAS);
        let after = build_ring(&endpoints(5), RING_REPLICAS);
        let moved = (0..KEYS)
            .filter(|&key| owner(&before, key, 4) != owner(&after, key, 5))
            .count();
        // Ideal is KEYS/5 = 2000: only the keys claimed by the new
        // worker move. Allow generous tolerance for hash variance, but
        // a naive `key % n` scheme would move ~80% and fail this.
        let frac = moved as f64 / KEYS as f64;
        assert!(
            frac > 0.10 && frac < 0.35,
            "moved fraction {frac:.3} outside consistent-hash band (moved {moved})"
        );
    }

    #[test]
    fn candidates_start_at_owner_and_cover_everyone_once() {
        let ring = build_ring(&endpoints(4), RING_REPLICAS);
        for key in [0u64, 1, 42, u64::MAX] {
            let order = route_candidates(&ring, key, 4);
            // The owner holds the first ring point at or after the
            // rehashed key, wrapping at the top.
            let h = fnv1a64(&key.to_le_bytes());
            let first = ring
                .iter()
                .find(|&&(point, _)| point >= h)
                .unwrap_or(&ring[0]);
            assert_eq!(order[0], first.1);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "each worker appears exactly once");
        }
    }

    /// A router over one in-process worker on an ephemeral TCP port.
    fn router_over_one_worker() -> (Router, Serving) {
        let server = Arc::new(Server::new(ServeConfig {
            queue_capacity: 16,
            workers: 1,
            ..ServeConfig::default()
        }));
        let serving = Serving::start(Daemon::Worker(server)).expect("serve an ephemeral port");
        let router = Router::new(RouterConfig::new(vec![serving.endpoint().clone()]))
            .expect("router joins the worker");
        (router, serving)
    }

    fn tiny_spec(seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
        spec.params.cores = 1;
        spec.params.max_instructions = 30_000;
        spec.params.warmup_instructions = 10_000;
        spec.params.seed = seed;
        spec
    }

    fn indexed_lines(router: &Router) -> usize {
        router.line_index.read().expect("line index poisoned").len()
    }

    #[test]
    fn a_canonical_hit_indexes_its_line_for_the_next_id() {
        let (router, serving) = router_over_one_worker();
        let spec = tiny_spec(3);
        let line = |id: &str| spec.to_request_line(Some(id), false);

        // A miss forwards and indexes nothing.
        router.handle_request_line(&line("first"));
        assert_eq!(router.counter(Counter::ServeRouterForwarded), 1);
        assert_eq!(indexed_lines(&router), 0);
        assert_eq!(router.indexed_hit(&line("second")), None);
        // A full-path hit indexes its line...
        router.handle_request_line(&line("second"));
        assert_eq!(indexed_lines(&router), 1);
        // ...so the next id is answered from the index, as a hot hit.
        let third = router.indexed_hit(&line("third")).expect("an index hit");
        match Response::parse(&third) {
            Ok(Response::Ok {
                id, cached: true, ..
            }) => assert_eq!(id.as_deref(), Some("third")),
            other => panic!("expected a hot hit, got {other:?}"),
        }
        assert_eq!(router.counter(Counter::ServeRouterHotHits), 2);
        assert_eq!(router.counter(Counter::ServeRouterForwarded), 1);

        // Many ids keep one entry per key; a second key adds its own.
        for i in 0..50 {
            router.handle_request_line(&line(&format!("id-{i}")));
        }
        assert_eq!(router.counter(Counter::ServeRouterHotHits), 52);
        assert_eq!(indexed_lines(&router), 1);
        let other = tiny_spec(4);
        router.handle_request_line(&other.to_request_line(Some("a"), false));
        router.handle_request_line(&other.to_request_line(Some("b"), false));
        assert_eq!(indexed_lines(&router), 2);
        serving.kill();
    }

    #[test]
    fn only_canonical_lines_with_verbatim_ids_are_indexed() {
        let (router, serving) = router_over_one_worker();
        let spec = tiny_spec(5);
        let canonical = spec.to_request_line(Some("a"), false);
        router.handle_request_line(&canonical);

        // Hot hits that are not the canonical line with a verbatim id:
        // a space after a colon, reordered fields, a numeric id, an id
        // with escapes.
        let not_indexed = [
            canonical.replacen("\"op\":\"run\"", "\"op\": \"run\"", 1),
            canonical.replacen(
                "\"workload\":\"Find\",\"technique\":\"SchedTask\"",
                "\"technique\":\"SchedTask\",\"workload\":\"Find\"",
                1,
            ),
            canonical.replacen("\"id\":\"a\"", "\"id\":7", 1),
            spec.to_request_line(Some("a\"b"), false),
        ];
        for line in &not_indexed {
            assert_ne!(line, &canonical);
            let (resp, _) = router.handle_request_line(line);
            assert!(resp.contains("\"cached\":true"), "{line}: {resp}");
            assert_eq!(indexed_lines(&router), 0, "{line}");
            assert_eq!(router.indexed_hit(line), None, "{line}");
        }
        assert_eq!(router.counter(Counter::ServeRouterHotHits), 4);

        // Once the canonical line is indexed, an obs repeat and the
        // other ops still take the full path.
        router.handle_request_line(&canonical);
        assert_eq!(indexed_lines(&router), 1);
        let obs = spec.to_request_line(Some("a"), true);
        assert_eq!(router.indexed_hit(&obs), None);
        router.handle_request_line(&obs);
        assert_eq!(router.counter(Counter::ServeRouterForwarded), 2);
        for op in ["ping", "stats", "shutdown"] {
            let line = format!("{{\"v\":1,\"id\":\"a\",\"op\":\"{op}\"}}");
            assert_eq!(router.indexed_hit(&line), None, "{line}");
        }
        assert_eq!(router.counter(Counter::ServeRouterHotHits), 5);
        serving.kill();
    }

    #[test]
    fn a_blank_line_is_an_empty_request_as_at_a_worker() {
        let (router, serving) = router_over_one_worker();
        for line in ["", " \r"] {
            assert_eq!(
                router.handle_request_line(line),
                (
                    "{\"v\":1,\"status\":\"error\",\"error\":\"empty request\"}".to_owned(),
                    false
                )
            );
        }
        serving.kill();
    }

    #[test]
    fn a_job_too_large_to_build_is_an_error_at_worker_and_router() {
        // About 1e11 threads: the worker must refuse it before building
        // the machine, and the router must pass that error on without
        // failing over.
        let line = "{\"v\":1,\"op\":\"run\",\"workload\":\"FileSrv\",\"scale\":1e9}";
        let (router, serving) = router_over_one_worker();
        let mut worker = ServeClient::dial(serving.endpoint(), &ClientTimeouts::default())
            .expect("dial the worker");
        let direct = worker.request_line(line).expect("the worker answers");
        let (routed, _) = router.handle_request_line(line);
        for response in [direct, routed] {
            match Response::parse(&response) {
                Ok(Response::Error { error, .. }) => {
                    assert!(error.contains("threads, more than"), "{error}")
                }
                other => panic!("expected an error, got {other:?}"),
            }
        }
        assert_eq!(router.counter(Counter::ServeRouterForwarded), 1);
        assert_eq!(router.counter(Counter::ServeRouterFailovers), 0);
        serving.kill();
    }

    #[test]
    fn router_refuses_an_empty_worker_list() {
        let err = match Router::new(RouterConfig::new(Vec::new())) {
            Ok(_) => panic!("empty worker list must be refused"),
            Err(err) => err,
        };
        assert!(err.contains("at least one"));
    }
}
