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
//! touching a worker.
//!
//! Failure handling preserves the honest-backpressure discipline of the
//! single server: a worker's `rejected` response is propagated verbatim
//! (its `retry_after_ms` hint intact), and a transport failure fails
//! over to the next distinct worker on the ring (counted as
//! `serve_router_failovers`) before giving up with a transient
//! `unreachable` error that retrying clients know to back off on.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use schedtask_experiments::serve_api::{
    escape_json, fnv1a64, parse_request, ClientTimeouts, Endpoint, JobSpec, Json, RequestOp,
    Response, ServeClient, PROTOCOL_VERSION,
};
use schedtask_obs::{Aggregator, Counter, CounterSnapshot, ObsEvent, Observer, SpanKind};

use crate::cache::{JobOutput, Lookup, ResultCache};

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

/// The worker owning `key`: the first ring point at or after the
/// rehashed key, wrapping at the top of the ring.
///
/// The key is itself an FNV-1a hash of the job's canonical text, but
/// rehashing its bytes decorrelates ring position from the original
/// hash structure, which keeps shards balanced.
pub fn route(ring: &[(u64, usize)], key: u64) -> usize {
    assert!(!ring.is_empty(), "cannot route on an empty ring");
    let h = fnv1a64(&key.to_le_bytes());
    let idx = ring.partition_point(|&(point, _)| point < h);
    ring[idx % ring.len()].1
}

/// The failover order for `key`: the owning worker, then each next
/// distinct worker walking clockwise around the ring.
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
    agg: Aggregator,
    started: Instant,
    hop_ticket: AtomicU32,
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
            agg: Aggregator::new(),
            started: Instant::now(),
            hop_ticket: AtomicU32::new(0),
        })
    }

    /// Number of downstream workers.
    pub fn worker_count(&self) -> usize {
        self.cfg.workers.len()
    }

    /// Snapshot of the router's own counters.
    pub fn counters(&self) -> CounterSnapshot {
        self.agg.counters()
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Handles one request line; returns the response line and whether
    /// the connection should close (shutdown acknowledged).
    pub fn handle_request_line(&self, line: &str) -> (String, bool) {
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(err) => {
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
            RequestOp::Run(spec, want_obs) => (self.handle_run(&spec, want_obs, &req.id), false),
        }
    }

    /// Routes one run request through the hot-key tier and the ring.
    fn handle_run(&self, spec: &JobSpec, want_obs: bool, id: &Option<String>) -> String {
        let key = spec.cache_key();
        let started = Instant::now();

        // Requests that ask for the JSONL event stream bypass the hot
        // tier: the router caches only result bytes (obs streams are
        // large and rarely replayed), and the worker's own cache still
        // replays the jsonl byte-identically.
        if want_obs {
            return self.forward_with_failover(key, spec, true, id).0;
        }

        match self.hot.lookup_or_claim(key) {
            Lookup::Hit(out) => {
                self.agg.event(&ObsEvent::RouterHotCacheHit {
                    at: self.now_ms(),
                    key,
                });
                Response::Ok {
                    id: id.clone(),
                    cached: true,
                    coalesced: false,
                    key: out.key.clone(),
                    queue_depth: 0,
                    latency_us: started.elapsed().as_micros() as u64,
                    result: out.stats_json.clone(),
                    jsonl: None,
                }
                .render()
            }
            Lookup::InFlight(slot) => {
                self.agg.event(&ObsEvent::RouterCoalesced {
                    at: self.now_ms(),
                    key,
                });
                match slot.wait() {
                    Ok(out) => Response::Ok {
                        id: id.clone(),
                        cached: false,
                        coalesced: true,
                        key: out.key.clone(),
                        queue_depth: 0,
                        latency_us: started.elapsed().as_micros() as u64,
                        result: out.stats_json.clone(),
                        jsonl: None,
                    }
                    .render(),
                    Err(error) => Response::Error {
                        id: id.clone(),
                        code: None,
                        error,
                    }
                    .render(),
                }
            }
            Lookup::Claimed(slot) => {
                let (response, parsed) = self.forward_with_failover(key, spec, false, id);
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
                                jsonl: String::new(),
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
        let mut previous: Option<usize> = None;
        for worker in order {
            if let Some(from) = previous {
                self.agg.event(&ObsEvent::RouterFailover {
                    at: self.now_ms(),
                    key,
                    from: from as u32,
                    to: worker as u32,
                });
            }
            match self.forward_once(worker, key, &line) {
                Ok(response) => {
                    let parsed = Response::parse(&response);
                    if let Ok(Response::Rejected { retry_after_ms, .. }) = parsed {
                        self.agg.event(&ObsEvent::RouterShed {
                            at: self.now_ms(),
                            worker: worker as u32,
                            retry_after_ms,
                        });
                    }
                    return (response, parsed);
                }
                Err(_) => {
                    previous = Some(worker);
                }
            }
        }
        let unreachable = Response::Error {
            id: id.clone(),
            code: None,
            error: "all workers unreachable".to_owned(),
        };
        (unreachable.render(), Ok(unreachable))
    }

    /// One forward attempt against one worker: check out (or dial) a
    /// connection, send, and return the connection to the pool on
    /// success. A send failure retries once on a fresh dial before
    /// reporting the worker down.
    fn forward_once(&self, worker: usize, key: u64, line: &str) -> Result<String, String> {
        let slot = self.hop_ticket.fetch_add(1, Ordering::Relaxed);
        self.agg
            .span_enter(Some(slot), SpanKind::RouterHop, self.now_us());
        let result = self.forward_on_conn(worker, line);
        self.agg
            .span_exit(Some(slot), SpanKind::RouterHop, self.now_us());
        if result.is_ok() {
            self.agg.event(&ObsEvent::RouterForwarded {
                at: self.now_ms(),
                key,
                worker: worker as u32,
            });
        }
        result
    }

    fn forward_on_conn(&self, worker: usize, line: &str) -> Result<String, String> {
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

    /// The router's stats line: its own counters plus every worker's
    /// counters summed, so a fleet-wide execute-once assertion needs
    /// only this one response.
    fn stats_response(&self, id: &Option<String>) -> String {
        let mut worker_sums: Vec<(String, u64)> = Vec::new();
        let mut reachable = 0usize;
        for worker in 0..self.cfg.workers.len() {
            let Ok(line) = self.forward_on_conn(worker, "{\"v\":1,\"op\":\"stats\"}") else {
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
        let id_field = match id {
            Some(id) => format!("\"id\":\"{}\",", escape_json(id)),
            None => String::new(),
        };
        let mut own = String::from("{");
        let snap = self.agg.counters();
        let mut first = true;
        for (c, v) in snap.iter().filter(|&(_, v)| v > 0) {
            if !first {
                own.push(',');
            }
            first = false;
            own.push_str(&format!("\"{}\":{v}", c.name()));
        }
        own.push('}');
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
            "{{\"v\":{PROTOCOL_VERSION},{id_field}\"status\":\"ok\",\"router\":true,\
             \"workers\":{},\"workers_reachable\":{reachable},\
             \"hot_entries\":{},\"counters\":{own},\"worker_counters\":{workers}}}",
            self.cfg.workers.len(),
            self.hot.entries()
        )
    }

    /// The `--profile` shutdown table: the router's non-zero counters.
    pub fn profile_text(&self) -> String {
        let snap = self.agg.counters();
        let mut out = String::new();
        for (c, v) in snap.iter().filter(|&(_, v)| v > 0) {
            out.push_str(&format!("{}={v}\n", c.name()));
        }
        out
    }

    /// Lifetime count of one router counter (test hook).
    pub fn counter(&self, c: Counter) -> u64 {
        self.agg.counters().get(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn routing_is_deterministic_and_balanced() {
        let ring = build_ring(&endpoints(4), RING_REPLICAS);
        let mut counts = [0usize; 4];
        for key in 0..10_000u64 {
            let w = route(&ring, key);
            assert_eq!(w, route(&ring, key), "routing must be stable");
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
            .filter(|&key| route(&before, key) != route(&after, key))
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
            assert_eq!(order[0], route(&ring, key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "each worker appears exactly once");
        }
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
