//! The fleet proof. A router and three workers run in one process on
//! ephemeral TCP ports, served by the daemon's own transport
//! (`schedtask_serve::daemon`), and client threads send a
//! duplicate-heavy key mix through `submit_with_retry`. Every key is
//! asked for several times; half of the asks set `"obs":true`, which
//! bypasses the router's hot tier and lands on a worker's own cache, so
//! the exactly-once count holds only if the router routes by key.
//!
//! What the fleet guarantees, for every seed:
//!
//! * With no faults, fleet-wide `serve_jobs_executed` equals the number
//!   of distinct keys, and a second round of the same mix is served
//!   entirely from cache tiers (`cached:true`) with no new execution.
//! * Under a seeded `ChaosPlan` per worker (panics, delayed, truncated
//!   and dropped responses), with one worker killed mid-run:
//!   - every ok payload equals a direct `RunBuilder` run, byte for byte;
//!   - every line a client reads from the router is a protocol
//!     envelope: `submit_with_retry` gives up on any line that is not
//!     JSON, and every request must succeed;
//!   - every request returns within [`REQUEST_BOUND`];
//!   - on each worker, `serve_jobs_executed − serve_chaos_worker_panics`
//!     is at most the number of distinct keys: a failover may run a key
//!     on a second worker, but no worker completes a key twice.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use schedtask_experiments::serve_api::{
    submit_with_retry, ClientTimeouts, Endpoint, JobSpec, Response, RetryPolicy,
};
use schedtask_experiments::Technique;
use schedtask_obs::Counter;
use schedtask_serve::{ChaosPlan, Daemon, Router, RouterConfig, ServeConfig, Server, Serving};
use schedtask_workload::BenchmarkKind;

/// Workers in the fleet.
const WORKERS: usize = 3;
/// Distinct keys per case.
const KEYS: usize = 8;
/// Asks per key per round.
const ASKS: usize = 4;
/// Client threads per round.
const CLIENTS: usize = 4;
/// Longest any one request may take, retries and backoff included.
const REQUEST_BOUND: Duration = Duration::from_secs(10);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Key `k` of a case: a tiny SchedTask job on `Find`.
fn spec(seed: u64, k: usize) -> JobSpec {
    let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
    spec.params.cores = 1 + k % 2;
    spec.params.max_instructions = 30_000;
    spec.params.warmup_instructions = 10_000;
    spec.params.epoch_cycles = 10_000;
    spec.params.seed = splitmix64(seed ^ k as u64);
    spec
}

/// One round: every key `ASKS` times, odd asks with `"obs":true`, in a
/// seeded order. Each entry is the key index and the request line.
fn mix(seed: u64, specs: &[JobSpec]) -> Vec<(usize, String)> {
    let mut asks: Vec<(u64, usize, String)> = Vec::new();
    for (k, spec) in specs.iter().enumerate() {
        for ask in 0..ASKS {
            let id = format!("k{k}a{ask}");
            let line = spec.to_request_line(Some(&id), ask % 2 == 1);
            asks.push((splitmix64(seed ^ (k * ASKS + ask) as u64), k, line));
        }
    }
    asks.sort();
    asks.into_iter().map(|(_, k, line)| (k, line)).collect()
}

/// The canonical `SimStats` JSON of a run that never saw the service.
fn direct_payload(spec: &JobSpec) -> String {
    spec.run()
        .expect("the direct run succeeds")
        .0
        .to_canonical_json()
}

/// What one request came back with.
struct Outcome {
    key: usize,
    response: Result<String, String>,
    took: Duration,
}

struct Fleet {
    servers: Vec<Arc<Server>>,
    workers: Vec<Option<Serving>>,
    router: Serving,
}

impl Fleet {
    fn start(chaos: impl Fn(usize) -> Option<ChaosPlan>) -> Fleet {
        let servers: Vec<Arc<Server>> = (0..WORKERS)
            .map(|w| {
                Arc::new(Server::new(ServeConfig {
                    workers: 2,
                    chaos: chaos(w),
                    ..ServeConfig::default()
                }))
            })
            .collect();
        let workers: Vec<Serving> = servers
            .iter()
            .map(|server| {
                Serving::start(Daemon::Worker(Arc::clone(server))).expect("worker serves")
            })
            .collect();
        let endpoints: Vec<Endpoint> = workers.iter().map(|w| w.endpoint().clone()).collect();
        // Chaos can drop or tear the join-time ping too; an operator
        // would start the router again.
        let router = (0..32)
            .find_map(|_| Router::new(RouterConfig::new(endpoints.clone())).ok())
            .expect("the router joins its workers");
        Fleet {
            servers,
            workers: workers.into_iter().map(Some).collect(),
            router: Serving::start(Daemon::Router(Arc::new(router))).expect("router serves"),
        }
    }

    fn counter(&self, worker: usize, c: Counter) -> u64 {
        self.servers[worker].counters().get(c)
    }

    fn executed(&self) -> u64 {
        (0..WORKERS)
            .map(|w| self.counter(w, Counter::ServeExecuted))
            .sum()
    }

    /// Sends one round through the router from `CLIENTS` threads. With
    /// a `victim`, that worker is killed once a third of the round has
    /// come back.
    fn round(&mut self, asks: &[(usize, String)], victim: Option<usize>) -> Vec<Outcome> {
        let timeouts = ClientTimeouts {
            connect_ms: 1_000,
            read_ms: REQUEST_BOUND.as_millis() as u64,
            write_ms: 1_000,
        };
        let (done, progress) = mpsc::channel();
        thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let router = self.router.endpoint().clone();
                    let done = done.clone();
                    scope.spawn(move || {
                        let policy = RetryPolicy {
                            max_attempts: 16,
                            base_ms: 2,
                            max_ms: 50,
                            seed: client as u64,
                        };
                        let mut outcomes = Vec::new();
                        for (key, line) in asks.iter().skip(client).step_by(CLIENTS) {
                            let started = Instant::now();
                            let response = submit_with_retry(&router, &timeouts, &policy, line)
                                .map(|outcome| outcome.response);
                            outcomes.push(Outcome {
                                key: *key,
                                response,
                                took: started.elapsed(),
                            });
                            done.send(()).expect("the round listens for progress");
                        }
                        outcomes
                    })
                })
                .collect();
            if let Some(victim) = victim {
                for _ in 0..asks.len() / 3 {
                    progress.recv().expect("clients report progress");
                }
                self.workers[victim]
                    .take()
                    .expect("the victim is alive")
                    .kill();
            }
            clients
                .into_iter()
                .flat_map(|client| client.join().expect("client thread"))
                .collect()
        })
    }

    fn kill(self) {
        self.router.kill();
        for worker in self.workers.into_iter().flatten() {
            worker.kill();
        }
    }
}

/// Checks one outcome: an ok run response, within the bound, whose
/// payload is the direct run's. Returns whether it was served from a
/// cache tier.
fn check(outcome: &Outcome, expected: &[String]) -> Result<bool, TestCaseError> {
    prop_assert!(
        outcome.took <= REQUEST_BOUND,
        "a request took {:?}",
        outcome.took
    );
    let line = match &outcome.response {
        Ok(line) => line,
        Err(e) => return Err(TestCaseError::Fail(format!("a request failed: {e}"))),
    };
    match Response::parse(line) {
        Ok(Response::Ok { cached, result, .. }) => {
            prop_assert_eq!(
                &result,
                &expected[outcome.key],
                "payload of key {} differs from the direct run",
                outcome.key
            );
            Ok(cached)
        }
        other => Err(TestCaseError::Fail(format!(
            "not an ok run response ({other:?}): {line}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn the_fleet_keeps_its_promises(seed in 0u64..1_000_000) {
        let specs: Vec<JobSpec> = (0..KEYS).map(|k| spec(seed, k)).collect();
        let expected: Vec<String> = specs.iter().map(direct_payload).collect();
        let asks = mix(seed, &specs);

        // No faults: each key executes once fleet-wide, and the second
        // round is all cache hits.
        let mut fleet = Fleet::start(|_| None);
        for outcome in fleet.round(&asks, None) {
            check(&outcome, &expected)?;
        }
        prop_assert_eq!(fleet.executed(), KEYS as u64, "executions fleet-wide");
        for outcome in fleet.round(&asks, None) {
            prop_assert!(check(&outcome, &expected)?, "second-round miss on key {}", outcome.key);
        }
        prop_assert_eq!(fleet.executed(), KEYS as u64, "executions after the replay");
        fleet.kill();

        // Chaos at every worker, and one of them killed mid-run.
        let mut fleet = Fleet::start(|w| {
            Some(ChaosPlan::heavy(splitmix64(seed ^ ((w as u64) << 32))))
        });
        for outcome in fleet.round(&asks, Some(seed as usize % WORKERS)) {
            check(&outcome, &expected)?;
        }
        for w in 0..WORKERS {
            let executed = fleet.counter(w, Counter::ServeExecuted);
            let panicked = fleet.counter(w, Counter::ServeChaosWorkerPanics);
            prop_assert!(
                executed <= KEYS as u64 + panicked,
                "worker {w} executed {executed} jobs with {panicked} panics for {KEYS} keys"
            );
        }
        fleet.kill();
    }
}
