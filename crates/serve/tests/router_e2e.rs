//! Router end-to-end tests over real TCP workers.
//!
//! The fleet contract: duplicates execute exactly once fleet-wide
//! (router hot-cache + single-flight above the workers' own tiers),
//! result bytes through the router are identical to a direct worker
//! run, transport failures fail over around the ring, and worker
//! rejections propagate verbatim with their retry hints; a duplicate
//! that coalesced onto a shed job gets an error a client retries.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use schedtask_experiments::serve_api::{
    error_is_transient, result_payload, Endpoint, JobSpec, Json, Response,
};
use schedtask_experiments::Technique;
use schedtask_obs::Counter;
use schedtask_serve::router::{build_ring, route, RING_REPLICAS};
use schedtask_serve::{Daemon, Router, RouterConfig, ServeConfig, Server, Serving};
use schedtask_workload::BenchmarkKind;

/// Serves a fresh `Server` on an ephemeral TCP port.
fn start_worker(cfg: ServeConfig) -> (Endpoint, Arc<Server>, Serving) {
    let server = Arc::new(Server::new(cfg));
    let serving =
        Serving::start(Daemon::Worker(Arc::clone(&server))).expect("serve an ephemeral port");
    (serving.endpoint().clone(), server, serving)
}

/// The first 40 bytes of an ok response: what a worker that dies
/// mid-write leaves on the wire.
const TORN_OK: &str = "{\"v\":1,\"status\":\"ok\",\"cached\":false,\"coa";

/// A fake worker that answers the router's join-time ping correctly,
/// then writes `reply` verbatim, `delay` after each subsequent request
/// on that connection, and refuses all connections after the first
/// (the listener is dropped) — a worker that joins the fleet and then
/// dies. With no reply, or a reply cut short of its newline, the
/// connection closes after the first request.
fn start_canned_worker(reply: Option<&'static str>, delay: Duration) -> Endpoint {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address").to_string();
    thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        drop(listener); // later dials get connection-refused
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut out = stream;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let resp = if line.contains("\"op\":\"ping\"") {
                "{\"v\":1,\"status\":\"ok\",\"pong\":true,\"proto\":1}\n"
            } else {
                thread::sleep(delay);
                match reply {
                    Some(reply) => reply,
                    None => return,
                }
            };
            if out
                .write_all(resp.as_bytes())
                .and_then(|()| out.flush())
                .is_err()
                || !resp.ends_with('\n')
            {
                return;
            }
        }
    });
    Endpoint::Tcp(addr)
}

fn tiny_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
    spec.params.cores = 1;
    spec.params.max_instructions = 30_000;
    spec.params.warmup_instructions = 10_000;
    spec.params.seed = seed;
    spec
}

#[test]
fn duplicates_execute_once_fleet_wide_with_byte_identical_results() {
    let cfg = ServeConfig {
        queue_capacity: 16,
        workers: 2,
        ..ServeConfig::default()
    };
    let (addr_a, worker_a, serving_a) = start_worker(cfg.clone());
    let (addr_b, worker_b, serving_b) = start_worker(cfg);
    let workers = vec![addr_a, addr_b];
    let router = Arc::new(
        Router::new(RouterConfig::new(workers.clone())).expect("router joins both workers"),
    );

    let line = tiny_spec(7).to_request_line(Some("dup"), false);

    // Eight concurrent duplicate submissions through the router.
    let handles: Vec<thread::JoinHandle<String>> = (0..8)
        .map(|_| {
            let router = Arc::clone(&router);
            let line = line.clone();
            thread::spawn(move || router.handle_request_line(&line).0)
        })
        .collect();
    let responses: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("submitter does not panic"))
        .collect();

    let first = result_payload(&responses[0]);
    assert!(first.is_some(), "{}", responses[0]);
    for resp in &responses {
        assert_eq!(
            result_payload(resp),
            first,
            "identical bytes for every caller"
        );
    }

    // Exactly one execution across the whole fleet.
    let executed = worker_a.counters().get(Counter::ServeExecuted)
        + worker_b.counters().get(Counter::ServeExecuted);
    assert_eq!(executed, 1, "duplicates must execute exactly once");

    // A later duplicate is a router hot-cache hit: no worker traffic.
    let forwarded_before = router.counter(Counter::ServeRouterForwarded);
    let (replay, _) = router.handle_request_line(&line);
    let rj = Json::parse(&replay).expect("replay parses");
    assert_eq!(rj.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(result_payload(&replay), first);
    assert_eq!(
        router.counter(Counter::ServeRouterForwarded),
        forwarded_before
    );
    assert!(router.counter(Counter::ServeRouterHotHits) >= 1);

    // Byte identity against a run that never saw the router: ask the
    // owning worker directly.
    let owner = route(
        &build_ring(&workers, RING_REPLICAS),
        tiny_spec(7).cache_key(),
    );
    let direct_worker = if owner == 0 { &worker_a } else { &worker_b };
    let (direct, _) = direct_worker.handle_request_line(&line);
    assert_eq!(result_payload(&direct), first, "router is byte-transparent");

    serving_a.kill();
    serving_b.kill();
}

#[test]
fn transport_failures_fail_over_to_the_next_ring_worker() {
    let (live, _worker, serving) = start_worker(ServeConfig {
        queue_capacity: 16,
        workers: 2,
        ..ServeConfig::default()
    });
    // The dead worker joins the fleet (answers the version handshake),
    // then drops the connection on the next request, or tears its reply
    // mid-line, and refuses every later dial.
    for dead_reply in [None, Some(TORN_OK)] {
        let workers = vec![
            live.clone(),
            start_canned_worker(dead_reply, Duration::ZERO),
        ];
        let router = Router::new(RouterConfig::new(workers.clone())).expect("router starts");

        // Find a spec the ring assigns to the dead worker so the forward
        // must fail over.
        let ring = build_ring(&workers, RING_REPLICAS);
        let seed = (0..u64::MAX)
            .find(|&s| route(&ring, tiny_spec(s).cache_key()) == 1)
            .expect("some key routes to the dead worker");
        let line = tiny_spec(seed).to_request_line(Some("failover"), false);

        let (resp, _) = router.handle_request_line(&line);
        let json = Json::parse(&resp).expect("response parses");
        assert_eq!(
            json.get("status").and_then(Json::as_str),
            Some("ok"),
            "the live worker serves the job ({dead_reply:?}): {resp}"
        );
        assert!(
            router.counter(Counter::ServeRouterFailovers) >= 1,
            "failover must be counted ({dead_reply:?})"
        );
    }

    serving.kill();
}

#[test]
fn worker_rejections_propagate_verbatim_with_retry_hints() {
    // Both workers are canned rejecters, so whichever owns the key
    // sheds the job; the router must pass the hint through untouched.
    let rejected = "{\"v\":1,\"id\":\"shed\",\"status\":\"rejected\",\
                    \"queue_depth\":9,\"retry_after_ms\":1234}\n";
    let router = Router::new(RouterConfig::new(vec![
        start_canned_worker(Some(rejected), Duration::ZERO),
        start_canned_worker(Some(rejected), Duration::ZERO),
    ]))
    .expect("router starts");

    let line = tiny_spec(1).to_request_line(Some("shed"), false);
    let (resp, _) = router.handle_request_line(&line);
    match Response::parse(&resp) {
        Ok(Response::Rejected {
            queue_depth,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(queue_depth, 9);
            assert_eq!(retry_after_ms, 1234, "retry hint propagated honestly");
        }
        other => panic!("expected the worker's rejection verbatim, got {other:?}: {resp}"),
    }
    assert!(router.counter(Counter::ServeRouterShed) >= 1);

    // A retry of the shed key is forwarded again (the hot-tier slot was
    // failed, not filled), still yielding the worker's rejection.
    let forwarded_before = router.counter(Counter::ServeRouterForwarded);
    let (again, _) = router.handle_request_line(&line);
    assert!(again.contains("\"status\":\"rejected\""), "{again}");
    assert!(router.counter(Counter::ServeRouterForwarded) > forwarded_before);
}

#[test]
fn a_duplicate_of_a_shed_job_gets_a_transient_error() {
    // The worker sheds the job only after a delay, so of two identical
    // requests started together, the second coalesces onto the first's
    // forward and reads the failed hot-tier slot's error.
    let rejected = "{\"v\":1,\"id\":\"shed\",\"status\":\"rejected\",\
                    \"queue_depth\":9,\"retry_after_ms\":1234}\n";
    let router = Arc::new(
        Router::new(RouterConfig::new(vec![start_canned_worker(
            Some(rejected),
            Duration::from_millis(300),
        )]))
        .expect("router starts"),
    );
    let line = tiny_spec(1).to_request_line(Some("shed"), false);
    let start = Arc::new(Barrier::new(2));
    let handles: Vec<thread::JoinHandle<String>> = (0..2)
        .map(|_| {
            let (router, line, start) = (Arc::clone(&router), line.clone(), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                router.handle_request_line(&line).0
            })
        })
        .collect();
    let responses: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("submitter does not panic"))
        .collect();
    assert_eq!(
        router.counter(Counter::ServeRouterCoalesced),
        1,
        "{responses:?}"
    );
    let errors: Vec<String> = responses
        .iter()
        .filter_map(|resp| match Response::parse(resp) {
            Ok(Response::Error { error, .. }) => Some(error),
            _ => None,
        })
        .collect();
    assert_eq!(
        errors.len(),
        1,
        "one rejection, one duplicate: {responses:?}"
    );
    assert!(
        error_is_transient(&errors[0]),
        "a retry after backpressure can succeed: {}",
        errors[0]
    );
}
