//! The traced mode of the fleet workloads: the same `Router` and
//! `Server` library objects the daemon hosts, served in-process behind
//! this benchmark's own accept loops, with a span around each layer's
//! `handle_request_line`. Requests carry ids `r<i>`, which the router
//! forwards, so a request's client, router and worker spans match up.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use schedtask_experiments::serve_api::{parse_request, Endpoint, RequestOp, Response, ServeClient};
use schedtask_obs::Counter;
use schedtask_serve::{Router, RouterConfig, ServeConfig, Server};

use crate::calib::Calibration;
use crate::fleet::{self, expected_payload, summarize, timed_loop, Mix, Outcome, Payloads};
use crate::keys::{self, WARM_KEYS};
use crate::layers::{Layers, RouterCounts, ServiceTimes, WorkerCounts};
use crate::report::Report;
use crate::sim::traced_job;
use crate::stats::{percentile_us, self_time};

/// Wire-codec samples kept from a run's own lines.
const WIRE_SAMPLES: usize = 5_000;

/// A span in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    req: u64,
    start: u64,
    end: u64,
    /// Worker spans: `serve_exec_micros` accrued during the request.
    exec_us: u64,
}

#[derive(Default)]
struct Spans {
    router: Mutex<Vec<Span>>,
    worker: Mutex<Vec<Span>>,
}

/// The index `i` of a timed request's id `"r<i>"`, found textually so
/// tracing adds no JSON parse.
pub fn request_index(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\":\"r")? + 7..];
    rest[..rest.find('"')?].parse().ok()
}

fn record(spans: &Mutex<Vec<Span>>, span: Span) {
    spans.lock().expect("span lock poisoned").push(span);
}

/// One listener plus its connection threads; each connection is served
/// line by line through `handle`, like the daemon's accept loop.
struct Host {
    addr: String,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<Vec<JoinHandle<()>>>,
}

impl Host {
    fn start(handle: Arc<dyn Fn(&str) -> String + Send + Sync>) -> Result<Host, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string();
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !stopping.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let handle = Arc::clone(&handle);
                        conns.push(std::thread::spawn(move || {
                            let _ = stream.set_nonblocking(false);
                            let _ = stream.set_nodelay(true);
                            let Ok(read) = stream.try_clone() else { return };
                            let mut reader = BufReader::new(read);
                            let mut out = stream;
                            let mut line = String::new();
                            loop {
                                line.clear();
                                match reader.read_line(&mut line) {
                                    Ok(0) | Err(_) => return,
                                    Ok(_) => {}
                                }
                                let mut resp = handle(line.trim_end());
                                resp.push('\n');
                                if out.write_all(resp.as_bytes()).is_err() {
                                    return;
                                }
                            }
                        }));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            conns
        });
        Ok(Host { addr, stop, accept })
    }

    /// Stops accepting and joins every connection thread; callers close
    /// the peers first.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Ok(conns) = self.accept.join() {
            for conn in conns {
                let _ = conn.join();
            }
        }
    }
}

/// The in-process fleet: two `Server`s (one worker thread each, with a
/// disk tier) behind a `Router`.
struct InProc {
    servers: Vec<Arc<Server>>,
    dispatchers: Vec<JoinHandle<()>>,
    worker_hosts: Vec<Host>,
    router: Arc<Router>,
    router_host: Host,
}

impl InProc {
    fn start(dir: &Path, epoch: Instant, spans: &Arc<Spans>) -> Result<InProc, String> {
        let mut servers = Vec::new();
        let mut dispatchers = Vec::new();
        let mut worker_hosts = Vec::new();
        for i in 0..2 {
            let cfg = ServeConfig {
                workers: 1,
                cache_dir: Some(dir.join(format!("worker{i}"))),
                ..ServeConfig::default()
            };
            let server =
                Arc::new(Server::try_new(cfg).map_err(|e| format!("open cache dir: {e}"))?);
            dispatchers.push(server.spawn_dispatcher());
            let (s, sp) = (Arc::clone(&server), Arc::clone(spans));
            worker_hosts.push(Host::start(Arc::new(move |line: &str| {
                let req = request_index(line);
                let exec_before = s.counters().get(Counter::ServeExecMicros);
                let start = epoch.elapsed().as_nanos() as u64;
                let (resp, _) = s.handle_request_line(line);
                let end = epoch.elapsed().as_nanos() as u64;
                if let Some(req) = req {
                    let exec_us = s.counters().get(Counter::ServeExecMicros) - exec_before;
                    record(
                        &sp.worker,
                        Span {
                            req,
                            start,
                            end,
                            exec_us,
                        },
                    );
                }
                resp
            }))?);
            servers.push(server);
        }
        let endpoints = worker_hosts
            .iter()
            .map(|h| Endpoint::Tcp(h.addr.clone()))
            .collect();
        let router = Arc::new(Router::new(RouterConfig::new(endpoints))?);
        let (r, sp) = (Arc::clone(&router), Arc::clone(spans));
        let router_host = Host::start(Arc::new(move |line: &str| {
            let req = request_index(line);
            let start = epoch.elapsed().as_nanos() as u64;
            let (resp, _) = r.handle_request_line(line);
            let end = epoch.elapsed().as_nanos() as u64;
            if let Some(req) = req {
                record(
                    &sp.router,
                    Span {
                        req,
                        start,
                        end,
                        exec_us: 0,
                    },
                );
            }
            resp
        }))?;
        Ok(InProc {
            servers,
            dispatchers,
            worker_hosts,
            router,
            router_host,
        })
    }

    fn router_counts(&self) -> RouterCounts {
        RouterCounts {
            hot_hits: self.router.counter(Counter::ServeRouterHotHits),
            forwarded: self.router.counter(Counter::ServeRouterForwarded),
            coalesced: self.router.counter(Counter::ServeRouterCoalesced),
            shed: self.router.counter(Counter::ServeRouterShed),
            failovers: self.router.counter(Counter::ServeRouterFailovers),
        }
    }

    fn worker_counts(&self) -> WorkerCounts {
        let merged = self
            .servers
            .iter()
            .map(|s| s.counters())
            .reduce(|a, b| a.merged(&b))
            .expect("two servers");
        WorkerCounts::from_snapshot(&merged)
    }

    /// Tears down in dependency order: router connections, the router
    /// (closing its pooled worker connections), then the workers.
    fn stop(self) {
        self.router_host.stop();
        drop(self.router);
        for host in self.worker_hosts {
            host.stop();
        }
        for server in &self.servers {
            server.close();
        }
        for d in self.dispatchers {
            let _ = d.join();
        }
    }
}

/// Mean µs per call of `f` over `items`.
fn mean_us<T, R>(items: &[T], f: impl Fn(&T) -> R) -> f64 {
    let start = Instant::now();
    for item in items {
        std::hint::black_box(f(item));
    }
    start.elapsed().as_nanos() as f64 / items.len().max(1) as f64 / 1_000.0
}

/// Mean µs per call of each wire-codec function, in [`crate::layers::WIRE`] order,
/// over a run's own request and response lines.
fn time_wire(samples: &[(String, String)]) -> Result<[f64; 5], String> {
    let specs = samples
        .iter()
        .map(
            |(line, _)| match parse_request(line).map_err(|e| e.to_string())?.op {
                RequestOp::Run(spec, _) => Ok(spec),
                _ => Err("not a run request".to_owned()),
            },
        )
        .collect::<Result<Vec<_>, String>>()?;
    let responses = samples
        .iter()
        .map(|(_, resp)| Response::parse(resp))
        .collect::<Result<Vec<_>, String>>()?;
    Ok([
        mean_us(samples, |(line, _)| parse_request(line)),
        mean_us(&specs, |spec| spec.cache_key()),
        mean_us(&specs, |spec| spec.to_request_line(Some("r0"), false)),
        mean_us(&responses, Response::render),
        mean_us(samples, |(_, resp)| Response::parse(resp)),
    ])
}

fn p_us(samples: &[u64], p: f64, what: &str, report: &mut Report) -> f64 {
    percentile_us(samples, p).unwrap_or_else(|| {
        report.note(format!(
            "{what}: {} samples, too few for p{} (or it falls on a failure); reported as 0",
            samples.len(),
            (p * 100.0).round()
        ));
        0.0
    })
}

/// The traced run of a fleet workload.
pub fn run_traced(
    mix: Mix,
    daemon: &Path,
    tmp: &Path,
    traces: &Path,
    seed: u64,
    seconds: u64,
) -> Result<Report, String> {
    let mut report = Report::default();
    let n = mix.requests(seconds);
    let (untraced, untraced_walls, deployed) = fleet::untraced_pass(mix, daemon, tmp, seed, n)?;

    let epoch = Instant::now();
    let spans = Arc::new(Spans::default());
    let fleet = InProc::start(&tmp.join("inproc"), epoch, &spans)?;
    let mut client =
        ServeClient::connect_tcp(&fleet.router_host.addr).map_err(|e| format!("dial: {e}"))?;
    let mut payloads = Payloads::new(mix.distinct(n));
    fleet::warm_keys(&mut client, seed, &mut payloads)?;
    let (router0, worker0) = (fleet.router_counts(), fleet.worker_counts());
    let mut wire = Vec::new();
    let (outcomes, walls) = timed_loop(
        &mut client,
        mix,
        seed,
        n,
        &mut payloads,
        &mut Calibration::new()?,
        |line, resp| {
            if wire.len() < WIRE_SAMPLES {
                wire.push((line.to_owned(), resp.to_owned()));
            }
        },
    )?;
    let (router, worker) = (
        fleet.router_counts().minus(&router0),
        fleet.worker_counts().minus(&worker0),
    );
    drop(client);
    fleet.stop();

    // Reference payloads. Keys the timed phase executed run through the
    // instrumented engine, which supplies the engine and simulator
    // layers; replayed warm keys ran no engine in the timed phase.
    let mut layers = Layers::default();
    let reference: Vec<Result<(String, u64), String>> = (0..mix.distinct(n))
        .map(|k| {
            let spec = keys::spec(seed, k);
            if k < WARM_KEYS as u64 {
                expected_payload(&spec)
            } else {
                traced_job(&spec.params, (spec.technique, spec.benchmark), &mut layers)
                    .map(|s| (s.to_canonical_json(), s.total_instructions()))
            }
        })
        .collect();
    let expected = |k: u64| reference[k as usize].clone();
    let (good, instr) = payloads.verify(expected);
    let (deployed_good, _) = deployed.verify(expected);
    let bad = good.iter().chain(&deployed_good).filter(|g| !**g).count();
    report.check(bad == 0, || {
        format!("{bad} keys' payloads differ from an in-process run")
    });
    let executed = if mix == Mix::Hot { 0 } else { n };
    report.check(worker.executed == executed, || {
        format!(
            "in-process fleet executed {} jobs in the timed phase, want {executed}",
            worker.executed
        )
    });
    let traced = summarize(&outcomes, &walls, &good, &instr);
    let untraced = summarize(&untraced, &untraced_walls, &deployed_good, &instr);
    report.attempted = 2 * n;
    report.failed = 2 * n - traced.ok - untraced.ok;

    let by_req = |v: &Mutex<Vec<Span>>| {
        let mut out: Vec<Option<Span>> = vec![None; n as usize];
        for s in v.lock().expect("span lock poisoned").iter() {
            if let Some(slot) = out.get_mut(s.req as usize) {
                *slot = Some(*s);
            }
        }
        out
    };
    let (router_spans, worker_spans) = (by_req(&spans.router), by_req(&spans.worker));
    let mut transport = Vec::new();
    let mut router_self = Vec::new();
    let mut handle = Vec::new();
    let mut wait = Vec::new();
    for (i, o) in outcomes.iter().enumerate() {
        let (Some(r), true) = (router_spans[i], o.ok) else {
            continue;
        };
        let w = worker_spans[i];
        transport.push(o.ns.saturating_sub(r.end - r.start));
        let children: Vec<(u64, u64)> = w.iter().map(|w| (w.start, w.end)).collect();
        router_self.push(self_time((r.start, r.end), &children));
        if let Some(w) = w {
            handle.push(w.end - w.start);
            wait.push((w.end - w.start).saturating_sub(w.exec_us * 1_000));
        }
    }
    layers.service = ServiceTimes {
        client_p50: p_us(&traced.lat_ns, 0.5, "client.rtt_us_p50", &mut report),
        client_p99: p_us(&traced.lat_ns, 0.99, "client.rtt_us_p99", &mut report),
        transport_p50: p_us(&transport, 0.5, "transport.us_p50", &mut report),
        router_self_p50: p_us(&router_self, 0.5, "router.self_us_p50", &mut report),
        worker_handle_p50: p_us(&handle, 0.5, "worker.handle_us_p50", &mut report),
        worker_handle_p99: p_us(&handle, 0.99, "worker.handle_us_p99", &mut report),
        worker_wait_p50: p_us(&wait, 0.5, "worker.wait_us_p50", &mut report),
        requests: n,
    };
    layers.router = router;
    layers.worker = worker;
    layers.wire_us = time_wire(&wire)?;
    let untraced_p50 = percentile_us(&untraced.lat_ns, 0.5).unwrap_or(f64::NAN);
    layers.trace_overhead_pct = (layers.service.client_p50 / untraced_p50 - 1.0) * 100.0;
    report.note(format!(
        "{mix:?} traced: in-process client p50 {:.2} us vs deployed untraced p50 {untraced_p50:.2} us over {n} requests each; \
         {} router spans, {} worker spans, {} wire samples",
        layers.service.client_p50,
        router_spans.iter().flatten().count(),
        worker_spans.iter().flatten().count(),
        wire.len()
    ));
    write_spans(traces, mix, seed, &outcomes, &router_spans, &worker_spans)?;
    layers.emit(&mut report);
    Ok(report)
}

/// Writes the run's spans as JSON lines into `dir`.
fn write_spans(
    dir: &Path,
    mix: Mix,
    seed: u64,
    outcomes: &[Outcome],
    router: &[Option<Span>],
    worker: &[Option<Span>],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{mix:?}-{seed}.jsonl").to_lowercase());
    let mut out = String::new();
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str(&format!(
            "{{\"req\":{i},\"layer\":\"client\",\"ns\":{},\"ok\":{}}}\n",
            o.ns, o.ok
        ));
        for (layer, parent, span) in [
            ("router", "client", router[i]),
            ("worker", "router", worker[i]),
        ] {
            if let Some(s) = span {
                out.push_str(&format!(
                    "{{\"req\":{i},\"layer\":\"{layer}\",\"parent\":\"{parent}\",\"start_ns\":{},\"end_ns\":{},\"exec_us\":{}}}\n",
                    s.start, s.end, s.exec_us
                ));
            }
        }
    }
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_found_without_parsing() {
        let spec = keys::spec(1, 3);
        assert_eq!(
            request_index(&spec.to_request_line(Some("r42"), false)),
            Some(42)
        );
        assert_eq!(
            request_index(&spec.to_request_line(Some("w3"), false)),
            None
        );
        assert_eq!(request_index(&spec.to_request_line(None, false)), None);
    }
}
