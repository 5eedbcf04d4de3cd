//! `repro loadgen` — fleet load-generation harness.
//!
//! Drives a mixed hit/miss/duplicate stream of run submissions at
//! configurable concurrency against a running endpoint (`--addr`) or a
//! self-spawned router + worker fleet (`--spawn N`), and reports:
//!
//! * latency percentiles (p50/p99/p999/max) over successful responses,
//! * shed (queue-full rejection) and retry rates,
//! * per-tier cache-hit counts pulled from the server's `stats` op
//!   (`serve_router_*` counters on a router, `serve_*` on a worker).
//!
//! The stream picks each request's job uniformly from `--distinct K`
//! pre-rendered specs, so the first touch of every key is a miss,
//! concurrent duplicates coalesce (single-flight), and the steady state
//! is cache hits — the traffic shape the SchedTask fleet argument is
//! about. `--assert-once` verifies fleet-wide execute-once semantics by
//! summing `serve_jobs_executed` over the fleet; `--verify` replays
//! every distinct key against a fresh single worker and compares result
//! payloads byte-for-byte with the fleet's answers.

use crate::runner::Technique;
use crate::serve_api::{result_payload, ClientTimeouts, Endpoint, JobSpec, Json, ServeClient};
use schedtask_workload::BenchmarkKind;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn die(msg: &str) -> ! {
    eprintln!("[loadgen] error: {msg}");
    std::process::exit(2);
}

fn print_help() {
    println!(
        "repro loadgen — drive a schedtaskd fleet with mixed traffic\n\n\
         usage: repro loadgen (--addr ENDPOINT | --spawn N)\n\
                [--requests N] [--concurrency N] [--distinct K] [--seed S]\n\
                [--retries N] [--wait-ms N] [--expect-cached]\n\
                [--assert-once] [--verify] [--out FILE]\n\n\
         ENDPOINT is tcp://HOST:PORT or unix:///PATH.\n\n\
           --addr ENDPOINT   drive an already-running server or router\n\
           --spawn N         spawn N workers + a router, drive the router,\n\
                             and shut the fleet down afterwards\n\
           --requests N      total submissions (default 100000)\n\
           --concurrency N   client threads (default 16)\n\
           --distinct K      distinct job specs in the mix (default 64)\n\
           --seed S          traffic-shape seed (default 0x10AD)\n\
           --retries N       per-request retry budget on shed/transient\n\
                             failures (default 8)\n\
           --wait-ms N       connection/readiness budget (default 10000)\n\
           --expect-cached   exit 1 if any ok response missed every cache\n\
           --assert-once     exit 1 unless the fleet executed each distinct\n\
                             key exactly once during this run\n\
           --verify          replay all distinct keys against a fresh\n\
                             single worker; compare payload bytes\n\
           --out FILE        write per-key result payloads to FILE"
    );
}

/// SplitMix64 — deterministic traffic shaping.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Builds the `--distinct` pool of tiny, fast-to-execute job specs.
/// Each spec differs in seed (and alternates core count) so every key
/// is distinct while a single execution stays in the low milliseconds.
fn build_specs(distinct: usize, seed: u64) -> Vec<JobSpec> {
    (0..distinct)
        .map(|k| {
            let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
            spec.params.cores = 1 + k % 2;
            spec.params.max_instructions = 30_000;
            spec.params.warmup_instructions = 10_000;
            spec.params.epoch_cycles = 10_000;
            spec.params.seed = seed ^ (k as u64).wrapping_mul(0x9E37_79B9);
            spec
        })
        .collect()
}

/// One worker thread's tallies.
#[derive(Default)]
struct ThreadStats {
    latencies_us: Vec<u64>,
    ok: u64,
    cached: u64,
    coalesced: u64,
    sheds: u64,
    retries: u64,
    gave_up: u64,
    errors: u64,
}

struct SharedRun {
    next: AtomicU64,
    requests: u64,
    lines: Vec<String>,
    /// First captured `"result":...` payload bytes per distinct key.
    payloads: Mutex<Vec<Option<String>>>,
    seed: u64,
    retries: u32,
    endpoint: Endpoint,
    timeouts: ClientTimeouts,
}

fn dial_until(endpoint: &Endpoint, timeouts: &ClientTimeouts, deadline: Instant) -> ServeClient {
    loop {
        match ServeClient::dial(endpoint, timeouts) {
            Ok(mut c) => match c.ping() {
                Ok(true) => return c,
                _ if Instant::now() < deadline => {}
                _ => die("server did not answer ping"),
            },
            Err(e) => {
                if Instant::now() >= deadline {
                    die(&format!("cannot connect to {endpoint}: {e}"));
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn worker_loop(shared: &SharedRun) -> ThreadStats {
    let mut stats = ThreadStats::default();
    let mut client: Option<ServeClient> = None;
    let distinct = shared.lines.len() as u64;
    loop {
        let idx = shared.next.fetch_add(1, Ordering::Relaxed);
        if idx >= shared.requests {
            break;
        }
        let k = (splitmix64(shared.seed ^ idx) % distinct) as usize;
        let line = &shared.lines[k];
        let started = Instant::now();
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            if attempts > 1 {
                stats.retries += 1;
            }
            let c = match client.as_mut() {
                Some(c) => c,
                None => match ServeClient::dial(&shared.endpoint, &shared.timeouts) {
                    Ok(c) => client.insert(c),
                    Err(_) if attempts <= shared.retries => {
                        std::thread::sleep(Duration::from_millis(20 * u64::from(attempts)));
                        continue;
                    }
                    Err(_) => {
                        stats.errors += 1;
                        break;
                    }
                },
            };
            let response = match c.request_line(line) {
                Ok(r) => r,
                Err(_) => {
                    // Connection died (worker crash, drop chaos): re-dial.
                    client = None;
                    if attempts <= shared.retries {
                        std::thread::sleep(Duration::from_millis(20 * u64::from(attempts)));
                        continue;
                    }
                    stats.errors += 1;
                    break;
                }
            };
            let Ok(json) = Json::parse(&response) else {
                stats.errors += 1;
                break;
            };
            match json.get("status").and_then(Json::as_str).unwrap_or("?") {
                "ok" => {
                    stats.ok += 1;
                    let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    stats.latencies_us.push(micros);
                    if json.get("cached").and_then(Json::as_bool).unwrap_or(false) {
                        stats.cached += 1;
                    }
                    if json
                        .get("coalesced")
                        .and_then(Json::as_bool)
                        .unwrap_or(false)
                    {
                        stats.coalesced += 1;
                    }
                    let mut payloads = shared.payloads.lock().unwrap_or_else(|e| e.into_inner());
                    if payloads[k].is_none() {
                        payloads[k] = result_payload(&response);
                    }
                    break;
                }
                "rejected" => {
                    stats.sheds += 1;
                    let hint = json
                        .get("retry_after_ms")
                        .and_then(Json::as_u64)
                        .unwrap_or(100);
                    if attempts <= shared.retries {
                        std::thread::sleep(Duration::from_millis(hint.clamp(10, 500)));
                        continue;
                    }
                    stats.gave_up += 1;
                    break;
                }
                _ => {
                    let detail = json.get("error").and_then(Json::as_str).unwrap_or("");
                    let transient = crate::serve_api::error_is_transient(detail);
                    if transient && attempts <= shared.retries {
                        std::thread::sleep(Duration::from_millis(20 * u64::from(attempts)));
                        continue;
                    }
                    stats.errors += 1;
                    break;
                }
            }
        }
    }
    stats
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A spawned fleet: worker daemons plus a router, with temp cache dirs.
struct Fleet {
    children: Vec<Child>,
    dirs: Vec<std::path::PathBuf>,
    worker_addrs: Vec<String>,
    router_addr: String,
}

/// The `schedtaskd` binary that cargo builds next to the running
/// executable; the harnesses that spawn daemons (`loadgen --spawn`,
/// `loadgen --verify`, `repro chaos`) all launch this one.
pub fn daemon_path() -> Result<std::path::PathBuf, String> {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .map(|dir| dir.join(format!("schedtaskd{}", std::env::consts::EXE_SUFFIX)))
        })
        .filter(|p| p.exists())
        .ok_or_else(|| {
            "schedtaskd binary not found next to repro; \
             build it with `cargo build -p schedtask-serve`"
                .to_owned()
        })
}

/// Spawns one `schedtaskd` and reads its banner to learn the bound
/// address. Extra args are appended verbatim.
fn spawn_daemon(daemon: &std::path::Path, extra: &[String]) -> (Child, String) {
    let mut cmd = Command::new(daemon);
    cmd.args(extra).stdout(Stdio::piped());
    let mut child = cmd
        .spawn()
        .unwrap_or_else(|e| die(&format!("cannot launch {}: {e}", daemon.display())));
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = std::io::BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                if let Some(rest) = line.trim_end().strip_prefix("schedtaskd listening on ") {
                    break rest.to_owned();
                }
            }
            _ => die("daemon exited before printing its listening banner"),
        }
    };
    // Drain the rest of the daemon's stdout so shutdown prints don't
    // SIGPIPE it.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (child, addr)
}

fn spawn_fleet(n_workers: usize) -> Fleet {
    let daemon = daemon_path().unwrap_or_else(|e| die(&e));
    let base = std::env::temp_dir().join(format!("schedtask-loadgen-{}", std::process::id()));
    let mut children = Vec::new();
    let mut dirs = Vec::new();
    let mut worker_addrs = Vec::new();
    for i in 0..n_workers {
        let dir = base.join(format!("worker{i}"));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
        let args = vec![
            "--addr".to_owned(),
            "tcp://127.0.0.1:0".to_owned(),
            "--cache-dir".to_owned(),
            dir.display().to_string(),
            "--drain-deadline-ms".to_owned(),
            "2000".to_owned(),
        ];
        let (child, addr) = spawn_daemon(&daemon, &args);
        println!("[loadgen] worker {i} listening on {addr}");
        children.push(child);
        dirs.push(dir);
        worker_addrs.push(addr);
    }
    let mut router_args = vec![
        "--router".to_owned(),
        "--addr".to_owned(),
        "tcp://127.0.0.1:0".to_owned(),
    ];
    for addr in &worker_addrs {
        router_args.push("--worker".to_owned());
        router_args.push(format!("tcp://{addr}"));
    }
    let (child, router_addr) = spawn_daemon(&daemon, &router_args);
    println!("[loadgen] router listening on {router_addr}");
    children.push(child);
    Fleet {
        children,
        dirs,
        worker_addrs,
        router_addr,
    }
}

impl Fleet {
    fn shutdown(mut self) {
        let timeouts = ClientTimeouts::default();
        let mut targets: Vec<String> = vec![self.router_addr.clone()];
        targets.extend(self.worker_addrs.iter().cloned());
        for addr in targets {
            if let Ok(mut c) = ServeClient::dial(&Endpoint::Tcp(addr), &timeouts) {
                let _ = c.request_line("{\"v\":1,\"op\":\"shutdown\"}");
            }
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        if let Some(parent) = self.dirs.first().and_then(|d| d.parent()) {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Fetches a stats line and returns the value of `counter` inside the
/// named counter object (`"counters"` or `"worker_counters"`).
fn stats_counter(stats_json: &Json, object: &str, counter: &str) -> u64 {
    stats_json
        .get(object)
        .and_then(|c| c.get(counter))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// `repro loadgen` entry point; exits the process.
#[allow(clippy::too_many_lines)]
pub fn run_loadgen(args: Vec<String>) -> ! {
    let mut addr: Option<Endpoint> = None;
    let mut spawn_workers: Option<usize> = None;
    let mut requests: u64 = 100_000;
    let mut concurrency: usize = 16;
    let mut distinct: usize = 64;
    let mut seed: u64 = 0x10AD;
    let mut retries: u32 = 8;
    let mut wait_ms: u64 = 10_000;
    let mut expect_cached = false;
    let mut assert_once = false;
    let mut verify = false;
    let mut out_file: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        macro_rules! num {
            ($flag:literal) => {
                value($flag)
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad {}: {e}", $flag)))
            };
        }
        match a.as_str() {
            "--addr" => addr = Some(num!("--addr")),
            "--spawn" => spawn_workers = Some(num!("--spawn")),
            "--requests" => requests = num!("--requests"),
            "--concurrency" => concurrency = num!("--concurrency"),
            "--distinct" => distinct = num!("--distinct"),
            "--seed" => seed = num!("--seed"),
            "--retries" => retries = num!("--retries"),
            "--wait-ms" => wait_ms = num!("--wait-ms"),
            "--expect-cached" => expect_cached = true,
            "--assert-once" => assert_once = true,
            "--verify" => verify = true,
            "--out" => out_file = Some(value("--out")),
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => die(&format!("loadgen: unknown argument {other:?} (try --help)")),
        }
    }
    if distinct == 0 || concurrency == 0 || requests == 0 {
        die("--requests, --concurrency, and --distinct must be positive");
    }
    let fleet = match (&addr, spawn_workers) {
        (Some(_), Some(_)) => die("--addr and --spawn are mutually exclusive"),
        (None, None) => die("loadgen needs --addr ENDPOINT or --spawn N"),
        (None, Some(n)) => {
            if n == 0 {
                die("--spawn needs at least 1 worker");
            }
            Some(spawn_fleet(n))
        }
        (Some(_), None) => None,
    };
    let endpoint = match (&addr, &fleet) {
        (Some(ep), _) => ep.clone(),
        (None, Some(f)) => Endpoint::Tcp(f.router_addr.clone()),
        (None, None) => unreachable!("checked above"),
    };

    let specs = build_specs(distinct, seed);
    let lines: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(k, s)| s.to_request_line(Some(&format!("lg-{k}")), false))
        .collect();

    let timeouts = ClientTimeouts::default();
    let deadline = Instant::now() + Duration::from_millis(wait_ms);
    // Snapshot the fleet's executed counter so --assert-once measures
    // this run's executions even against a fleet that already served
    // earlier traffic (counters are cumulative since daemon start).
    let executed_before = {
        let mut probe = dial_until(&endpoint, &timeouts, deadline);
        let line = probe
            .request_line("{\"v\":1,\"op\":\"stats\"}")
            .unwrap_or_else(|e| die(&format!("stats request failed: {e}")));
        let json = Json::parse(&line).unwrap_or_else(|e| die(&format!("unparseable stats: {e}")));
        let object = if json.get("router").and_then(Json::as_bool) == Some(true) {
            "worker_counters"
        } else {
            "counters"
        };
        stats_counter(&json, object, "serve_jobs_executed")
    };
    println!(
        "[loadgen] driving {requests} requests ({distinct} distinct keys, \
         {concurrency} threads) at {endpoint}"
    );

    let shared = Arc::new(SharedRun {
        next: AtomicU64::new(0),
        requests,
        lines,
        payloads: Mutex::new(vec![None; distinct]),
        seed,
        retries,
        endpoint: endpoint.clone(),
        timeouts,
    });
    let started = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    let mut merged = ThreadStats::default();
    for h in handles {
        let t = h.join().unwrap_or_else(|_| die("load thread panicked"));
        merged.latencies_us.extend_from_slice(&t.latencies_us);
        merged.ok += t.ok;
        merged.cached += t.cached;
        merged.coalesced += t.coalesced;
        merged.sheds += t.sheds;
        merged.retries += t.retries;
        merged.gave_up += t.gave_up;
        merged.errors += t.errors;
    }
    let elapsed = started.elapsed();
    merged.latencies_us.sort_unstable();

    let throughput = merged.ok as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "[loadgen] {} ok ({} cached, {} coalesced), {} sheds ({} gave up), \
         {} retries, {} errors in {:.2}s ({:.0} req/s)",
        merged.ok,
        merged.cached,
        merged.coalesced,
        merged.sheds,
        merged.gave_up,
        merged.retries,
        merged.errors,
        elapsed.as_secs_f64(),
        throughput
    );
    println!(
        "[loadgen] latency_us p50={} p99={} p999={} max={}",
        percentile(&merged.latencies_us, 0.50),
        percentile(&merged.latencies_us, 0.99),
        percentile(&merged.latencies_us, 0.999),
        merged.latencies_us.last().copied().unwrap_or(0)
    );
    let shed_rate = merged.sheds as f64 / requests as f64;
    println!("[loadgen] shed_rate={shed_rate:.4}");

    // Pull the endpoint's stats for per-tier hit counts.
    let mut client = dial_until(
        &endpoint,
        &timeouts,
        Instant::now() + Duration::from_secs(5),
    );
    let stats_line = client
        .request_line("{\"v\":1,\"op\":\"stats\"}")
        .unwrap_or_else(|e| die(&format!("stats request failed: {e}")));
    println!("[loadgen] stats: {stats_line}");
    let stats_json =
        Json::parse(&stats_line).unwrap_or_else(|e| die(&format!("unparseable stats: {e}")));
    let is_router = stats_json.get("router").and_then(Json::as_bool) == Some(true);
    if is_router {
        println!(
            "[loadgen] tiers: router_hot_hits={} router_coalesced={} \
             worker_cache_hits={} worker_disk_hits={} worker_executed={}",
            stats_counter(&stats_json, "counters", "serve_router_hot_hits"),
            stats_counter(&stats_json, "counters", "serve_router_coalesced"),
            stats_counter(&stats_json, "worker_counters", "serve_cache_hits"),
            stats_counter(&stats_json, "worker_counters", "serve_disk_hits"),
            stats_counter(&stats_json, "worker_counters", "serve_jobs_executed"),
        );
    } else {
        println!(
            "[loadgen] tiers: cache_hits={} disk_hits={} executed={}",
            stats_counter(&stats_json, "counters", "serve_cache_hits"),
            stats_counter(&stats_json, "counters", "serve_disk_hits"),
            stats_counter(&stats_json, "counters", "serve_jobs_executed"),
        );
    }

    let mut failed = false;
    if merged.errors > 0 || merged.gave_up > 0 {
        eprintln!(
            "[loadgen] FAIL: {} errors, {} submissions gave up",
            merged.errors, merged.gave_up
        );
        failed = true;
    }
    if expect_cached && merged.cached < merged.ok {
        eprintln!(
            "[loadgen] FAIL: --expect-cached but only {}/{} ok responses were cached",
            merged.cached, merged.ok
        );
        failed = true;
    }
    if assert_once {
        let object = if is_router {
            "worker_counters"
        } else {
            "counters"
        };
        let executed = stats_counter(&stats_json, object, "serve_jobs_executed")
            .saturating_sub(executed_before);
        if executed == distinct as u64 {
            println!(
                "[loadgen] assert-once: fleet executed {executed} jobs \
                 for {distinct} distinct keys — exactly once each"
            );
        } else {
            eprintln!(
                "[loadgen] FAIL: --assert-once: fleet executed {executed} jobs \
                 for {distinct} distinct keys"
            );
            failed = true;
        }
    }

    let payloads = {
        let guard = shared.payloads.lock().unwrap_or_else(|e| e.into_inner());
        guard.clone()
    };
    if let Some(path) = &out_file {
        let mut text = String::new();
        for (k, payload) in payloads.iter().enumerate() {
            if let Some(p) = payload {
                text.push_str(&format!("lg-{k} {p}\n"));
            }
        }
        std::fs::write(path, text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("[loadgen] wrote result payloads to {path}");
    }
    if verify && !failed {
        failed = !verify_against_direct_worker(&specs, &payloads);
    }

    if let Some(fleet) = fleet {
        fleet.shutdown();
        println!("[loadgen] fleet shut down cleanly");
    }
    std::process::exit(i32::from(failed));
}

/// Spawns a fresh single worker, replays every distinct spec directly,
/// and compares result payload bytes with the fleet-observed payloads.
fn verify_against_direct_worker(specs: &[JobSpec], fleet_payloads: &[Option<String>]) -> bool {
    let daemon = daemon_path().unwrap_or_else(|e| die(&e));
    let dir = std::env::temp_dir().join(format!("schedtask-loadgen-verify-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    let args = vec![
        "--addr".to_owned(),
        "tcp://127.0.0.1:0".to_owned(),
        "--cache-dir".to_owned(),
        dir.display().to_string(),
        "--drain-deadline-ms".to_owned(),
        "2000".to_owned(),
    ];
    let (mut child, addr) = spawn_daemon(&daemon, &args);
    let endpoint = Endpoint::Tcp(addr);
    let timeouts = ClientTimeouts::default();
    let mut client = dial_until(
        &endpoint,
        &timeouts,
        Instant::now() + Duration::from_secs(10),
    );
    let mut mismatches = 0usize;
    let mut compared = 0usize;
    for (k, spec) in specs.iter().enumerate() {
        let Some(fleet_payload) = &fleet_payloads[k] else {
            continue;
        };
        let line = spec.to_request_line(Some(&format!("lg-{k}")), false);
        let response = client
            .request_line(&line)
            .unwrap_or_else(|e| die(&format!("verify request failed: {e}")));
        match result_payload(&response) {
            Some(direct) if &direct == fleet_payload => compared += 1,
            Some(_) => {
                eprintln!("[loadgen] verify: payload mismatch for key lg-{k}");
                mismatches += 1;
            }
            None => {
                eprintln!("[loadgen] verify: no result payload for key lg-{k}: {response}");
                mismatches += 1;
            }
        }
    }
    let _ = client.request_line("{\"v\":1,\"op\":\"shutdown\"}");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
    if mismatches == 0 {
        println!(
            "[loadgen] verify: {compared} fleet payloads byte-identical \
             to a direct single-worker run"
        );
        true
    } else {
        eprintln!("[loadgen] FAIL: verify: {mismatches} payload mismatches");
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_distinct_and_tiny() {
        let specs = build_specs(32, 7);
        let mut keys: Vec<u64> = specs.iter().map(JobSpec::cache_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 32, "all loadgen specs must have distinct keys");
        for spec in &specs {
            assert!(spec.params.max_instructions <= 30_000);
            assert!(spec.params.cores <= 2);
        }
    }

    #[test]
    fn percentiles_pick_expected_ranks() {
        let sorted: Vec<u64> = (1..=1000).collect();
        // rank = round((len-1) * p): round(499.5) = 500 → value 501.
        assert_eq!(percentile(&sorted, 0.50), 501);
        assert_eq!(percentile(&sorted, 0.99), 990);
        assert_eq!(percentile(&sorted, 0.999), 999);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn traffic_shape_is_deterministic() {
        let a: Vec<u64> = (0..64).map(|i| splitmix64(0x10AD ^ i) % 8).collect();
        let b: Vec<u64> = (0..64).map(|i| splitmix64(0x10AD ^ i) % 8).collect();
        assert_eq!(a, b);
        // Uniform-ish: every key in a small pool gets touched.
        let mut seen = [false; 8];
        for &k in &a {
            seen[k as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 keys touched in 64 draws");
    }
}
