//! `fleet_hot` and `fleet_cold` against a deployed fleet: a
//! `schedtaskd --router` in front of two `schedtaskd` workers, real
//! processes over TCP, driven by one `ServeClient` connection in a
//! closed loop.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use schedtask_experiments::serve_api::{
    ClientTimeouts, Endpoint, JobSpec, Json, ServeClient, PROTOCOL_VERSION,
};
use schedtask_experiments::RunBuilder;

use crate::calib::{Calibration, Slice};
use crate::keys::{self, WARM_KEYS};
use crate::report::{peak_rss_mib, EndToEnd, Report};
use crate::stats::{median, percentile_us, FAILED};

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every timed request is a router hot-tier hit on a warm key.
    Hot,
    /// Every timed request is a key never seen before.
    Cold,
}

impl Mix {
    /// Timed requests for a run of `seconds`: a fixed count, so a
    /// faster fleet finishes sooner instead of doing more work.
    pub fn requests(self, seconds: u64) -> u64 {
        match self {
            Mix::Hot => 10_000 * seconds,
            Mix::Cold => 150 * seconds,
        }
    }

    /// Requests per round. Each round is timed on its own and its
    /// responses are held until its clock stops, so this also bounds the
    /// client's memory; the rates are medians over rounds.
    fn round(self) -> u64 {
        match self {
            Mix::Hot => 500,
            Mix::Cold => 25,
        }
    }

    /// Key index of timed request `i`.
    pub fn key(self, seed: u64, i: u64) -> u64 {
        match self {
            Mix::Hot => keys::hot_pick(seed, i),
            Mix::Cold => WARM_KEYS as u64 + i,
        }
    }

    /// Distinct keys the timed phase touches.
    pub fn distinct(self, n: u64) -> u64 {
        match self {
            Mix::Hot => WARM_KEYS as u64,
            Mix::Cold => WARM_KEYS as u64 + n,
        }
    }
}

/// A spawned fleet. Dropping it kills and reaps every process and
/// removes its cache directories, so no daemon outlives a run.
pub struct Fleet {
    children: Vec<Child>,
    drains: Vec<JoinHandle<()>>,
    dir: PathBuf,
    worker_addrs: Vec<String>,
    pub router_addr: String,
}

type Stdout = BufReader<ChildStdout>;

/// Reads a daemon's stdout until a line starting with `marker`, and
/// returns the rest of that line.
fn read_until(reader: &mut Stdout, marker: &str) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                if let Some(rest) = line.trim_end().strip_prefix(marker) {
                    return Ok(rest.to_owned());
                }
            }
            _ => return Err(format!("daemon exited before printing {marker:?}")),
        }
    }
}

/// Keeps draining a daemon's stdout, so late prints never block or
/// break it.
fn drain(mut reader: Stdout) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    })
}

impl Fleet {
    /// Starts two workers (`--workers 1`, each with a fresh
    /// `--cache-dir` under `dir`) and a router, and waits until the
    /// router has joined both.
    pub fn spawn(daemon: &Path, dir: &Path) -> Result<Fleet, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut fleet = Fleet {
            children: Vec::new(),
            drains: Vec::new(),
            dir: dir.to_owned(),
            worker_addrs: Vec::new(),
            router_addr: String::new(),
        };
        for i in 0..2 {
            let cache = dir.join(format!("worker{i}"));
            let args = [
                "--addr".to_owned(),
                "tcp://127.0.0.1:0".to_owned(),
                "--workers".to_owned(),
                "1".to_owned(),
                "--cache-dir".to_owned(),
                cache.display().to_string(),
            ];
            let mut stdout = fleet.start(daemon, &args)?;
            let addr = read_until(&mut stdout, "schedtaskd listening on ")?;
            fleet.drains.push(drain(stdout));
            fleet.worker_addrs.push(addr);
        }
        let mut args = vec![
            "--router".to_owned(),
            "--addr".to_owned(),
            "tcp://127.0.0.1:0".to_owned(),
        ];
        for addr in &fleet.worker_addrs {
            args.push("--worker".to_owned());
            args.push(format!("tcp://{addr}"));
        }
        // The router prints its address, then joins the workers.
        let mut stdout = fleet.start(daemon, &args)?;
        fleet.router_addr = read_until(&mut stdout, "schedtaskd listening on ")?;
        read_until(&mut stdout, "schedtaskd: routing across")?;
        fleet.drains.push(drain(stdout));
        Ok(fleet)
    }

    fn start(&mut self, daemon: &Path, args: &[String]) -> Result<Stdout, String> {
        let mut child = Command::new(daemon)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("launch {}: {e}", daemon.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not piped")?;
        self.children.push(child);
        Ok(BufReader::new(stdout))
    }

    pub fn client(&self) -> Result<ServeClient, String> {
        ServeClient::dial(
            &Endpoint::Tcp(self.router_addr.clone()),
            &ClientTimeouts::default(),
        )
        .map_err(|e| format!("dial router {}: {e}", self.router_addr))
    }

    /// The router's `stats` op: its own counters plus every worker's,
    /// summed.
    pub fn stats(&self) -> Result<Json, String> {
        let line = self
            .client()?
            .request_line("{\"v\":1,\"op\":\"stats\"}")
            .map_err(|e| format!("stats: {e}"))?;
        Json::parse(&line)
    }

    /// Sum of the router's and workers' peak resident sets, MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        self.children
            .iter()
            .map(|c| peak_rss_mib(&c.id().to_string()))
            .sum()
    }

    /// Asks every daemon to drain and exit, and waits for them.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut targets = vec![self.router_addr.clone()];
        targets.extend(self.worker_addrs.iter().cloned());
        let timeouts = ClientTimeouts::default();
        for addr in targets {
            if let Ok(mut c) = ServeClient::dial(&Endpoint::Tcp(addr), &timeouts) {
                let _ = c.request_line("{\"v\":1,\"op\":\"shutdown\"}");
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    Ok(None) => return Err("daemon ignored shutdown".to_owned()),
                    Err(e) => return Err(format!("wait: {e}")),
                }
            }
        }
        Ok(())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        for drain in self.drains.drain(..) {
            let _ = drain.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A counter from a stats line's `counters` (router) or
/// `worker_counters` (fleet-wide sum) object.
pub fn stats_counter(stats: &Json, object: &str, counter: &str) -> u64 {
    stats
        .get(object)
        .and_then(|c| c.get(counter))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The payload an in-process `RunBuilder` run of `spec` produces.
pub fn expected_payload(spec: &JobSpec) -> Result<(String, u64), String> {
    let stats = RunBuilder::new(&spec.params)
        .technique(spec.technique)
        .benchmark(spec.benchmark, spec.scale)
        .run()
        .map_err(|e| e.to_string())?;
    Ok((stats.to_canonical_json(), stats.total_instructions()))
}

/// Checks a response line against its request and returns the result
/// payload. `Response::render` fixes the field order, so the check is a
/// byte comparison of the envelope up to `queue_depth` (the fields after
/// it, `queue_depth` and `latency_us`, vary) and the payload is cut out
/// without a JSON parse. Anything else — an error, a shed, another key,
/// the wrong tier — fails the request.
pub fn check_response<'a>(
    line: &'a str,
    id: &str,
    key: &str,
    cached: bool,
) -> Result<&'a str, String> {
    let envelope = format!(
        "{{\"v\":{PROTOCOL_VERSION},\"id\":\"{id}\",\"status\":\"ok\",\"cached\":{cached},\
         \"coalesced\":false,\"key\":\"{key}\",\"queue_depth\":"
    );
    let short = || line.chars().take(160).collect::<String>();
    let rest = line
        .strip_prefix(&envelope)
        .ok_or_else(|| format!("request {id}: unexpected response {}", short()))?;
    let at = rest
        .find(",\"result\":")
        .ok_or_else(|| format!("request {id}: no result in {}", short()))?;
    rest[at + 10..]
        .strip_suffix('}')
        .ok_or_else(|| format!("request {id}: unterminated response"))
}

/// Per-key payloads seen on the wire: the first one per key, and
/// whether every later one matched it byte for byte.
pub struct Payloads {
    first: Vec<Option<String>>,
}

impl Payloads {
    pub fn new(keys: u64) -> Self {
        Payloads {
            first: vec![None; keys as usize],
        }
    }

    /// Records `payload` for `key`; false if it differs from the first.
    pub fn record(&mut self, key: u64, payload: &str) -> bool {
        match &self.first[key as usize] {
            Some(first) => first == payload,
            None => {
                self.first[key as usize] = Some(payload.to_owned());
                true
            }
        }
    }

    /// Compares every seen key's payload with `expected(key)`; returns
    /// the keys that differ (or whose reference run failed) and the
    /// simulated instructions per key.
    pub fn verify(
        &self,
        expected: impl Fn(u64) -> Result<(String, u64), String>,
    ) -> (Vec<bool>, Vec<u64>) {
        let mut good = vec![false; self.first.len()];
        let mut instr = vec![0; self.first.len()];
        for (k, seen) in self.first.iter().enumerate() {
            if let (Some(seen), Ok((want, n))) = (seen, expected(k as u64)) {
                good[k] = *seen == want;
                instr[k] = n;
            }
        }
        (good, instr)
    }
}

/// One timed request's outcome.
pub struct Outcome {
    pub key: u64,
    pub round: usize,
    pub ns: u64,
    pub ok: bool,
}

/// Sends each warm key once (ids `w<k>`); every one must execute fresh
/// and return the same payload as in any earlier set-up.
pub fn warm_keys(
    client: &mut ServeClient,
    seed: u64,
    payloads: &mut Payloads,
) -> Result<(), String> {
    for k in 0..WARM_KEYS as u64 {
        let spec = keys::spec(seed, k);
        let id = format!("w{k}");
        let line = client
            .request_line(&spec.to_request_line(Some(&id), false))
            .map_err(|e| format!("warm-up request {k}: {e}"))?;
        let payload = check_response(&line, &id, &spec.cache_key_hex(), false)?;
        if !payloads.record(k, payload) {
            return Err(format!("warm-up key {k}: payload differs between set-ups"));
        }
    }
    Ok(())
}

/// Spawns a fleet and executes the warm keys once, untimed: one set-up.
fn set_up(
    daemon: &Path,
    dir: &Path,
    seed: u64,
    payloads: &mut Payloads,
    report: &mut Report,
) -> Result<Fleet, String> {
    let fleet = Fleet::spawn(daemon, dir)?;
    warm_keys(&mut fleet.client()?, seed, payloads)?;
    let executed = stats_counter(&fleet.stats()?, "worker_counters", "serve_jobs_executed");
    report.check(executed == WARM_KEYS as u64, || {
        format!("set-up executed {executed} jobs fleet-wide, want {WARM_KEYS}")
    });
    Ok(fleet)
}

/// Sends the timed requests over one connection, a round at a time.
/// Each round's request lines are rendered, and calibration slices
/// timed, before its clock starts; only the round trips are inside it;
/// its responses are checked after it stops. `keep` sees every
/// (request, response). Returns the outcomes and each round's timed
/// seconds.
pub fn timed_loop(
    client: &mut ServeClient,
    mix: Mix,
    seed: u64,
    n: u64,
    payloads: &mut Payloads,
    calib: &mut Calibration,
    mut keep: impl FnMut(&str, &str),
) -> Result<(Vec<Outcome>, Vec<f64>), String> {
    let mut outcomes = Vec::with_capacity(n as usize);
    let mut walls = Vec::new();
    let mut next = 0;
    while next < n {
        let end = (next + mix.round()).min(n);
        let round: Vec<(u64, String, String, String)> = (next..end)
            .map(|i| {
                let k = mix.key(seed, i);
                let spec = keys::spec(seed, k);
                let id = format!("r{i}");
                (
                    k,
                    spec.to_request_line(Some(&id), false),
                    id,
                    spec.cache_key_hex(),
                )
            })
            .collect();
        next = end;
        // About 40 calibration samples per run, spread over it.
        if (walls.len() as u64).is_multiple_of((n / mix.round() / 40).max(1)) {
            calib.sample()?;
        }
        let mut responses = Vec::with_capacity(round.len());
        let clock = Instant::now();
        for (_, line, _, _) in &round {
            let start = Instant::now();
            let resp = client.request_line(line);
            responses.push((start.elapsed().as_nanos() as u64, resp));
        }
        walls.push(clock.elapsed().as_secs_f64());
        for ((k, line, id, hex), (ns, resp)) in round.iter().zip(responses) {
            let ok = resp.is_ok_and(|resp| {
                keep(line, &resp);
                check_response(&resp, id, hex, mix == Mix::Hot)
                    .is_ok_and(|payload| payloads.record(*k, payload))
            });
            outcomes.push(Outcome {
                key: *k,
                round: walls.len() - 1,
                ns,
                ok,
            });
        }
    }
    Ok((outcomes, walls))
}

/// A timed phase after the per-key payload check.
pub struct Summary {
    pub ok: u64,
    /// Round trips, with failed requests as [`FAILED`].
    pub lat_ns: Vec<u64>,
    /// Ok responses per timed second, per round.
    pub round_rates: Vec<f64>,
    /// Median over rounds of ok responses per timed second.
    pub req_per_s: f64,
    /// Median over rounds of simulated instructions in ok results per
    /// timed second, millions.
    pub minstr_per_s: f64,
}

/// Applies the per-key verdicts to the outcomes.
pub fn summarize(outcomes: &[Outcome], walls: &[f64], good: &[bool], instr: &[u64]) -> Summary {
    let mut ok_per_round = vec![0u64; walls.len()];
    let mut instr_per_round = vec![0u64; walls.len()];
    let mut lat_ns = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        let ok = o.ok && good[o.key as usize];
        lat_ns.push(if ok { o.ns } else { FAILED });
        if ok {
            ok_per_round[o.round] += 1;
            instr_per_round[o.round] += instr[o.key as usize];
        }
    }
    let rates = |per_round: &[u64], scale: f64| -> Vec<f64> {
        per_round
            .iter()
            .zip(walls)
            .map(|(&v, w)| v as f64 / w / scale)
            .collect()
    };
    let round_rates = rates(&ok_per_round, 1.0);
    Summary {
        ok: ok_per_round.iter().sum(),
        lat_ns,
        req_per_s: median(&round_rates),
        round_rates,
        minstr_per_s: median(&rates(&instr_per_round, 1e6)),
    }
}

/// The untraced run against a deployed fleet.
pub fn run(
    mix: Mix,
    daemon: &Path,
    tmp: &Path,
    seed: u64,
    seconds: u64,
    process_start: Instant,
) -> Result<Report, String> {
    let mut report = Report::default();
    let n = mix.requests(seconds);
    let mut payloads = Payloads::new(mix.distinct(n));
    let mut setup = Vec::new();
    let mut fleet = None;
    for i in 0..crate::SETUPS {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let f = set_up(
            daemon,
            &tmp.join(format!("fleet{i}")),
            seed,
            &mut payloads,
            &mut report,
        )?;
        setup.push(start.elapsed().as_secs_f64());
        if let Some(previous) = fleet.replace(f) {
            Fleet::shutdown(previous)?;
        }
    }
    let fleet = fleet.ok_or("no fleet")?;
    let mut client = fleet.client()?;
    let mut calib = Calibration::new()?;
    let (outcomes, walls) = timed_loop(
        &mut client,
        mix,
        seed,
        n,
        &mut payloads,
        &mut calib,
        |_, _| {},
    )?;
    drop(client);
    let stats = fleet.stats()?;
    let rss = fleet.peak_rss_mib()?;
    fleet.shutdown()?;

    let executed = stats_counter(&stats, "worker_counters", "serve_jobs_executed");
    let want = mix.distinct(n);
    report.check(executed == want, || {
        format!("fleet executed {executed} jobs, want {want}")
    });
    let (good, instr) = payloads.verify(|k| expected_payload(&keys::spec(seed, k)));
    let bad = good.iter().filter(|g| !**g).count();
    report.check(bad == 0, || {
        format!("{bad} keys' payloads differ from an in-process run")
    });
    let s = summarize(&outcomes, &walls, &good, &instr);
    report.attempted = outcomes.len() as u64;
    report.failed = report.attempted - s.ok;
    report.note(format!(
        "{mix:?}: {} requests over 1 connection in {} rounds, {:.3} s timed; {} distinct keys checked; \
         round rates min/median/max {:.1}/{:.1}/{:.1} per s",
        outcomes.len(),
        walls.len(),
        walls.iter().sum::<f64>(),
        good.len(),
        s.round_rates.iter().copied().fold(f64::INFINITY, f64::min),
        s.req_per_s,
        s.round_rates.iter().copied().fold(0.0, f64::max),
    ));
    report.note(format!(
        "client round trip over {} samples (p99 and the tail are reported, not bounded): {}",
        s.lat_ns.len(),
        [0.1, 0.5, 0.9, 0.99, 0.999]
            .iter()
            .map(|&p| match percentile_us(&s.lat_ns, p) {
                Some(us) => format!("p{}={us:.1}us", p * 100.0),
                None => format!("p{}=n/a", p * 100.0),
            })
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.end_to_end(
        &EndToEnd {
            setup_s: median(&setup),
            peak_rss_mb: rss,
            minstr_per_s: s.minstr_per_s,
            req_per_s: s.req_per_s,
            p50_us: percentile_us(&s.lat_ns, 0.5),
        },
        &calib,
        match mix {
            Mix::Hot => Slice::Loopback,
            Mix::Cold => Slice::Both,
        },
    );
    Ok(report)
}

/// The traced mode's untraced pass on a deployed fleet (one set-up):
/// the outcomes and round times the traced in-process pass is compared
/// with, and the payloads seen, for checking.
pub fn untraced_pass(
    mix: Mix,
    daemon: &Path,
    tmp: &Path,
    seed: u64,
    n: u64,
) -> Result<(Vec<Outcome>, Vec<f64>, Payloads), String> {
    let mut payloads = Payloads::new(mix.distinct(n));
    let mut checks = Report::default();
    let fleet = set_up(
        daemon,
        &tmp.join("fleet-untraced"),
        seed,
        &mut payloads,
        &mut checks,
    )?;
    let mut client = fleet.client()?;
    let (outcomes, walls) = timed_loop(
        &mut client,
        mix,
        seed,
        n,
        &mut payloads,
        &mut Calibration::new()?,
        |_, _| {},
    )?;
    drop(client);
    let executed = stats_counter(&fleet.stats()?, "worker_counters", "serve_jobs_executed");
    fleet.shutdown()?;
    checks.check(executed == mix.distinct(n), || {
        format!("fleet executed {executed} jobs, want {}", mix.distinct(n))
    });
    match checks.check_failures.first() {
        Some(failure) => Err(failure.clone()),
        None => Ok((outcomes, walls, payloads)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedtask_experiments::serve_api::Response;

    #[test]
    fn a_corrupted_payload_fails_its_key_and_every_request_on_it() {
        let mut p = Payloads::new(2);
        assert!(p.record(0, "{\"a\":1}"));
        assert!(p.record(0, "{\"a\":1}"));
        assert!(!p.record(0, "{\"a\":2}"));
        assert!(p.record(1, "{\"b\":1}"));
        let (good, instr) = p.verify(|k| {
            Ok((
                if k == 0 { "{\"a\":1}" } else { "{\"b\":9}" }.to_owned(),
                10,
            ))
        });
        assert_eq!(good, vec![true, false]);
        let outcomes = vec![
            Outcome {
                key: 0,
                round: 0,
                ns: 5,
                ok: true,
            },
            Outcome {
                key: 1,
                round: 0,
                ns: 6,
                ok: true,
            },
            Outcome {
                key: 0,
                round: 1,
                ns: 7,
                ok: false,
            },
            Outcome {
                key: 0,
                round: 1,
                ns: 8,
                ok: true,
            },
        ];
        let s = summarize(&outcomes, &[1.0, 0.5], &good, &instr);
        assert_eq!(s.ok, 2);
        assert_eq!(s.lat_ns, vec![5, FAILED, FAILED, 8]);
        // One ok per round: 1/s and 2/s, median 1.5.
        assert_eq!(s.req_per_s, 1.5);
        assert!((s.minstr_per_s - 1.5e-5).abs() < 1e-12);
    }

    #[test]
    fn responses_are_checked_against_the_request() {
        let ok = |cached, key: &str| {
            Response::Ok {
                id: Some("r7".to_owned()),
                cached,
                coalesced: false,
                key: key.to_owned(),
                queue_depth: 3,
                latency_us: 41,
                result: "{\"x\":1}".to_owned(),
                jsonl: None,
            }
            .render()
        };
        let key = "00000000000000aa";
        assert_eq!(
            check_response(&ok(true, key), "r7", key, true),
            Ok("{\"x\":1}")
        );
        assert!(check_response(&ok(true, key), "r8", key, true).is_err());
        assert!(check_response(&ok(true, "00000000000000bb"), "r7", key, true).is_err());
        assert!(check_response(&ok(false, key), "r7", key, true).is_err());
        let shed = Response::Rejected {
            id: Some("r7".to_owned()),
            queue_depth: 64,
            retry_after_ms: 5,
        }
        .render();
        assert!(check_response(&shed, "r7", key, false).is_err());
        // A cut line either fails here or yields a payload that fails the
        // byte comparison with the key's reference payload.
        let full = ok(false, key);
        for end in 1..full.len() {
            assert_ne!(
                check_response(&full[..end], "r7", key, false),
                Ok("{\"x\":1}")
            );
        }
    }

    #[test]
    fn request_counts_are_fixed_per_run_length() {
        assert_eq!(Mix::Hot.requests(20), 200_000);
        assert_eq!(Mix::Cold.requests(20), 3_000);
        assert_eq!(Mix::Cold.key(1, 0), WARM_KEYS as u64);
        assert!(Mix::Hot.key(1, 5) < WARM_KEYS as u64);
    }
}
