//! `schedtaskd`'s exit status tells a clean drain from an abandoned
//! one. The real binary runs with one executor and a 1 ms drain
//! deadline: idle, a `shutdown` drains at once (exit 0, `shut down
//! cleanly`); with a standard-size job admitted, the deadline cuts the
//! backlog short (exit 1, no such line). SIGTERM and SIGINT, sent with
//! `kill` to an idle daemon that still holds an idle client connection,
//! stop it as cleanly and as promptly as a `shutdown` does. A flag the
//! daemon's role does not read is refused with exit 2 before anything
//! starts.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Duration;

use schedtask_experiments::serve_api::{ClientTimeouts, Endpoint, Json, ServeClient};

/// Starts the daemon with a 1 ms drain deadline.
fn start() -> (Child, Endpoint) {
    spawn(&["--drain-deadline-ms", "1"])
}

/// Starts the daemon on an ephemeral port with one executor and the
/// `extra` flags, and returns it with the endpoint it printed.
fn spawn(extra: &[&str]) -> (Child, Endpoint) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_schedtaskd"))
        .args(["--addr", "tcp://127.0.0.1:0", "--workers", "1"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start schedtaskd");
    let mut banner = String::new();
    BufReader::new(child.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read the banner");
    let addr = banner
        .trim()
        .strip_prefix("schedtaskd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"));
    (child, Endpoint::Tcp(addr.to_owned()))
}

fn dial(endpoint: &Endpoint) -> ServeClient {
    ServeClient::dial(endpoint, &ClientTimeouts::default()).expect("dial schedtaskd")
}

/// Sends `shutdown` and returns the exit code with stdout and stderr.
fn shut_down(child: Child, endpoint: &Endpoint) -> (Option<i32>, String, String) {
    let ack = dial(endpoint)
        .request_line("{\"v\":1,\"op\":\"shutdown\"}")
        .expect("shutdown is acknowledged");
    assert!(ack.contains("\"shutting_down\":true"), "{ack}");
    exit_of(child)
}

/// Waits for the daemon to exit and returns its code with stdout and
/// stderr.
fn exit_of(mut child: Child) -> (Option<i32>, String, String) {
    let status = child.wait().expect("schedtaskd exits");
    let mut stdout = String::new();
    let mut stderr = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .expect("read stdout");
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (status.code(), stdout, stderr)
}

#[test]
fn an_abandoned_backlog_is_not_a_clean_shutdown() {
    let (child, endpoint) = start();
    let (code, stdout, _) = shut_down(child, &endpoint);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("schedtaskd: shut down cleanly"), "{stdout}");

    let (child, endpoint) = start();
    let job = {
        let mut client = dial(&endpoint);
        thread::spawn(move || {
            // The daemon exits mid-job, so the answer never comes.
            let _ = client
                .request_line("{\"v\":1,\"op\":\"run\",\"workload\":\"Find\",\"quick\":false}");
        })
    };
    let mut stats = dial(&endpoint);
    loop {
        let line = stats
            .request_line("{\"v\":1,\"op\":\"stats\"}")
            .expect("stats answers");
        let json = Json::parse(&line).expect("stats is JSON");
        let admitted = json
            .get("counters")
            .and_then(|c| c.get("serve_cache_misses"))
            .and_then(Json::as_u64);
        if admitted == Some(1) {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    let (code, stdout, stderr) = shut_down(child, &endpoint);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(!stdout.contains("shut down cleanly"), "{stdout}");
    assert!(stderr.contains("abandoning backlog"), "{stderr}");
    job.join().expect("the client thread ends");
}

/// Sends an idle daemon `signal` with `kill` after a pong, its client
/// still connected, and checks that it drains and exits 0 within 2 s at
/// the default drain deadline.
#[cfg(unix)]
fn a_signal_stops_it_cleanly(signal: &str) {
    let (child, endpoint) = spawn(&[]);
    let mut client = dial(&endpoint);
    assert!(client.ping().expect("ping"), "schedtaskd answers ping");
    let sent = std::time::Instant::now();
    let kill = Command::new("kill")
        .args([format!("-{signal}"), child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success(), "kill -{signal} failed");
    let (code, stdout, stderr) = exit_of(child);
    let waited = sent.elapsed();
    assert_eq!(code, Some(0), "SIG{signal}: {stdout}{stderr}");
    assert!(stdout.contains("schedtaskd: shut down cleanly"), "{stdout}");
    assert!(
        waited < Duration::from_secs(2),
        "SIG{signal}: exited {waited:?} after the signal"
    );
    drop(client);
}

#[cfg(unix)]
#[test]
fn sigterm_stops_the_daemon_cleanly() {
    a_signal_stops_it_cleanly("TERM");
}

#[cfg(unix)]
#[test]
fn sigint_stops_the_daemon_cleanly() {
    a_signal_stops_it_cleanly("INT");
}

#[test]
fn a_router_refuses_every_worker_only_flag() {
    for (flag, value) in [
        ("--cache-dir", "d"),
        ("--workers", "2"),
        ("--queue-capacity", "4"),
        ("--chaos", "light"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_schedtaskd"))
            .args(["--router", "--worker", "tcp://127.0.0.1:9", flag, value])
            .output()
            .expect("run schedtaskd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}
