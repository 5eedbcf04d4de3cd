//! `schedtaskd`'s exit status tells a clean drain from an abandoned
//! one. The real binary runs with one executor and a 1 ms drain
//! deadline: idle, a `shutdown` drains at once (exit 0, `shut down
//! cleanly`); with a standard-size job admitted, the deadline cuts the
//! backlog short (exit 1, no such line).

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Duration;

use schedtask_experiments::serve_api::{ClientTimeouts, Endpoint, Json, ServeClient};

/// Starts the daemon on an ephemeral port and returns it with the
/// endpoint it printed.
fn start() -> (Child, Endpoint) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_schedtaskd"))
        .args(["--addr", "tcp://127.0.0.1:0", "--workers", "1"])
        .args(["--drain-deadline-ms", "1"])
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
fn shut_down(mut child: Child, endpoint: &Endpoint) -> (Option<i32>, String, String) {
    let ack = dial(endpoint)
        .request_line("{\"v\":1,\"op\":\"shutdown\"}")
        .expect("shutdown is acknowledged");
    assert!(ack.contains("\"shutting_down\":true"), "{ack}");
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
