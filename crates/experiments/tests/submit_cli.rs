//! `repro submit` sends the requests its flags ask for: a bare
//! invocation submits the default SchedTask/Find job, `--stats` or
//! `--shutdown` without `--workload` or `--technique` submits none, and
//! `--retries N` tries each job up to N + 1 times.
//!
//! Each case runs the real binary against a fake server that records
//! every request line and answers it with a well-formed response.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use schedtask_experiments::serve_api::{parse_request, RequestOp, Response, PROTOCOL_VERSION};

/// Runs `repro submit --addr <fake server> <args>` and returns the
/// operations the server received, in order: `ping`, `stats`,
/// `shutdown`, or `run TECHNIQUE/WORKLOAD`.
fn submit(args: &[&str]) -> Vec<String> {
    submit_rejecting(args, 0)
}

/// [`submit`] against a server that answers its first `rejections` run
/// requests `rejected`. Each connection is served on its own thread: a
/// retry dials a new connection while the pinged one stays open.
fn submit_rejecting(args: &[&str], rejections: usize) -> Vec<String> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let (seen, ops) = mpsc::channel();
    let runs = Arc::new(AtomicUsize::new(0));
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let (seen, runs) = (seen.clone(), Arc::clone(&runs));
            thread::spawn(move || serve(stream, &seen, &runs, rejections));
        }
    });
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["submit", "--addr", &format!("tcp://{addr}")])
        .args(args)
        .output()
        .expect("run repro submit");
    assert!(status.status.success(), "repro submit {args:?}: {status:?}");
    ops.try_iter().collect()
}

/// Answers every request line on one connection until it closes.
fn serve(stream: TcpStream, seen: &mpsc::Sender<String>, runs: &AtomicUsize, rejections: usize) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut out = stream;
    let mut line = String::new();
    while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
        let request = parse_request(line.trim_end()).expect("repro sends valid requests");
        let (op, response) = match request.op {
            RequestOp::Ping => (
                "ping".to_owned(),
                Response::Pong {
                    id: request.id,
                    proto: PROTOCOL_VERSION,
                }
                .render(),
            ),
            RequestOp::Stats => (
                "stats".to_owned(),
                "{\"v\":1,\"status\":\"ok\",\"counters\":{}}".to_owned(),
            ),
            RequestOp::Shutdown => (
                "shutdown".to_owned(),
                Response::ShuttingDown { id: request.id }.render(),
            ),
            RequestOp::Run(spec, _) => (
                format!("run {}/{}", spec.technique.name(), spec.benchmark.name()),
                if runs.fetch_add(1, Ordering::SeqCst) < rejections {
                    Response::Rejected {
                        id: request.id,
                        queue_depth: 1,
                        retry_after_ms: 1,
                    }
                } else {
                    Response::Ok {
                        id: request.id,
                        cached: true,
                        coalesced: false,
                        key: spec.cache_key_hex(),
                        queue_depth: 0,
                        latency_us: 1,
                        result: "{}".to_owned(),
                        jsonl: None,
                    }
                }
                .render(),
            ),
        };
        // The client waits for each answer, so every op is recorded
        // before the process exits.
        seen.send(op).expect("the test is listening");
        if writeln!(out, "{response}").is_err() {
            break;
        }
        line.clear();
    }
}

#[test]
fn stats_or_shutdown_alone_submits_no_job() {
    assert_eq!(submit(&["--shutdown"]), ["ping", "shutdown"]);
    assert_eq!(
        submit(&["--stats", "--shutdown"]),
        ["ping", "stats", "shutdown"]
    );
}

#[test]
fn a_job_list_keeps_the_other_list_default() {
    assert_eq!(submit(&[]), ["ping", "run SchedTask/Find"]);
    assert_eq!(
        submit(&["--technique", "Baseline", "--stats"]),
        ["ping", "run Baseline/Find", "stats"]
    );
    assert_eq!(
        submit(&["--workload", "Iscp", "--shutdown"]),
        ["ping", "run SchedTask/Iscp", "shutdown"]
    );
}

#[test]
fn one_retry_resubmits_a_rejected_job() {
    assert_eq!(
        submit_rejecting(&["--retries", "1"], 1),
        ["ping", "run SchedTask/Find", "run SchedTask/Find"]
    );
}
