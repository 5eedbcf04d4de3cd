//! `schedtaskd` — the simulation-job server daemon.
//!
//! ```text
//! schedtaskd [--addr ENDPOINT] [--queue-capacity N] [--workers N]
//!            [--cache-dir DIR] [--chaos SPEC] [--read-timeout-ms N]
//!            [--drain-deadline-ms N] [--profile]
//! schedtaskd --router [--addr ENDPOINT] --worker ENDPOINT [--worker ...]
//!            [--read-timeout-ms N] [--profile]
//! ```
//!
//! Listens for JSON-line requests (see
//! `schedtask_experiments::serve_api`) on `--addr tcp://HOST:PORT`
//! (default `tcp://127.0.0.1:0`; the bound address is printed on
//! stdout) or `--addr unix:///PATH`.
//! One thread per connection (the transport is
//! `schedtask_serve::daemon`); `--workers` executors run admitted jobs,
//! each taking one job at a time from the shared queue. On SIGTERM,
//! SIGINT, or a `shutdown` request it closes the queue, drains the
//! backlog and flushes responses, then prints `schedtaskd: shut down
//! cleanly` and exits 0. If `--drain-deadline-ms` passes first, it
//! abandons the backlog and exits 1 without that line. With
//! `--profile`, the daemon's counter table is printed on exit.
//!
//! With `--router`, the daemon is a fleet router instead of a worker:
//! it consistent-hashes each job's cache key across the `--worker`
//! endpoints, forwards over the same wire protocol, and layers a
//! single-flight hot-key cache above the workers' own cache tiers. The
//! router refuses to start unless every worker speaks its protocol
//! version.
//!
//! Reliability knobs:
//!
//! * `--cache-dir DIR` — crash-safe persistent result cache; on
//!   restart, recovered records are served as byte-identical hits.
//! * `--read-timeout-ms N` — per-connection read deadline (slowloris
//!   defense): a peer that stalls mid-request is disconnected. `0`
//!   disables the deadline.
//! * `--chaos SPEC` — deterministic fault injection (`none`, `light`,
//!   `heavy`, optionally `@SEED`, or `key=value,...`); see
//!   `schedtask_serve::chaos`.

use std::io::Write;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use schedtask_experiments::serve_api::Endpoint;
use schedtask_serve::{
    serve, ChaosPlan, Daemon, Listener, Router, RouterConfig, ServeConfig, Server,
};

/// Set by the signal handler; the accept loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

// The offline build has no libc crate, but std always links the
// platform C library, so declare the one symbol the daemon needs.
#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

#[cfg(unix)]
extern "C" fn on_terminate(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_terminate);
        signal(SIGTERM, on_terminate);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

struct Opts {
    addr: Endpoint,
    router: bool,
    worker_endpoints: Vec<Endpoint>,
    cfg: ServeConfig,
    read_timeout_ms: u64,
    drain_deadline_ms: u64,
    profile: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("schedtaskd: {msg}");
    exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        addr: Endpoint::Tcp("127.0.0.1:0".to_owned()),
        router: false,
        worker_endpoints: Vec::new(),
        cfg: ServeConfig::default(),
        read_timeout_ms: 30_000,
        drain_deadline_ms: 5_000,
        profile: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => {
                opts.addr = value("--addr")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --addr: {e}")))
            }
            "--router" => opts.router = true,
            "--worker" => {
                let spec = value("--worker");
                let endpoint = spec
                    .parse::<Endpoint>()
                    .unwrap_or_else(|e| die(&format!("bad --worker: {e}")));
                opts.worker_endpoints.push(endpoint);
            }
            "--queue-capacity" => {
                opts.cfg.queue_capacity = value("--queue-capacity")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --queue-capacity: {e}")))
            }
            "--workers" => {
                opts.cfg.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --workers: {e}")))
            }
            "--cache-dir" => {
                opts.cfg.cache_dir = Some(std::path::PathBuf::from(value("--cache-dir")))
            }
            "--chaos" => {
                let spec = value("--chaos");
                let plan = ChaosPlan::parse(&spec, 0x5EED)
                    .unwrap_or_else(|e| die(&format!("bad --chaos: {e}")));
                opts.cfg.chaos = Some(plan);
            }
            "--read-timeout-ms" => {
                opts.read_timeout_ms = value("--read-timeout-ms")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --read-timeout-ms: {e}")))
            }
            "--drain-deadline-ms" => {
                opts.drain_deadline_ms = value("--drain-deadline-ms")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --drain-deadline-ms: {e}")))
            }
            "--profile" => opts.profile = true,
            "--help" | "-h" => {
                println!(
                    "usage: schedtaskd [--addr ENDPOINT] [--queue-capacity N] \
                     [--workers N] [--cache-dir DIR] [--chaos SPEC] \
                     [--read-timeout-ms N] [--drain-deadline-ms N] [--profile]\n\
                     \x20      schedtaskd --router [--addr ENDPOINT] --worker ENDPOINT \
                     [--worker ENDPOINT ...] [--read-timeout-ms N] [--profile]\n\
                     ENDPOINT is tcp://HOST:PORT or unix:///PATH."
                );
                exit(0);
            }
            other => die(&format!("unknown argument {other:?} (try --help)")),
        }
    }
    if opts.cfg.queue_capacity == 0 || opts.cfg.workers == 0 {
        die("--queue-capacity and --workers must be positive");
    }
    if opts.drain_deadline_ms == 0 {
        die("--drain-deadline-ms must be positive");
    }
    if opts.router && opts.worker_endpoints.is_empty() {
        die("--router needs at least one --worker ENDPOINT");
    }
    if !opts.router && !opts.worker_endpoints.is_empty() {
        die("--worker only makes sense with --router");
    }
    opts
}

fn main() {
    let opts = parse_args();
    install_signal_handlers();

    let listener = Listener::bind(&opts.addr).unwrap_or_else(|e| die(&e));
    match listener.endpoint().unwrap_or_else(|e| die(&e)) {
        Endpoint::Tcp(addr) => println!("schedtaskd listening on {addr}"),
        #[cfg(unix)]
        unix => println!("schedtaskd listening on {unix}"),
    }
    // The readiness line must be visible to a piping supervisor
    // immediately.
    let _ = std::io::stdout().flush();

    let daemon = if opts.router {
        let router =
            Router::new(RouterConfig::new(opts.worker_endpoints)).unwrap_or_else(|e| die(&e));
        println!(
            "schedtaskd: routing across {} worker(s)",
            router.worker_count()
        );
        let _ = std::io::stdout().flush();
        Daemon::Router(Arc::new(router))
    } else {
        let server = Server::try_new(opts.cfg)
            .unwrap_or_else(|e| die(&format!("cannot open cache dir: {e}")));
        if let Some(report) = server.recovery() {
            println!(
                "schedtaskd: recovered {} cache records ({} corrupt quarantined, {} torn tails truncated)",
                report.records, report.corrupt, report.truncated_tails
            );
            let _ = std::io::stdout().flush();
        }
        Daemon::Worker(Arc::new(server))
    };

    let drained = serve(
        daemon.clone(),
        listener,
        opts.read_timeout_ms,
        Duration::from_millis(opts.drain_deadline_ms),
        &SHUTDOWN,
    );
    if !drained {
        eprintln!(
            "schedtaskd: drain deadline ({} ms) exceeded; abandoning backlog",
            opts.drain_deadline_ms
        );
    }
    if opts.profile {
        let text = daemon.profile_text();
        if text.is_empty() {
            println!("schedtaskd: no activity recorded");
        } else {
            print!("{text}");
        }
    }
    // Only a full drain is a clean shutdown: a supervisor must be able
    // to tell abandoned jobs from finished ones.
    if !drained {
        exit(1);
    }
    println!("schedtaskd: shut down cleanly");
    exit(0);
}
