//! `schedtaskd` — the simulation-job server daemon.
//!
//! ```text
//! schedtaskd [--addr ENDPOINT] [--queue-capacity N] [--workers N]
//!            [--cache-dir DIR] [--chaos SPEC] [--read-timeout-ms N]
//!            [--drain-deadline-ms N] [--profile]
//! schedtaskd --router [--addr ENDPOINT] --worker ENDPOINT [--worker ...]
//!            [--read-timeout-ms N] [--drain-deadline-ms N] [--profile]
//! ```
//!
//! Listens for JSON-line requests (see
//! `schedtask_experiments::serve_api`) over TCP on `--addr
//! tcp://HOST:PORT` (default `tcp://127.0.0.1:0`; the bound address is
//! printed on stdout). One thread per connection (the transport is
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
//! version. It takes none of the flags only a worker reads
//! (`--queue-capacity`, `--workers`, `--cache-dir`, `--chaos`): each
//! exits 2 naming the flag, as `--worker` does without `--router`.
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
use std::sync::Arc;
use std::time::Duration;

use schedtask_experiments::serve_api::Endpoint;
use schedtask_serve::daemon::StopHandle;
use schedtask_serve::{
    serve, ChaosPlan, Daemon, Listener, Router, RouterConfig, ServeConfig, Server,
};

// SIGINT and SIGTERM never interrupt a thread: `main` blocks both before
// any thread starts, so every thread inherits the mask, and one thread
// of their own takes the first that arrives with `sigwait` and raises
// the listener's stop handle. The offline build has no libc crate, but
// std always links the platform C library, so the four functions this
// calls are declared here.
#[cfg(unix)]
mod signals {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const SIG_BLOCK: i32 = 0;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const SIG_BLOCK: i32 = 1;

    /// Room for any platform's `sigset_t` (glibc's, at 128 bytes, is the
    /// largest); `sigemptyset` writes the platform's own layout into it.
    #[repr(C, align(8))]
    struct SigSet([u8; 128]);

    extern "C" {
        fn sigemptyset(set: *mut SigSet) -> i32;
        fn sigaddset(set: *mut SigSet, signum: i32) -> i32;
        fn pthread_sigmask(how: i32, set: *const SigSet, old: *mut SigSet) -> i32;
        fn sigwait(set: *const SigSet, signum: *mut i32) -> i32;
    }

    /// The set {SIGINT, SIGTERM}.
    fn stop_signals() -> SigSet {
        let mut set = SigSet([0; 128]);
        // SAFETY: `set` is writable, and at least as large and as
        // aligned as the platform's `sigset_t`.
        let filled = unsafe {
            sigemptyset(&mut set) == 0
                && sigaddset(&mut set, SIGINT) == 0
                && sigaddset(&mut set, SIGTERM) == 0
        };
        assert!(filled, "SIGINT and SIGTERM are valid signal numbers");
        set
    }

    /// Blocks SIGINT and SIGTERM in the calling thread and in every
    /// thread it starts afterwards.
    pub fn block() -> Result<(), String> {
        let set = stop_signals();
        // SAFETY: `set` holds a `sigset_t` that `stop_signals` filled,
        // and a null old-mask pointer asks for no copy of the old mask.
        match unsafe { pthread_sigmask(SIG_BLOCK, &set, std::ptr::null_mut()) } {
            0 => Ok(()),
            err => Err(format!("cannot block SIGINT and SIGTERM: error {err}")),
        }
    }

    /// Waits until SIGINT or SIGTERM, blocked by [`block`], is pending,
    /// and takes it.
    pub fn wait() -> Result<(), String> {
        let set = stop_signals();
        let mut signum = 0;
        // SAFETY: `set` holds a `sigset_t` that `stop_signals` filled,
        // and `signum` is a writable `int`.
        match unsafe { sigwait(&set, &mut signum) } {
            0 => Ok(()),
            err => Err(format!("cannot wait for SIGINT or SIGTERM: error {err}")),
        }
    }
}

/// Starts the thread that raises `stop` on the first SIGINT or SIGTERM.
#[cfg(unix)]
fn stop_on_signal(stop: StopHandle) {
    std::thread::spawn(move || {
        signals::wait().unwrap_or_else(|e| die(&e));
        stop.stop();
    });
}

#[cfg(not(unix))]
fn stop_on_signal(_stop: StopHandle) {}

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
    // The first flag given that only a worker reads: a router refuses
    // it rather than ignore it.
    let mut worker_flag = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if ["--queue-capacity", "--workers", "--cache-dir", "--chaos"].contains(&arg.as_str()) {
            worker_flag.get_or_insert_with(|| arg.clone());
        }
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
                     [--worker ENDPOINT ...] [--read-timeout-ms N] \
                     [--drain-deadline-ms N] [--profile]\n\
                     ENDPOINT is tcp://HOST:PORT. --router refuses the worker flags\n\
                     --queue-capacity, --workers, --cache-dir and --chaos."
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
    if let Some(flag) = worker_flag.filter(|_| opts.router) {
        die(&format!("{flag} only makes sense without --router"));
    }
    opts
}

fn main() {
    #[cfg(unix)]
    signals::block().unwrap_or_else(|e| die(&e));
    let opts = parse_args();

    let listener = Listener::bind(&opts.addr).unwrap_or_else(|e| die(&e));
    stop_on_signal(listener.stop_handle());
    let Endpoint::Tcp(addr) = listener.endpoint().unwrap_or_else(|e| die(&e));
    println!("schedtaskd listening on {addr}");
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
