//! `schedtaskd` — the simulation-job server daemon.
//!
//! ```text
//! schedtaskd [--addr ENDPOINT] [--queue-capacity N]
//!            [--batch-max N] [--workers N] [--cache-dir DIR]
//!            [--chaos SPEC] [--read-timeout-ms N]
//!            [--drain-deadline-ms N] [--profile]
//! schedtaskd --router [--addr ENDPOINT] --worker ENDPOINT [--worker ...]
//!            [--read-timeout-ms N] [--profile]
//! ```
//!
//! Listens for JSON-line requests (see
//! `schedtask_experiments::serve_api`) on `--addr tcp://HOST:PORT`
//! (default `tcp://127.0.0.1:0`; the bound address is printed on
//! stdout) or `--addr unix:///PATH`.
//! One thread per connection; a shared dispatcher executes admitted
//! jobs in batches. Exits cleanly — queue closed, backlog drained
//! (bounded by `--drain-deadline-ms`), responses flushed — on SIGTERM,
//! SIGINT, or a `shutdown` request. With `--profile`, the serve counter
//! and span tables are printed on exit.
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

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use schedtask_experiments::serve_api::Endpoint;
use schedtask_serve::{ChaosPlan, ResponseAction, Router, RouterConfig, ServeConfig, Server};

/// Set by the signal handler and the `shutdown` request; the accept
/// loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Longest accepted request line; longer frames are discarded up to
/// the next newline and answered with an error, keeping the connection
/// alive for well-formed requests that follow.
const MAX_LINE_BYTES: usize = 1 << 20;

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
            "--batch-max" => {
                opts.cfg.batch_max = value("--batch-max")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --batch-max: {e}")))
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
                     [--batch-max N] [--workers N] [--cache-dir DIR] [--chaos SPEC] \
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
    if opts.cfg.queue_capacity == 0 || opts.cfg.batch_max == 0 || opts.cfg.workers == 0 {
        die("--queue-capacity, --batch-max, and --workers must be positive");
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

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Accepts one connection if one is pending; the listener is in
    /// non-blocking mode so the accept loop can poll the shutdown flag.
    fn try_accept(&self) -> std::io::Result<Option<Box<dyn Conn>>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_nodelay(true)?;
                    Ok(Some(Box::new(stream)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            Listener::Unix(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    Ok(Some(Box::new(stream)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

trait Conn: Read + Write + Send {
    /// Arms the per-connection read deadline.
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, dur)
    }
}

/// What one attempt to read a request line produced.
enum LineEvent {
    /// A complete line (newline stripped).
    Line(String),
    /// A frame longer than [`MAX_LINE_BYTES`]; the excess was discarded
    /// up to the next newline, the connection stays usable.
    Oversized,
    /// Peer hung up (or errored) — close the connection.
    Closed,
    /// The read deadline elapsed mid-request — slowloris; close.
    TimedOut,
}

/// Newline-framed reader over a raw stream. `BufRead::read_line` is
/// unreliable under read timeouts (a timeout mid-line loses the
/// partial data), so this keeps its own carry-over buffer: bytes read
/// past one newline are retained for the next request (pipelining).
struct LineReader {
    stream: Box<dyn Conn>,
    buf: Vec<u8>,
    discarding: bool,
}

impl LineReader {
    fn new(stream: Box<dyn Conn>) -> LineReader {
        LineReader {
            stream,
            buf: Vec::with_capacity(4096),
            discarding: false,
        }
    }

    fn next_line(&mut self) -> LineEvent {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                if self.discarding {
                    self.discarding = false;
                    return LineEvent::Oversized;
                }
                return LineEvent::Line(String::from_utf8_lossy(&line).into_owned());
            }
            if self.buf.len() > MAX_LINE_BYTES {
                // Too long without a newline: drop what we have and
                // keep discarding until the frame ends.
                self.buf.clear();
                self.discarding = true;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return LineEvent::Closed,
                Ok(n) => {
                    if !self.discarding {
                        self.buf.extend_from_slice(&chunk[..n]);
                    } else if let Some(pos) = chunk[..n].iter().position(|&b| b == b'\n') {
                        self.buf.extend_from_slice(&chunk[pos + 1..n]);
                        self.discarding = false;
                        return LineEvent::Oversized;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return LineEvent::TimedOut
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return LineEvent::Closed,
            }
        }
    }
}

/// What this process is: a worker executing jobs locally, or a router
/// fanning them out across a fleet. Both speak the same wire protocol,
/// so the connection plumbing below is shared.
enum Daemon {
    Worker(Box<Server>),
    Router(Box<Router>),
}

impl Daemon {
    fn handle_request_line(&self, line: &str) -> (String, bool) {
        match self {
            Daemon::Worker(s) => s.handle_request_line(line),
            Daemon::Router(r) => r.handle_request_line(line),
        }
    }

    /// Chaos applies to worker responses only; the router always
    /// answers faithfully (inject chaos at the workers instead).
    fn response_action(&self, response_len: usize) -> ResponseAction {
        match self {
            Daemon::Worker(s) => s.chaos_response_action(response_len),
            Daemon::Router(_) => ResponseAction::Normal,
        }
    }

    fn profile_text(&self) -> String {
        match self {
            Daemon::Worker(s) => s.profile_text(),
            Daemon::Router(r) => r.profile_text(),
        }
    }
}

/// Writes one response line, letting the chaos plan delay, truncate,
/// or drop it. Returns `false` when the connection must close.
fn write_response(reader: &mut LineReader, daemon: &Daemon, response: &str) -> bool {
    let mut line = String::with_capacity(response.len() + 1);
    line.push_str(response);
    line.push('\n');
    match daemon.response_action(line.len()) {
        ResponseAction::Normal => {}
        ResponseAction::Delay(ms) => thread::sleep(Duration::from_millis(ms)),
        ResponseAction::Truncate(n) => {
            let cut = n.min(line.len());
            let _ = reader
                .stream
                .write_all(&line.as_bytes()[..cut])
                .and_then(|()| reader.stream.flush());
            return false;
        }
        ResponseAction::Drop => return false,
    }
    reader
        .stream
        .write_all(line.as_bytes())
        .and_then(|()| reader.stream.flush())
        .is_ok()
}

/// Serves one connection: one request line in, one response line out,
/// until the peer hangs up, stalls past the read deadline, or asks for
/// shutdown.
fn serve_connection(daemon: &Daemon, stream: Box<dyn Conn>, read_timeout_ms: u64) {
    if read_timeout_ms > 0
        && stream
            .set_read_timeout(Some(Duration::from_millis(read_timeout_ms)))
            .is_err()
    {
        return;
    }
    let mut reader = LineReader::new(stream);
    loop {
        let line = match reader.next_line() {
            LineEvent::Line(line) => line,
            LineEvent::Oversized => {
                // Malformed frame: error the request, keep the
                // connection — the next well-formed line still works.
                let resp = format!(
                    "{{\"status\":\"error\",\"error\":\"request line exceeds {MAX_LINE_BYTES} bytes\"}}"
                );
                if !write_response(&mut reader, daemon, &resp) {
                    return;
                }
                continue;
            }
            LineEvent::Closed | LineEvent::TimedOut => return,
        };
        let (response, shutdown) = daemon.handle_request_line(&line);
        if shutdown {
            // Set the flag before attempting the write: a chaos-dropped
            // response must not lose the shutdown request.
            SHUTDOWN.store(true, Ordering::SeqCst);
        }
        if !write_response(&mut reader, daemon, &response) || shutdown {
            return;
        }
    }
}

/// True when a live daemon answers on the Unix socket at `path`.
#[cfg(unix)]
fn unix_socket_is_live(path: &str) -> bool {
    UnixStream::connect(path).is_ok()
}

fn main() {
    let opts = parse_args();
    install_signal_handlers();

    let listener = match &opts.addr {
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            // A stale socket file from a previous run blocks bind —
            // but only delete it after probing: if a live daemon still
            // answers on it, deleting would silently orphan that
            // daemon and steal its clients.
            if std::fs::metadata(path).is_ok() {
                if unix_socket_is_live(path) {
                    die(&format!(
                        "refusing to remove {path}: a live daemon is answering on it"
                    ));
                }
                let _ = std::fs::remove_file(path);
            }
            let l = UnixListener::bind(path)
                .unwrap_or_else(|e| die(&format!("cannot bind unix socket {path}: {e}")));
            l.set_nonblocking(true)
                .unwrap_or_else(|e| die(&format!("cannot set non-blocking: {e}")));
            println!("schedtaskd listening on {}", opts.addr);
            Listener::Unix(l)
        }
        Endpoint::Tcp(listen) => {
            let l = TcpListener::bind(listen)
                .unwrap_or_else(|e| die(&format!("cannot bind {listen}: {e}")));
            l.set_nonblocking(true)
                .unwrap_or_else(|e| die(&format!("cannot set non-blocking: {e}")));
            let addr = l
                .local_addr()
                .unwrap_or_else(|e| die(&format!("cannot read bound address: {e}")));
            println!("schedtaskd listening on {addr}");
            Listener::Tcp(l)
        }
    };
    // The readiness line must be visible to a piping supervisor
    // immediately.
    let _ = std::io::stdout().flush();

    let read_timeout_ms = opts.read_timeout_ms;
    let daemon = if opts.router {
        let router = Router::new(RouterConfig::new(opts.worker_endpoints.clone()))
            .unwrap_or_else(|e| die(&e));
        println!(
            "schedtaskd: routing across {} worker(s)",
            router.worker_count()
        );
        let _ = std::io::stdout().flush();
        Arc::new(Daemon::Router(Box::new(router)))
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
        Arc::new(Daemon::Worker(Box::new(server)))
    };
    let dispatcher = match daemon.as_ref() {
        Daemon::Worker(_) => {
            let daemon = Arc::clone(&daemon);
            Some(thread::spawn(move || {
                if let Daemon::Worker(server) = daemon.as_ref() {
                    server.run_dispatcher();
                }
            }))
        }
        Daemon::Router(_) => None,
    };

    let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        match listener.try_accept() {
            Ok(Some(stream)) => {
                let daemon = Arc::clone(&daemon);
                connections.push(thread::spawn(move || {
                    serve_connection(&daemon, stream, read_timeout_ms)
                }));
            }
            Ok(None) => thread::sleep(Duration::from_millis(25)),
            Err(e) => {
                eprintln!("schedtaskd: accept failed: {e}");
                thread::sleep(Duration::from_millis(25));
            }
        }
        connections.retain(|handle| !handle.is_finished());
    }

    // Clean shutdown: stop admitting, drain the backlog and in-flight
    // responses — but never for longer than the drain deadline, so a
    // SIGTERM cannot hang on a wedged batch or a stalled peer. The
    // router has no local backlog; it only waits out its connections.
    if let Daemon::Worker(server) = daemon.as_ref() {
        server.close();
    }
    let drain_start = Instant::now();
    let deadline = Duration::from_millis(opts.drain_deadline_ms);
    let dispatcher_done =
        |d: &Option<thread::JoinHandle<()>>| d.as_ref().is_none_or(|h| h.is_finished());
    while (!dispatcher_done(&dispatcher) || connections.iter().any(|h| !h.is_finished()))
        && drain_start.elapsed() < deadline
    {
        thread::sleep(Duration::from_millis(10));
    }
    match dispatcher {
        Some(handle) if handle.is_finished() => {
            let _ = handle.join();
        }
        Some(_) => {
            eprintln!(
                "schedtaskd: drain deadline ({} ms) exceeded; abandoning backlog",
                opts.drain_deadline_ms
            );
        }
        None => {}
    }
    #[cfg(unix)]
    if let Endpoint::Unix(path) = &opts.addr {
        let _ = std::fs::remove_file(path);
    }
    if opts.profile {
        let text = daemon.profile_text();
        if text.is_empty() {
            println!("schedtaskd: no activity recorded");
        } else {
            print!("{text}");
        }
    }
    println!("schedtaskd: shut down cleanly");
    exit(0);
}
