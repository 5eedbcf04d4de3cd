//! What a worker and a router share: the request front end, the
//! `ok` and error lines both send, and the transport — listening sockets,
//! newline framing, chaos-mangled response writes, and the
//! accept-and-drain loop. The two speak the same wire protocol, so one
//! [`serve`] hosts either. `schedtaskd` adds only argument parsing,
//! signals and its banner lines; the tests host whole fleets in one
//! process through [`Serving`].

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use schedtask_experiments::serve_api::{
    parse_request, Endpoint, JobSpec, RequestOp, Response, PROTOCOL_VERSION,
};
use schedtask_obs::render_counter_table;

use crate::cache::JobOutput;
use crate::chaos::ResponseAction;
use crate::router::Router;
use crate::server::Server;

/// Longest accepted request line; longer frames are discarded up to
/// the next newline and answered with an error, keeping the connection
/// alive for well-formed requests that follow.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What a daemon does with the requests [`handle_line`] hands on: a
/// worker runs jobs through its queue and cache tiers, a router
/// forwards them across its fleet.
pub(crate) trait Backend {
    /// Answers `line` without parsing it, when it can (the router's
    /// line index). The front end asks before it parses.
    fn answer_unparsed(&self, _line: &str) -> Option<String> {
        None
    }

    /// The `stats` response line.
    fn stats(&self, id: Option<String>) -> String;

    /// The response line to a run request that came in as `line`.
    fn run(&self, line: &str, id: Option<String>, spec: JobSpec, want_obs: bool) -> String;
}

/// The one request front end of both daemons: trims the line, answers a
/// blank line, a parse or version error, `ping` and `shutdown` itself,
/// and hands `stats` and `run` to `backend`. The flag is `true` when the
/// request asked the daemon to shut down.
pub(crate) fn handle_line(backend: &impl Backend, line: &str) -> (String, bool) {
    let line = line.trim();
    if line.is_empty() {
        return (error_line(None, "empty request"), false);
    }
    if let Some(response) = backend.answer_unparsed(line) {
        return (response, false);
    }
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(err) => {
            // Version skew is a structured error (code
            // "unsupported_version"), not a parse failure: the client
            // can tell "upgrade me" apart from "fix your request".
            let error = Response::Error {
                id: None,
                code: err.code().map(str::to_owned),
                error: err.to_string(),
            };
            return (error.render(), false);
        }
    };
    let response = match req.op {
        RequestOp::Ping => Response::Pong {
            id: req.id,
            proto: PROTOCOL_VERSION,
        }
        .render(),
        RequestOp::Stats => backend.stats(req.id),
        RequestOp::Shutdown => return (Response::ShuttingDown { id: req.id }.render(), true),
        RequestOp::Run(spec, want_obs) => backend.run(line, req.id, *spec, want_obs),
    };
    (response, false)
}

/// How a run's output was obtained, as its `ok` line reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Served {
    /// From a cache tier.
    Hit,
    /// By waiting on an identical request's run.
    Coalesced,
    /// By this request's own run.
    Fresh,
}

/// The `ok` line either daemon sends for a run answered with `out`,
/// `started` being when the request began.
pub(crate) fn ok_line(
    id: Option<String>,
    out: &JobOutput,
    served: Served,
    queue_depth: u64,
    started: Instant,
    jsonl: Option<String>,
) -> String {
    Response::Ok {
        id,
        cached: served == Served::Hit,
        coalesced: served == Served::Coalesced,
        key: out.key.clone(),
        queue_depth,
        latency_us: started.elapsed().as_micros() as u64,
        result: out.stats_json.clone(),
        jsonl,
    }
    .render()
}

/// The error line either daemon sends, with no machine-readable code.
pub(crate) fn error_line(id: Option<String>, error: &str) -> String {
    Response::Error {
        id,
        code: None,
        error: error.to_owned(),
    }
    .render()
}

/// What a daemon is: a worker executing jobs locally, or a router
/// fanning them out across a fleet.
#[derive(Clone)]
pub enum Daemon {
    /// A worker: admission queue, executors and cache tiers.
    Worker(Arc<Server>),
    /// A fleet router in front of workers.
    Router(Arc<Router>),
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

    /// The `--profile` report printed on shutdown: the daemon's
    /// counter table.
    pub fn profile_text(&self) -> String {
        let counters = match self {
            Daemon::Worker(s) => s.counters(),
            Daemon::Router(r) => r.counters(),
        };
        render_counter_table(&[("schedtaskd".to_owned(), counters)])
    }
}

/// A bound listening socket. It is non-blocking, so the accept loop
/// can poll its stop switch between connections.
pub struct Listener(TcpListener);

impl Listener {
    /// Binds `endpoint`.
    pub fn bind(endpoint: &Endpoint) -> Result<Listener, String> {
        let Endpoint::Tcp(addr) = endpoint;
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set non-blocking: {e}"))?;
        Ok(Listener(listener))
    }

    /// The endpoint clients dial, with a port 0 resolved to the port
    /// actually bound.
    pub fn endpoint(&self) -> Result<Endpoint, String> {
        self.0
            .local_addr()
            .map(|addr| Endpoint::Tcp(addr.to_string()))
            .map_err(|e| format!("cannot read bound address: {e}"))
    }

    /// Accepts one connection if one is pending.
    fn try_accept(&self) -> io::Result<Option<TcpStream>> {
        match self.0.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
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
    stream: TcpStream,
    buf: Vec<u8>,
    discarding: bool,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
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
                if self.discarding || line.len() > MAX_LINE_BYTES {
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
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return LineEvent::TimedOut
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return LineEvent::Closed,
            }
        }
    }
}

impl Drop for LineReader {
    /// The accept loop holds a second handle on the socket, so dropping
    /// this one alone would not close the connection.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
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
/// shutdown, which raises `shutdown`.
fn serve_connection(
    daemon: &Daemon,
    stream: TcpStream,
    read_timeout_ms: u64,
    shutdown: &AtomicBool,
) {
    let mut reader = LineReader::new(stream);
    if read_timeout_ms > 0
        && reader
            .stream
            .set_read_timeout(Some(Duration::from_millis(read_timeout_ms)))
            .is_err()
    {
        return;
    }
    loop {
        let (response, stop) = match reader.next_line() {
            LineEvent::Line(line) => daemon.handle_request_line(&line),
            // Malformed frame: error the request, keep the connection —
            // the next well-formed line still works.
            LineEvent::Oversized => (
                error_line(
                    None,
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                ),
                false,
            ),
            LineEvent::Closed | LineEvent::TimedOut => return,
        };
        if stop {
            // Raise the flag before attempting the write: a
            // chaos-dropped response must not lose the shutdown request.
            shutdown.store(true, Ordering::SeqCst);
        }
        if !write_response(&mut reader, daemon, &response) || stop {
            return;
        }
    }
}

/// One accepted connection: its thread, and a handle to close it.
struct Connection {
    thread: thread::JoinHandle<()>,
    socket: TcpStream,
}

/// Serves `daemon` on `listener`, one thread per connection, until
/// `stop` is raised or a client sends `shutdown`. A worker's
/// executors run for as long as the daemon does. A read deadline of
/// `read_timeout_ms` disconnects peers that stall mid-request; `0`
/// disables it.
///
/// Then it drains: a worker stops admitting and finishes its backlog,
/// and open connections finish their exchanges — but never for longer
/// than `drain_deadline`, so a stop cannot hang on a wedged job or a
/// stalled peer. Whatever is still open after that is closed, as the
/// process exiting would close it. Returns `false` when the deadline
/// cut a worker's backlog short.
pub fn serve(
    daemon: Daemon,
    listener: Listener,
    read_timeout_ms: u64,
    drain_deadline: Duration,
    stop: &AtomicBool,
) -> bool {
    let dispatcher = match &daemon {
        Daemon::Worker(server) => Some(server.spawn_dispatcher()),
        Daemon::Router(_) => None,
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut connections: Vec<Connection> = Vec::new();
    while !stop.load(Ordering::SeqCst) && !shutdown.load(Ordering::SeqCst) {
        // The loop keeps a second handle on each socket, to close
        // whatever is still open when the drain ends.
        let accepted = listener
            .try_accept()
            .and_then(|stream| stream.map(|s| Ok((s.try_clone()?, s))).transpose());
        match accepted {
            Ok(Some((socket, stream))) => {
                let daemon = daemon.clone();
                let shutdown = Arc::clone(&shutdown);
                let thread = thread::spawn(move || {
                    serve_connection(&daemon, stream, read_timeout_ms, &shutdown)
                });
                connections.push(Connection { thread, socket });
            }
            Ok(None) => thread::sleep(Duration::from_millis(25)),
            Err(e) => {
                eprintln!("schedtaskd: accept failed: {e}");
                thread::sleep(Duration::from_millis(25));
            }
        }
        connections.retain(|c| !c.thread.is_finished());
    }

    // The router has no local backlog; it only waits out its
    // connections.
    if let Daemon::Worker(server) = &daemon {
        server.close();
    }
    let drain_start = Instant::now();
    let dispatcher_done =
        |d: &Option<thread::JoinHandle<()>>| d.as_ref().is_none_or(|h| h.is_finished());
    while (!dispatcher_done(&dispatcher) || connections.iter().any(|c| !c.thread.is_finished()))
        && drain_start.elapsed() < drain_deadline
    {
        thread::sleep(Duration::from_millis(10));
    }
    for connection in &connections {
        let _ = connection.socket.shutdown(Shutdown::Both);
    }
    match dispatcher {
        Some(handle) if handle.is_finished() => {
            let _ = handle.join();
            true
        }
        Some(_) => false,
        None => true,
    }
}

/// A daemon served on a background thread, on an ephemeral loopback
/// TCP port with no read deadline: how the tests host workers and
/// routers in one process.
pub struct Serving {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<bool>,
}

impl Serving {
    /// Binds `tcp://127.0.0.1:0` and serves `daemon` there.
    pub fn start(daemon: Daemon) -> Result<Serving, String> {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_owned()))?;
        let endpoint = listener.endpoint()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = thread::spawn(move || serve(daemon, listener, 0, Duration::ZERO, &flag));
        Ok(Serving {
            endpoint,
            stop,
            thread,
        })
    }

    /// Where clients dial.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Stops the daemon at once, as SIGKILL would: the listener and
    /// every open connection close without a drain, and no response
    /// reaches a client any more. Unlike a killed process, a worker's
    /// executors keep running in the background until they have run
    /// every queued job and appended each result to the disk tier; a
    /// second [`DiskCache::open`](crate::DiskCache::open) of the same
    /// directory during one of those appends would truncate the record
    /// being written.
    pub fn kill(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("the accept loop does not panic");
    }
}
