//! What a worker and a router share: the request front end, the
//! `ok` and error lines both send, and the transport — listening sockets,
//! newline framing, chaos-mangled response writes, and the
//! accept-and-drain loop. The two speak the same wire protocol, so one
//! [`serve`] hosts either. `schedtaskd` adds only argument parsing,
//! signals and its banner lines; the tests host whole fleets in one
//! process through [`Serving`].

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

/// How long a stop waits for its wake-up dial to connect. The dial
/// only fails to connect when the listener's backlog is full, and then
/// the accept loop is busy, not asleep: it re-checks the stop flag after
/// every accept and every accept error anyway.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// How long the accept loop backs off after a failed `accept`: an error
/// such as EMFILE persists until a connection closes, and retrying at
/// once would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A bound listening socket. It blocks: the accept loop sleeps in
/// `accept` until a client dials, and its [`StopHandle`] dials it to
/// wake the loop.
pub struct Listener {
    socket: TcpListener,
    stop: StopHandle,
}

impl Listener {
    /// Binds `endpoint`.
    pub fn bind(endpoint: &Endpoint) -> Result<Listener, String> {
        let Endpoint::Tcp(addr) = endpoint;
        let socket = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let mut wake = socket
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        // A wildcard address is not one a dial can reach; its loopback
        // is.
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let stopping = Arc::new(AtomicBool::new(false));
        Ok(Listener {
            socket,
            stop: StopHandle { stopping, wake },
        })
    }

    /// The endpoint clients dial, with a port 0 resolved to the port
    /// actually bound.
    pub fn endpoint(&self) -> Result<Endpoint, String> {
        self.socket
            .local_addr()
            .map(|addr| Endpoint::Tcp(addr.to_string()))
            .map_err(|e| format!("cannot read bound address: {e}"))
    }

    /// The handle that stops [`serve`] on this listener.
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Waits for the next connection, and returns it with a second
    /// handle on its socket for the drain to close.
    fn accept(&self) -> io::Result<(TcpStream, TcpStream)> {
        let (stream, _) = self.socket.accept()?;
        stream.set_nodelay(true)?;
        let socket = stream.try_clone()?;
        Ok((stream, socket))
    }
}

/// Stops the [`serve`] call on the [`Listener`] it was taken from; it is
/// the only way to stop one. `schedtaskd` raises it on SIGINT or
/// SIGTERM, a connection on a `shutdown` request, and
/// [`Serving::kill`] at once.
#[derive(Clone)]
pub struct StopHandle {
    stopping: Arc<AtomicBool>,
    /// What the wake-up dial connects to: the bound address, or its
    /// loopback when the listener is bound to a wildcard address.
    wake: SocketAddr,
}

impl StopHandle {
    /// Raises the stop flag and, the first time, dials the listener
    /// once, so an `accept` asleep on it returns and the loop sees the
    /// flag. It may be raised from any thread, any number of times,
    /// before or while `serve` runs.
    pub fn stop(&self) {
        if !self.stopping.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
        }
    }

    fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
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
    /// How many leading bytes of `buf` are known to hold no newline, so
    /// each byte is searched once however many reads a line takes.
    scanned: usize,
    discarding: bool,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
        LineReader {
            stream,
            buf: Vec::with_capacity(4096),
            scanned: 0,
            discarding: false,
        }
    }

    fn next_line(&mut self) -> LineEvent {
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(self.scanned + pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                self.scanned = 0;
                line.pop(); // the newline
                if self.discarding || line.len() > MAX_LINE_BYTES {
                    self.discarding = false;
                    return LineEvent::Oversized;
                }
                return LineEvent::Line(String::from_utf8_lossy(&line).into_owned());
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_LINE_BYTES {
                // Too long without a newline: drop what we have and
                // keep discarding until the frame ends.
                self.buf.clear();
                self.scanned = 0;
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
/// shutdown, which raises `stop`.
fn serve_connection(daemon: &Daemon, stream: TcpStream, read_timeout_ms: u64, stop: &StopHandle) {
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
        let (response, shutdown) = match reader.next_line() {
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
        let written = write_response(&mut reader, daemon, &response);
        if shutdown {
            // Raised after the write, so the drain cannot close the
            // connection before the acknowledgement is sent, and raised
            // whether or not it was: a chaos-dropped response must not
            // lose the shutdown request.
            stop.stop();
        }
        if !written || shutdown {
            return;
        }
    }
}

/// What a stopping [`serve`] drains: the open connections, each with a
/// second handle on its socket so the drain can close it, and whether a
/// worker's dispatcher still runs. Each connection thread, and the
/// thread that joins the dispatcher once the drain starts, signals
/// `ended` as it ends.
#[derive(Default)]
struct Live {
    state: Mutex<LiveState>,
    ended: Condvar,
}

#[derive(Default)]
struct LiveState {
    sockets: HashMap<u64, TcpStream>,
    opened: u64,
    dispatching: bool,
}

impl Live {
    /// Every update leaves the state whole, so a panic elsewhere while
    /// it was held does not make it wrong.
    fn lock(&self) -> MutexGuard<'_, LiveState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers an accepted connection by its socket's second handle.
    fn open(self: &Arc<Self>, socket: TcpStream) -> Open {
        let mut state = self.lock();
        let id = state.opened;
        state.opened += 1;
        state.sockets.insert(id, socket);
        Open {
            live: Arc::clone(self),
            id,
        }
    }

    /// Sleeps until every connection and the dispatcher have ended, or
    /// `deadline` has passed, then closes whatever is still open.
    fn drain(self: &Arc<Self>, dispatcher: Option<thread::JoinHandle<()>>, deadline: Duration) {
        // No connection reads another request: an idle one reads EOF
        // and ends at once, and one being answered still writes its
        // response, then ends at its next read.
        for socket in self.lock().sockets.values() {
            let _ = socket.shutdown(Shutdown::Read);
        }
        if let Some(dispatcher) = dispatcher {
            // A thread of its own joins the dispatcher, so the drain
            // sleeps on `ended` for it as for the connections.
            self.lock().dispatching = true;
            let live = Arc::clone(self);
            thread::spawn(move || {
                let _ = dispatcher.join();
                live.lock().dispatching = false;
                live.ended.notify_all();
            });
        }
        let (state, _) = self
            .ended
            .wait_timeout_while(self.lock(), deadline, |s| {
                s.dispatching || !s.sockets.is_empty()
            })
            .unwrap_or_else(PoisonError::into_inner);
        for socket in state.sockets.values() {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }
}

/// A connection's entry in [`Live`]. Its thread holds it, so it drops
/// as the connection ends, even by a panic: that releases the socket's
/// second handle and wakes the drain.
struct Open {
    live: Arc<Live>,
    id: u64,
}

impl Drop for Open {
    fn drop(&mut self) {
        self.live.lock().sockets.remove(&self.id);
        self.live.ended.notify_all();
    }
}

/// Serves `daemon` on `listener`, one thread per connection, until the
/// listener's [`StopHandle`] is raised: by its holder, or by a client's
/// `shutdown` request. The loop sleeps in `accept`, so a connection is
/// served the moment it arrives, and the handle's wake-up dial ends the
/// sleep; whatever is accepted once the flag is up, that dial included,
/// is closed unserved. A worker's executors run for as long as the
/// daemon does. A read deadline of `read_timeout_ms` disconnects peers
/// that stall mid-request; `0` disables it.
///
/// Then it drains: a worker stops admitting and finishes its backlog,
/// and open connections read no further request, so an idle one ends
/// at once and one being answered ends once its response is written.
/// The drain sleeps until the last of them ends — but never for longer
/// than `drain_deadline`, so a stop cannot hang on a wedged job or a
/// stalled peer. Whatever is still open after that is closed, as the
/// process exiting would close it. Returns `false` when the deadline
/// cut a worker's backlog short.
pub fn serve(
    daemon: Daemon,
    listener: Listener,
    read_timeout_ms: u64,
    drain_deadline: Duration,
) -> bool {
    let live = Arc::new(Live::default());
    let dispatcher = match &daemon {
        Daemon::Worker(server) => Some(server.spawn_dispatcher()),
        Daemon::Router(_) => None,
    };
    let stop = listener.stop_handle();
    while !stop.is_stopping() {
        match listener.accept() {
            Ok(_) if stop.is_stopping() => break,
            Ok((stream, socket)) => {
                let open = live.open(socket);
                let daemon = daemon.clone();
                let stop = stop.clone();
                thread::spawn(move || {
                    let _open = open;
                    serve_connection(&daemon, stream, read_timeout_ms, &stop);
                });
            }
            Err(e) => {
                eprintln!("schedtaskd: accept failed: {e}");
                thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }

    // The router has no local backlog; it only waits out its
    // connections.
    if let Daemon::Worker(server) = &daemon {
        server.close();
    }
    live.drain(dispatcher, drain_deadline);
    // Whether a job was abandoned, not whether the executors have
    // finished exiting: an idle one may still be on its way out when a
    // short deadline passes.
    match &daemon {
        Daemon::Worker(server) => server.backlog() == 0,
        Daemon::Router(_) => true,
    }
}

/// A daemon served on a background thread, on an ephemeral loopback
/// TCP port with no read deadline: how the tests host workers and
/// routers in one process.
pub struct Serving {
    endpoint: Endpoint,
    stop: StopHandle,
    thread: thread::JoinHandle<bool>,
}

impl Serving {
    /// Binds `tcp://127.0.0.1:0` and serves `daemon` there.
    pub fn start(daemon: Daemon) -> Result<Serving, String> {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_owned()))?;
        let endpoint = listener.endpoint()?;
        let stop = listener.stop_handle();
        let thread = thread::spawn(move || serve(daemon, listener, 0, Duration::ZERO));
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
        self.stop.stop();
        self.thread.join().expect("the accept loop does not panic");
    }
}
