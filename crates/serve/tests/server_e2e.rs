//! End-to-end tests over real TCP: the daemon's own transport
//! (`schedtask_serve::daemon`) serves a `Server`, and the `ServeClient`
//! from `serve_api` — or a raw socket, for framing — talks to it over
//! the wire.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use schedtask_experiments::serve_api::{
    result_payload, Endpoint, JobSpec, Json, Response, ServeClient,
};
use schedtask_experiments::Technique;
use schedtask_serve::daemon::MAX_LINE_BYTES;
use schedtask_serve::{serve, Daemon, Listener, ServeConfig, Server, Serving};
use schedtask_workload::BenchmarkKind;

/// The `host:port` a daemon's endpoint names.
fn tcp_addr(endpoint: &Endpoint) -> String {
    let Endpoint::Tcp(addr) = endpoint.clone();
    addr
}

/// Serves a fresh `Server` on an ephemeral TCP port.
fn start_worker(cfg: ServeConfig) -> (String, Serving) {
    let serving = Serving::start(Daemon::Worker(Arc::new(Server::new(cfg))))
        .expect("serve an ephemeral port");
    (tcp_addr(serving.endpoint()), serving)
}

#[test]
fn tcp_round_trip_caches_and_acknowledges_shutdown() {
    let (addr, serving) = start_worker(ServeConfig {
        queue_capacity: 8,
        workers: 2,
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect_tcp(&addr).expect("connect");
    assert!(client.ping().expect("ping"), "server answers ping");

    let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
    spec.params.cores = 2;
    spec.params.max_instructions = 50_000;
    spec.params.warmup_instructions = 10_000;
    let line = spec.to_request_line(Some("e2e"), false);
    let first = client.request_line(&line).expect("first run");
    let fj = Json::parse(&first).expect("first response parses");
    assert_eq!(
        fj.get("status").and_then(Json::as_str),
        Some("ok"),
        "{first}"
    );
    assert_eq!(fj.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(fj.get("id").and_then(Json::as_str), Some("e2e"));

    // A second connection sees a cache hit with identical result bytes.
    let mut client2 = ServeClient::connect_tcp(&addr).expect("connect again");
    let second = client2.request_line(&line).expect("second run");
    let sj = Json::parse(&second).expect("second response parses");
    assert_eq!(
        sj.get("cached").and_then(Json::as_bool),
        Some(true),
        "{second}"
    );
    assert_eq!(result_payload(&first), result_payload(&second));

    // Stats over the wire reflect one miss, one hit, one cached entry.
    let stats = client.request_line("{\"op\":\"stats\"}").expect("stats");
    let st = Json::parse(&stats).expect("stats parses");
    assert_eq!(
        st.get("cache_entries").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    let counters = st.get("counters").expect("counters object");
    assert_eq!(
        counters.get("serve_cache_hits").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        counters.get("serve_cache_misses").and_then(Json::as_u64),
        Some(1)
    );

    // The shutdown op is acknowledged before the connection closes.
    let bye = client2
        .request_line("{\"op\":\"shutdown\",\"id\":\"bye\"}")
        .expect("shutdown ack");
    assert!(bye.contains("\"shutting_down\":true"), "{bye}");

    serving.kill();
}

#[test]
fn oversized_frames_are_refused_and_pipelined_requests_answered_in_order() {
    let (addr, serving) = start_worker(ServeConfig::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut responses = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut out = stream;
    let mut next_response = || {
        let mut line = String::new();
        responses.read_line(&mut line).expect("read a response");
        Response::parse(line.trim_end()).expect("a protocol envelope")
    };
    let ping = |id: &str| format!("{{\"v\":1,\"op\":\"ping\",\"id\":\"{id}\"}}\n");
    let pong = |id: &str| Response::Pong {
        id: Some(id.to_owned()),
        proto: 1,
    };

    // A frame over the limit gets exactly one error response, and the
    // next line on the same connection is still served.
    let mut frame = vec![b'x'; MAX_LINE_BYTES + 10];
    frame.push(b'\n');
    frame.extend_from_slice(ping("after").as_bytes());
    out.write_all(&frame).expect("send the oversized frame");
    match next_response() {
        Response::Error { error, .. } => assert!(error.contains("exceeds"), "{error}"),
        other => panic!("expected an oversized-frame error, got {other:?}"),
    }
    assert_eq!(next_response(), pong("after"));

    // Two requests in one write get two responses, in order.
    out.write_all(format!("{}{}", ping("a"), ping("b")).as_bytes())
        .expect("send two requests at once");
    assert_eq!(next_response(), pong("a"));
    assert_eq!(next_response(), pong("b"));

    serving.kill();
}

#[test]
fn a_line_of_exactly_the_limit_is_a_request_and_one_byte_more_is_refused() {
    let (addr, serving) = start_worker(ServeConfig::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("send each write at once");
    let mut responses = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut out = stream;
    // A ping padded with blanks to `len` bytes, sent in small writes so
    // the daemon reads it in many pieces; the front end trims the blanks.
    let mut send_padded_ping = |len: usize| {
        let mut line = b"{\"v\":1,\"op\":\"ping\",\"id\":\"max\"}".to_vec();
        line.resize(len, b' ');
        line.push(b'\n');
        for piece in line.chunks(1000) {
            out.write_all(piece).expect("send a piece of the line");
        }
        let mut response = String::new();
        responses.read_line(&mut response).expect("read a response");
        Response::parse(response.trim_end()).expect("a protocol envelope")
    };

    assert_eq!(
        send_padded_ping(MAX_LINE_BYTES),
        Response::Pong {
            id: Some("max".to_owned()),
            proto: 1,
        }
    );
    match send_padded_ping(MAX_LINE_BYTES + 1) {
        Response::Error { error, .. } => assert!(error.contains("exceeds"), "{error}"),
        other => panic!("expected an oversized-frame error, got {other:?}"),
    }

    serving.kill();
}

#[test]
fn a_fresh_connection_is_answered_at_once() {
    let (addr, serving) = start_worker(ServeConfig::default());
    // Each sample dials a new connection and sends it one ping.
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let mut client = ServeClient::connect_tcp(&addr).expect("connect");
            assert!(client.ping().expect("ping"), "server answers ping");
            started.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median fresh-dial ping {median:?}; all: {round_trips:?}"
    );

    serving.kill();
}

#[test]
fn a_peer_that_stalls_mid_request_is_cut_off_at_the_read_deadline() {
    let listener =
        Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_owned())).expect("bind an ephemeral port");
    let addr = tcp_addr(&listener.endpoint().expect("the bound endpoint"));
    let daemon = Daemon::Worker(Arc::new(Server::new(ServeConfig::default())));
    let stop = listener.stop_handle();
    let serving = thread::spawn(move || serve(daemon, listener, 200, Duration::from_secs(2)));

    // Half a request, then silence: the daemon hangs up on its own.
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("arm the client's own deadline");
    stalled
        .write_all(b"{\"v\":1,\"op\":\"pi")
        .expect("send half a request");
    let sent = Instant::now();
    let mut buf = [0u8; 64];
    let n = stalled
        .read(&mut buf)
        .expect("the daemon closes the connection");
    let waited = sent.elapsed();
    assert_eq!(n, 0, "half a request gets no response");
    assert!(
        waited >= Duration::from_millis(150) && waited < Duration::from_secs(3),
        "closed after {waited:?}"
    );

    // The stall cost only its own connection.
    let mut client = ServeClient::connect_tcp(&addr).expect("connect again");
    assert!(
        client.ping().expect("ping"),
        "a second connection is served"
    );
    drop(client);

    stop.stop();
    assert!(
        serving.join().expect("the accept loop does not panic"),
        "an idle worker drains in full"
    );
}
