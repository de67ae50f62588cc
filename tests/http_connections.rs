//! The HTTP front-end's connection behavior: timeout evictions driven by
//! a `ManualClock` (no sleeps deciding semantics — real time only orders
//! steps), slow-loris defense, the structural connection ≫ thread
//! decoupling, capacity rejection, graceful shutdown, and the
//! leader/followers serving core's isolation: a handler parked in the
//! backend stalls neither other connections nor the idle sweep, and a
//! handler panic closes only its own connection.
//!
//! The load-bearing test is [`connections_scale_far_beyond_worker_count`]:
//! with **one** serving thread, hundreds-to-thousands of concurrent
//! keep-alive connections are all served and all stay open. Under a
//! thread-per-connection architecture this deadlocks at the second
//! connection (the lone thread camps on the first keep-alive socket), so
//! the test is a structural proof that connection concurrency is not
//! coupled to `ServerConfig::workers`.

use ganc::core::coverage::CoverageKind;
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{ItemId, UserId};
use ganc::http::testing::GatedPeer;
use ganc::http::{
    BackendError, Frontend, HttpClient, HttpServer, PeerTransport, RouterNode, ServerConfig,
    ShardRoute,
};
use ganc::obs::{Clock, ManualClock, ObsHub, TraceData};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::serve::{EngineConfig, FitConfig, FittedModel, ModelBundle, ServeError, ServingEngine};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture_bundle() -> ModelBundle {
    let data = DatasetProfile::tiny().generate(7);
    let split = data.split_per_user(0.5, 3).unwrap();
    let theta = GeneralizedConfig::default().estimate(&split.train);
    let pop = MostPopular::fit(&split.train);
    let cfg = FitConfig {
        coverage: CoverageKind::Dynamic,
        sample_size: 12,
        ..FitConfig::new(5)
    };
    ModelBundle::fit(FittedModel::Pop(pop), theta, split.train, &cfg)
}

fn fixture_engine() -> Arc<ServingEngine> {
    Arc::new(ServingEngine::new(
        fixture_bundle(),
        EngineConfig::default(),
    ))
}

/// A one-band router whose only band is `peer`.
fn bind_router(peer: Arc<dyn PeerTransport>, cfg: ServerConfig) -> HttpServer {
    let router = RouterNode::new(
        Arc::clone(&fixture_bundle().theta),
        Vec::new(),
        vec![ShardRoute::Remote(peer)],
    );
    HttpServer::bind(Frontend::Router(Arc::new(router)), None, cfg, "127.0.0.1:0").unwrap()
}

fn bind(cfg: ServerConfig) -> HttpServer {
    HttpServer::bind(Frontend::Single(fixture_engine()), None, cfg, "127.0.0.1:0").unwrap()
}

fn manual_hub() -> (Arc<ManualClock>, Arc<ObsHub>) {
    let clock = Arc::new(ManualClock::new());
    let hub = ObsHub::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    (clock, hub)
}

/// Real time only *orders* steps (lets the server catch up); all
/// timeout semantics run on the `ManualClock`.
fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The value of the first rendered sample whose series starts with
/// `needle` (e.g. `name{label="x"}`), or 0.0 when absent.
fn sample(hub: &ObsHub, needle: &str) -> f64 {
    hub.metrics
        .render()
        .lines()
        .find(|l| l.starts_with(needle))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

const HEALTHZ: &[u8] = b"GET /v1/healthz HTTP/1.1\r\n\r\n";

/// Read one response off the wire; errors on EOF before a full response.
fn read_response(reader: &mut BufReader<&TcpStream>) -> std::io::Result<(u16, Vec<u8>)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("malformed status line")
        .parse()
        .expect("non-numeric status");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("bad content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// True once `stream` reaches EOF (the server closed it). Bounded by a
/// real-time read timeout so a missed eviction fails loudly, not by hang.
fn assert_server_closed(stream: &TcpStream, what: &str) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut scratch = [0u8; 64];
    loop {
        match (&*stream).read(&mut scratch) {
            Ok(0) => return,
            Ok(_) => continue, // stray bytes before the close
            Err(e) => panic!("expected server-side close for {what}, got {e}"),
        }
    }
}

/// An idle keep-alive connection is evicted exactly when the hub clock
/// crosses `read_timeout` — silently (no response bytes), counted under
/// `reason="idle"`, and visible as `conn_accept`/`conn_evict` trace
/// events.
#[test]
fn idle_keep_alive_connection_is_evicted_on_the_manual_clock() {
    let (clock, hub) = manual_hub();
    let cfg = ServerConfig {
        read_timeout: Duration::from_secs(5),
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = bind(cfg);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(&stream);
    (&stream).write_all(HEALTHZ).unwrap();
    let (status, body) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, b"{\"ok\":true,\"generation\":0}");

    // Served and now idle: the connection survives as long as the clock
    // stands still…
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        sample(&hub, "ganc_http_conn_evicted_total"),
        0.0,
        "a frozen clock must never evict"
    );

    // …and dies as soon as it crosses the progress timeout.
    clock.advance(Duration::from_secs(6));
    wait_until(
        || sample(&hub, "ganc_http_conn_evicted_total{reason=\"idle\"}") >= 1.0,
        "idle eviction counter",
    );
    assert_server_closed(&stream, "idle keep-alive eviction");

    let events = hub.trace.drain();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.data, TraceData::ConnAccept { .. })),
        "accept must leave a trace event"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.data, TraceData::ConnEvict { reason: "idle", .. })),
        "eviction must leave a typed trace event"
    );
}

/// A slow-loris peer trickling one header byte per window dodges the
/// progress timeout forever; `request_deadline` caps the request's total
/// read time and evicts it anyway (reason `deadline`, no response).
#[test]
fn slow_loris_trickle_is_evicted_at_the_request_deadline() {
    let (clock, hub) = manual_hub();
    let cfg = ServerConfig {
        read_timeout: Duration::from_secs(10),
        request_deadline: Duration::from_secs(30),
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = bind(cfg);
    let stream = TcpStream::connect(server.local_addr()).unwrap();

    // One byte every 8 hub-seconds: always under the 10s progress
    // timeout, never completing a head. The sleeps only let the event
    // loop consume each byte before the clock moves.
    for (i, byte) in [b'G', b'E', b'T'].into_iter().enumerate() {
        (&stream).write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        clock.advance(Duration::from_secs(8));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            sample(&hub, "ganc_http_conn_evicted_total"),
            0.0,
            "trickle at {}s is under both timeouts",
            (i + 1) * 8
        );
    }
    // Byte 4 at t=24s, then the clock passes the 30s total deadline.
    (&stream).write_all(b" ").unwrap();
    std::thread::sleep(Duration::from_millis(40));
    clock.advance(Duration::from_secs(8));
    wait_until(
        || sample(&hub, "ganc_http_conn_evicted_total{reason=\"deadline\"}") >= 1.0,
        "slow-loris deadline eviction",
    );
    assert_server_closed(&stream, "slow-loris eviction");
}

/// The deadline is not trigger-happy: a request whose head arrives in two
/// installments inside the deadline is served normally, and the
/// connection stays open for the next one.
#[test]
fn split_request_completing_within_deadline_is_served() {
    let (clock, hub) = manual_hub();
    let cfg = ServerConfig {
        read_timeout: Duration::from_secs(10),
        request_deadline: Duration::from_secs(30),
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = bind(cfg);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(&stream);

    let (first, rest) = HEALTHZ.split_at(9);
    (&stream).write_all(first).unwrap();
    std::thread::sleep(Duration::from_millis(40));
    clock.advance(Duration::from_secs(8));
    std::thread::sleep(Duration::from_millis(40));
    (&stream).write_all(rest).unwrap();
    let (status, _) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200);
    assert_eq!(sample(&hub, "ganc_http_conn_evicted_total"), 0.0);

    // Keep-alive: the same connection serves the next request whole.
    (&stream).write_all(HEALTHZ).unwrap();
    let (status, _) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200);
}

/// Structural decoupling proof: with a compute pool of ONE worker, far
/// more concurrent keep-alive connections than workers are all served —
/// twice, to prove they stay open concurrently — and the per-state
/// connection gauges account for every one of them. Scale defaults to
/// 1200 live connections and can be raised via `GANC_CONN_SCALE` (e.g.
/// 10000 where the fd limit allows ~2× that, client + server side).
#[test]
fn connections_scale_far_beyond_worker_count() {
    let n: usize = std::env::var("GANC_CONN_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1200);
    let hub = ObsHub::new();
    let cfg = ServerConfig {
        workers: 1,
        // Real clock: keep every timeout far away from the test's runtime.
        read_timeout: Duration::from_secs(3600),
        request_deadline: Duration::from_secs(3600),
        max_connections: n + 64,
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = bind(cfg);
    let addr = server.local_addr().to_string();

    let mut clients: Vec<HttpClient> = (0..n).map(|_| HttpClient::new(addr.clone())).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let resp = client.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(resp.status, 200, "connection {i} of {n}");
    }
    // Every connection is still open: the gauges see all N parked in
    // `reading`, none waiting on the lone worker.
    wait_until(
        || sample(&hub, "ganc_http_connections{state=\"reading\"}") >= n as f64,
        "all connections parked in reading state",
    );
    assert_eq!(sample(&hub, "ganc_http_conn_accepted_total"), n as f64);
    assert_eq!(sample(&hub, "ganc_http_conn_evicted_total"), 0.0);

    // Second pass over the *same* sockets: N concurrent keep-alive
    // connections served again through one worker. Under the old
    // worker-per-connection design this is where connection 2 starves.
    for (i, client) in clients.iter_mut().enumerate() {
        let resp = client.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(resp.status, 200, "second pass, connection {i}");
        assert_eq!(resp.body, b"{\"ok\":true,\"generation\":0}");
    }
}

/// Accepts beyond `max_connections` are closed immediately and accounted
/// as `capacity` evictions; established connections are unaffected.
#[test]
fn connections_beyond_capacity_are_rejected_not_queued() {
    let (_clock, hub) = manual_hub();
    let cfg = ServerConfig {
        max_connections: 2,
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = bind(cfg);

    let keep: Vec<TcpStream> = (0..2)
        .map(|_| {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            let mut reader = BufReader::new(&stream);
            (&stream).write_all(HEALTHZ).unwrap();
            assert_eq!(read_response(&mut reader).unwrap().0, 200);
            stream
        })
        .collect();

    let overflow = TcpStream::connect(server.local_addr()).unwrap();
    wait_until(
        || sample(&hub, "ganc_http_conn_evicted_total{reason=\"capacity\"}") >= 1.0,
        "capacity eviction",
    );
    assert_server_closed(&overflow, "capacity overflow");

    // The two established connections still serve.
    for stream in &keep {
        let mut reader = BufReader::new(stream);
        (&*stream).write_all(HEALTHZ).unwrap();
        assert_eq!(read_response(&mut reader).unwrap().0, 200);
    }
}

/// Graceful shutdown closes idle keep-alive connections (traced as
/// `shutdown` evictions), stops accepting, and joins the event loop and
/// every worker — promptly, not at the drain cap.
#[test]
fn graceful_shutdown_closes_idle_connections_and_joins() {
    let (_clock, hub) = manual_hub();
    let cfg = ServerConfig {
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let mut server = bind(cfg);
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(&stream);
    (&stream).write_all(HEALTHZ).unwrap();
    assert_eq!(read_response(&mut reader).unwrap().0, 200);

    let begun = Instant::now();
    server.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(4),
        "an idle connection must not hold shutdown to the drain cap"
    );
    assert_server_closed(&stream, "shutdown drain");
    assert!(
        sample(&hub, "ganc_http_conn_evicted_total{reason=\"shutdown\"}") >= 1.0,
        "shutdown evictions are accounted"
    );
    assert!(
        TcpStream::connect(addr).map_or(true, |s| {
            let mut reader = BufReader::new(&s);
            (&s).write_all(HEALTHZ).ok();
            read_response(&mut reader).is_err()
        }),
        "a stopped server must not serve new connections"
    );
}

/// A thread parked in a slow handler holds only its own connection: with
/// two serving threads and connection A's recommend parked at a gate in
/// the backend, a connection opened afterwards is still accepted and
/// answered on `/v1/metrics` (which never touches the backend). Opening
/// the gate answers A with the bytes an ungated call gets.
#[test]
fn a_parked_request_does_not_stall_other_connections() {
    let engine = fixture_engine();
    let gated = GatedPeer::new(Arc::new(Frontend::Single(engine)) as Arc<dyn PeerTransport>);
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = bind_router(Arc::clone(&gated) as Arc<dyn PeerTransport>, cfg);
    let addr = server.local_addr();

    let parked = TcpStream::connect(addr).unwrap();
    (&parked)
        .write_all(b"GET /v1/recommend/3 HTTP/1.1\r\n\r\n")
        .unwrap();
    gated.wait_arrivals(1);

    let other = TcpStream::connect(addr).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&other)
        .write_all(b"GET /v1/metrics HTTP/1.1\r\n\r\n")
        .unwrap();
    let metrics = read_response(&mut BufReader::new(&other));
    // Open before asserting, so a failure cannot leave a thread parked.
    gated.open();
    let (status, body) = metrics.expect("a parked handler stalled a new connection");
    assert_eq!(status, 200);
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("ganc_http_connections"));

    parked
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, body) = read_response(&mut BufReader::new(&parked)).unwrap();
    assert_eq!(status, 200);
    let ungated = HttpClient::new(addr.to_string())
        .request("GET", "/v1/recommend/3", None)
        .unwrap();
    assert_eq!(ungated.status, 200);
    assert_eq!(
        body, ungated.body,
        "the parked answer equals an ungated one"
    );
}

/// Deadlines keep running while a handler is parked: after the serving
/// threads went to sleep on an empty table, an idle connection is still
/// evicted while another connection's request holds a thread. The
/// parked connection is owned, so it is exempt and answers once opened.
#[test]
fn an_idle_connection_is_evicted_while_a_handler_is_parked() {
    let (clock, hub) = manual_hub();
    let engine = fixture_engine();
    let gated = GatedPeer::new(Arc::new(Frontend::Single(engine)) as Arc<dyn PeerTransport>);
    let cfg = ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(5),
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = bind_router(Arc::clone(&gated) as Arc<dyn PeerTransport>, cfg);
    let addr = server.local_addr();
    // Let both threads find the table empty and wait without a timeout.
    std::thread::sleep(Duration::from_millis(100));

    // Each request follows its connect only after the accepting thread
    // is back in its wait, so the thread that woke serves it as well and
    // the other one stays asleep: the case the wake-up exists for.
    let settle = || std::thread::sleep(Duration::from_millis(20));
    let idle = TcpStream::connect(addr).unwrap();
    settle();
    (&idle).write_all(HEALTHZ).unwrap();
    let (status, _) = read_response(&mut BufReader::new(&idle)).unwrap();
    assert_eq!(status, 200);
    let parked = TcpStream::connect(addr).unwrap();
    settle();
    (&parked)
        .write_all(b"GET /v1/recommend/3 HTTP/1.1\r\n\r\n")
        .unwrap();
    gated.wait_arrivals(1);

    // Each poll moves the clock past `read_timeout` again: the thread
    // that served `idle` may stamp its progress after the client saw the
    // response, and that stamp must not keep it alive.
    let evicted = std::panic::catch_unwind(AssertUnwindSafe(|| {
        wait_until(
            || {
                clock.advance(Duration::from_secs(6));
                sample(&hub, "ganc_http_conn_evicted_total{reason=\"idle\"}") >= 1.0
            },
            "idle eviction while a handler is parked",
        )
    }));
    // Open before asserting, so a failure cannot leave a thread parked.
    gated.open();
    evicted.unwrap();
    assert_server_closed(&idle, "idle eviction beside a parked handler");

    parked
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, _) = read_response(&mut BufReader::new(&parked)).unwrap();
    assert_eq!(status, 200, "the owned connection is exempt from eviction");
}

/// A peer whose recommend calls panic: a handler bug, as the server
/// sees it.
struct PanickingPeer;

impl PeerTransport for PanickingPeer {
    fn label(&self) -> String {
        "panicking".to_string()
    }

    fn recommend_traced(&self, _: UserId) -> Result<(Arc<Vec<ItemId>>, u64), BackendError> {
        panic!("injected handler panic")
    }

    #[allow(clippy::type_complexity)]
    fn recommend_batch_traced(
        &self,
        _: &[UserId],
    ) -> Result<(Vec<Result<Arc<Vec<ItemId>>, ServeError>>, u64), BackendError> {
        panic!("injected handler panic")
    }

    fn ingest(&self, _: UserId, _: ItemId, _: f32) -> Result<(), BackendError> {
        Ok(())
    }

    fn generation(&self) -> Result<u64, BackendError> {
        Ok(0)
    }
}

/// A handler panic closes its own connection without a response, and
/// nothing else: the lone serving thread survives it and no connection
/// lock is poisoned, so the next connection is served.
#[test]
fn a_handler_panic_closes_only_its_connection() {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = bind_router(Arc::new(PanickingPeer), cfg);

    let doomed = TcpStream::connect(server.local_addr()).unwrap();
    doomed
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&doomed)
        .write_all(b"GET /v1/recommend/0 HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut answer = Vec::new();
    (&doomed)
        .read_to_end(&mut answer)
        .expect("the panicking request's connection is closed");
    assert!(answer.is_empty(), "a panicking handler answers nothing");

    let survivor = TcpStream::connect(server.local_addr()).unwrap();
    survivor
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&survivor).write_all(HEALTHZ).unwrap();
    let (status, _) = read_response(&mut BufReader::new(&survivor)).unwrap();
    assert_eq!(status, 200);
}
