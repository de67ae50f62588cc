//! The HTTP server: an event-driven front-end over `std::net::TcpListener`
//! fronting a serving backend.
//!
//! ## Endpoints
//!
//! | method | path | body | answers |
//! |--------|------|------|---------|
//! | GET  | `/v1/recommend/{user}?n=K` | — | `{"user":u,"generation":g,"items":[...]}` (top-K prefix of the bundle's top-N) |
//! | POST | `/v1/recommend:batch` | `{"users":[...]}` | `{"generation":g,"results":[...]}` — one generation for the whole batch |
//! | POST | `/v1/ingest` | `{"user":u,"item":i,"rating":r,"key"?}` | `{"ok":true}` (keyed: + `"deduplicated"`) |
//! | POST | `/v1/ingest:batch` | `{"entries":[{"user","item","rating","key"?},...]}` | `{"results":[...]}` per entry |
//! | GET  | `/v1/healthz` | — | `{"ok":true,"generation":g}` |
//! | GET  | `/v1/stats` | — | generation, cache hit rate, shard map |
//! | GET  | `/v1/window` | — | `{"window":{...}}` transportable rolling-window summary |
//! | POST | `/admin/refit` | — | runs one refit pass and hot-swaps |
//!
//! Batches route through the backend's `recommend_batch_traced`, so a batch
//! is always served from exactly one bundle generation even while
//! `/admin/refit` swaps underneath it. Error responses are always JSON with
//! an `"error"` key; unknown ids additionally carry `unknown_user` /
//! `unknown_item` so a [`crate::RemoteShard`] can reconstruct the typed
//! error without parsing prose.
//!
//! ## Architecture: leader/followers over one poller
//!
//! Every one of the `ServerConfig::workers` serving threads runs the same
//! loop over one shared readiness poller ([`polling::Poller`], oneshot
//! delivery, one event per wait). The thread an event wakes owns that
//! source end to end: for the listener it accepts and re-arms; for a
//! connection it reads non-blockingly into the connection's buffer, frames
//! requests *incrementally* — a cheap gate (head terminator found +
//! `Content-Length` bytes buffered) decides when a request is complete,
//! and only then is the [`http1::read_request`] parser run over
//! the buffered bytes — and serves each complete request inline: route,
//! serialize, write the response straight to the socket. Pipelined
//! requests are served in a loop by the same thread. Framing behaviour and
//! response bytes are pinned by `tests/http_equivalence.rs` and
//! `tests/http_protocol.rs`.
//!
//! Oneshot delivery wakes exactly one thread per event and disarms the
//! source until its owner re-arms it, so a connection is never served by
//! two threads at once; its lock is held only by its owner (and, briefly,
//! by the chores below). Taking one event per wait leaves every other
//! ready connection on the poller for an idle thread, so a slow handler
//! delays only its own connection. A handler panic is caught inside the
//! connection lock: that connection closes unanswered, and the thread and
//! every lock survive.
//!
//! A thread never blocks on a slow peer — an `EWOULDBLOCK` parks the
//! unwritten tail on the connection, armed for write readiness, and
//! whichever thread that event wakes finishes the flush. Concurrent
//! connections are therefore bounded by file descriptors, not by
//! `workers`: 10k idle keep-alive connections cost one table entry each,
//! while `workers` sizes only how many requests are served at once.
//!
//! Before each wait a thread takes a turn at the chores — the deadline
//! sweep and the connection gauges — if no other thread is on them and a
//! poll tick (10 ms) has passed since the last turn, so serving a request
//! never pays for a walk over the connection table. The sweep only
//! `try_lock`s each connection; a held lock means a serving thread owns
//! it, which exempts it from eviction. A turn that leaves no connection
//! open lets its thread wait without a timeout; a thread about to serve
//! a connection wakes one such sleeper to keep the chores going.
//!
//! ## Connection state machine
//!
//! A connection no thread owns is `Reading` (buffering a request),
//! `Writing` (a response tail waits for write readiness), or `Draining`
//! (a fatal error was answered; discarding already-sent input so the
//! close doesn't RST the error response away). While a thread serves it,
//! it counts as `dispatched` in `ganc_http_connections{state}`. Framing
//! violations (torn heads, bad `Content-Length`, oversized bodies) answer
//! once and close — the stream cannot be re-synchronized. Well-framed but
//! invalid requests (bad JSON, unknown route, unknown ids) answer 400/404
//! and keep the connection, so a client burst survives its own mistakes.
//! `tests/http_protocol.rs` fuzzes exactly this contract.
//!
//! ## Timeouts
//!
//! All deadlines read the observability hub's clock, so tests drive them
//! with a `ManualClock` and zero sleeps. `read_timeout` is the *progress*
//! timeout: a connection that neither delivers nor accepts a byte for this
//! long is evicted (idle keep-alive reclaim). `request_deadline` caps a
//! single request's total head+body read time, so a slow-loris peer
//! trickling one byte per progress window is still evicted. Evictions
//! close silently (no response), bump `ganc_http_conn_evicted_total` and
//! leave a `conn_evict` trace event with the reason.

use crate::http1::{self, Limits, ReadOutcome, Request, StatusCode};
use crate::router::RouterNode;
use crate::BackendError;
use ganc_dataset::{ItemId, UserId};
use ganc_obs::{Counter, Gauge, Histogram, ObsHub, TraceData, TraceEvent, WindowStats, WindowWire};
use ganc_serve::refit::{RefitController, RefitOutcome, Refitter};
use ganc_serve::{
    CadenceConfig, FitConfig, RequestOptions, RerankMode, ServeError, ServingEngine, ShardedEngine,
};
use polling::{Event, Poller};
use std::collections::HashMap;
use std::io::{self, Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tinyjson::{obj, Value};

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Serving threads. Each waits on the shared poller and serves the
    /// connection it is woken for end to end, so this bounds concurrent
    /// *request processing*, not concurrent connections — an idle
    /// keep-alive connection waits on the poller and costs no thread.
    pub workers: usize,
    /// Framing limits (oversized heads → 400, oversized bodies → 413).
    pub limits: Limits,
    /// Requests served per connection before the server closes it.
    pub keep_alive_requests: u32,
    /// Progress timeout: a connection that neither delivers nor accepts a
    /// byte for this long is evicted. For an idle keep-alive connection
    /// this is the reclaim timer; mid-request it bounds each stall.
    /// Deadlines read the observability hub's clock (`ManualClock`-driven
    /// in tests).
    pub read_timeout: Duration,
    /// Slow-loris cap: total time one request may spend being read (head +
    /// body, from its first byte to its last). A peer trickling a byte per
    /// `read_timeout` window dodges the progress timeout; it cannot dodge
    /// this one.
    pub request_deadline: Duration,
    /// Concurrent-connection ceiling. Accepts beyond it are closed
    /// immediately (counted + traced as `capacity` evictions) instead of
    /// queueing unboundedly toward fd exhaustion.
    pub max_connections: usize,
    /// Observability hub every request records into (metrics, trace ring,
    /// request-stage timing). `None` creates a fresh wall-clock hub at
    /// bind time; tests inject a `ManualClock` hub here to make timing and
    /// window expiry deterministic.
    pub obs: Option<Arc<ObsHub>>,
    /// Width of the rolling beyond-accuracy window `/v1/stats` and the
    /// `ganc_window_*` gauges report over.
    pub stats_window: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            // Track cores, not expected connections: idle connections
            // wait on the poller, not on a thread.
            workers: std::thread::available_parallelism().map_or(4, |p| p.get().clamp(2, 16)),
            limits: Limits::default(),
            keep_alive_requests: 100_000,
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(30),
            max_connections: 16_384,
            obs: None,
            stats_window: Duration::from_secs(300),
        }
    }
}

/// The engine a server fronts: single-node, in-process sharded, or a
/// multi-node router.
#[derive(Clone)]
pub enum Frontend {
    /// One [`ServingEngine`] over one bundle (or one θ-band slice — this is
    /// what a shard node runs).
    Single(Arc<ServingEngine>),
    /// An in-process [`ShardedEngine`] (router + all bands in one process).
    Sharded(Arc<ShardedEngine>),
    /// A [`RouterNode`] dispatching bands to local slices and remote peers.
    Router(Arc<RouterNode>),
}

impl Frontend {
    fn recommend_traced(&self, user: UserId) -> Result<(Arc<Vec<ItemId>>, u64), BackendError> {
        match self {
            Frontend::Single(e) => e.recommend_traced(user).map_err(BackendError::Serve),
            Frontend::Sharded(e) => e.recommend_traced(user).map_err(BackendError::Serve),
            Frontend::Router(r) => r.recommend_traced(user),
        }
    }

    #[allow(clippy::type_complexity)]
    fn recommend_batch_traced(
        &self,
        users: &[UserId],
    ) -> Result<(Vec<Result<Arc<Vec<ItemId>>, ServeError>>, u64), BackendError> {
        match self {
            Frontend::Single(e) => Ok(e.recommend_batch_traced(users)),
            Frontend::Sharded(e) => Ok(e.recommend_batch_traced(users)),
            Frontend::Router(r) => r.recommend_batch_traced(users),
        }
    }

    /// Override-carrying dispatch ([`RequestOptions`]). Default options
    /// delegate to the unmodified default path, so default traffic keeps
    /// its exact code path (cache included).
    fn recommend_with_traced(
        &self,
        user: UserId,
        opts: &RequestOptions,
    ) -> Result<(Arc<Vec<ItemId>>, u64), BackendError> {
        if opts.is_default() {
            return self.recommend_traced(user);
        }
        match self {
            Frontend::Single(e) => e
                .recommend_with_traced(user, opts)
                .map_err(BackendError::Serve),
            Frontend::Sharded(e) => e
                .recommend_with_traced(user, opts)
                .map_err(BackendError::Serve),
            Frontend::Router(r) => r.recommend_with_traced(user, opts),
        }
    }

    #[allow(clippy::type_complexity)]
    fn recommend_batch_with_traced(
        &self,
        users: &[UserId],
        opts: &RequestOptions,
    ) -> Result<(Vec<Result<Arc<Vec<ItemId>>, ServeError>>, u64), BackendError> {
        if opts.is_default() {
            return self.recommend_batch_traced(users);
        }
        match self {
            Frontend::Single(e) => Ok(e.recommend_batch_with_traced(users, opts)),
            Frontend::Sharded(e) => Ok(e.recommend_batch_with_traced(users, opts)),
            Frontend::Router(r) => r.recommend_batch_with_traced(users, opts),
        }
    }

    fn ingest(&self, user: UserId, item: ItemId, rating: f32) -> Result<(), BackendError> {
        match self {
            Frontend::Single(e) => e.ingest(user, item, rating).map_err(BackendError::Serve),
            Frontend::Sharded(e) => e.ingest(user, item, rating).map_err(BackendError::Serve),
            Frontend::Router(r) => r.ingest(user, item, rating),
        }
    }

    /// Keyed ingest: the sharded engine dedups through its WAL window
    /// (when a durable log is attached), the router fans the key out to
    /// every route. A single engine has no durable log — the key is
    /// accepted but not remembered, so exactly-once there relies on the
    /// upstream (router or replica set) dedup.
    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<ganc_serve::IngestAck, BackendError> {
        match self {
            Frontend::Single(e) => e
                .ingest(user, item, rating)
                .map(|()| ganc_serve::IngestAck::Applied)
                .map_err(BackendError::Serve),
            Frontend::Sharded(e) => e
                .ingest_keyed(key, user, item, rating)
                .map_err(BackendError::Serve),
            Frontend::Router(r) => r.ingest_keyed(key, user, item, rating),
        }
    }

    fn generation(&self) -> Result<u64, BackendError> {
        match self {
            Frontend::Single(e) => Ok(e.generation()),
            Frontend::Sharded(e) => Ok(e.generation()),
            Frontend::Router(r) => r.generation(),
        }
    }

    /// The backend's transportable rolling-window summary, when
    /// observability is attached: a single engine exports its own window,
    /// a sharded engine the exact cross-band fold. Routers answer `None` —
    /// they aggregate *remote* windows for their own stats and re-exporting
    /// that union upstream would double-count it.
    fn window_wire(&self) -> Option<WindowWire> {
        match self {
            Frontend::Single(e) => e.window_wire(),
            Frontend::Sharded(e) => e.window_wire(),
            Frontend::Router(_) => None,
        }
    }
}

/// Any in-process frontend can stand in as a peer: the loopback building
/// block the deterministic injection doubles in [`crate::testing`] wrap,
/// so fan-out and coalescing are provable without sockets.
impl crate::transport::PeerTransport for Frontend {
    fn label(&self) -> String {
        match self {
            Frontend::Single(_) => "in-process:single".to_string(),
            Frontend::Sharded(_) => "in-process:sharded".to_string(),
            Frontend::Router(_) => "in-process:router".to_string(),
        }
    }

    fn recommend_traced(&self, user: UserId) -> Result<(Arc<Vec<ItemId>>, u64), BackendError> {
        Frontend::recommend_traced(self, user)
    }

    fn recommend_batch_traced(
        &self,
        users: &[UserId],
    ) -> Result<(Vec<Result<Arc<Vec<ItemId>>, ServeError>>, u64), BackendError> {
        Frontend::recommend_batch_traced(self, users)
    }

    fn recommend_with_traced(
        &self,
        user: UserId,
        opts: &RequestOptions,
    ) -> Result<(Arc<Vec<ItemId>>, u64), BackendError> {
        Frontend::recommend_with_traced(self, user, opts)
    }

    fn recommend_batch_with_traced(
        &self,
        users: &[UserId],
        opts: &RequestOptions,
    ) -> Result<(Vec<Result<Arc<Vec<ItemId>>, ServeError>>, u64), BackendError> {
        Frontend::recommend_batch_with_traced(self, users, opts)
    }

    fn ingest(&self, user: UserId, item: ItemId, rating: f32) -> Result<(), BackendError> {
        Frontend::ingest(self, user, item, rating)
    }

    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<ganc_serve::IngestAck, BackendError> {
        Frontend::ingest_keyed(self, key, user, item, rating)
    }

    fn generation(&self) -> Result<u64, BackendError> {
        Frontend::generation(self)
    }

    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        Ok(Frontend::window_wire(self))
    }
}

/// Refit support for `POST /admin/refit`: the fitter and fit config one
/// pass runs with (the same pair a [`ganc_serve::RefitController`] is
/// spawned with).
#[derive(Clone)]
pub struct RefitHook {
    /// Refits the base model and θ from accumulated interactions.
    pub fitter: Arc<Refitter>,
    /// Bundle fit configuration for the refit.
    pub cfg: FitConfig,
    /// When set, the server spawns a background
    /// [`RefitController::spawn_adaptive`] with this cadence at bind time
    /// (sharded fronts only) — refits then happen on their own when enough
    /// interactions accumulate, instead of only on `POST /admin/refit`.
    /// The controller's liveness and refit count surface in `/v1/healthz`.
    pub cadence: Option<CadenceConfig>,
}

/// A running HTTP server; dropping it drains in-flight requests and joins
/// every serving thread.
pub struct HttpServer {
    addr: SocketAddr,
    /// `None` once shut down: the last reference goes with the threads.
    core: Option<Arc<Core>>,
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `frontend`. `refit` enables `POST /admin/refit` (sharded fronts
    /// only — the refit path needs the ingest log the sharded engine
    /// keeps).
    pub fn bind(
        frontend: Frontend,
        refit: Option<RefitHook>,
        cfg: ServerConfig,
        addr: &str,
    ) -> io::Result<HttpServer> {
        let hub = cfg.obs.clone().unwrap_or_else(ObsHub::new);
        match &frontend {
            Frontend::Single(e) => e.attach_obs(Arc::clone(&hub), None, cfg.stats_window),
            Frontend::Sharded(e) => e.attach_obs(Arc::clone(&hub), cfg.stats_window),
            Frontend::Router(r) => r.attach_obs(Arc::clone(&hub), cfg.stats_window),
        }
        let controller = match &refit {
            Some(hook) if hook.cadence.is_some() => {
                let Frontend::Sharded(engine) = &frontend else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "adaptive refit cadence requires a sharded engine front",
                    ));
                };
                Some(RefitController::spawn_adaptive(
                    Arc::clone(engine),
                    Arc::clone(&hook.fitter),
                    hook.cfg,
                    hook.cadence.unwrap(),
                    Arc::clone(hub.clock()),
                ))
            }
            _ => None,
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.add(&listener, Event::readable(LISTENER_KEY))?;
        let http = HttpObs::new(&hub);
        // Replicated router bands get their background health-probe loops
        // here: probes restore ejected replicas and rotate primaries for
        // the server's whole lifetime (handles stop + join on App drop).
        let probes = match &frontend {
            Frontend::Router(r) => r.spawn_probes(),
            _ => Vec::new(),
        };
        let app = App {
            frontend,
            refit,
            cfg: cfg.clone(),
            hub,
            http,
            controller,
            _probes: probes,
        };
        let core = Arc::new(Core::new(app, listener, poller));
        let threads = (0..cfg.workers.max(1))
            .map(|_| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || core.serve())
            })
            .collect();
        Ok(HttpServer {
            addr,
            core: Some(core),
            threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, close idle connections, let
    /// in-flight requests finish (bounded by a wall-clock cap), then join
    /// every serving thread and close the listener.
    pub fn shutdown(&mut self) {
        let Some(core) = self.core.take() else {
            return;
        };
        core.stop.store(true, Ordering::Relaxed);
        let _ = core.poller.notify();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Poller key reserved for the listener; connection keys start above it.
const LISTENER_KEY: usize = 0;
/// Bytes of already-sent input drained after a fatal-framing response, so
/// closing the socket doesn't RST the response away before the client
/// reads it (a 413'd client deserves to see its 413).
const FATAL_DRAIN_BYTES: usize = 1024 * 1024;
/// Per-`read(2)` scratch size on a serving thread.
const READ_CHUNK: usize = 16 * 1024;
/// Wall-clock cap on the graceful shutdown drain. Real time, not hub
/// time — a `ManualClock` never advances during shutdown.
const DRAIN_CAP: Duration = Duration::from_secs(5);
/// Poll tick: deadline checks observe a `ManualClock` advance within one
/// tick without any socket activity.
const POLL_TICK: Duration = Duration::from_millis(10);

/// What the owning thread does once a response flush completes.
#[derive(Clone, Copy)]
enum AfterWrite {
    /// Keep-alive: look for the next (possibly pipelined) request.
    Advance,
    /// Response said `Connection: close`.
    Close,
    /// A fatal-framing response: drain already-sent input, then close.
    Drain,
}

/// Per-connection state while no thread owns the connection: what its
/// armed readiness event is for.
enum ConnState {
    Reading,
    Writing {
        buf: Vec<u8>,
        pos: usize,
        then: AfterWrite,
    },
    Draining {
        budget: usize,
    },
}

impl ConnState {
    fn tag(&self) -> usize {
        match self {
            ConnState::Reading => 0,
            ConnState::Writing { .. } => 2,
            ConnState::Draining { .. } => 3,
        }
    }
}

/// Gauge labels, indexed by [`ConnState::tag`]; index 1 counts the
/// connections a serving thread owns (their lock is held).
const STATE_LABELS: [&str; 4] = ["reading", "dispatched", "writing", "draining"];
const OWNED: usize = 1;

struct Conn {
    stream: TcpStream,
    /// Buffered unparsed input.
    buf: Vec<u8>,
    /// Peer half-closed its write side; whatever is buffered is the whole
    /// request stream.
    eof: bool,
    state: ConnState,
    served: u32,
    /// Hub-clock μs of the last byte moved in either direction.
    last_progress_us: u64,
    /// Hub-clock μs the currently-buffering request's first byte arrived
    /// (`None` between requests) — the slow-loris deadline anchor.
    request_start_us: Option<u64>,
    /// Removed from the table (evicted between its readiness event and
    /// the woken thread taking the lock): nothing more to do.
    closed: bool,
}

/// What the incremental framing gate decided about a connection's buffer.
enum Gate {
    /// Not enough bytes yet to hold one complete request.
    NeedMore,
    /// One complete request, consuming this many buffered bytes.
    Request(Box<Request>, usize, u64),
    /// Framing violation: answer once, then drain + close.
    Fatal { status: u16, message: &'static str },
    /// Clean end of stream between requests.
    Closed,
}

/// What every serving thread shares: the backend, the listener, the one
/// poller, and the connection table.
struct Core {
    app: App,
    listener: TcpListener,
    poller: Poller,
    /// Open connections by poller key. A thread serving a connection holds
    /// its lock; nobody blocks on a connection lock while holding this one.
    conns: Mutex<HashMap<usize, Arc<Mutex<Conn>>>>,
    next_key: AtomicUsize,
    /// Held by the one thread sweeping deadlines and publishing gauges
    /// (the others skip those chores); the wall-clock time of the last
    /// turn, so they run at most once per [`POLL_TICK`].
    chores: Mutex<Instant>,
    /// Threads waiting without a timeout because their chores turn found
    /// no connection open. A thread about to serve a connection wakes
    /// one, so the chores never wait on sleepers while every awake thread
    /// is inside a handler.
    sleepers: AtomicUsize,
    stop: AtomicBool,
    /// Wall-clock end of the shutdown drain, set by the first thread to
    /// see `stop`.
    drain_deadline: OnceLock<Instant>,
    gauges: [Arc<Gauge>; 4],
    accepted: Arc<Counter>,
}

impl Core {
    fn new(app: App, listener: TcpListener, poller: Poller) -> Core {
        let gauges = STATE_LABELS.map(|state| {
            app.hub.metrics.gauge(
                "ganc_http_connections",
                "Open HTTP connections by state-machine state",
                &[("state", state)],
            )
        });
        let accepted = app.hub.metrics.counter(
            "ganc_http_conn_accepted_total",
            "Connections accepted by the server",
            &[],
        );
        Core {
            app,
            listener,
            poller,
            conns: Mutex::new(HashMap::new()),
            next_key: AtomicUsize::new(LISTENER_KEY),
            chores: Mutex::new(Instant::now()),
            sleepers: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            drain_deadline: OnceLock::new(),
            gauges,
            accepted,
        }
    }

    fn table(&self) -> MutexGuard<'_, HashMap<usize, Arc<Mutex<Conn>>>> {
        self.conns
            .lock()
            .expect("no thread panics while holding the connection table")
    }

    /// One serving thread: take a turn at the chores when one is due,
    /// take one readiness event from the shared poller, serve its source
    /// end to end.
    /// One event per wait keeps a second ready connection on the poller
    /// for an idle thread instead of queueing it behind this one.
    fn serve(&self) {
        let mut events: Vec<Event> = Vec::with_capacity(1);
        loop {
            let stopping = self.stop.load(Ordering::Relaxed);
            if stopping && self.drain() {
                // One waiter drains the notify pipe: wake the next.
                let _ = self.poller.notify();
                return;
            }
            let timeout = if stopping {
                Some(Duration::from_millis(2))
            } else {
                self.chores()
            };
            events.clear();
            let _ = self.poller.wait(&mut events, timeout);
            if timeout.is_none() {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
            match events.first().map(|ev| ev.key) {
                Some(LISTENER_KEY) if !stopping => self.accept_ready(),
                Some(LISTENER_KEY) | None => {}
                Some(key) => {
                    if self.sleepers.load(Ordering::SeqCst) > 0 {
                        let _ = self.poller.notify();
                    }
                    self.conn_ready(key)
                }
            }
        }
    }

    /// Take a turn at the chores — the deadline sweep and the gauges —
    /// if no other thread is on them and a tick has passed since the last
    /// turn, and return how long this thread may then wait. A sweep that
    /// leaves no connection open lets the thread wait without a timeout:
    /// an empty table has no deadlines, and the thread that admits the
    /// next connection waits in ticks again.
    fn chores(&self) -> Option<Duration> {
        let Ok(mut last_turn) = self.chores.try_lock() else {
            return Some(POLL_TICK);
        };
        if last_turn.elapsed() < POLL_TICK {
            return Some(POLL_TICK);
        }
        *last_turn = Instant::now();
        // Counted before the sweep, so a thread serving a connection
        // admitted after it sees this one asleep.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let now = self.app.hub.now_us();
        let idle_us = self.app.cfg.read_timeout.as_micros() as u64;
        let deadline_us = self.app.cfg.request_deadline.as_micros() as u64;
        // Owned connections are exempt: a serving thread is on them.
        let open = self.sweep(|conn| {
            let conn = conn?;
            let mid_request =
                conn.request_start_us.is_some() || !matches!(conn.state, ConnState::Reading);
            if conn
                .request_start_us
                .is_some_and(|t0| now.saturating_sub(t0) >= deadline_us)
            {
                Some("deadline")
            } else if now.saturating_sub(conn.last_progress_us) >= idle_us {
                Some(if mid_request { "deadline" } else { "idle" })
            } else {
                None
            }
        });
        if open == 0 {
            return None;
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        Some(POLL_TICK)
    }

    /// One shutdown step: stop accepting, close every connection without a
    /// response in flight (owned ones finish their handler, `Writing` ones
    /// their flush), and once none are left — or the drain cap passed —
    /// close the rest. True when this thread may exit.
    fn drain(&self) -> bool {
        let deadline = *self.drain_deadline.get_or_init(|| {
            let _ = self.poller.delete(&self.listener);
            Instant::now() + DRAIN_CAP
        });
        let overdue = Instant::now() >= deadline;
        let _turn = self
            .chores
            .lock()
            .expect("a thread panicked during the chores");
        self.sweep(|conn| {
            let idle = conn.is_some_and(|c| {
                matches!(c.state, ConnState::Reading | ConnState::Draining { .. })
            });
            (idle || overdue).then_some("shutdown")
        }) == 0
    }

    /// Walk the connection table: evict every connection `reason` names a
    /// reason for, publish the per-state gauges over the rest, and return
    /// how many remain. Connections are only `try_lock`ed; a held lock
    /// means a serving thread owns the connection (`None` to `reason`).
    fn sweep(&self, reason: impl Fn(Option<&Conn>) -> Option<&'static str>) -> usize {
        let mut counts = [0u64; 4];
        let mut conns = self.table();
        conns.retain(|&key, conn| {
            let mut guard = conn.try_lock().ok();
            let Some(why) = reason(guard.as_deref()) else {
                counts[guard.map_or(OWNED, |c| c.state.tag())] += 1;
                return true;
            };
            // An owned connection (shutdown past the drain cap) is left
            // to its owner, whose last reference closes the socket.
            if let Some(conn) = guard.as_deref_mut() {
                conn.closed = true;
                let _ = self.poller.delete(&conn.stream);
            }
            self.evicted(key, why);
            false
        });
        let open = conns.len();
        drop(conns);
        for (gauge, count) in self.gauges.iter().zip(counts) {
            gauge.set(count as f64);
        }
        open
    }

    fn accept_ready(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (EMFILE, aborted handshake):
                // keep serving what's open.
                Err(_) => break,
            }
        }
        let _ = self
            .poller
            .modify(&self.listener, Event::readable(LISTENER_KEY));
    }

    fn admit(&self, stream: TcpStream) {
        let mut conns = self.table();
        let key = loop {
            let k = self
                .next_key
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_add(1);
            if k != LISTENER_KEY && k != usize::MAX && !conns.contains_key(&k) {
                break k;
            }
        };
        if conns.len() >= self.app.cfg.max_connections {
            drop(conns);
            // Immediate close beats an unbounded queue marching toward fd
            // exhaustion; the reject is observable.
            self.evicted(key, "capacity");
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        // Armed under the table lock, so the thread its first event wakes
        // finds the entry.
        if self.poller.add(&stream, Event::readable(key)).is_err() {
            return;
        }
        let now = self.app.hub.now_us();
        conns.insert(
            key,
            Arc::new(Mutex::new(Conn {
                stream,
                buf: Vec::new(),
                eof: false,
                state: ConnState::Reading,
                served: 0,
                last_progress_us: now,
                request_start_us: None,
                closed: false,
            })),
        );
        let open = conns.len() as u64;
        drop(conns);
        self.accepted.inc();
        self.app.hub.trace.record(
            now,
            TraceData::ConnAccept {
                conn: key as u64,
                open,
            },
        );
    }

    /// Serve a connection's readiness event. Oneshot delivery woke only
    /// this thread, and the connection stays disarmed until this thread
    /// re-arms it, so the lock is only ever contended by the chores.
    fn conn_ready(&self, key: usize) {
        let Some(conn) = self.table().get(&key).cloned() else {
            return; // closed since the event fired
        };
        let mut guard = conn
            .lock()
            .expect("handler panics are caught inside the connection lock");
        let conn = &mut *guard;
        if conn.closed {
            return;
        }
        // Error/hangup conditions arrive as readable+writable; the state
        // decides which direction this connection actually works in.
        match std::mem::replace(&mut conn.state, ConnState::Reading) {
            ConnState::Reading => self.read_ready(key, conn),
            ConnState::Writing { buf, pos, then } => {
                conn.last_progress_us = self.app.hub.now_us();
                if self.send(key, conn, buf, pos, then) {
                    self.after_write(key, conn, then);
                }
            }
            ConnState::Draining { budget } => self.drain_ready(key, conn, budget),
        }
    }

    fn read_ready(&self, key: usize, conn: &mut Conn) {
        let now = self.app.hub.now_us();
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    if conn.buf.is_empty() && conn.request_start_us.is_none() {
                        conn.request_start_us = Some(now);
                    }
                    conn.buf.extend_from_slice(&scratch[..n]);
                    conn.last_progress_us = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return self.close(key, conn),
            }
        }
        self.advance(key, conn);
    }

    /// Run the framing gate over a connection's buffer until it parks:
    /// serve each complete request inline (pipelined requests parse from
    /// the buffer without touching the socket), answer a framing
    /// violation, re-arm for more bytes, or close a finished stream.
    fn advance(&self, key: usize, conn: &mut Conn) {
        loop {
            match try_frame(&conn.buf, self.app.cfg.limits, conn.eof, &self.app.hub) {
                Gate::Closed => return self.close(key, conn),
                Gate::NeedMore => {
                    if conn.eof {
                        // Half-closed with a partial request: the parser
                        // over the final bytes yields the right fatal
                        // answer, and `try_frame` only reports NeedMore at
                        // eof for an empty buffer (handled as Closed).
                        return self.close(key, conn);
                    }
                    let _ = self.poller.modify(&conn.stream, Event::readable(key));
                    return;
                }
                Gate::Request(req, consumed, parse_us) => {
                    conn.buf.drain(..consumed);
                    let now = self.app.hub.now_us();
                    conn.request_start_us = if conn.buf.is_empty() { None } else { Some(now) };
                    conn.served += 1;
                    // A handler panic unwinds no further than this frame:
                    // the connection closes unanswered and its lock is
                    // never poisoned.
                    let sent = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        self.app
                            .respond(&req, conn.served, parse_us, &conn.stream, &self.stop)
                    }));
                    let Ok(Some((bytes, pos, keep_alive))) = sent else {
                        return self.close(key, conn);
                    };
                    conn.last_progress_us = self.app.hub.now_us();
                    let then = if keep_alive {
                        AfterWrite::Advance
                    } else {
                        AfterWrite::Close
                    };
                    if !self.send(key, conn, bytes, pos, then) {
                        return;
                    }
                    if !keep_alive {
                        return self.close(key, conn);
                    }
                }
                Gate::Fatal { status, message } => {
                    self.app.count_request("malformed", status);
                    let body = tinyjson::to_string(&obj! { "error" => message });
                    let mut bytes = Vec::new();
                    let _ = http1::write_response(&mut bytes, status, body.as_bytes(), false);
                    conn.buf.clear();
                    conn.request_start_us = None;
                    if self.send(key, conn, bytes, 0, AfterWrite::Drain) {
                        self.after_write(key, conn, AfterWrite::Drain);
                    }
                    return;
                }
            }
        }
    }

    /// Write `bytes[pos..]`; true once all of it is sent. A socket that
    /// would block parks the tail in `Writing`, armed for write readiness;
    /// a failed write closes the connection.
    fn send(
        &self,
        key: usize,
        conn: &mut Conn,
        bytes: Vec<u8>,
        pos: usize,
        then: AfterWrite,
    ) -> bool {
        match write_some(&conn.stream, &bytes, pos) {
            Ok(pos) if pos == bytes.len() => true,
            Ok(pos) => {
                conn.state = ConnState::Writing {
                    buf: bytes,
                    pos,
                    then,
                };
                let _ = self.poller.modify(&conn.stream, Event::writable(key));
                false
            }
            Err(_) => {
                self.close(key, conn);
                false
            }
        }
    }

    fn after_write(&self, key: usize, conn: &mut Conn, then: AfterWrite) {
        match then {
            AfterWrite::Advance => self.advance(key, conn),
            AfterWrite::Close => self.close(key, conn),
            AfterWrite::Drain => {
                if conn.eof {
                    // Nothing more can arrive; the response is flushed.
                    return self.close(key, conn);
                }
                conn.state = ConnState::Draining {
                    budget: FATAL_DRAIN_BYTES,
                };
                let _ = self.poller.modify(&conn.stream, Event::readable(key));
            }
        }
    }

    fn drain_ready(&self, key: usize, conn: &mut Conn, mut budget: usize) {
        let now = self.app.hub.now_us();
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => return self.close(key, conn),
                Ok(n) => {
                    conn.last_progress_us = now;
                    if budget <= n {
                        return self.close(key, conn);
                    }
                    budget -= n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.state = ConnState::Draining { budget };
                    let _ = self.poller.modify(&conn.stream, Event::readable(key));
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return self.close(key, conn),
            }
        }
    }

    /// Close a connection its owner is done with. The socket itself
    /// closes when the owner drops the last reference.
    fn close(&self, key: usize, conn: &mut Conn) {
        conn.closed = true;
        let _ = self.poller.delete(&conn.stream);
        self.table().remove(&key);
    }

    fn evicted(&self, key: usize, reason: &'static str) {
        self.app
            .hub
            .metrics
            .counter(
                "ganc_http_conn_evicted_total",
                "Connections evicted by the server, by reason",
                &[("reason", reason)],
            )
            .inc();
        self.app.hub.trace.record(
            self.app.hub.now_us(),
            TraceData::ConnEvict {
                conn: key as u64,
                reason,
            },
        );
    }
}

/// Write `bytes[pos..]` until done or the non-blocking socket would block;
/// the new position. An error (a zero-length write included) means the
/// connection is dead.
fn write_some(mut stream: &TcpStream, bytes: &[u8], mut pos: usize) -> io::Result<usize> {
    while pos < bytes.len() {
        match stream.write(&bytes[pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(pos)
}

/// The incremental framing gate: decide — without consuming anything —
/// whether `buf` holds one complete request, then run the unchanged
/// [`http1::read_request`] parser over it. The gate mirrors the parser's
/// `Content-Length` rules exactly; on any disagreement-shaped input
/// (malformed/duplicate/oversized lengths, transfer-encoding) it parses
/// immediately and lets the parser produce its canonical fatal answer.
fn try_frame(buf: &[u8], limits: Limits, eof: bool, hub: &ObsHub) -> Gate {
    if buf.is_empty() {
        return if eof { Gate::Closed } else { Gate::NeedMore };
    }
    if !eof {
        match head_end(buf) {
            None => {
                if buf.len() <= limits.max_head_bytes {
                    return Gate::NeedMore;
                }
                // Oversized head: parse now for the canonical 400.
            }
            Some(end) => {
                let hint = body_hint(&buf[..end], limits);
                if let Some(body_len) = hint {
                    if buf.len() < end + body_len {
                        return Gate::NeedMore;
                    }
                }
                // `None` hint: the head already violates framing — parse
                // now, the parser answers before ever reading a body byte.
            }
        }
    }
    let t0 = hub.now_us();
    let mut cursor = Cursor::new(buf);
    let outcome = http1::read_request(&mut cursor, limits);
    let parse_us = hub.now_us().saturating_sub(t0);
    match outcome {
        ReadOutcome::Request(req) => {
            Gate::Request(Box::new(req), cursor.position() as usize, parse_us)
        }
        ReadOutcome::Fatal { status, message } => Gate::Fatal { status, message },
        ReadOutcome::Disconnected => Gate::Closed,
    }
}

/// Byte offset just past the head terminator (the empty line), if the
/// buffer holds a complete head. Lines end in `\n` with an optional `\r`,
/// matching the parser's `read_line`.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        match buf[i] {
            b'\n' => {
                // A line just ended; an immediately following empty line
                // terminates the head.
                if buf.get(i + 1) == Some(&b'\n') {
                    return Some(i + 2);
                }
                if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                    return Some(i + 3);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// How many body bytes the head declares, mirroring the parser's
/// `Content-Length` rules. `Some(n)` = a well-formed declaration within
/// limits (0 when absent); `None` = the head already violates framing
/// (malformed/duplicate/oversized length, transfer-encoding) and should be
/// parsed immediately for its canonical fatal answer.
fn body_hint(head: &[u8], limits: Limits) -> Option<usize> {
    let mut declared: Option<usize> = None;
    for line in head.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let name = &line[..colon];
        if name.eq_ignore_ascii_case(b"transfer-encoding") {
            return None;
        }
        if !name.eq_ignore_ascii_case(b"content-length") {
            continue;
        }
        let value = std::str::from_utf8(&line[colon + 1..]).ok()?.trim();
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let len = value.parse::<u64>().ok()?;
        if len > limits.max_body_bytes as u64 || declared.replace(len as usize).is_some() {
            return None;
        }
    }
    Some(declared.unwrap_or(0))
}

/// Request-stage timing handles, resolved once at bind.
struct HttpObs {
    parse_us: Arc<Histogram>,
    dispatch_us: Arc<Histogram>,
    write_us: Arc<Histogram>,
}

impl HttpObs {
    fn new(hub: &ObsHub) -> HttpObs {
        let stage = |name| {
            hub.metrics.histogram(
                "ganc_http_stage_us",
                "HTTP request stage latency (microseconds)",
                &[("stage", name)],
            )
        };
        HttpObs {
            parse_us: stage("parse"),
            dispatch_us: stage("dispatch"),
            write_us: stage("write"),
        }
    }
}

/// How a routed request answers: JSON for the API, plain text for the
/// Prometheus exposition endpoint.
enum Reply {
    Json(u16, Value),
    Text(u16, String),
}

struct App {
    frontend: Frontend,
    refit: Option<RefitHook>,
    cfg: ServerConfig,
    hub: Arc<ObsHub>,
    http: HttpObs,
    /// Background adaptive-refit controller, when `RefitHook::cadence` was
    /// set. Held for the server's lifetime; dropping the last `App` clone
    /// joins its worker.
    controller: Option<RefitController>,
    /// Background health-probe loops, one per replicated router band.
    /// Held for the server's lifetime; dropping the last `App` clone stops
    /// and joins them.
    _probes: Vec<crate::replica::ProbeHandle>,
}

impl App {
    /// Serve one request on the thread that owns its connection: route,
    /// serialize, and write the response straight to the (non-blocking)
    /// socket. Returns the response bytes, how many were written before
    /// the socket would block, and whether the connection stays open;
    /// `None` when the write failed.
    fn respond(
        &self,
        req: &Request,
        served: u32,
        parse_us: u64,
        stream: &TcpStream,
        stop: &AtomicBool,
    ) -> Option<(Vec<u8>, usize, bool)> {
        let t_dispatch = self.hub.now_us();
        let (reply, endpoint) = self.route(req);
        let (status, content_type, body) = match reply {
            Reply::Json(status, value) => (status, "application/json", tinyjson::to_string(&value)),
            Reply::Text(status, text) => (status, "text/plain; version=0.0.4", text),
        };
        let t_write = self.hub.now_us();
        let keep_alive = req.keep_alive
            && served < self.cfg.keep_alive_requests
            && !stop.load(Ordering::Relaxed);
        let mut bytes = Vec::with_capacity(body.len() + 128);
        let _ = http1::write_response_with_type(
            &mut bytes,
            status,
            content_type,
            body.as_bytes(),
            keep_alive,
        );
        let written = write_some(stream, &bytes, 0);
        let t_done = self.hub.now_us();
        let (dispatch_us, write_us) = (
            t_write.saturating_sub(t_dispatch),
            t_done.saturating_sub(t_write),
        );
        self.http.parse_us.observe_us(parse_us);
        self.http.dispatch_us.observe_us(dispatch_us);
        self.http.write_us.observe_us(write_us);
        self.count_request(endpoint, status);
        self.hub.trace.record(
            t_done,
            TraceData::Http {
                request_id: self.hub.next_request_id(),
                endpoint,
                status,
                parse_us,
                dispatch_us,
                write_us,
            },
        );
        written.ok().map(|pos| (bytes, pos, keep_alive))
    }

    /// Bump `ganc_http_requests_total{endpoint,status}`. Get-or-create on
    /// every call: the label space is tiny (endpoints × a handful of
    /// statuses), and the registry lookup is one shared-lock map probe.
    fn count_request(&self, endpoint: &'static str, status: u16) {
        let status = status.to_string();
        self.hub
            .metrics
            .counter(
                "ganc_http_requests_total",
                "HTTP requests answered, by endpoint and status",
                &[("endpoint", endpoint), ("status", &status)],
            )
            .inc();
    }

    /// Dispatch one well-framed request, returning the reply plus the
    /// endpoint label stage metrics and the request counter attribute to.
    /// Everything answers JSON (status contract 200 / 400 / 404 / 413, +
    /// 502 for router upstream failures) except `/v1/metrics`, which
    /// answers Prometheus text exposition.
    fn route(&self, req: &Request) -> (Reply, &'static str) {
        let (reply, endpoint) = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/healthz") => (self.healthz(), "healthz"),
            ("GET", "/v1/stats") => (self.stats(), "stats"),
            ("GET", "/v1/metrics") => {
                return (
                    Reply::Text(StatusCode::OK, self.hub.metrics.render()),
                    "metrics",
                )
            }
            ("GET", "/v1/trace") => (self.trace(), "trace"),
            ("GET", "/v1/window") => (self.window(), "window"),
            ("POST", "/v1/recommend:batch") => (self.recommend_batch(&req.body), "recommend_batch"),
            ("POST", "/v1/ingest") => (self.ingest(req), "ingest"),
            ("POST", "/v1/ingest:batch") => (self.ingest_batch(&req.body), "ingest_batch"),
            ("POST", "/admin/refit") => (self.admin_refit(), "admin_refit"),
            ("GET", path) if path.starts_with("/v1/recommend/") => (
                self.recommend(&path["/v1/recommend/".len()..], req.query.as_deref()),
                "recommend",
            ),
            _ => (error(StatusCode::NOT_FOUND, "not found"), "other"),
        };
        let (status, value) = reply;
        (Reply::Json(status, value), endpoint)
    }

    fn healthz(&self) -> (u16, Value) {
        match self.frontend.generation() {
            Ok(g) => {
                let mut body = obj! { "ok" => true, "generation" => g };
                if let Frontend::Sharded(e) = &self.frontend {
                    body.insert("pending_ingests", Value::from(e.pending_ingests()));
                    // WAL footprint, when a durable log is attached: how
                    // many acknowledged-but-uncompacted records a crash
                    // would replay, their on-disk size, and the dedup
                    // window's retention contract — keys beyond `window`
                    // distinct successors are forgotten (`evictions`
                    // counts them), after which a resend re-applies.
                    if let Some(w) = e.wal_stats() {
                        body.insert("wal", obj! { "records" => w.records, "bytes" => w.bytes });
                        body.insert(
                            "dedup",
                            obj! {
                                "window" => w.dedup_window,
                                "len" => w.dedup_keys,
                                "evictions" => w.dedup_evictions,
                            },
                        );
                    }
                }
                if let Frontend::Router(r) = &self.frontend {
                    // Degraded = still answering, but some band is below
                    // full replication (a replica was ejected); read from
                    // tracked breaker state, no wire calls.
                    let degraded = r.degraded_bands();
                    body.insert("degraded", Value::from(!degraded.is_empty()));
                    body.insert(
                        "degraded_bands",
                        Value::Array(degraded.into_iter().map(Value::from).collect()),
                    );
                    // The fan-out dedup window's retention contract (same
                    // shape as the WAL one): an evicted key only loses its
                    // resend short-circuit — WAL-backed routes still dedup
                    // durably.
                    let (window, len, evictions) = r.dedup_stats();
                    body.insert(
                        "dedup",
                        obj! {
                            "window" => window,
                            "len" => len,
                            "evictions" => evictions,
                        },
                    );
                }
                if let Some(controller) = &self.controller {
                    body.insert(
                        "refit",
                        obj! {
                            "alive" => controller.alive(),
                            "refits" => controller.refits(),
                        },
                    );
                }
                (StatusCode::OK, body)
            }
            Err(e) => backend_error(e),
        }
    }

    /// Drain the trace ring into JSON. Draining is deliberate — each event
    /// is delivered exactly once, so a poller sees a stream, not a window.
    fn trace(&self) -> (u16, Value) {
        let dropped = self.hub.trace.dropped();
        let events: Vec<Value> = self
            .hub
            .trace
            .drain()
            .into_iter()
            .map(trace_event_value)
            .collect();
        (
            StatusCode::OK,
            obj! { "events" => Value::Array(events), "dropped" => dropped },
        )
    }

    /// `GET /v1/window` — the node's transportable rolling-window summary,
    /// the wire call a router's stats fold makes against each remote band.
    /// `{"window":null}` when observability is not attached (or the node
    /// is itself a router).
    fn window(&self) -> (u16, Value) {
        let window = match self.frontend.window_wire() {
            Some(w) => {
                let distinct = Value::Array(w.distinct.iter().map(|&i| Value::from(i)).collect());
                obj! {
                    "n_items" => w.n_items,
                    "lists" => w.lists,
                    "items" => w.items,
                    "novelty_microbits" => w.novelty_microbits,
                    "tail_hits" => w.tail_hits,
                    "distinct" => distinct,
                }
            }
            None => Value::Null,
        };
        (StatusCode::OK, obj! { "window" => window })
    }

    /// Bump `ganc_request_overrides_total{kind}` for every per-request
    /// control present and leave a `request_overrides` trace event when
    /// any engine-level override is set. Called only when at least one
    /// control was parsed, so default traffic pays nothing.
    fn note_overrides(&self, n: bool, opts: &RequestOptions) {
        let bump = |kind: &str| {
            self.hub
                .metrics
                .counter(
                    "ganc_request_overrides_total",
                    "Per-request trade-off controls accepted, by kind",
                    &[("kind", kind)],
                )
                .inc();
        };
        if n {
            bump("n");
        }
        if opts.theta.is_some() {
            bump("theta");
        }
        if !opts.exclude.is_empty() {
            bump("exclude");
        }
        if opts.rerank.is_some() {
            bump("rerank");
        }
        // `?n=` is presentation-only truncation — it never reaches an
        // engine, so it counts above but doesn't trace as an override.
        if !opts.is_default() {
            self.hub.trace.record(
                self.hub.now_us(),
                TraceData::RequestOverrides {
                    request_id: self.hub.next_request_id(),
                    theta: opts.theta.is_some(),
                    exclude: opts.exclude.len() as u32,
                    rerank: opts.rerank.map_or("", |m| m.as_str()),
                },
            );
        }
    }

    fn recommend(&self, user_part: &str, query: Option<&str>) -> (u16, Value) {
        let Ok(user) = user_part.parse::<u32>() else {
            return error(StatusCode::BAD_REQUEST, "user id must be an integer");
        };
        let mut take: Option<usize> = None;
        let mut opts = RequestOptions::default();
        for pair in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
            match pair.split_once('=') {
                Some(("n", v)) => match v.parse::<usize>() {
                    Ok(n) => take = Some(n),
                    Err(_) => return error(StatusCode::BAD_REQUEST, "n must be an integer"),
                },
                Some(("theta", v)) => match v.parse::<f64>() {
                    Ok(t) if t.is_finite() && (0.0..=1.0).contains(&t) => opts.theta = Some(t),
                    _ => return error(StatusCode::BAD_REQUEST, "theta must be a number in [0, 1]"),
                },
                Some(("exclude", v)) => match parse_exclude_csv(v) {
                    Ok(ids) => opts.set_exclude(ids),
                    Err(msg) => return error(StatusCode::BAD_REQUEST, msg),
                },
                Some(("rerank", v)) => match RerankMode::parse(v) {
                    Some(m) => opts.rerank = Some(m),
                    None => {
                        return error(
                            StatusCode::BAD_REQUEST,
                            "rerank must be one of pra, rbt, 5d",
                        )
                    }
                },
                _ => return error(StatusCode::BAD_REQUEST, "unknown query parameter"),
            }
        }
        if take.is_some() || !opts.is_default() {
            self.note_overrides(take.is_some(), &opts);
        }
        match self.frontend.recommend_with_traced(UserId(user), &opts) {
            Ok((list, generation)) => {
                let shown = take.unwrap_or(list.len()).min(list.len());
                let items = Value::Array(list[..shown].iter().map(|i| Value::from(i.0)).collect());
                (
                    StatusCode::OK,
                    obj! { "user" => user, "generation" => generation, "items" => items },
                )
            }
            Err(e) => backend_error(e),
        }
    }

    fn recommend_batch(&self, body: &[u8]) -> (u16, Value) {
        let (users, opts) = match parse_body(body).and_then(|v| {
            let users = v["users"]
                .as_array()
                .ok_or("body must be {\"users\":[...]}")?
                .iter()
                .map(|u| {
                    u.as_u64()
                        .filter(|&u| u <= u32::MAX as u64)
                        .map(|u| UserId(u as u32))
                        .ok_or("user ids must be u32 integers")
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((users, parse_batch_opts(&v)?))
        }) {
            Ok(t) => t,
            Err(msg) => return error(StatusCode::BAD_REQUEST, msg),
        };
        if !opts.is_default() {
            self.note_overrides(false, &opts);
        }
        match self.frontend.recommend_batch_with_traced(&users, &opts) {
            Ok((answers, generation)) => {
                let results: Vec<Value> = users
                    .iter()
                    .zip(answers)
                    .map(|(u, answer)| match answer {
                        Ok(list) => {
                            let items =
                                Value::Array(list.iter().map(|i| Value::from(i.0)).collect());
                            obj! { "user" => u.0, "items" => items }
                        }
                        Err(e) => serve_error_value(&e),
                    })
                    .collect();
                (
                    StatusCode::OK,
                    obj! { "generation" => generation, "results" => Value::Array(results) },
                )
            }
            Err(e) => backend_error(e),
        }
    }

    fn ingest(&self, req: &Request) -> (u16, Value) {
        let parsed = parse_body(&req.body).and_then(|v| {
            let (user, item, rating) = parse_ingest_fields(&v)?;
            // The idempotency key rides in the `Idempotency-Key` header
            // or a body `"key"` field; the header wins when both are set.
            let key = match &req.idempotency_key {
                Some(k) => Some(k.clone()),
                None => match &v["key"] {
                    Value::Null => None,
                    Value::String(s) if !s.is_empty() => Some(s.clone()),
                    _ => return Err("key must be a non-empty string"),
                },
            };
            // Reject malformed keys at ingress (400): a key the WAL
            // decoder would refuse on replay, or one carrying CR/LF /
            // control bytes that could smuggle headers into the router's
            // fan-out requests, must never be acknowledged.
            if let Some(k) = &key {
                ganc_serve::validate_key(k)?;
            }
            Ok((user, item, rating, key))
        });
        let (user, item, rating, key) = match parsed {
            Ok(t) => t,
            Err(msg) => return error(StatusCode::BAD_REQUEST, msg),
        };
        match key {
            // Unkeyed requests keep the historical byte-exact `{"ok":true}`
            // body — the byte-determinism suites pin it.
            None => match self.frontend.ingest(user, item, rating) {
                Ok(()) => (StatusCode::OK, obj! { "ok" => true }),
                Err(e) => backend_error(e),
            },
            Some(key) => match self.frontend.ingest_keyed(Some(&key), user, item, rating) {
                Ok(ack) => (
                    StatusCode::OK,
                    obj! {
                        "ok" => true,
                        "deduplicated" => matches!(ack, ganc_serve::IngestAck::Deduplicated),
                    },
                ),
                Err(e) => backend_error(e),
            },
        }
    }

    /// `POST /v1/ingest:batch` — the coalesced ingest wire call: many
    /// entries, one round-trip, per-entry results so one unknown id never
    /// fails its companions. Serve-level rejections land in their slot;
    /// a transport/band failure (router fronts) fails the whole batch,
    /// mirroring [`crate::PeerTransport::ingest_batch`].
    fn ingest_batch(&self, body: &[u8]) -> (u16, Value) {
        let entries = match parse_body(body).and_then(|v| {
            v["entries"]
                .as_array()
                .ok_or("body must be {\"entries\":[...]}")?
                .iter()
                .map(|entry| {
                    let (user, item, rating) = parse_ingest_fields(entry)?;
                    let key = match &entry["key"] {
                        Value::Null => None,
                        Value::String(s) if !s.is_empty() => Some(s.clone()),
                        _ => return Err("key must be a non-empty string"),
                    };
                    // Same ingress validation as the single-ingest path.
                    if let Some(k) = &key {
                        ganc_serve::validate_key(k)?;
                    }
                    Ok((user, item, rating, key))
                })
                .collect::<Result<Vec<_>, _>>()
        }) {
            Ok(entries) => entries,
            Err(msg) => return error(StatusCode::BAD_REQUEST, msg),
        };
        let mut results = Vec::with_capacity(entries.len());
        for (user, item, rating, key) in &entries {
            match self
                .frontend
                .ingest_keyed(key.as_deref(), *user, *item, *rating)
            {
                Ok(ganc_serve::IngestAck::Applied) => results.push(obj! { "ok" => true }),
                Ok(ganc_serve::IngestAck::Deduplicated) => {
                    results.push(obj! { "ok" => true, "status" => "deduplicated" })
                }
                Err(BackendError::Serve(e)) => results.push(serve_error_value(&e)),
                Err(e) => return backend_error(e),
            }
        }
        (StatusCode::OK, obj! { "results" => Value::Array(results) })
    }

    fn admin_refit(&self) -> (u16, Value) {
        let Some(hook) = &self.refit else {
            return error(StatusCode::BAD_REQUEST, "refit not configured");
        };
        let Frontend::Sharded(engine) = &self.frontend else {
            return error(
                StatusCode::BAD_REQUEST,
                "refit requires a sharded engine front",
            );
        };
        match engine.refit_once(hook.fitter.as_ref(), &hook.cfg) {
            RefitOutcome::Swapped { generation, .. } => (
                StatusCode::OK,
                obj! { "outcome" => "swapped", "generation" => generation },
            ),
            RefitOutcome::Raced => (
                StatusCode::OK,
                obj! { "outcome" => "raced", "generation" => engine.generation() },
            ),
        }
    }

    fn stats(&self) -> (u16, Value) {
        let engine_stats = |stats: ganc_serve::EngineStats| {
            let total = stats.cache_hits + stats.cache_misses;
            let hit_rate = if total == 0 {
                0.0
            } else {
                stats.cache_hits as f64 / total as f64
            };
            obj! {
                "hits" => stats.cache_hits,
                "misses" => stats.cache_misses,
                "hit_rate" => hit_rate,
                "cached" => stats.cached,
            }
        };
        let window_obj = |aggregate: WindowStats, bands: Vec<Value>| {
            obj! {
                "seconds" => self.cfg.stats_window.as_secs_f64(),
                "aggregate" => window_value(aggregate),
                "bands" => Value::Array(bands),
            }
        };
        match &self.frontend {
            Frontend::Single(e) => {
                let s = e.stats();
                let window = e
                    .window_stats()
                    .map(|w| window_obj(w, Vec::new()))
                    .unwrap_or(Value::Null);
                (
                    StatusCode::OK,
                    obj! {
                        "backend" => "single",
                        "generation" => e.generation(),
                        "n" => e.n(),
                        "cache" => engine_stats(s),
                        "ingested" => s.ingested,
                        "shards" => Value::Array(Vec::new()),
                        "window" => window,
                    },
                )
            }
            Frontend::Sharded(e) => {
                let s = e.stats();
                let shards: Vec<Value> = e
                    .shard_info()
                    .into_iter()
                    .map(|i| {
                        obj! {
                            // ±∞ band edges encode as null (JSON has no Inf).
                            "theta_lo" => i.theta_lo,
                            "theta_hi" => i.theta_hi,
                            "users" => i.users,
                            "snapshots" => i.snapshots,
                            "coverage_bytes" => i.coverage_bytes,
                        }
                    })
                    .collect();
                let window = e
                    .window_stats()
                    .map(|(bands, aggregate)| {
                        window_obj(aggregate, bands.into_iter().map(window_value).collect())
                    })
                    .unwrap_or(Value::Null);
                (
                    StatusCode::OK,
                    obj! {
                        "backend" => "sharded",
                        "generation" => e.generation(),
                        "n" => e.n(),
                        "cache" => engine_stats(s),
                        "ingested" => s.ingested,
                        "shards" => Value::Array(shards),
                        "window" => window,
                    },
                )
            }
            Frontend::Router(r) => {
                // Per-band deployment view: band index, route kind
                // (local / remote / coalesced), peer address, the band's
                // *own* generation (null when the peer is unreachable —
                // exactly the band an operator should look at), and the
                // coalescer queue depth where one exists.
                let shards: Vec<Value> = r
                    .routes()
                    .iter()
                    .enumerate()
                    .map(|(band, route)| {
                        let addr = route.addr().map(Value::from).unwrap_or(Value::Null);
                        let generation = route.generation().map(Value::from).unwrap_or(Value::Null);
                        let pending = route.pending().map(Value::from).unwrap_or(Value::Null);
                        // Replica view is uniform across route kinds: a
                        // single-backend band reports as a degenerate
                        // group of one healthy replica with pinned-zero
                        // availability counters.
                        let rs = route.replica_view();
                        obj! {
                            "band" => band,
                            "kind" => route.kind(),
                            "addr" => addr,
                            "generation" => generation,
                            "pending" => pending,
                            "replicas" => obj! {
                                "count" => rs.replicas,
                                "healthy" => rs.healthy,
                                "primary" => rs.primary,
                                "hedges" => rs.hedges,
                                "failovers" => rs.failovers,
                                "ejections" => rs.ejections,
                                "restores" => rs.restores,
                            },
                        }
                    })
                    .collect();
                // Rolling windows across the deployment: local bands fold
                // in-process, remote bands over the wire (`GET
                // /v1/window`), the aggregate is the exact union. A band
                // that can't report (unreachable peer, replica group)
                // holds null without hiding the others.
                let (bands, aggregate) = r.window_stats();
                let window = aggregate
                    .map(|agg| {
                        window_obj(
                            agg,
                            bands
                                .into_iter()
                                .map(|b| b.map(window_value).unwrap_or(Value::Null))
                                .collect(),
                        )
                    })
                    .unwrap_or(Value::Null);
                match r.generation() {
                    Ok(g) => (
                        StatusCode::OK,
                        obj! {
                            "backend" => "router",
                            "generation" => g,
                            "shards" => Value::Array(shards),
                            "window" => window,
                        },
                    ),
                    Err(e) => backend_error(e),
                }
            }
        }
    }
}

/// Rolling-window stats as a JSON object (shared by every backend arm).
fn window_value(w: WindowStats) -> Value {
    obj! {
        "lists" => w.lists,
        "items" => w.items,
        "coverage" => w.coverage,
        "mean_novelty_bits" => w.mean_novelty_bits,
        "long_tail_share" => w.long_tail_share,
    }
}

/// One trace event as JSON: `{seq, at_us, kind, data: {...}}`.
fn trace_event_value(e: TraceEvent) -> Value {
    let opt_u32 = |v: Option<u32>| v.map(Value::from).unwrap_or(Value::Null);
    let kind = e.data.kind();
    let data = match e.data {
        TraceData::Request {
            request_id,
            user,
            generation,
            band,
            cache_hit,
            elapsed_us,
        } => obj! {
            "request_id" => request_id,
            "user" => user,
            "generation" => generation,
            "band" => opt_u32(band),
            "cache_hit" => cache_hit,
            "elapsed_us" => elapsed_us,
        },
        TraceData::Batch {
            users,
            generation,
            band,
            elapsed_us,
        } => obj! {
            "users" => users,
            "generation" => generation,
            "band" => opt_u32(band),
            "elapsed_us" => elapsed_us,
        },
        TraceData::Ingest { user, item, band } => obj! {
            "user" => user,
            "item" => item,
            "band" => opt_u32(band),
        },
        TraceData::BundleSwap { band, generation } => obj! {
            "band" => opt_u32(band),
            "generation" => generation,
        },
        TraceData::RefitStarted {
            generation,
            pending,
        } => obj! {
            "generation" => generation,
            "pending" => pending,
        },
        TraceData::RefitSwapped { generation } => obj! { "generation" => generation },
        TraceData::RefitRaced { generation } => obj! { "generation" => generation },
        TraceData::BandHedge {
            band,
            primary,
            hedge,
        } => obj! {
            "band" => band,
            "primary" => primary,
            "hedge" => hedge,
        },
        TraceData::BandFailover { band, from, to } => obj! {
            "band" => band,
            "from" => from,
            "to" => to,
        },
        TraceData::ReplicaEjected {
            band,
            replica,
            failures,
        } => obj! {
            "band" => band,
            "replica" => replica,
            "failures" => failures,
        },
        TraceData::ReplicaRestored { band, replica } => obj! {
            "band" => band,
            "replica" => replica,
        },
        TraceData::WalReplay {
            records,
            bytes,
            corrupted,
        } => obj! {
            "records" => records,
            "bytes" => bytes,
            "corrupted" => corrupted,
        },
        TraceData::WalTruncate {
            retained,
            generation,
        } => obj! {
            "retained" => retained,
            "generation" => generation,
        },
        TraceData::ConnAccept { conn, open } => obj! {
            "conn" => conn,
            "open" => open,
        },
        TraceData::ConnEvict { conn, reason } => obj! {
            "conn" => conn,
            "reason" => reason,
        },
        TraceData::RequestOverrides {
            request_id,
            theta,
            exclude,
            rerank,
        } => obj! {
            "request_id" => request_id,
            "theta" => theta,
            "exclude" => exclude,
            "rerank" => rerank,
        },
        TraceData::Http {
            request_id,
            endpoint,
            status,
            parse_us,
            dispatch_us,
            write_us,
        } => obj! {
            "request_id" => request_id,
            "endpoint" => endpoint,
            "status" => u32::from(status),
            "parse_us" => parse_us,
            "dispatch_us" => dispatch_us,
            "write_us" => write_us,
        },
    };
    obj! {
        "seq" => e.seq,
        "at_us" => e.at_us,
        "kind" => kind,
        "data" => data,
    }
}

/// The `{user,item,rating}` triple shared by `/v1/ingest` and each
/// `/v1/ingest:batch` entry.
/// Parse `exclude=1,2,3` — comma-separated item ids. Empty segments are
/// tolerated, so `exclude=` means "none".
fn parse_exclude_csv(v: &str) -> Result<Vec<u32>, &'static str> {
    v.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<u32>()
                .map_err(|_| "exclude must be a comma-separated list of u32 item ids")
        })
        .collect()
}

/// Per-request overrides from a `recommend:batch` body. All fields are
/// optional; an absent field leaves its default (the historical body with
/// only `"users"` parses to default options and takes the unchanged
/// default path).
fn parse_batch_opts(v: &Value) -> Result<RequestOptions, &'static str> {
    let mut opts = RequestOptions::default();
    if !matches!(&v["theta"], Value::Null) {
        let t = v["theta"]
            .as_f64()
            .filter(|t| t.is_finite() && (0.0..=1.0).contains(t))
            .ok_or("theta must be a number in [0, 1]")?;
        opts.theta = Some(t);
    }
    if !matches!(&v["exclude"], Value::Null) {
        let ids = v["exclude"]
            .as_array()
            .ok_or("exclude must be an array of u32 item ids")?
            .iter()
            .map(|i| {
                i.as_u64()
                    .filter(|&i| i <= u32::MAX as u64)
                    .map(|i| i as u32)
                    .ok_or("exclude must be an array of u32 item ids")
            })
            .collect::<Result<Vec<_>, _>>()?;
        opts.set_exclude(ids);
    }
    if !matches!(&v["rerank"], Value::Null) {
        let s = v["rerank"]
            .as_str()
            .and_then(RerankMode::parse)
            .ok_or("rerank must be one of pra, rbt, 5d")?;
        opts.rerank = Some(s);
    }
    Ok(opts)
}

fn parse_ingest_fields(v: &Value) -> Result<(UserId, ItemId, f32), &'static str> {
    let user = v["user"]
        .as_u64()
        .filter(|&u| u <= u32::MAX as u64)
        .ok_or("user must be a u32 integer")?;
    let item = v["item"]
        .as_u64()
        .filter(|&i| i <= u32::MAX as u64)
        .ok_or("item must be a u32 integer")?;
    let rating = v["rating"].as_f64().ok_or("rating must be a number")?;
    Ok((UserId(user as u32), ItemId(item as u32), rating as f32))
}

fn parse_body(body: &[u8]) -> Result<Value, &'static str> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    tinyjson::from_str(text).map_err(|_| "body is not valid JSON")
}

fn error(status: u16, message: &str) -> (u16, Value) {
    (status, obj! { "error" => message })
}

/// Error body for an unknown id, with the machine-readable field a remote
/// client maps back to [`ServeError`].
fn serve_error_value(e: &ServeError) -> Value {
    match e {
        ServeError::UnknownUser(u) => obj! {
            "error" => format!("unknown user {}", u.0),
            "unknown_user" => u.0,
        },
        ServeError::UnknownItem(i) => obj! {
            "error" => format!("unknown item {}", i.0),
            "unknown_item" => i.0,
        },
        ServeError::Durability => obj! {
            "error" => "write-ahead log append failed",
            "durability" => true,
        },
    }
}

fn backend_error(e: BackendError) -> (u16, Value) {
    match e {
        // A durability failure is a node fault (retry-safe), not a bad id.
        BackendError::Serve(ServeError::Durability) => (
            StatusCode::BAD_GATEWAY,
            serve_error_value(&ServeError::Durability),
        ),
        BackendError::Serve(e) => (StatusCode::NOT_FOUND, serve_error_value(&e)),
        BackendError::Transport(msg) => (StatusCode::BAD_GATEWAY, obj! { "error" => msg }),
        // A failed θ-band names itself: "band" is machine-readable so an
        // operator (or a retrying client) knows which shard of the
        // deployment is unhealthy instead of reading it out of prose.
        BackendError::Band { band, message } => (
            StatusCode::BAD_GATEWAY,
            obj! {
                "error" => format!("band {band}: {message}"),
                "band" => band,
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_finds_the_empty_line_in_both_newline_dialects() {
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(head_end(b"GET / HTTP/1.1\n\n"), Some(16));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\nbody"), Some(17));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\nHost: x\r\n"), None);
        assert_eq!(head_end(b""), None);
    }

    #[test]
    fn body_hint_mirrors_parser_content_length_rules() {
        let limits = Limits {
            max_head_bytes: 1024,
            max_body_bytes: 100,
        };
        let head = |s: &str| s.as_bytes().to_vec();
        assert_eq!(body_hint(&head("GET / HTTP/1.1\r\n"), limits), Some(0));
        assert_eq!(
            body_hint(&head("POST / HTTP/1.1\r\nContent-Length: 42\r\n"), limits),
            Some(42)
        );
        // Parser-fatal shapes parse immediately (None): oversized,
        // malformed, duplicated, signed, transfer-encoded.
        assert_eq!(
            body_hint(&head("POST / HTTP/1.1\r\nContent-Length: 101\r\n"), limits),
            None
        );
        assert_eq!(
            body_hint(&head("POST / HTTP/1.1\r\nContent-Length: nope\r\n"), limits),
            None
        );
        assert_eq!(
            body_hint(&head("POST / HTTP/1.1\r\nContent-Length: +4\r\n"), limits),
            None
        );
        assert_eq!(
            body_hint(
                &head("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n"),
                limits
            ),
            None
        );
        assert_eq!(
            body_hint(
                &head("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"),
                limits
            ),
            None
        );
        // Case-insensitive names, like the parser.
        assert_eq!(
            body_hint(&head("POST / HTTP/1.1\r\ncontent-LENGTH: 7\r\n"), limits),
            Some(7)
        );
    }
}
