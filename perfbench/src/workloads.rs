//! The four workloads. Each binds its front end over loopback, warms it,
//! runs timed windows, and checks every timed answer against an
//! in-process engine of the same commit and state.
//!
//! - `hot_get`: closed loop, 2 clients × 1 keep-alive connection, `GET
//!   /v1/recommend/{u}` on `Frontend::Single` over a warm hot set of 8,000
//!   users (every request a cache hit).
//! - `cold_batch`: closed loop, 1 connection, 256-user batches on
//!   `Frontend::Single` in a fixed-stride sweep over all 25,000 users (the
//!   LRU cannot hold the sweep, so every user is a miss).
//! - `ingest_churn`: open loop at `CHURN_RATE` pairs/s over 2 senders × 1
//!   connection: keyed ingest (10% re-sent with the same key) then a
//!   re-fetch, on `Frontend::Sharded` over 4 θ-bands with a WAL.
//! - `router_batch`: closed loop, 1 connection, 64-user hot-set batches on
//!   `Frontend::Router` over 4 θ-band `HttpServer` nodes (`workers: 1`).

use crate::check::{self, Tally};
use crate::inputs::{self, Event, Rng, Sweep, CLIENT};
use crate::trace::now_ns;
use crate::world::{self, Exemplar, Stages, Window};
use ganc_core::query::{band_bounds, cut_theta_bands};
use ganc_dataset::UserId;
use ganc_http::{
    Frontend, HttpClient, HttpServer, PeerTransport, RemoteShard, RouterNode, ServerConfig,
    ShardRoute,
};
use ganc_obs::ObsHub;
use ganc_serve::{
    DurableConfig, EngineConfig, EngineStats, IngestAck, ModelBundle, ServingEngine, ShardConfig,
    ShardedEngine, WalStats,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["hot_get", "cold_batch", "ingest_churn", "router_batch"];
/// θ-bands of the sharded and routed fronts.
pub const BANDS: usize = 4;
const LOOPBACK: &str = "127.0.0.1:0";
/// Untimed churn warm-up, in seconds of schedule.
const CHURN_WARM_S: f64 = 0.3;

/// What every workload is built from.
pub struct Ctx {
    pub seed: u64,
    pub bundle: ModelBundle,
    /// Every user's list from an in-process reference engine.
    pub reference: Arc<Vec<Vec<u32>>>,
    /// Users answered from a precomputed seed list.
    pub seeded: Arc<Vec<bool>>,
    pub hot: Arc<Vec<u32>>,
    pub scratch: PathBuf,
    /// Total seconds of timed traffic the run will ask for.
    pub seconds: f64,
}

impl Ctx {
    fn expect(&self, user: u32) -> &[u32] {
        &self.reference[user as usize]
    }
}

pub trait Workload {
    /// Untimed warm-up traffic (the last set-up phase).
    fn warm(&mut self, tally: &mut Tally);
    /// One checked pass over every user through the front end.
    fn quality_pass(&mut self, tally: &mut Tally) -> Vec<Vec<u32>>;
    /// One timed window.
    fn run(&mut self, seconds: f64, traced: bool) -> Window;
    /// Checks that can only run after the traffic (the churn replay).
    fn verify(&mut self, _tally: &mut Tally) {}
    /// A representative request and its response, sent now.
    fn exemplar(&mut self) -> Exemplar;
    /// Remote band servers, when the workload has them.
    fn band_addrs(&self) -> Vec<String> {
        Vec::new()
    }
    /// WAL counters, when the workload writes one.
    fn wal_stats(&self) -> Option<WalStats> {
        None
    }
}

pub fn bind(name: &str, ctx: Ctx) -> std::io::Result<Box<dyn Workload>> {
    Ok(match name {
        "hot_get" => Box::new(HotGet::bind(ctx)?),
        "cold_batch" => Box::new(ColdBatch::bind(ctx)?),
        "ingest_churn" => Box::new(IngestChurn::bind(ctx)?),
        "router_batch" => Box::new(RouterBatch::bind(ctx)?),
        other => unreachable!("workload {other} was validated by the caller"),
    })
}

/// A front server with its stage histograms.
struct Front {
    server: HttpServer,
    stages: Stages,
}

impl Front {
    fn bind(frontend: Frontend) -> std::io::Result<Front> {
        let hub = ObsHub::new();
        let stages = Stages::of(&hub);
        let cfg = ServerConfig {
            obs: Some(hub),
            ..ServerConfig::default()
        };
        let server = HttpServer::bind(frontend, None, cfg, LOOPBACK)?;
        Ok(Front { server, stages })
    }

    fn client(&self) -> HttpClient {
        HttpClient::new(self.server.local_addr().to_string())
    }
}

fn counts(stats: &[EngineStats]) -> (u64, u64) {
    stats.iter().fold((0, 0), |(h, l), s| {
        (h + s.cache_hits, l + s.cache_hits + s.cache_misses)
    })
}

/// The bookkeeping around one timed window: engine counters and stage
/// histograms before and after.
struct Meter {
    start: Instant,
    counts: (u64, u64),
    stages: [(u64, u64); 3],
}

impl Meter {
    fn start(stats: &[EngineStats], stages: &Stages) -> Meter {
        Meter {
            start: Instant::now(),
            counts: counts(stats),
            stages: stages.snapshot(),
        }
    }

    fn finish(self, w: &mut Window, stats: &[EngineStats], stages: &Stages) {
        w.elapsed_s = self.start.elapsed().as_secs_f64();
        let (h, l) = counts(stats);
        w.hits = h - self.counts.0;
        w.lookups = l - self.counts.1;
        w.stages = world::stage_delta(self.stages, stages.snapshot());
    }
}

/// Closed-loop batch calls until the deadline: `next` draws each call's
/// users.
fn batch_loop(
    ctx: &Ctx,
    client: &mut HttpClient,
    seconds: f64,
    traced: bool,
    mut next: impl FnMut() -> Vec<u32>,
) -> Window {
    let mut w = Window::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let users = next();
        let body = world::batch_body(&users);
        let t0 = now_ns();
        let resp = client.request_idempotent("POST", world::BATCH_PATH, Some(&body));
        let t1 = now_ns();
        w.latency_ns.push(t1 - t0);
        w.roundtrip_ns.push(t1 - t0);
        if traced {
            w.spans.record(0, "client.request", t0, t1, 1);
        }
        let outcome = check::check_batch(&resp, &users, |u| ctx.expect(u), 0);
        w.tally.record(outcome.map(|_| ()));
        w.users += users.len() as u64;
        w.requested += users.len() as u64;
        w.seeded += users.iter().filter(|&&u| ctx.seeded[u as usize]).count() as u64;
    }
    w
}

fn batch_exemplar(client: &mut HttpClient, users: &[u32]) -> Exemplar {
    let body = world::batch_body(users);
    let resp = client
        .request_idempotent("POST", world::BATCH_PATH, Some(&body))
        .map(|r| r.body)
        .unwrap_or_default();
    Exemplar {
        request: world::request_bytes("POST", world::BATCH_PATH, Some(&body), None),
        body: Some(body),
        response: resp,
    }
}

// ---------------------------------------------------------------- hot_get

struct HotGet {
    ctx: Ctx,
    engine: Arc<ServingEngine>,
    front: Front,
    clients: Vec<HttpClient>,
    windows: u64,
}

impl HotGet {
    fn bind(ctx: Ctx) -> std::io::Result<HotGet> {
        let engine = Arc::new(ServingEngine::new(
            ctx.bundle.clone(),
            EngineConfig::default(),
        ));
        let front = Front::bind(Frontend::Single(Arc::clone(&engine)))?;
        let clients = vec![front.client(), front.client()];
        Ok(HotGet {
            ctx,
            engine,
            front,
            clients,
            windows: 0,
        })
    }
}

impl Workload for HotGet {
    fn warm(&mut self, tally: &mut Tally) {
        for (k, &u) in self.ctx.hot.iter().enumerate() {
            let resp = self.clients[k % 2].request("GET", &world::get_path(u), None);
            tally.record(check::check_get(&resp, u, self.ctx.expect(u), 0));
        }
    }

    fn quality_pass(&mut self, tally: &mut Tally) -> Vec<Vec<u32>> {
        let ctx = &self.ctx;
        world::quality_pass(
            &mut self.clients[0],
            ctx.bundle.n_users(),
            |u| ctx.expect(u),
            tally,
        )
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Window {
        let meter = Meter::start(&[self.engine.stats()], &self.front.stages);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let stream = CLIENT + 2 * self.windows;
        self.windows += 1;
        let ctx = &self.ctx;
        let parts: Vec<Window> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(k, client)| {
                    s.spawn(move || {
                        let mut rng = Rng::stream(ctx.seed, stream + k as u64);
                        let mut w = Window::default();
                        while Instant::now() < deadline {
                            let u = rng.pick(&ctx.hot);
                            let path = world::get_path(u);
                            let t0 = now_ns();
                            let resp = client.request("GET", &path, None);
                            let t1 = now_ns();
                            w.latency_ns.push(t1 - t0);
                            w.roundtrip_ns.push(t1 - t0);
                            if traced {
                                w.spans.record(0, "client.request", t0, t1, 1);
                            }
                            w.tally.record(check::check_get(&resp, u, ctx.expect(u), 0));
                            w.users += 1;
                            w.requested += 1;
                            w.seeded += ctx.seeded[u as usize] as u64;
                        }
                        w
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("hot_get client panicked"))
                .collect()
        });
        let mut w = Window::default();
        for p in parts {
            w.merge(p);
        }
        meter.finish(&mut w, &[self.engine.stats()], &self.front.stages);
        w
    }

    fn exemplar(&mut self) -> Exemplar {
        let path = world::get_path(self.ctx.hot[0]);
        let resp = self.clients[0].request("GET", &path, None);
        Exemplar {
            request: world::request_bytes("GET", &path, None, None),
            body: None,
            response: resp.map(|r| r.body).unwrap_or_default(),
        }
    }
}

// ------------------------------------------------------------- cold_batch

struct ColdBatch {
    ctx: Ctx,
    engine: Arc<ServingEngine>,
    front: Front,
    client: HttpClient,
    sweep: Sweep,
}

impl ColdBatch {
    fn bind(ctx: Ctx) -> std::io::Result<ColdBatch> {
        let engine = Arc::new(ServingEngine::new(
            ctx.bundle.clone(),
            EngineConfig::default(),
        ));
        let front = Front::bind(Frontend::Single(Arc::clone(&engine)))?;
        let client = front.client();
        let sweep = Sweep::new(ctx.seed, ctx.bundle.n_users());
        Ok(ColdBatch {
            ctx,
            engine,
            front,
            client,
            sweep,
        })
    }
}

impl Workload for ColdBatch {
    /// One full lap of the sweep, so the LRU holds the lap's tail and the
    /// timed sweep continues into users it has already evicted.
    fn warm(&mut self, tally: &mut Tally) {
        let n = self.ctx.bundle.n_users() as usize;
        let lap = n.div_ceil(inputs::COLD_BATCH);
        let sweep = &mut self.sweep;
        let w = batch_loop_calls(&self.ctx, &mut self.client, lap, || {
            sweep.take(inputs::COLD_BATCH)
        });
        tally.merge(w);
    }

    fn quality_pass(&mut self, tally: &mut Tally) -> Vec<Vec<u32>> {
        let ctx = &self.ctx;
        world::quality_pass(
            &mut self.client,
            ctx.bundle.n_users(),
            |u| ctx.expect(u),
            tally,
        )
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Window {
        let meter = Meter::start(&[self.engine.stats()], &self.front.stages);
        let sweep = &mut self.sweep;
        let mut w = batch_loop(&self.ctx, &mut self.client, seconds, traced, || {
            sweep.take(inputs::COLD_BATCH)
        });
        meter.finish(&mut w, &[self.engine.stats()], &self.front.stages);
        w
    }

    fn exemplar(&mut self) -> Exemplar {
        let users = self.sweep.clone().take(inputs::COLD_BATCH);
        batch_exemplar(&mut self.client, &users)
    }
}

/// `calls` checked batch calls, untimed.
fn batch_loop_calls(
    ctx: &Ctx,
    client: &mut HttpClient,
    calls: usize,
    mut next: impl FnMut() -> Vec<u32>,
) -> Tally {
    let mut tally = Tally::default();
    for _ in 0..calls {
        let users = next();
        let resp =
            client.request_idempotent("POST", world::BATCH_PATH, Some(&world::batch_body(&users)));
        tally.record(check::check_batch(&resp, &users, |u| ctx.expect(u), 0).map(|_| ()));
    }
    tally
}

// ----------------------------------------------------------- router_batch

struct RouterBatch {
    ctx: Ctx,
    band_engines: Vec<Arc<ServingEngine>>,
    // Dropped before the bands: the router holds connections to them.
    front: Front,
    bands: Vec<HttpServer>,
    client: HttpClient,
    rng: Rng,
}

impl RouterBatch {
    fn bind(ctx: Ctx) -> std::io::Result<RouterBatch> {
        let cuts = cut_theta_bands(&ctx.bundle.theta, BANDS);
        let mut band_engines = Vec::with_capacity(BANDS);
        let mut bands = Vec::with_capacity(BANDS);
        let mut routes = Vec::with_capacity(BANDS);
        for j in 0..BANDS {
            let (lo, hi) = band_bounds(&cuts, j);
            let engine = Arc::new(ServingEngine::new(
                ctx.bundle.slice_theta_band(lo, hi),
                EngineConfig::default(),
            ));
            let cfg = ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            };
            let server =
                HttpServer::bind(Frontend::Single(Arc::clone(&engine)), None, cfg, LOOPBACK)?;
            let remote = RemoteShard::connect(server.local_addr().to_string())
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            routes.push(ShardRoute::Remote(
                Arc::new(remote) as Arc<dyn PeerTransport>
            ));
            band_engines.push(engine);
            bands.push(server);
        }
        let router = RouterNode::new(Arc::clone(&ctx.bundle.theta), cuts, routes);
        let front = Front::bind(Frontend::Router(Arc::new(router)))?;
        let client = front.client();
        let rng = Rng::stream(ctx.seed, CLIENT);
        Ok(RouterBatch {
            ctx,
            band_engines,
            front,
            bands,
            client,
            rng,
        })
    }

    fn stats(&self) -> Vec<EngineStats> {
        self.band_engines.iter().map(|e| e.stats()).collect()
    }
}

impl Workload for RouterBatch {
    fn warm(&mut self, tally: &mut Tally) {
        let hot = Arc::clone(&self.ctx.hot);
        let mut chunks = hot.chunks(inputs::ROUTER_BATCH);
        let calls = chunks.len();
        tally.merge(batch_loop_calls(&self.ctx, &mut self.client, calls, || {
            chunks.next().expect("one chunk per call").to_vec()
        }));
    }

    fn quality_pass(&mut self, tally: &mut Tally) -> Vec<Vec<u32>> {
        let ctx = &self.ctx;
        world::quality_pass(
            &mut self.client,
            ctx.bundle.n_users(),
            |u| ctx.expect(u),
            tally,
        )
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Window {
        let meter = Meter::start(&self.stats(), &self.front.stages);
        let (rng, hot) = (&mut self.rng, &self.ctx.hot);
        let mut w = batch_loop(&self.ctx, &mut self.client, seconds, traced, || {
            (0..inputs::ROUTER_BATCH).map(|_| rng.pick(hot)).collect()
        });
        meter.finish(&mut w, &self.stats(), &self.front.stages);
        w
    }

    fn exemplar(&mut self) -> Exemplar {
        let users: Vec<u32> = (0..inputs::ROUTER_BATCH)
            .map(|_| self.rng.pick(&self.ctx.hot))
            .collect();
        batch_exemplar(&mut self.client, &users)
    }

    fn band_addrs(&self) -> Vec<String> {
        self.bands
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect()
    }
}

// ----------------------------------------------------------- ingest_churn

/// A re-fetch answer, checked after the run: it must equal the mirror's
/// answer after `lo..=hi` acknowledged ingests (the ingests that may have
/// been applied while it was in flight).
struct Refetch {
    user: u32,
    lo: u64,
    hi: u64,
    list: Vec<u32>,
    generation: u64,
}

/// The global ingest order. Ingests go out one at a time under `order`
/// (the server serializes them under its write lock anyway), so the k-th
/// acknowledged ingest is the k-th applied one.
#[derive(Default)]
struct Order {
    /// Acknowledged ingests, in order: event index per sequence number.
    acked: Mutex<Vec<usize>>,
    /// Ingests sent so far (at most one more than acknowledged).
    started: AtomicU64,
    acked_count: AtomicU64,
}

struct IngestChurn {
    ctx: Ctx,
    engine: Arc<ShardedEngine>,
    front: Front,
    clients: Vec<HttpClient>,
    schedule: Vec<Event>,
    cursor: usize,
    order: Order,
    refetches: Vec<Refetch>,
}

impl IngestChurn {
    fn bind(ctx: Ctx) -> std::io::Result<IngestChurn> {
        let engine = Arc::new(ShardedEngine::new(
            ctx.bundle.clone(),
            ShardConfig::quantile(BANDS),
        ));
        engine.attach_durable(DurableConfig::new(unique_file(&ctx.scratch, "churn")))?;
        let front = Front::bind(Frontend::Sharded(Arc::clone(&engine)))?;
        let clients = vec![front.client(), front.client()];
        let events = ((CHURN_WARM_S + ctx.seconds + 1.0) * inputs::CHURN_RATE) as usize;
        let schedule = inputs::churn_schedule(
            ctx.seed,
            ctx.bundle.n_users(),
            ctx.bundle.n_items(),
            inputs::CHURN_RATE,
            events,
        );
        Ok(IngestChurn {
            ctx,
            engine,
            front,
            clients,
            schedule,
            cursor: 0,
            order: Order::default(),
            refetches: Vec::new(),
        })
    }

    /// Play the next `seconds` of the schedule, open loop, from 2 senders
    /// (events split by user parity, so one user's events stay in order).
    fn play(&mut self, seconds: f64, traced: bool) -> Window {
        let count =
            ((seconds * inputs::CHURN_RATE) as usize).min(self.schedule.len() - self.cursor);
        let events = &self.schedule[self.cursor..self.cursor + count];
        let first = self.cursor;
        self.cursor += count;
        let base_ns = events.first().map_or(0, |e| e.due_ns);
        // A short lead so both senders are running at the first due time.
        let start = now_ns() + 2_000_000;
        let order = &self.order;
        let parts: Vec<(Window, Vec<Refetch>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(k, client)| {
                    s.spawn(move || {
                        let mine = events
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| e.user as usize % 2 == k);
                        let mut w = Window::default();
                        let mut refetches = Vec::new();
                        for (j, e) in mine {
                            let due = start + (e.due_ns - base_ns);
                            let now = now_ns();
                            if now < due {
                                std::thread::sleep(Duration::from_nanos(due - now));
                            }
                            if let Some(r) =
                                send_event(client, order, first + j, e, due, &mut w, traced)
                            {
                                refetches.push(r);
                            }
                        }
                        (w, refetches)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("churn sender panicked"))
                .collect()
        });
        let mut w = Window::default();
        for (p, r) in parts {
            w.merge(p);
            self.refetches.extend(r);
        }
        w
    }
}

fn unique_file(dir: &std::path::Path, stem: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    dir.join(format!(
        "{stem}-{}.wal",
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One churn event: keyed ingest (re-sent once on a retry), then the
/// re-fetch. Latencies count from `due`.
fn send_event(
    client: &mut HttpClient,
    order: &Order,
    index: usize,
    e: &Event,
    due: u64,
    w: &mut Window,
    traced: bool,
) -> Option<Refetch> {
    let body = world::ingest_body(e.user, e.item, e.rating);
    let send = now_ns();
    {
        let mut acked = order
            .acked
            .lock()
            .expect("no sender panics holding the order");
        order.started.fetch_add(1, Ordering::SeqCst);
        let resp = client.request_keyed("POST", world::INGEST_PATH, Some(&body), &e.key);
        w.tally.record(check::check_ack(&resp, false));
        if e.retry {
            let resp = client.request_keyed("POST", world::INGEST_PATH, Some(&body), &e.key);
            w.tally.record(check::check_ack(&resp, true));
        }
        acked.push(index);
        order.acked_count.fetch_add(1, Ordering::SeqCst);
    }
    let ack = now_ns();
    let lo = order.acked_count.load(Ordering::SeqCst);
    let resp = client.request("GET", &world::get_path(e.user), None);
    let done = now_ns();
    let hi = order.started.load(Ordering::SeqCst);
    w.lateness_ns.push(send.saturating_sub(due));
    w.ingest_ns.push(ack.saturating_sub(due));
    w.roundtrip_ns.push(ack - send);
    w.refetch_ns.push(done - ack);
    w.latency_ns.push(done.saturating_sub(due));
    w.users += 1;
    w.requested += 1;
    if traced {
        let root = w.spans.record(0, "churn.event", due, done, 1);
        w.spans.record(root, "client.ingest", send, ack, 1);
        w.spans.record(root, "client.refetch", ack, done, 1);
    }
    match check::parse_get(&resp, e.user) {
        Ok((list, generation)) => Some(Refetch {
            user: e.user,
            lo,
            hi,
            list,
            generation,
        }),
        Err(err) => {
            w.tally.record(Err(err));
            None
        }
    }
}

impl Workload for IngestChurn {
    fn warm(&mut self, tally: &mut Tally) {
        let w = self.play(CHURN_WARM_S, false);
        tally.merge(w.tally);
    }

    fn quality_pass(&mut self, tally: &mut Tally) -> Vec<Vec<u32>> {
        let ctx = &self.ctx;
        world::quality_pass(
            &mut self.clients[0],
            ctx.bundle.n_users(),
            |u| ctx.expect(u),
            tally,
        )
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Window {
        let meter = Meter::start(&[self.engine.stats()], &self.front.stages);
        let mut w = self.play(seconds, traced);
        meter.finish(&mut w, &[self.engine.stats()], &self.front.stages);
        w
    }

    /// Replay every acknowledged ingest, in order, into a mirror
    /// `ShardedEngine` (same bundle, bands and WAL policy) and check each
    /// re-fetch against the mirror's fresh answer at a state it may have
    /// been served from.
    fn verify(&mut self, tally: &mut Tally) {
        let mirror = ShardedEngine::new(self.ctx.bundle.clone(), ShardConfig::quantile(BANDS));
        if let Err(e) =
            mirror.attach_durable(DurableConfig::new(unique_file(&self.ctx.scratch, "mirror")))
        {
            tally.record(Err(format!("mirror WAL: {e}")));
            return;
        }
        let acked = std::mem::take(&mut *self.order.acked.lock().expect("senders joined"));
        let mut refetches = std::mem::take(&mut self.refetches);
        refetches.sort_by_key(|r| r.lo);
        let mut pending = refetches.into_iter().peekable();
        let mut open: Vec<Refetch> = Vec::new();
        for state in 0..=acked.len() as u64 {
            while let Some(r) = pending.next_if(|r| r.lo == state) {
                open.push(r);
            }
            open.retain(|r| {
                mirror.flush_cache();
                let matched = mirror.generation() == r.generation
                    && mirror
                        .recommend(UserId(r.user))
                        .is_ok_and(|l| world::ids(&l) == r.list);
                if matched {
                    tally.record(Ok(()));
                    false
                } else if r.hi <= state {
                    tally.record(Err(format!(
                        "re-fetch of user {} matches no state in {}..={}: {:?}",
                        r.user, r.lo, r.hi, r.list
                    )));
                    false
                } else {
                    true
                }
            });
            if let Some(&k) = acked.get(state as usize) {
                let e = &self.schedule[k];
                let (u, i) = (UserId(e.user), ganc_dataset::ItemId(e.item));
                let first = mirror.ingest_keyed(Some(&e.key), u, i, e.rating);
                if first != Ok(IngestAck::Applied) {
                    tally.record(Err(format!("mirror refused ingest {k}: {first:?}")));
                }
                if e.retry
                    && mirror.ingest_keyed(Some(&e.key), u, i, e.rating)
                        != Ok(IngestAck::Deduplicated)
                {
                    tally.record(Err(format!("mirror applied the re-sent ingest {k}")));
                }
            }
        }
        for r in open {
            tally.record(Err(format!(
                "re-fetch of user {} was never matched",
                r.user
            )));
        }
    }

    fn exemplar(&mut self) -> Exemplar {
        let (user, item) = (self.ctx.hot[0], 0);
        let body = world::ingest_body(user, item, 4.0);
        let key = "pb-exemplar";
        let resp = self.clients[0].request_keyed("POST", world::INGEST_PATH, Some(&body), key);
        Exemplar {
            request: world::request_bytes("POST", world::INGEST_PATH, Some(&body), Some(key)),
            body: Some(body),
            response: resp.map(|r| r.body).unwrap_or_default(),
        }
    }

    fn wal_stats(&self) -> Option<WalStats> {
        self.engine.wal_stats()
    }
}
