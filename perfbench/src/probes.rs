//! Per-layer probes for the traced run: calls into each layer's public
//! functions, timed from outside on the workload's own bundle, requests
//! and responses. Each probe times `CHUNKS` spans of repeated calls and
//! reports the median per-call time, so one slow chunk cannot move it.

use crate::catalog::Report;
use crate::check::Tally;
use crate::inputs::{self, Rng, Sweep};
use crate::stats::{median, proc_mb};
use crate::trace::{now_ns, Spans};
use crate::workloads::BANDS;
use crate::world::{self, Exemplar};
use ganc_core::query::{
    band_bounds, candidate_runs, cut_theta_bands, fused_select, fused_select_runs, shard_of,
};
use ganc_dataset::stats::min_max_normalize;
use ganc_dataset::{ItemId, UserId};
use ganc_http::http1::{self, ReadOutcome};
use ganc_http::{
    Frontend, HttpServer, Limits, PeerTransport, RemoteShard, RouterNode, ServerConfig, ShardRoute,
};
use ganc_obs::ObsHub;
use ganc_recommender::topn::{non_train_items, train_item_mask};
use ganc_recommender::Recommender;
use ganc_serve::{
    DurableConfig, DurableLog, EngineConfig, ModelBundle, ServingEngine, ShardConfig,
    ShardedEngine, WalStats,
};
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const CHUNKS: usize = 21;
/// Generator stream of the probes' own draws.
const PROBE: u64 = 9;

pub struct ProbeCtx<'a> {
    pub bundle: &'a ModelBundle,
    pub reference: &'a [Vec<u32>],
    pub hot: &'a [u32],
    pub seed: u64,
    pub scratch: &'a Path,
    pub exemplar: &'a Exemplar,
    /// The workload's band servers; the probe binds its own when empty.
    pub band_addrs: Vec<String>,
    /// The workload's WAL counters, when it writes one.
    pub wal: Option<WalStats>,
}

/// `CHUNKS` spans of `per` calls each; the median per-call microseconds.
fn measure(spans: &mut Spans, name: &'static str, per: usize, mut call: impl FnMut(usize)) -> f64 {
    for c in 0..CHUNKS {
        let start = now_ns();
        for k in 0..per {
            call(c * per + k);
        }
        spans.record(0, name, start, now_ns(), per as u32);
    }
    median(&spans.per_call_us(name))
}

fn users(ids: &[u32]) -> Vec<UserId> {
    ids.iter().map(|&u| UserId(u)).collect()
}

fn warm(engine: &ServingEngine, ids: &[u32]) {
    for chunk in ids.chunks(inputs::COLD_BATCH) {
        engine.recommend_batch(&users(chunk));
    }
}

pub fn run(p: &ProbeCtx, report: &mut Report, tally: &mut Tally) -> Spans {
    let mut spans = Spans::default();
    engine_probes(p, report, &mut spans);
    ingest_probes(p, report, &mut spans);
    query_probes(p, report, &mut spans, tally);
    wire_probes(p, report, &mut spans, tally);
    router_probes(p, report, &mut spans, tally);
    spans
}

fn engine_probes(p: &ProbeCtx, report: &mut Report, spans: &mut Spans) {
    let b = p.bundle;
    let n = b.n_users();
    // RSS across a new engine plus one warm lap of the cold sweep.
    let before = proc_mb("VmRSS");
    let engine = ServingEngine::new(b.clone(), EngineConfig::default());
    let mut sweep = Sweep::new(p.seed, n);
    warm(&engine, &sweep.take(n as usize));
    report.set("engine.rss_delta_mb", proc_mb("VmRSS") - before);

    // Misses: the sweep continues into users the lap's tail evicted.
    let per = inputs::COLD_BATCH;
    report.set(
        "engine.miss_us",
        measure(spans, "engine.miss", 1, |_| {
            black_box(engine.recommend_batch(&users(&sweep.take(per))));
        }) / per as f64,
    );

    // Hits, bare vs observed vs sharded, interleaved chunk by chunk so
    // drift hits all three alike.
    let observed = ServingEngine::new(b.clone(), EngineConfig::default());
    observed.attach_obs(ObsHub::new(), None, Duration::from_secs(300));
    let sharded = ShardedEngine::new(b.clone(), ShardConfig::quantile(BANDS));
    warm(&engine, p.hot);
    warm(&observed, p.hot);
    for chunk in p.hot.chunks(inputs::COLD_BATCH) {
        sharded.recommend_batch(&users(chunk));
    }
    let per = 2_000;
    let hot = p.hot;
    for c in 0..CHUNKS {
        let at = |k: usize| UserId(hot[(c * per + k) % hot.len()]);
        spans.time("engine.hit", per as u32, || {
            (0..per).for_each(|k| drop(black_box(engine.recommend(at(k)))))
        });
        spans.time("obs.hit", per as u32, || {
            (0..per).for_each(|k| drop(black_box(observed.recommend(at(k)))))
        });
        spans.time("shard.hit", per as u32, || {
            (0..per).for_each(|k| drop(black_box(sharded.recommend(at(k)))))
        });
    }
    let hit = median(&spans.per_call_us("engine.hit"));
    report.set("engine.hit_us", hit);
    report.set(
        "obs.hit_overhead_us",
        median(&spans.per_call_us("obs.hit")) - hit,
    );
    report.set(
        "shard.overhead_us",
        median(&spans.per_call_us("shard.hit")) - hit,
    );
}

fn ingest_probes(p: &ProbeCtx, report: &mut Report, spans: &mut Spans) {
    let b = p.bundle;
    let engine = ShardedEngine::new(b.clone(), ShardConfig::quantile(BANDS));
    engine
        .attach_durable(DurableConfig::new(p.scratch.join("probe-ingest.wal")))
        .expect("probe WAL in the scratch directory");
    let events =
        inputs::churn_schedule(p.seed ^ PROBE, b.n_users(), b.n_items(), 1.0, CHUNKS * 100);
    for e in &events {
        let (u, i) = (UserId(e.user), ItemId(e.item));
        spans.time("engine.ingest", 1, || {
            black_box(engine.ingest_keyed(Some(&e.key), u, i, e.rating)).expect("valid ingest")
        });
        if e.retry {
            black_box(engine.ingest_keyed(Some(&e.key), u, i, e.rating)).expect("valid ingest");
        }
        spans.time("engine.refresh", 1, || {
            black_box(engine.recommend(u)).expect("known user")
        });
    }
    report.set(
        "engine.ingest_us",
        median(&spans.per_call_us("engine.ingest")),
    );
    report.set(
        "engine.refresh_us",
        median(&spans.per_call_us("engine.refresh")),
    );
    let wal = p
        .wal
        .or_else(|| engine.wal_stats())
        .expect("durable engine");
    let keyed = (wal.appends + wal.dedup_hits).max(1) as f64;
    report.set(
        "wal.syncs_per_append",
        wal.syncs as f64 / wal.appends.max(1) as f64,
    );
    report.set("wal.dedup_ratio", wal.dedup_hits as f64 / keyed);

    let (log, _) = DurableLog::open(DurableConfig::new(p.scratch.join("probe-append.wal")))
        .expect("probe WAL in the scratch directory");
    report.set(
        "wal.append_us",
        measure(spans, "wal.append", 200, |k| {
            let key = format!("pa-{k}");
            black_box(log.append(
                Some(&key),
                0,
                UserId(k as u32 % b.n_users()),
                ItemId(1),
                4.0,
            ))
            .expect("append to the scratch WAL");
        }),
    );
}

fn query_probes(p: &ProbeCtx, report: &mut Report, spans: &mut Spans, tally: &mut Tally) {
    let b = p.bundle;
    let bound = b.model.bind(&b.train);
    let mut accuracy = vec![0.0; b.n_items() as usize];
    report.set(
        "query.accuracy_pass_us",
        measure(spans, "query.accuracy_pass", 20, |_| {
            bound.score_items(UserId(0), &mut accuracy);
            min_max_normalize(&mut accuracy);
        }),
    );
    let in_train = train_item_mask(&b.train);
    let non_train = non_train_items(&in_train);
    let provider = b.coverage.provider();
    let per = 100;
    let sample: Vec<u32> = Sweep::new(p.seed ^ PROBE, b.n_users()).take(CHUNKS * per);
    let runs: Vec<Vec<(u32, u32)>> = sample
        .iter()
        .map(|&u| candidate_runs(&b.train, UserId(u), &[], &non_train))
        .collect();
    let select = |k: usize| {
        let u = UserId(sample[k]);
        let theta = b.theta[u.idx()];
        fused_select(
            b.n,
            theta,
            &accuracy,
            &provider.view(u, theta),
            &b.train,
            &non_train,
            u,
            &[],
        )
    };
    let select_runs = |k: usize| {
        let u = UserId(sample[k]);
        let theta = b.theta[u.idx()];
        fused_select_runs(b.n, theta, &accuracy, &provider.view(u, theta), &runs[k])
    };
    report.set(
        "query.fused_select_us",
        measure(spans, "query.fused_select", per, |k| {
            drop(black_box(select(k)))
        }),
    );
    report.set(
        "query.select_runs_us",
        measure(spans, "query.select_runs", per, |k| {
            drop(black_box(select_runs(k)))
        }),
    );
    report.set(
        "coverage.view_us",
        measure(spans, "coverage.view", 5_000, |k| {
            let u = UserId(sample[k % sample.len()]);
            black_box(provider.view(u, b.theta[u.idx()]));
        }),
    );
    // The query layer answers what the served path answers: both selects
    // agree, and equal the reference list for users without a seed list.
    let seeded: std::collections::HashSet<u32> = b.seed_lists.iter().map(|(u, _)| u.0).collect();
    for (k, &u) in sample.iter().enumerate() {
        let list = world::ids(&select(k));
        let agree = list == world::ids(&select_runs(k))
            && (seeded.contains(&u) || list == p.reference[u as usize]);
        tally.record(if agree {
            Ok(())
        } else {
            Err(format!(
                "query layer disagrees with the served list of user {u}"
            ))
        });
    }
}

fn wire_probes(p: &ProbeCtx, report: &mut Report, spans: &mut Spans, tally: &mut Tally) {
    let x = p.exemplar;
    let parsed = http1::read_request(&mut Cursor::new(&x.request[..]), Limits::default());
    tally.record(match parsed {
        ReadOutcome::Request(_) => Ok(()),
        other => Err(format!("exemplar request does not parse: {other:?}")),
    });
    let scale = |bytes: usize| (400_000 / bytes.max(1)).clamp(1, 20_000);
    report.set(
        "http1.parse_us",
        measure(spans, "http1.parse", scale(x.request.len()), |_| {
            drop(black_box(http1::read_request(
                &mut Cursor::new(&x.request[..]),
                Limits::default(),
            )));
        }),
    );
    let mut out = Vec::with_capacity(x.response.len() + 128);
    report.set(
        "http1.write_us",
        measure(spans, "http1.write", scale(x.response.len()), |_| {
            out.clear();
            http1::write_response(&mut out, 200, &x.response, true).expect("write to a Vec");
            black_box(&out);
        }),
    );
    let response = String::from_utf8_lossy(&x.response).into_owned();
    let parse_text = x.body.as_deref().unwrap_or(&response);
    report.set(
        "tinyjson.parse_us",
        measure(spans, "tinyjson.parse", scale(parse_text.len()), |_| {
            drop(black_box(tinyjson::from_str(parse_text)));
        }),
    );
    match tinyjson::from_str(&response) {
        Ok(value) => report.set(
            "tinyjson.encode_us",
            measure(spans, "tinyjson.encode", scale(response.len()), |_| {
                drop(black_box(tinyjson::to_string(&value)));
            }),
        ),
        Err(e) => tally.record(Err(format!("exemplar response is not JSON: {e:?}"))),
    }
}

fn router_probes(p: &ProbeCtx, report: &mut Report, spans: &mut Spans, tally: &mut Tally) {
    let b = p.bundle;
    let cuts = cut_theta_bands(&b.theta, BANDS);
    let band_engines: Vec<Arc<ServingEngine>> = (0..BANDS)
        .map(|j| {
            let (lo, hi) = band_bounds(&cuts, j);
            Arc::new(ServingEngine::new(
                b.slice_theta_band(lo, hi),
                EngineConfig::default(),
            ))
        })
        .collect();
    let local = RouterNode::new(
        Arc::clone(&b.theta),
        cuts.clone(),
        band_engines
            .iter()
            .map(|e| ShardRoute::Local(Arc::clone(e)))
            .collect(),
    );
    // The workload's band servers, or our own when it has none.
    let mut own_servers = Vec::new();
    let addrs = if p.band_addrs.is_empty() {
        for e in &band_engines {
            let cfg = ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            };
            let server =
                HttpServer::bind(Frontend::Single(Arc::clone(e)), None, cfg, "127.0.0.1:0")
                    .expect("bind a probe band server on loopback");
            own_servers.push(server);
        }
        own_servers
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect()
    } else {
        p.band_addrs.clone()
    };
    let shards: Vec<Arc<RemoteShard>> = addrs
        .iter()
        .map(|a| Arc::new(RemoteShard::connect(a.clone()).expect("band server reachable")))
        .collect();
    let remote = RouterNode::new(
        Arc::clone(&b.theta),
        cuts.clone(),
        shards
            .iter()
            .map(|s| ShardRoute::Remote(Arc::clone(s) as Arc<dyn PeerTransport>))
            .collect(),
    );
    for chunk in p.hot.chunks(inputs::ROUTER_BATCH) {
        let _ = local.recommend_batch_traced(&users(chunk));
        let _ = remote.recommend_batch_traced(&users(chunk));
    }

    let mut rng = Rng::stream(p.seed, PROBE);
    let (mut split_fold, mut straggler, mut bands) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CHUNKS * 10 {
        let batch: Vec<UserId> = (0..inputs::ROUTER_BATCH)
            .map(|_| UserId(rng.pick(p.hot)))
            .collect();
        let subs: Vec<Vec<UserId>> = (0..BANDS)
            .map(|j| {
                batch
                    .iter()
                    .copied()
                    .filter(|u| shard_of(&cuts, b.theta[u.idx()]) == j)
                    .collect()
            })
            .collect();
        let whole = time_us(spans, "router.local_call", || {
            local.recommend_batch_traced(&batch)
        });
        let slowest_engine = (0..BANDS)
            .filter(|&j| !subs[j].is_empty())
            .map(|j| {
                time_us(spans, "engine.band", || {
                    band_engines[j].recommend_batch_traced(&subs[j]).0
                })
            })
            .fold(0.0, f64::max);
        split_fold.push(whole - slowest_engine);

        let start = now_ns();
        let answer = remote.recommend_batch_traced(&batch);
        let call = (now_ns() - start) as f64 / 1e3;
        spans.record(0, "router.call", start, now_ns(), 1);
        let expect: Vec<Vec<u32>> = batch.iter().map(|u| p.reference[u.idx()].clone()).collect();
        tally.record(match answer {
            Ok((lists, _))
                if lists
                    .iter()
                    .map(|l| l.as_ref().map(|l| world::ids(l)).ok())
                    .eq(expect.into_iter().map(Some)) =>
            {
                Ok(())
            }
            other => Err(format!("remote router answered {other:?}")),
        });
        let slowest_call = (0..BANDS)
            .filter(|&j| !subs[j].is_empty())
            .map(|j| {
                time_us(spans, "transport.band_call", || {
                    shards[j].recommend_batch_traced(&subs[j])
                })
            })
            .fold(0.0, f64::max);
        straggler.push(slowest_call / call);
        bands.push(subs.iter().filter(|s| !s.is_empty()).count() as f64);
    }
    report.set("router.split_fold_us", median(&split_fold));
    report.set("router.call_us", median(&spans.per_call_us("router.call")));
    report.set(
        "transport.band_call_us",
        median(&spans.per_call_us("transport.band_call")),
    );
    report.set("router.straggler_share", median(&straggler));
    report.set(
        "router.bands_per_batch",
        bands.iter().sum::<f64>() / bands.len() as f64,
    );
    drop(remote);
    drop(own_servers);
}

/// Time one call as a span; its microseconds.
fn time_us<R>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> R) -> f64 {
    let start = now_ns();
    black_box(f());
    let end = now_ns();
    spans.record(0, name, start, end, 1);
    (end - start) as f64 / 1e3
}
