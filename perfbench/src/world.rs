//! What every workload shares: the fitted data set, set-up phase timing,
//! the in-process reference lists, the quality pass, HTTP request shapes,
//! the server's stage histograms and the per-run scratch directory.

use crate::check::{self, Tally};
use crate::stats;
use crate::trace::Spans;
use ganc_dataset::synth::DatasetProfile;
use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_http::HttpClient;
use ganc_metrics::accuracy::{precision, RelevanceSets};
use ganc_metrics::coverage::coverage;
use ganc_metrics::novelty::{mean_self_information, observation_probability};
use ganc_metrics::TopN;
use ganc_obs::{Histogram, ObsHub};
use ganc_preference::GeneralizedConfig;
use ganc_recommender::pop::MostPopular;
use ganc_serve::{EngineConfig, FitConfig, FittedModel, ModelBundle, ServingEngine};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the synthetic data set. The data set is the same on every run,
/// so the paper-axis metrics are exact and equal across runs; `--seed`
/// draws only the traffic.
pub const DATA_SEED: u64 = 18;
/// Share of each user's ratings kept for training (the rest is the test
/// split precision is measured against).
pub const TRAIN_SHARE: f64 = 0.5;
/// Recommendation list size `N`.
pub const N: usize = 10;
/// Test ratings at or above this are relevant (§IV-A).
pub const RELEVANT: f32 = 4.0;
/// Users per call of the quality pass.
const QUALITY_BATCH: usize = 256;

/// Wall time of each set-up phase, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    pub synth: f64,
    pub theta: f64,
    pub fit: f64,
    pub bind: f64,
    pub warm: f64,
}

impl Phases {
    pub fn total(&self) -> f64 {
        self.synth + self.theta + self.fit + self.bind + self.warm
    }
}

/// Seconds since `t`, restarting it.
pub fn lap(t: &mut Instant) -> f64 {
    let s = t.elapsed().as_secs_f64();
    *t = Instant::now();
    s
}

/// The fitted `netflix` profile: 25,000 users, 5,000 items, Pop base
/// model with Dynamic coverage.
pub struct Data {
    pub bundle: ModelBundle,
    pub test: Interactions,
}

impl Data {
    pub fn build(phases: &mut Phases) -> Data {
        let mut t = Instant::now();
        let split = DatasetProfile::netflix()
            .generate(DATA_SEED)
            .split_per_user(TRAIN_SHARE, DATA_SEED)
            .expect("the netflix profile splits");
        phases.synth = lap(&mut t);
        let theta = GeneralizedConfig::default().estimate(&split.train);
        phases.theta = lap(&mut t);
        let pop = MostPopular::fit(&split.train);
        let bundle = ModelBundle::fit(
            FittedModel::Pop(pop),
            theta,
            split.train,
            &FitConfig::new(N),
        );
        phases.fit = lap(&mut t);
        Data {
            bundle,
            test: split.test,
        }
    }

    pub fn n_users(&self) -> u32 {
        self.bundle.n_users()
    }

    pub fn n_items(&self) -> u32 {
        self.bundle.n_items()
    }

    /// Users whose answer is a precomputed seed list (until ingested).
    pub fn seed_users(&self) -> Vec<bool> {
        let mut seeded = vec![false; self.n_users() as usize];
        for (u, _) in &self.bundle.seed_lists {
            seeded[u.idx()] = true;
        }
        seeded
    }
}

pub fn ids(list: &[ItemId]) -> Vec<u32> {
    list.iter().map(|i| i.0).collect()
}

/// Every user's list from a separate in-process [`ServingEngine`] over the
/// same bundle: the oracle read-only workloads are checked against.
pub fn reference_lists(bundle: &ModelBundle) -> Vec<Vec<u32>> {
    let engine = ServingEngine::new(bundle.clone(), EngineConfig::default());
    let users: Vec<UserId> = (0..bundle.n_users()).map(UserId).collect();
    engine
        .recommend_batch(&users)
        .into_iter()
        .map(|r| ids(&r.expect("every user id is in range")))
        .collect()
}

/// The paper's three axes of one list per user.
pub struct Quality {
    pub precision: f64,
    pub novelty: f64,
    pub coverage: f64,
}

impl Quality {
    pub fn of(lists: &[Vec<u32>], data: &Data) -> Quality {
        let topn = TopN::new(
            N,
            lists
                .iter()
                .map(|l| l.iter().map(|&i| ItemId(i)).collect())
                .collect(),
        );
        let train = &data.bundle.train;
        Quality {
            precision: precision(&topn, &RelevanceSets::from_test(&data.test, RELEVANT)),
            novelty: mean_self_information(&topn, &observation_probability(train)),
            coverage: coverage(&topn, data.n_items()),
        }
    }
}

/// One pass over every user, in id order, through the front end's batch
/// endpoint; each answer is checked against `expect`.
pub fn quality_pass<'a>(
    client: &mut HttpClient,
    n_users: u32,
    expect: impl Fn(u32) -> &'a [u32],
    tally: &mut Tally,
) -> Vec<Vec<u32>> {
    let mut lists = vec![Vec::new(); n_users as usize];
    let users: Vec<u32> = (0..n_users).collect();
    for chunk in users.chunks(QUALITY_BATCH) {
        let resp = client.request_idempotent("POST", BATCH_PATH, Some(&batch_body(chunk)));
        let served = check::check_batch(&resp, chunk, &expect, 0);
        match served {
            Ok(served) => {
                for (&u, list) in chunk.iter().zip(served) {
                    lists[u as usize] = list;
                }
                tally.record(Ok(()));
            }
            Err(e) => tally.record(Err(format!("quality pass: {e}"))),
        }
    }
    lists
}

pub const BATCH_PATH: &str = "/v1/recommend:batch";
pub const INGEST_PATH: &str = "/v1/ingest";

pub fn get_path(user: u32) -> String {
    format!("/v1/recommend/{user}")
}

pub fn batch_body(users: &[u32]) -> String {
    let ids: Vec<String> = users.iter().map(u32::to_string).collect();
    format!("{{\"users\":[{}]}}", ids.join(","))
}

pub fn ingest_body(user: u32, item: u32, rating: f32) -> String {
    tinyjson::to_string(&tinyjson::obj! {
        "user" => user,
        "item" => item,
        "rating" => rating as f64,
    })
}

/// The exact bytes `HttpClient` puts on the wire for one request.
pub fn request_bytes(method: &str, path: &str, body: Option<&str>, key: Option<&str>) -> Vec<u8> {
    let key_header = key
        .map(|k| format!("Idempotency-Key: {k}\r\n"))
        .unwrap_or_default();
    let body = body.unwrap_or("");
    let head = if body.is_empty() && method == "GET" {
        format!("{method} {path} HTTP/1.1\r\n{key_header}Connection: keep-alive\r\n\r\n")
    } else {
        format!(
            "{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{key_header}Connection: keep-alive\r\n\r\n",
            body.len()
        )
    };
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// One representative request of a workload and the response it got: the
/// inputs of the http1 and tinyjson probes.
pub struct Exemplar {
    pub request: Vec<u8>,
    pub body: Option<String>,
    pub response: Vec<u8>,
}

/// The front server's `ganc_http_stage_us{stage}` histograms — the names
/// production telemetry uses.
pub struct Stages([Arc<Histogram>; 3]);

impl Stages {
    pub fn of(hub: &ObsHub) -> Stages {
        let stage = |name| {
            hub.metrics.histogram(
                "ganc_http_stage_us",
                "HTTP request stage latency (microseconds)",
                &[("stage", name)],
            )
        };
        Stages([stage("parse"), stage("dispatch"), stage("write")])
    }

    /// `(sum_us, count)` of parse, dispatch and write.
    pub fn snapshot(&self) -> [(u64, u64); 3] {
        self.0.each_ref().map(|h| (h.sum_us(), h.count()))
    }
}

/// `(sum_us, count)` of each stage between two snapshots.
pub fn stage_delta(before: [(u64, u64); 3], after: [(u64, u64); 3]) -> [(u64, u64); 3] {
    std::array::from_fn(|k| (after[k].0 - before[k].0, after[k].1 - before[k].1))
}

/// What a timed window measured.
#[derive(Default)]
pub struct Window {
    /// The end-to-end latency of each workload request.
    pub latency_ns: Vec<u64>,
    /// Client round trip of each request (send to last byte).
    pub roundtrip_ns: Vec<u64>,
    pub users: u64,
    pub elapsed_s: f64,
    pub tally: Tally,
    /// Requested users, and those answered from a seed list.
    pub requested: u64,
    pub seeded: u64,
    /// Cache hits and lookups of the workload's engines.
    pub hits: u64,
    pub lookups: u64,
    /// Server stage `(sum_us, count)` of parse, dispatch and write.
    pub stages: [(u64, u64); 3],
    /// Open loop only.
    pub lateness_ns: Vec<u64>,
    pub ingest_ns: Vec<u64>,
    pub refetch_ns: Vec<u64>,
    pub spans: Spans,
}

impl Window {
    /// Fold another window's samples and counts into this one.
    pub fn merge(&mut self, o: Window) {
        self.latency_ns.extend(o.latency_ns);
        self.roundtrip_ns.extend(o.roundtrip_ns);
        self.users += o.users;
        self.elapsed_s += o.elapsed_s;
        self.tally.merge(o.tally);
        self.requested += o.requested;
        self.seeded += o.seeded;
        self.hits += o.hits;
        self.lookups += o.lookups;
        for (mine, theirs) in self.stages.iter_mut().zip(o.stages) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        self.lateness_ns.extend(o.lateness_ns);
        self.ingest_ns.extend(o.ingest_ns);
        self.refetch_ns.extend(o.refetch_ns);
        self.spans.extend(o.spans);
    }

    /// The counters without the per-request samples.
    pub fn counts_only(self) -> Window {
        Window {
            latency_ns: Vec::new(),
            roundtrip_ns: Vec::new(),
            lateness_ns: Vec::new(),
            ingest_ns: Vec::new(),
            refetch_ns: Vec::new(),
            spans: Spans::default(),
            ..self
        }
    }

    /// Per-request mean of each server stage, microseconds.
    pub fn stage_means_us(&self) -> [f64; 3] {
        self.stages
            .map(|(sum, count)| sum as f64 / count.max(1) as f64)
    }

    pub fn latency_us(&self, q: f64) -> f64 {
        stats::quantile(&stats::us(&self.latency_ns), q)
    }
}

/// A per-run directory inside the build's target directory (the WAL files
/// live here), removed when the run ends.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let base = exe
            .parent()
            .ok_or_else(|| std::io::Error::other("no exe dir"))?;
        let dir = base
            .join("perfbench-scratch")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
