//! Every metric the benchmark reports: name, unit, direction, bound (end
//! to end only), meaning, and — for a per-layer metric — the end-to-end
//! metric and workload it should move. `--list` prints this table;
//! `BENCHMARK.json` declares the same names and units (a test keeps the
//! two in step).

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median a metric may worsen by (end to end).
    pub bound: Option<f64>,
    pub about: &'static str,
    /// Per-layer only: the end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        about,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    about: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        about,
        moves,
    }
}

use Better::{Higher, Lower};

/// Reported with `--trace 0`, by every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "median of 3 set-ups: synth + split, theta estimate, fit, bind, warm-up (the quality pass excluded)"),
    e2e("latency_p50_us", "us", Lower, 0.25,
        "median latency of one workload request: GET (hot_get), batch call (cold_batch, router_batch), ingest plus re-fetch from when it was due (ingest_churn)"),
    e2e("users_per_s", "1/s", Higher, 0.25,
        "users answered per second: GETs (hot_get), batch slots (cold_batch, router_batch), re-fetches (ingest_churn)"),
    e2e("setup_peak_rss_mb", "MB", Lower, 0.1,
        "VmHWM of the benchmark process after its first set-up and warm-up (servers, engines and clients all live in it)"),
    e2e("precision_at_10", "ratio", Higher, 0.001,
        "ganc_metrics accuracy::precision of one pass over every user through the front end, against the test split"),
    e2e("novelty_bits", "bits", Higher, 0.001,
        "ganc_metrics novelty::mean_self_information of the same pass"),
    e2e("coverage", "ratio", Higher, 0.001,
        "ganc_metrics coverage::coverage of the same pass"),
];

/// Reported with `--trace 1`, by every workload. Traffic-derived metrics
/// come from the workload's traced window; the rest are calls into each
/// layer's public functions, timed from outside on the workload's own
/// bundle, requests and responses.
pub const PER_LAYER: &[Metric] = &[
    layer("http1.parse_us", "us", Lower,
        "http1::read_request on the workload's exact request bytes", "latency_p50_us on hot_get"),
    layer("http1.write_us", "us", Lower,
        "http1::write_response of the workload's response", "latency_p50_us on hot_get"),
    layer("server.parse_us", "us", Lower,
        "mean ganc_http_stage_us{stage=parse} over the traced window (whole-us observations)", "latency_p50_us on hot_get"),
    layer("server.dispatch_us", "us", Lower,
        "mean ganc_http_stage_us{stage=dispatch} over the traced window", "latency_p50_us on hot_get"),
    layer("server.write_us", "us", Lower,
        "mean ganc_http_stage_us{stage=write} over the traced window", "latency_p50_us on hot_get"),
    layer("server.loop_us", "us", Lower,
        "client round trip minus the in-process layer self times of one request (event loop, worker hop, syscalls)",
        "latency_p50_us and users_per_s on hot_get"),
    layer("client.p90_us", "us", Lower,
        "90th percentile of the workload request latency over the untraced windows (not gated: on a 2-vCPU shared VM its run-to-run spread exceeds the 0.25 bound)",
        "latency_p50_us on every workload"),
    layer("client.roundtrip_us", "us", Lower,
        "median HttpClient::request time of the workload request in the traced window", "latency_p50_us on hot_get"),
    layer("engine.hit_us", "us", Lower,
        "ServingEngine::recommend on a cached user", "latency_p50_us on hot_get"),
    layer("engine.miss_us", "us", Lower,
        "ServingEngine::recommend_batch per user, on users the LRU has evicted", "users_per_s on cold_batch"),
    layer("engine.hit_ratio", "ratio", Higher,
        "cache hits / lookups of the workload's engines over the traced window (~1 hot_get, ~0 cold_batch)",
        "explains latency_p50_us on hot_get and cold_batch"),
    layer("engine.seed_list_share", "ratio", Higher,
        "share of requested users answered from bundle.seed_lists (not ingested since fit)", "users_per_s on cold_batch"),
    layer("engine.ingest_us", "us", Lower,
        "ShardedEngine::ingest_keyed on a durable 4-band engine", "latency_p50_us on ingest_churn"),
    layer("engine.refresh_us", "us", Lower,
        "ShardedEngine::recommend right after an ingest of the same user", "latency_p50_us on ingest_churn"),
    layer("engine.rss_delta_mb", "MB", Lower,
        "VmRSS growth across ServingEngine::new plus one warm lap over every user", "setup_peak_rss_mb on cold_batch"),
    layer("shard.overhead_us", "us", Lower,
        "ShardedEngine::recommend minus ServingEngine::recommend for the same cached user", "latency_p50_us on ingest_churn"),
    layer("wal.append_us", "us", Lower,
        "DurableLog::append of a keyed ingest under the default Flush policy", "latency_p50_us and client.p90_us on ingest_churn"),
    layer("wal.syncs_per_append", "ratio", Lower,
        "WalStats syncs / appends (0 under Flush)", "client.p90_us on ingest_churn"),
    layer("wal.dedup_ratio", "ratio", Higher,
        "WalStats dedup hits / keyed ingests (re-sent keys are 10%)", "latency_p50_us on ingest_churn"),
    layer("query.fused_select_us", "us", Lower,
        "ganc_core::query::fused_select with the shared accuracy vector and the user's view", "users_per_s on cold_batch"),
    layer("query.select_runs_us", "us", Lower,
        "fused_select_runs over the user's recorded candidate runs", "users_per_s on cold_batch"),
    layer("query.accuracy_pass_us", "us", Lower,
        "score_items + min_max_normalize over the catalog (the work an ingest forces onto the next miss)",
        "latency_p50_us on ingest_churn"),
    layer("coverage.view_us", "us", Lower,
        "CoverageProvider::view(user, theta)", "users_per_s on cold_batch"),
    layer("obs.hit_overhead_us", "us", Lower,
        "engine.hit_us with an ObsHub attached minus bare", "latency_p50_us on hot_get"),
    layer("tinyjson.parse_us", "us", Lower,
        "tinyjson::from_str on the workload's request body (the response body for GET workloads)",
        "latency_p50_us on router_batch and cold_batch"),
    layer("tinyjson.encode_us", "us", Lower,
        "tinyjson::to_string of the workload's response", "latency_p50_us on router_batch and cold_batch"),
    layer("router.split_fold_us", "us", Lower,
        "RouterNode::recommend_batch_traced over ShardRoute::Local bands minus the slowest band's engine time",
        "latency_p50_us on router_batch"),
    layer("router.call_us", "us", Lower,
        "RouterNode::recommend_batch_traced over the 4 remote band servers", "latency_p50_us on router_batch"),
    layer("transport.band_call_us", "us", Lower,
        "RemoteShard::recommend_batch_traced per sub-batch", "latency_p50_us on router_batch"),
    layer("router.bands_per_batch", "count", Lower,
        "bands a 64-user batch touches", "client.p90_us on router_batch"),
    layer("router.straggler_share", "ratio", Lower,
        "slowest band call / whole router call", "client.p90_us on router_batch"),
    layer("setup.synth_s", "s", Lower,
        "DatasetProfile::netflix().generate + split_per_user", "setup_s on every workload"),
    layer("setup.theta_s", "s", Lower,
        "GeneralizedConfig::estimate", "setup_s on every workload"),
    layer("setup.fit_s", "s", Lower,
        "MostPopular::fit + ModelBundle::fit (OSLG sequential phase)", "setup_s on every workload"),
    layer("setup.bind_s", "s", Lower,
        "engines, WAL attach, HttpServer::bind and client connects", "setup_s on every workload"),
    layer("setup.warm_s", "s", Lower,
        "untimed warm-up traffic", "setup_s on every workload"),
    layer("loop.lateness_p50_us", "us", Lower,
        "open loop: median send time minus due time (0 on closed loops)", "latency_p50_us on ingest_churn"),
    layer("loop.lateness_p90_us", "us", Lower,
        "open loop: p90 send time minus due time (0 on closed loops)", "client.p90_us on ingest_churn"),
    layer("loop.behind", "count", Lower,
        "1 when the open-loop generator fell behind its schedule (p90 lateness over 1 ms)", "client.p90_us on ingest_churn"),
    layer("churn.ingest_p50_us", "us", Lower,
        "median keyed-ingest acknowledgement time from when it was due (0 without ingests)", "latency_p50_us on ingest_churn"),
    layer("churn.ingest_p90_us", "us", Lower,
        "p90 keyed-ingest acknowledgement time from when it was due (0 without ingests)", "client.p90_us on ingest_churn"),
    layer("churn.refetch_p50_us", "us", Lower,
        "median re-fetch GET round trip, sent as soon as its ingest is acknowledged (0 without ingests)",
        "latency_p50_us on ingest_churn"),
    layer("churn.refetch_p90_us", "us", Lower,
        "p90 re-fetch GET round trip (0 without ingests)", "client.p90_us on ingest_churn"),
    layer("trace.accounted_share", "ratio", Higher,
        "sum of the per-layer self times of one request / its client round trip", "explains latency_p50_us"),
    layer("trace.overhead_us", "us", Lower,
        "traced minus untraced latency_p50_us, both windows in the same run", "latency_p50_us on every workload"),
];

/// One run's metric values, rendered as the final JSON line.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A value set earlier (NaN when it was not).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }

    /// The result line. Every metric of `set` must have been set: a
    /// missing or non-finite value is a bug in the benchmark.
    pub fn render(&self, set: &[Metric], correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = set
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).copied().unwrap_or(f64::NAN);
                assert!(v.is_finite(), "metric {} was not measured", m.name);
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// `--list`: every metric by name with its unit.
pub fn print_list() {
    println!("end to end (--trace 0), every workload:");
    for m in END_TO_END {
        println!(
            "  {:<24} {:<6} {:<6} bound {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0),
            m.about
        );
    }
    println!("per layer (--trace 1), every workload:");
    for m in PER_LAYER {
        println!(
            "  {:<24} {:<6} {:<6} {}  [moves {}]",
            m.name,
            m.unit,
            m.better.as_str(),
            m.about,
            m.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(list: &str) -> Vec<(String, String, String, Option<f64>)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = tinyjson::from_str(&text).expect("BENCHMARK.json is JSON");
        v[list]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                    m["better"].as_str().unwrap().to_string(),
                    m["bound"].as_f64(),
                )
            })
            .collect()
    }

    fn ours(set: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
        set.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
    }

    #[test]
    fn the_result_line_carries_every_metric_with_its_unit() {
        let mut r = Report::default();
        for (k, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 1.5 + k as f64);
        }
        let line = r.render(END_TO_END, true, 3, 0);
        let v = tinyjson::from_str(&line).unwrap();
        assert_eq!(v["attempted"].as_u64(), Some(3));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(1.5));
    }
}
