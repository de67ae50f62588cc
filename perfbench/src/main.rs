//! End-to-end and per-layer benchmark of the GANC serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_get --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --list
//! ```
//!
//! One process sets up the `netflix` synthetic profile (three times; the
//! median is `setup_s`), binds the workload's front end on loopback, warms
//! it, and drives it through the public HTTP API. `--trace 0` times the
//! end-to-end metrics with tracing off. `--trace 1` runs untraced and
//! traced quarter windows in ABBA order (their difference is the tracing
//! overhead), then
//! times calls into each layer's public functions from outside and splits
//! one request's round trip into them. Every answer is checked against an
//! in-process engine; the last stdout line is the JSON result.

mod catalog;
mod check;
mod inputs;
mod probes;
mod stats;
mod trace;
mod workloads;
mod world;

use catalog::{Report, END_TO_END, PER_LAYER};
use check::Tally;
use stats::{median, proc_mb, quantile, us};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use world::{lap, Data, Phases, Quality, Scratch, Window};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Slices of the `--trace 0` window.
const SLICES: usize = 15;
/// p90 generator lateness beyond which an open-loop run is flagged.
const BEHIND_US: f64 = 1_000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: ganc-perfbench --workload <hot_get|cold_batch|ingest_churn|router_batch> \
--seed <n> --seconds <s> --trace <0|1>\n       ganc-perfbench --list";

enum Command {
    Run(Args),
    List,
}

fn parse_args() -> Result<Command, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list") {
        return Ok(Command::List);
    }
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::List) => {
            catalog::print_list();
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    fix_malloc_arenas();
    trace::now_ns();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("benchmark failed: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Fix glibc's malloc arena count before the benchmark starts a thread.
/// By default a thread that meets lock contention in malloc creates a new
/// arena (up to 8 per core), so the arena count a run ends with is a
/// per-process coin flip: it moved router_batch's p50 latency, throughput
/// and peak RSS by 20–40% between otherwise identical runs. A fixed count
/// takes that noise out; it applies equally to every commit measured.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_malloc_arenas() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator tunable; glibc documents it
    // as safe to call at any time, and it is called once from `main`
    // before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 2);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_malloc_arenas() {}

/// One live set-up: the fitted data, its reference lists, the bound and
/// warmed workload, and the lists of its quality pass.
struct SetUp {
    data: Data,
    reference: Arc<Vec<Vec<u32>>>,
    workload: Box<dyn workloads::Workload>,
    lists: Vec<Vec<u32>>,
    phases: Phases,
}

fn set_up(a: &Args, scratch: &Scratch, tally: &mut Tally) -> Result<SetUp, String> {
    let mut phases = Phases::default();
    let data = Data::build(&mut phases);
    // The reference and the quality pass are the benchmark's own checks:
    // not set-up time.
    let reference = Arc::new(world::reference_lists(&data.bundle));
    let ctx = workloads::Ctx {
        seed: a.seed,
        bundle: data.bundle.clone(),
        reference: Arc::clone(&reference),
        seeded: Arc::new(data.seed_users()),
        hot: Arc::new(inputs::hot_set(a.seed, data.n_users())),
        scratch: scratch.0.clone(),
        seconds: a.seconds,
    };
    let mut t = Instant::now();
    let mut workload = workloads::bind(&a.workload, ctx).map_err(|e| format!("bind: {e}"))?;
    phases.bind = lap(&mut t);
    let lists = workload.quality_pass(tally);
    t = Instant::now();
    workload.warm(tally);
    phases.warm = lap(&mut t);
    Ok(SetUp {
        data,
        reference,
        workload,
        lists,
        phases,
    })
}

fn run(a: &Args) -> Result<String, String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let mut tally = Tally::default();
    let SetUp {
        data,
        reference,
        workload: mut w,
        lists,
        phases: first,
    } = set_up(a, &scratch, &mut tally)?;
    let quality = Quality::of(&lists, &data);
    let mut report = Report::default();
    // Memory through one set-up: data, engines, servers and warm-up. The
    // peak under traffic is not reported end to end: the servers' rolling
    // observability windows keep every served list, so it grows with how
    // many requests a run completes rather than with the code's footprint.
    report.set("setup_peak_rss_mb", proc_mb("VmHWM"));
    if a.trace {
        // Untraced and traced quarters in ABBA order, so drift over the
        // run lands on both sides of the tracing overhead alike.
        let quarter = a.seconds / 4.0;
        let mut plain = w.run(quarter, false);
        let mut traced = w.run(quarter, true);
        traced.merge(w.run(quarter, true));
        plain.merge(w.run(quarter, false));
        w.verify(&mut tally);
        flag_lateness(&a.workload, quantile(&us(&traced.lateness_ns), 0.9));
        let exemplar = w.exemplar();
        let probe_ctx = probes::ProbeCtx {
            bundle: &data.bundle,
            reference: &reference,
            hot: &inputs::hot_set(a.seed, data.n_users()),
            seed: a.seed,
            scratch: &scratch.0,
            exemplar: &exemplar,
            band_addrs: w.band_addrs(),
            wal: w.wal_stats(),
        };
        let mut spans = probes::run(&probe_ctx, &mut report, &mut tally);
        layer_metrics(&a.workload, &plain, &traced, &mut report);
        tally.merge(std::mem::take(&mut plain.tally));
        tally.merge(std::mem::take(&mut traced.tally));
        spans.extend(std::mem::take(&mut traced.spans));
        write_spans(a, &spans);
    } else {
        // Consecutive slices of the window; each metric is the median of
        // its per-slice values, so a burst of machine noise in one slice
        // cannot move it. A slice is summarized and its samples dropped
        // before the next starts, so sample storage stays one slice deep.
        let (mut p50s, mut rates, mut late) = (vec![], vec![], 0.0f64);
        let mut win = Window::default();
        for _ in 0..SLICES {
            let s = w.run(a.seconds / SLICES as f64, false);
            p50s.push(s.latency_us(0.5));
            rates.push(s.users as f64 / s.elapsed_s);
            late = late.max(quantile(&us(&s.lateness_ns), 0.9));
            win.merge(s.counts_only());
        }
        w.verify(&mut tally);
        flag_lateness(&a.workload, late);
        let (p50, rate) = (median(&p50s), median(&rates));
        eprintln!(
            "{}: {} users, p50 {p50:.1}us, {rate:.0} users/s, hit ratio {:.3}",
            a.workload,
            win.users,
            win.hits as f64 / win.lookups.max(1) as f64
        );
        report.set("latency_p50_us", p50);
        report.set("users_per_s", rate);
        report.set("precision_at_10", quality.precision);
        report.set("novelty_bits", quality.novelty);
        report.set("coverage", quality.coverage);
        tally.merge(win.tally);
    }
    drop((w, data, reference));

    // The remaining set-ups only time set-up, one live set-up at a time.
    let mut phases = vec![first];
    for _ in 1..SETUPS {
        phases.push(set_up(a, &scratch, &mut tally)?.phases);
    }
    let phase = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "{}: setup {:.3}s (synth {:.3} theta {:.3} fit {:.3} bind {:.3} warm {:.3})",
        a.workload,
        phase(Phases::total),
        phase(|p| p.synth),
        phase(|p| p.theta),
        phase(|p| p.fit),
        phase(|p| p.bind),
        phase(|p| p.warm)
    );
    if let Some(e) = &tally.first_error {
        eprintln!(
            "{} of {} operations failed; first: {e}",
            tally.failed, tally.attempted
        );
    }
    let correct = tally.failed == 0;
    Ok(if a.trace {
        report.set("setup.synth_s", phase(|p| p.synth));
        report.set("setup.theta_s", phase(|p| p.theta));
        report.set("setup.fit_s", phase(|p| p.fit));
        report.set("setup.bind_s", phase(|p| p.bind));
        report.set("setup.warm_s", phase(|p| p.warm));
        report.render(PER_LAYER, correct, tally.attempted, tally.failed)
    } else {
        report.set("setup_s", phase(Phases::total));
        report.render(END_TO_END, correct, tally.attempted, tally.failed)
    })
}

/// Warn when the open-loop generator fell behind its schedule.
fn flag_lateness(workload: &str, p90_us: f64) {
    if p90_us > BEHIND_US {
        eprintln!("{workload}: generator fell behind its schedule (p90 lateness {p90_us:.0}us)");
    }
}

/// Traffic-derived per-layer metrics and the round-trip breakdown.
fn layer_metrics(workload: &str, plain: &Window, traced: &Window, r: &mut Report) {
    r.set(
        "engine.hit_ratio",
        traced.hits as f64 / traced.lookups.max(1) as f64,
    );
    r.set(
        "engine.seed_list_share",
        traced.seeded as f64 / traced.requested.max(1) as f64,
    );
    let [parse, dispatch, write] = traced.stage_means_us();
    r.set("server.parse_us", parse);
    r.set("server.dispatch_us", dispatch);
    r.set("server.write_us", write);
    r.set("client.p90_us", plain.latency_us(0.9));
    r.set(
        "trace.overhead_us",
        traced.latency_us(0.5) - plain.latency_us(0.5),
    );
    // Generator lateness is the self time of each churn event span: its
    // duration minus the ingest and re-fetch it caused.
    let lateness = traced.spans.self_us("churn.event");
    let late_p90 = quantile(&lateness, 0.9);
    r.set("loop.lateness_p50_us", quantile(&lateness, 0.5));
    r.set("loop.lateness_p90_us", late_p90);
    r.set("loop.behind", f64::from(late_p90 > BEHIND_US));
    r.set("churn.ingest_p50_us", quantile(&us(&traced.ingest_ns), 0.5));
    r.set("churn.ingest_p90_us", quantile(&us(&traced.ingest_ns), 0.9));
    r.set(
        "churn.refetch_p50_us",
        quantile(&us(&traced.refetch_ns), 0.5),
    );
    r.set(
        "churn.refetch_p90_us",
        quantile(&us(&traced.refetch_ns), 0.9),
    );

    // One request's blocking in-process steps, each a probe self time.
    let roundtrip = median(&us(&traced.roundtrip_ns));
    let engine = match workload {
        "hot_get" => r.get("engine.hit_us"),
        "cold_batch" => r.get("engine.miss_us") * inputs::COLD_BATCH as f64,
        "router_batch" => r.get("router.call_us"),
        _ => r.get("engine.ingest_us"),
    };
    let body_parse = if workload == "hot_get" {
        0.0
    } else {
        r.get("tinyjson.parse_us")
    };
    let steps = r.get("http1.parse_us")
        + body_parse
        + engine
        + r.get("tinyjson.encode_us")
        + r.get("http1.write_us");
    r.set("client.roundtrip_us", roundtrip);
    r.set("server.loop_us", roundtrip - steps);
    r.set("trace.accounted_share", steps / roundtrip);
    eprintln!(
        "{workload}: round trip {roundtrip:.1}us = in-process steps {steps:.1}us + left over {:.1}us",
        roundtrip - steps
    );
}

/// Spans go next to the binary, one file per workload and seed.
fn write_spans(a: &Args, spans: &trace::Spans) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|e| e.parent().map(|d| d.join("perfbench-spans")))
    else {
        return;
    };
    let path = dir.join(format!("{}-{}.tsv", a.workload, a.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| spans.write_tsv(&path)) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
}
