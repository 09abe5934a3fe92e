//! Worker process of the geotopo benchmark.
//!
//! `run.py` (next to this crate) drives it: every phase of a benchmark
//! run is one invocation of this binary in a fresh process, with one
//! worker thread (`threads = 1` here, `GEOTOPO_THREADS=1` from
//! `run.py`). Each invocation prints a single JSON object on its last
//! stdout line.
//!
//! ```text
//! perfbench probe    --workload W --seed N
//! perfbench populate --workload W --seed N --dir D [--trace-out F]
//! perfbench timed    --workload W --seed N --batches B [--dir D]
//! perfbench traced   --workload W --seed N --batches B [--dir D] --trace-out F
//! ```
//!
//! `probe` builds a run's inputs from the seed [`SETUP_SAMPLES`] times
//! and reports each time (the set-up of `cold-large`).
//! `populate` runs a cold pipeline into a disk store at `D` (the set-up
//! of `restart-serve-large`). `timed` runs a workload's timed phase
//! through the public entry points, serving `B` requests, and checks its
//! outputs. `traced` does the same work by calling each layer directly,
//! with spans, and writes them to `F` as Chrome trace events.

mod checks;
mod layers;
mod serve;
mod sys;
mod trace;

use geotopo::core::engine::{ArtifactStore, CacheStatus};
use geotopo::core::experiments;
use geotopo::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use geotopo::measure::FaultConfig;
use layers::{LayerCounts, Persist};
use serde_json::{json, Value};
use serve::{Client, HitlistPlan, Served};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use sys::Clock;
use trace::Tracer;

const MIB: f64 = 1024.0 * 1024.0;

/// Seed of the benchmark's world and fault plan. Both are held fixed
/// because their cost depends heavily on the seed (`cold-large` took
/// 15-17 s at world seed 11 and 23 s at 2002 in interleaved runs on a
/// 2-vCPU Xeon VM, and the moderate plan's seed moved a faulted pipeline
/// by ~15 %), which would swamp every regression bound.
const WORLD_SEED: u64 = 2002;

/// Stages whose artifacts the engine persists to a disk store.
const PERSISTED: usize = 8;

/// Times `probe` builds a run's inputs; `run.py` reports the median.
const SETUP_SAMPLES: usize = 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Cold,
    Restart,
}

impl Workload {
    const ALL: [(&'static str, Workload); 2] = [
        ("cold-large", Workload::Cold),
        ("restart-serve-large", Workload::Restart),
    ];

    fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|&&(_, w)| w == self)
            .map_or("?", |(n, _)| n)
    }

    /// The program's input: the `large` world of [`WORLD_SEED`] on one
    /// worker, with the run's seed drawing the BGP table and the mapping
    /// tools' errors. `restart-serve-large` adds the fault plan
    /// `reproduce_paper --faults moderate large 2002` builds, so its
    /// set-up collects through the fault path while `cold-large` takes
    /// the clean one.
    fn config(self, seed: u64) -> PipelineConfig {
        let mut cfg = PipelineConfig::large(WORLD_SEED);
        cfg.route_table.seed = seed;
        cfg.mapper_seed = seed ^ 0xFEED;
        cfg.threads = 1;
        if self == Workload::Restart {
            cfg.faults = FaultConfig::profile("moderate", WORLD_SEED ^ 0xFA)
                .expect("the moderate profile exists");
        }
        cfg
    }
}

#[derive(Debug)]
struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    batches: usize,
    dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut it = std::env::args().skip(1);
        let command = it.next().ok_or("missing command")?;
        let (mut workload, mut seed, mut batches, mut dir, mut trace_out) =
            (None, None, 0, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--batches" => batches = value.parse().map_err(|e| format!("--batches: {e}"))?,
                "--dir" => dir = Some(PathBuf::from(value)),
                "--trace-out" => trace_out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            command,
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            batches,
            dir,
            trace_out,
        })
    }

    fn dir(&self) -> Result<&Path, String> {
        self.dir
            .as_deref()
            .ok_or_else(|| "missing --dir".to_string())
    }
}

fn main() -> ExitCode {
    let result = Args::parse().and_then(|args| match args.command.as_str() {
        "probe" => probe(&args),
        "populate" => populate(&args),
        "timed" => timed(&args),
        "traced" => traced(&args),
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `cold-large`'s set-up: building a run's inputs (the pipeline
/// config and the hitlist draws) from the seed, [`SETUP_SAMPLES`] times
/// in a fresh process; reports each time in seconds.
fn probe(args: &Args) -> Result<Value, String> {
    let samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let clock = Clock::start();
            let cfg = args.workload.config(args.seed);
            let plan = HitlistPlan::new(args.seed);
            std::hint::black_box((&cfg, &plan));
            clock.stop().0
        })
        .collect();
    Ok(json!({ "setup_s": samples }))
}

fn persisted_entries(dir: &Path) -> Result<usize, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(entries
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count())
}

/// `restart-serve-large`'s set-up: a cold `Pipeline::run` under the
/// fault plan, writing the persisted envelopes into a disk store
/// (traced: the same work layer by layer, saving each artifact as the
/// engine does).
fn populate(args: &Args) -> Result<Value, String> {
    let cfg = args.workload.config(args.seed);
    let dir = args.dir()?;
    let mut report = match &args.trace_out {
        None => {
            let clock = Clock::start();
            let out = Pipeline::new(cfg)
                .with_threads(1)
                .with_store(Arc::new(ArtifactStore::with_disk(dir)))
                .run()
                .map_err(|e| e.to_string())?;
            let (populate_s, _) = clock.stop();
            let peak = sys::peak_rss_mib();
            json!({
                "populate_s": populate_s,
                "peak_rss_mib": peak,
                "digest": checks::digest_output(&out),
            })
        }
        Some(trace_out) => {
            let mut tr = Tracer::new();
            let root = tr.begin("phase", "phase.populate");
            let (out, counts) = layers::build(&cfg, &mut tr, Some(&Persist::new(dir, &cfg)))?;
            tr.end(root);
            let mut m = layer_metrics(&tr, &out, &counts);
            m.set("io.setup_peak_rss_mib", sys::peak_rss_mib());
            write_trace(trace_out, &tr, "populate (traced)", args)?;
            json!({
                "digest": checks::digest_output(&out),
                "coverage": tr.coverage(root),
                "metrics": m.into_json(),
            })
        }
    };
    let entries = persisted_entries(dir)?;
    let failures: Vec<String> = if entries == PERSISTED {
        Vec::new()
    } else {
        vec![format!(
            "populate wrote {entries} envelopes, want {PERSISTED}"
        )]
    };
    push(&mut report, "failures", json!(failures));
    Ok(report)
}

fn push(report: &mut Value, key: &str, value: Value) {
    if let Value::Object(fields) = report {
        fields.push((key.to_string(), value));
    }
}

/// Splits a serving window into the segment served as soon as the
/// snapshot is ready and the one served after `run_all`: on `cold-large`
/// the window is halved around the analyses, so it samples the host at
/// two moments of the run.
fn segments(w: Workload, batches: usize) -> (usize, usize) {
    if w == Workload::Cold {
        (batches / 2, batches - batches / 2)
    } else {
        (batches, 0)
    }
}

/// The timed phase through the public entry points: `Pipeline::run`
/// (cold, or restarted on the populated store), `experiments::run_all`
/// on `cold-large`, and the serving window. Checks run after it.
fn timed(args: &Args) -> Result<Value, String> {
    let w = args.workload;
    let cfg = args.workload.config(args.seed);
    let plan = HitlistPlan::new(args.seed);
    let host_before = sys::host_ref_s();

    let mut pipeline = Pipeline::new(cfg.clone()).with_threads(1);
    let store = match w {
        Workload::Restart => {
            let store = Arc::new(ArtifactStore::with_disk(args.dir()?));
            pipeline = pipeline.with_store(Arc::clone(&store));
            Some(store)
        }
        _ => None,
    };
    let clock = Clock::start();
    let out = pipeline.run().map_err(|e| e.to_string())?;
    let ready = clock.stop();
    let hitlist = plan.resolve(&checks::interface_ips(&out));
    drop(plan);
    let (first, second) = segments(w, args.batches);
    let mut client = Client::new(&out.query, &hitlist);
    client.serve(first, None);
    let (results, analysis) = if w == Workload::Cold {
        let clock = Clock::start();
        let results = experiments::run_all(&out);
        (Some(results), clock.stop())
    } else {
        (None, (0.0, 0.0))
    };
    client.serve(second, None);
    let served = client.served;
    let peak = sys::peak_rss_mib();
    let host_after = sys::host_ref_s();

    let mut failures = checks::check_output(&out);
    failures.extend(checks::check_quorum(&out, &cfg.faults));
    let disk_hits = count_cache(&out, CacheStatus::HitDisk);
    let corrupt = store.as_ref().map_or(0, |s| s.corrupt_detected());
    if w == Workload::Restart {
        if disk_hits != PERSISTED || corrupt != 0 {
            failures.push(format!(
                "restart: {disk_hits} disk hits (want {PERSISTED}), {corrupt} corrupt entries"
            ));
        }
    } else if disk_hits != 0 {
        failures.push(format!("cold run reported {disk_hits} disk hits"));
    }
    let results_digest = results.as_deref().map(|r| {
        failures.extend(checks::check_results(r));
        checks::digest_results(r)
    });
    let stage_s: f64 = out.reports.iter().map(|r| r.wall_ms / 1e3).sum();
    Ok(json!({
        "failures": failures,
        "wall_s": ready.0 + analysis.0 + served.busy_s,
        "cpu_s": ready.1 + analysis.1 + served.cpu_s,
        "ready_s": ready.0,
        "analysis_s": analysis.0,
        "serve_busy_s": served.busy_s,
        "lookups": served.lookups,
        "wrong": served.wrong,
        "batch_ms": served.batch_ms,
        "peak_rss_mib": peak,
        "host_ref_s": [host_before, host_after],
        "digest": checks::digest_output(&out),
        "results_digest": results_digest,
        "engine": {
            "engine.run_s": ready.0,
            "engine.overhead_s": ready.0 - stage_s,
            "engine.disk_hits": disk_hits,
            "engine.misses": count_cache(&out, CacheStatus::Miss),
            "engine.corrupt_detected": corrupt
        }
    }))
}

fn count_cache(out: &PipelineOutput, status: CacheStatus) -> usize {
    out.reports.iter().filter(|r| r.cache == status).count()
}

/// The timed phase again, layer by layer with spans: the cold pipeline
/// (plus every experiment on `cold-large`), or the restart from the
/// store, and the same serving window with one span per request.
fn traced(args: &Args) -> Result<Value, String> {
    let w = args.workload;
    let cfg = args.workload.config(args.seed);
    let trace_out = args.trace_out.as_ref().ok_or("missing --trace-out")?;
    let plan = HitlistPlan::new(args.seed);
    let host_before = sys::host_ref_s();

    let mut tr = Tracer::new();
    let mut phases = Vec::new();
    let (out, counts) = match w {
        Workload::Restart => {
            let dir = args.dir()?;
            let root = tr.begin("phase", "phase.restart");
            let built = layers::restore(&cfg, &Persist::new(dir, &cfg), &mut tr)?;
            tr.end(root);
            phases.push(root);
            built
        }
        _ => {
            let root = tr.begin("phase", "phase.pipeline");
            let built = layers::build(&cfg, &mut tr, None)?;
            tr.end(root);
            phases.push(root);
            built
        }
    };
    let hitlist = tr.time("client", "client.hitlist", || {
        plan.resolve(&checks::interface_ips(&out))
    });
    drop(plan);
    let (first, second) = segments(w, args.batches);
    let mut client = Client::new(&out.query, &hitlist);
    let serve_span = tr.begin("client", "client.serve");
    client.serve(first, Some(&mut tr));
    tr.end(serve_span);
    let results = (w == Workload::Cold).then(|| {
        let root = tr.begin("phase", "phase.experiments");
        let r = layers::run_experiments(&out, &mut tr);
        tr.end(root);
        phases.push(root);
        r
    });
    if second > 0 {
        let serve_span = tr.begin("client", "client.serve");
        client.serve(second, Some(&mut tr));
        tr.end(serve_span);
    }
    let served = client.served;
    let host_after = sys::host_ref_s();

    let mut failures = checks::check_output(&out);
    failures.extend(checks::check_quorum(&out, &cfg.faults));
    let results_digest = results.as_deref().map(|r| {
        failures.extend(checks::check_results(r));
        checks::digest_results(r)
    });
    if results.is_some() {
        layers::preference_set(&out, &mut tr);
    }

    let mut m = layer_metrics(&tr, &out, &counts);
    serving_metrics(&mut m, &served);
    if let Some(r) = &results {
        m.set("experiments.results", r.len() as f64);
    }
    let phase_s: f64 = phases.iter().map(|&p| tr.spans()[p].duration()).sum();
    let coverage = phases
        .iter()
        .map(|&p| tr.coverage(p))
        .fold(f64::INFINITY, f64::min);
    write_trace(trace_out, &tr, "timed phase (traced)", args)?;
    Ok(json!({
        "failures": failures,
        "timed_s": phase_s + served.busy_s,
        "coverage": coverage,
        "wrong": served.wrong,
        "lookups": served.lookups,
        "host_ref_s": [host_before, host_after],
        "digest": checks::digest_output(&out),
        "results_digest": results_digest,
        "metrics": m.into_json(),
    }))
}

fn write_trace(path: &Path, tr: &Tracer, process: &str, args: &Args) -> Result<(), String> {
    let run = format!("{}/seed {}", args.workload.name(), args.seed);
    let events = Value::Array(tr.trace_events(std::process::id(), process, &run));
    std::fs::write(path, events.to_string()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Named per-layer values, in insertion order.
#[derive(Debug, Default)]
struct Metrics(Vec<(String, Value)>);

impl Metrics {
    fn set(&mut self, name: &str, v: f64) {
        self.0.push((name.to_string(), json!(v)));
    }

    fn into_json(self) -> Value {
        Value::Object(self.0)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics this process measured: span busy times for the
/// layers it called, and counts read from the values they returned.
fn layer_metrics(tr: &Tracer, out: &PipelineOutput, counts: &LayerCounts) -> Metrics {
    let mut m = Metrics::default();
    for (metric, span) in [
        ("population.grid_s", "population.grid"),
        ("topology.generate_s", "topology.generate"),
        ("measure.skitter_s", "measure.skitter"),
        ("measure.mercator_s", "measure.mercator"),
        ("geomap.gazetteer_s", "geomap.gazetteer"),
        ("pipeline.nearest_hints_s", "pipeline.nearest_hints"),
        ("pipeline.process_s", "pipeline.process"),
        ("bgp.synthesize_s", "bgp.synthesize"),
        ("query.freeze_s", "query.freeze"),
        ("io.save_s", "io.save"),
        ("io.load_s", "io.load"),
        ("experiments.section4_s", "experiments.section4"),
        ("experiments.section5_s", "experiments.section5"),
        ("experiments.section6_s", "experiments.section6"),
        ("experiments.fractal_s", "experiments.fractal"),
        ("experiments.robustness_s", "experiments.robustness"),
        ("experiments.preference_set_s", "experiments.preference_set"),
    ] {
        if tr.count(span) > 0 {
            m.set(metric, tr.busy(span));
        }
    }

    let gt = &out.ground_truth;
    m.set("population.cells", counts.cells as f64);
    m.set("topology.routers", gt.topology.num_routers() as f64);
    m.set("topology.links", gt.topology.num_links() as f64);
    m.set("topology.mem_mib", gt.mem_bytes() as f64 / MIB);
    let (sk, me) = (&out.skitter, &out.mercator);
    m.set(
        "measure.dataset_mib",
        (sk.dataset.mem_bytes() + me.dataset.mem_bytes()) as f64 / MIB,
    );
    m.set(
        "measure.routing.edges_relaxed",
        (sk.routing.edges_relaxed + me.routing.edges_relaxed) as f64,
    );
    m.set(
        "measure.routing.sources_solved",
        (sk.routing.sources_solved + me.routing.sources_solved) as f64,
    );
    for (name, ds, probes, ticks) in [
        ("skitter", &sk.dataset, sk.probes_sent, sk.virtual_ticks),
        ("mercator", &me.dataset, me.probes_sent, me.virtual_ticks),
    ] {
        let a = &ds.anomalies;
        let links = ds.num_links() as u64;
        m.set(&format!("measure.{name}.probes_sent"), probes as f64);
        m.set(&format!("measure.{name}.virtual_ticks"), ticks as f64);
        m.set(&format!("measure.{name}.links"), links as f64);
        m.set(
            &format!("measure.{name}.duplicate_links"),
            a.duplicate_links as f64,
        );
        m.set(
            &format!("measure.{name}.unique_link_ratio"),
            ratio(links, links + a.duplicate_links),
        );
        m.set(
            &format!("measure.{name}.probes_lost"),
            a.faults.probes_lost as f64,
        );
        m.set(&format!("measure.{name}.retries"), a.faults.retries as f64);
        m.set(
            &format!("measure.{name}.retry_success_ratio"),
            ratio(a.faults.retry_successes, a.faults.retries),
        );
        m.set(
            &format!("measure.{name}.outage_skips"),
            a.faults.outage_skips as f64,
        );
    }
    m.set(
        "measure.skitter.discarded_destinations",
        sk.discarded_destinations as f64,
    );
    m.set("measure.skitter.monitors_failed", sk.failed_monitors as f64);
    m.set("geomap.cities", counts.cities as f64);
    m.set("bgp.routes", out.route_table.len() as f64);
    m.set("query.records", out.query.len() as f64);
    m.set("query.snapshot_mib", out.query.mem_bytes() as f64 / MIB);

    let p = &counts.process;
    if p.addresses > 0 {
        m.set("pipeline.addresses", p.addresses as f64);
        m.set("pipeline.dropped_links", counts.dropped_links as f64);
        m.set("geomap.resolved_ratio", ratio(p.resolved, p.addresses));
        m.set("geomap.fallback_ratio", ratio(p.fallback, p.resolved));
        m.set("bgp.lpm_lookups", p.lpm_lookups as f64);
        m.set(
            "bgp.lpm_unmapped_ratio",
            ratio(p.lpm_unmapped, p.lpm_lookups),
        );
    }
    if counts.bytes_written > 0 {
        m.set("io.bytes_written_mib", counts.bytes_written as f64 / MIB);
    }
    if counts.bytes_read > 0 {
        let mib = counts.bytes_read as f64 / MIB;
        m.set("io.bytes_read_mib", mib);
        m.set("io.decode_mib_per_s", mib / tr.busy("io.load"));
    }
    m
}

fn serving_metrics(m: &mut Metrics, s: &Served) {
    m.set("query.lookups", s.lookups as f64);
    m.set("query.lookup_ns", s.busy_s * 1e9 / s.lookups.max(1) as f64);
    m.set("query.known_ratio", ratio(s.known, s.lookups));
    m.set("query.resolved_ratio", ratio(s.resolved, s.lookups));
}
