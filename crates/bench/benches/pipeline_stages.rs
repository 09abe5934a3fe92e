//! Stage-graph scheduler bench: per-stage and end-to-end wall time at
//! each requested worker count, plus the measurement-stage regression
//! gate behind `cargo xtask bench --check`.
//!
//! ```sh
//! cargo bench -p geotopo-bench --bench pipeline_stages -- \
//!     [--scale NAME] [--threads 1,4] [--iters N] [--json PATH] \
//!     [--check BASELINE] [--min-speedup X] [--tolerance X]
//! ```
//!
//! A plain harness: the engine already measures each stage (its
//! `StageReport`s), so the bench only has to run the pipeline at the
//! requested thread counts, aggregate the reports, and persist a JSON
//! baseline (default `target/pipeline_stages.json`) for regression
//! comparison.
//!
//! `--scale` picks the world size (tiny|small|default|large|paper;
//! default `small`). The JSON file holds one entry per scale under
//! `"entries"`, and writing a new run *merges* into the existing file,
//! so the committed baseline can carry both the fast `small` entry and
//! the memory-stress `large` entry without one run clobbering the
//! other. Each run also records the process peak RSS (from the engine's
//! per-stage reports), which is what the `large` entry exists to pin.
//!
//! `--check BASELINE` loads a committed baseline (`BENCH_measure.json`
//! at the repo root), selects its entry for the scale being run, and
//! gates on three properties of the fresh run:
//!
//! 1. **Thread scaling** — the measurement stage (`collect-skitter` +
//!    `collect-mercator` wall time) at the highest thread count must be
//!    at least `--min-speedup` (default 2.0) times faster than at one
//!    thread. Monitor campaigns are CPU-bound, so this assertion is
//!    only meaningful when the host actually has that parallelism; the
//!    gate is skipped with a loud note when the host has fewer cores
//!    than the requested thread count, *or* when the baseline was
//!    recorded on a host with a different core count (comparing a
//!    4-core scaling curve against a 1-core recording gates noise, not
//!    regressions).
//! 2. **No single-thread regression** — the fresh one-thread
//!    measurement time *and* end-to-end wall time must not exceed the
//!    baseline's by more than `--tolerance` (default 0.5, i.e. +50%;
//!    generous because absolute milliseconds move across machines — the
//!    committed baseline mainly pins the *shape* of the run). The
//!    end-to-end gate pins the interior-parallel stage rebuild: a
//!    serial regression anywhere in the graph fails it even if the
//!    probe collectors stay fast.
//! 3. **No peak-RSS regression** — when both the baseline entry and the
//!    fresh run carry a nonzero peak RSS, the fresh peak must not
//!    exceed the baseline's by more than the same tolerance. This is
//!    the memory gate for the `large` scale: the packed topology core
//!    keeps a ~100k-router world within the committed footprint.

// Bench code: aborting on setup failure is the right behaviour.
#![allow(clippy::unwrap_used)]

use geotopo_core::engine::{resolve_threads, StageReport};
use geotopo_core::pipeline::{Pipeline, PipelineConfig};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 2002;

/// Stages that make up "the measurement stage" for gating purposes:
/// the two probe collectors the hot-path work landed in.
const MEASURE_STAGES: &[&str] = &["collect-skitter", "collect-mercator"];

struct Run {
    threads: usize,
    /// Best end-to-end wall time over the iterations, seconds.
    total_s: f64,
    /// Per-stage best wall time, milliseconds.
    stages_ms: BTreeMap<String, f64>,
    /// Highest per-stage peak RSS observed, bytes (0 = unsupported).
    peak_rss_bytes: u64,
}

impl Run {
    /// Combined wall time of the measurement stages, milliseconds.
    fn measure_ms(&self) -> f64 {
        MEASURE_STAGES
            .iter()
            .filter_map(|s| self.stages_ms.get(*s))
            .sum()
    }
}

fn config_for(scale: &str) -> PipelineConfig {
    match scale {
        "tiny" => PipelineConfig::tiny(SEED),
        "small" => PipelineConfig::small(SEED),
        "default" => PipelineConfig::default_scale(SEED),
        "large" => PipelineConfig::large(SEED),
        "paper" => PipelineConfig::paper(SEED),
        other => panic!("unknown --scale {other:?} (tiny|small|default|large|paper)"),
    }
}

fn measure(scale: &str, threads: usize, iters: usize) -> Run {
    let mut total_s = f64::MAX;
    let mut stages_ms: BTreeMap<String, f64> = BTreeMap::new();
    let mut peak_rss_bytes = 0u64;
    for _ in 0..iters {
        let start = Instant::now();
        let out = Pipeline::new(config_for(scale))
            .with_threads(threads)
            .run()
            .unwrap();
        total_s = total_s.min(start.elapsed().as_secs_f64());
        for r in &out.reports {
            let best = stages_ms.entry(r.stage.clone()).or_insert(f64::MAX);
            *best = best.min(r.wall_ms);
            peak_rss_bytes = peak_rss_bytes.max(r.peak_rss_bytes);
        }
        record_reports(&out.reports);
    }
    Run {
        threads,
        total_s,
        stages_ms,
        peak_rss_bytes,
    }
}

/// Keeps the reports alive past the timing read (and out of the
/// optimizer's reach).
fn record_reports(reports: &[StageReport]) {
    std::hint::black_box(reports.len());
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_value(&args, "--scale").unwrap_or_else(|| "small".into());
    let json_path =
        arg_value(&args, "--json").unwrap_or_else(|| "target/pipeline_stages.json".into());
    let baseline_path = arg_value(&args, "--check");
    let min_speedup: f64 = arg_value(&args, "--min-speedup")
        .map(|s| s.parse().expect("--min-speedup takes a number"))
        .unwrap_or(2.0);
    let tolerance: f64 = arg_value(&args, "--tolerance")
        .map(|s| s.parse().expect("--tolerance takes a number"))
        .unwrap_or(0.5);
    // The large/paper worlds are minutes-long; one iteration pins the
    // footprint without tripling the wall clock.
    let default_iters = if matches!(scale.as_str(), "large" | "paper") {
        1
    } else {
        3
    };
    let iters: usize = arg_value(&args, "--iters")
        .map(|s| s.parse().expect("--iters takes a count"))
        .unwrap_or(default_iters);
    let threads: Vec<usize> = match arg_value(&args, "--threads") {
        Some(list) => list
            .split(',')
            .map(|t| {
                let t: usize = t.trim().parse().expect("--threads takes e.g. 1,4");
                if t == 0 {
                    resolve_threads(0)
                } else {
                    t
                }
            })
            .collect(),
        None => {
            let par = resolve_threads(0);
            if par > 1 {
                vec![1, par]
            } else {
                vec![1]
            }
        }
    };

    let runs: Vec<Run> = threads.iter().map(|&t| measure(&scale, t, iters)).collect();

    println!("pipeline_stages (scale = {scale}, seed = {SEED}, best of {iters})");
    for run in &runs {
        println!(
            "  threads = {}: {:.3}s end-to-end, measurement {:.2} ms, peak RSS {:.1} MiB",
            run.threads,
            run.total_s,
            run.measure_ms(),
            run.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        );
        for (stage, ms) in &run.stages_ms {
            println!("    {stage:>24}  {ms:>9.2} ms");
        }
    }
    if let (Some(a), Some(b)) = (runs.first(), runs.last()) {
        if a.threads != b.threads {
            println!(
                "  measurement-stage speedup: {:.2}x ({} workers over {})",
                a.measure_ms() / b.measure_ms(),
                b.threads,
                a.threads
            );
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let entry = serde_json::json!({
        "seed": SEED,
        "iters": iters,
        // Contextualizes the thread-scaling rows: a 4-thread run on a
        // 1-core host records oversubscription, not speedup.
        "host_cores": cores,
        "peak_rss_bytes": runs.iter().map(|r| r.peak_rss_bytes).max().unwrap_or(0),
        "runs": runs
            .iter()
            .map(|r| {
                serde_json::json!({
                    "threads": r.threads,
                    "total_s": r.total_s,
                    "measure_ms": r.measure_ms(),
                    "peak_rss_bytes": r.peak_rss_bytes,
                    "stages_ms": r.stages_ms,
                })
            })
            .collect::<Vec<_>>(),
    });
    // Merge this scale's entry into whatever the file already holds, so
    // a `large` recording does not clobber the committed `small` one.
    let mut entries: Vec<(String, serde_json::Value)> = std::fs::read_to_string(&json_path)
        .ok()
        .and_then(|t| serde_json::from_str::<serde_json::Value>(&t).ok())
        .as_ref()
        .and_then(|v| v.get("entries"))
        .and_then(serde_json::Value::as_object)
        .cloned()
        .unwrap_or_default();
    entries.retain(|(k, _)| k != &scale);
    entries.push((scale.clone(), entry));
    let doc = serde_json::json!({
        "bench": "pipeline_stages",
        "entries": serde_json::Value::Object(entries),
    });
    if let Some(parent) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&json_path, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
    println!("  results written to {json_path} (entry: {scale})");

    match baseline_path {
        Some(p) => check(&runs, &scale, &p, min_speedup, tolerance),
        None => ExitCode::SUCCESS,
    }
}

/// The `--check` gate. Returns failure (exit 1) on a regression so
/// `cargo bench` — and through it `cargo xtask bench --check` — fails
/// the CI job.
fn check(
    runs: &[Run],
    scale: &str,
    baseline_path: &str,
    min_speedup: f64,
    tolerance: f64,
) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench check: cannot read baseline {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench check: baseline {baseline_path} is not JSON: {e}");
            return ExitCode::from(2);
        }
    };
    let entry = &baseline["entries"][scale];
    if entry.is_null() {
        eprintln!("bench check: baseline {baseline_path} has no entry for scale {scale:?}");
        return ExitCode::from(2);
    }
    let base_measure_1 = entry["runs"]
        .as_array()
        .and_then(|rs| rs.iter().find(|r| r["threads"] == 1))
        .and_then(|r| r["measure_ms"].as_f64());
    let Some(base_measure_1) = base_measure_1 else {
        eprintln!("bench check: baseline entry {scale:?} has no 1-thread measure_ms");
        return ExitCode::from(2);
    };

    let mut failed = false;
    let seq = runs.iter().find(|r| r.threads == 1);
    let par = runs.iter().rfind(|r| r.threads > 1);

    // Gate 1: thread scaling of the measurement stage, when the host
    // can actually express it AND the baseline is from a comparable
    // host (a curve recorded on a different core count pins nothing).
    if let (Some(seq), Some(par)) = (seq, par) {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let base_cores = entry["host_cores"].as_u64();
        if let Some(skip) = geotopo_bench::scaling_gate_skip(cores, par.threads, base_cores) {
            println!("bench check: {skip}");
        } else {
            let speedup = seq.measure_ms() / par.measure_ms();
            if speedup < min_speedup {
                eprintln!(
                    "bench check: FAIL measurement-stage speedup {speedup:.2}x at \
                     {} threads < required {min_speedup:.2}x",
                    par.threads
                );
                failed = true;
            } else {
                println!(
                    "bench check: measurement-stage speedup {speedup:.2}x at {} threads \
                     (>= {min_speedup:.2}x)",
                    par.threads
                );
            }
        }
    }

    // Gate 2: no single-thread regression against the committed
    // baseline — both the measurement stages and the end-to-end wall
    // time. The total gate is the tighter one now that every hot stage
    // interior is chunked: a serial regression anywhere in the graph
    // shows up in total_s even if the probe collectors stay fast.
    if let Some(seq) = seq {
        let limit = base_measure_1 * (1.0 + tolerance);
        if seq.measure_ms() > limit {
            eprintln!(
                "bench check: FAIL 1-thread measurement {:.2} ms exceeds baseline \
                 {base_measure_1:.2} ms by more than {:.0}%",
                seq.measure_ms(),
                tolerance * 100.0
            );
            failed = true;
        } else {
            println!(
                "bench check: 1-thread measurement {:.2} ms within {:.0}% of \
                 baseline {base_measure_1:.2} ms",
                seq.measure_ms(),
                tolerance * 100.0
            );
        }
        let base_total_1 = entry["runs"]
            .as_array()
            .and_then(|rs| rs.iter().find(|r| r["threads"] == 1))
            .and_then(|r| r["total_s"].as_f64());
        if let Some(base_total_1) = base_total_1 {
            let limit = base_total_1 * (1.0 + tolerance);
            if seq.total_s > limit {
                eprintln!(
                    "bench check: FAIL 1-thread end-to-end {:.3} s exceeds baseline \
                     {base_total_1:.3} s by more than {:.0}%",
                    seq.total_s,
                    tolerance * 100.0
                );
                failed = true;
            } else {
                println!(
                    "bench check: 1-thread end-to-end {:.3} s within {:.0}% of \
                     baseline {base_total_1:.3} s",
                    seq.total_s,
                    tolerance * 100.0
                );
            }
        }
    }

    // Gate 3: no peak-RSS regression (the memory gate the `large` entry
    // exists for). Peak RSS is a process-wide high-water mark, so the
    // fresh maximum over all runs is compared against the baseline's.
    let fresh_rss = runs.iter().map(|r| r.peak_rss_bytes).max().unwrap_or(0);
    let base_rss = entry["peak_rss_bytes"].as_u64().unwrap_or(0);
    if fresh_rss > 0 && base_rss > 0 {
        let limit = (base_rss as f64 * (1.0 + tolerance)) as u64;
        let mib = 1024.0 * 1024.0;
        if fresh_rss > limit {
            eprintln!(
                "bench check: FAIL peak RSS {:.1} MiB exceeds baseline {:.1} MiB \
                 by more than {:.0}%",
                fresh_rss as f64 / mib,
                base_rss as f64 / mib,
                tolerance * 100.0
            );
            failed = true;
        } else {
            println!(
                "bench check: peak RSS {:.1} MiB within {:.0}% of baseline {:.1} MiB",
                fresh_rss as f64 / mib,
                tolerance * 100.0,
                base_rss as f64 / mib
            );
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        println!("bench check: ok against {baseline_path} (entry: {scale})");
        ExitCode::SUCCESS
    }
}
