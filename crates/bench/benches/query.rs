//! Query-snapshot serving bench: bulk hitlist throughput at each
//! requested worker count, plus the regression gate behind
//! `cargo xtask bench --bench query --check`.
//!
//! ```sh
//! cargo bench -p geotopo-bench --bench query -- \
//!     [--scale NAME] [--threads 1,4] [--iters N] [--hitlist N] \
//!     [--json PATH] [--check BASELINE] [--min-speedup X] [--tolerance X]
//! ```
//!
//! A plain harness like `pipeline_stages`: the pipeline is built once
//! per scale (untimed), its frozen `geotopo_query::QuerySnapshot` is
//! then served a hitlist — the world's interfaces cycled to `--hitlist`
//! addresses — through the engine's `parallel_map` executor, and the
//! best-of-`--iters` wall time becomes the recorded lookups/s. Entries
//! merge into the JSON file by scale, so one committed baseline
//! (`BENCH_query.json`) carries several world sizes.
//!
//! `--check BASELINE` gates two properties:
//!
//! 1. **No single-thread throughput regression** — fresh 1-thread
//!    lookups/s must not fall below the baseline's by more than
//!    `--tolerance` (default 0.5: at most ~1.5x slower; absolute rates
//!    move across machines, the baseline pins the order of magnitude).
//! 2. **Thread scaling** — lookups/s at the highest worker count must
//!    be at least `--min-speedup` (default 1.5) times the 1-thread
//!    rate. Lookups are CPU-bound and share no mutable state, so the
//!    scaling should be near-linear; the gate is skipped (loudly) when
//!    the host has fewer cores than the worker count or the baseline
//!    was recorded on a host with a different core count.

// Bench code: aborting on setup failure is the right behaviour.
#![allow(clippy::unwrap_used)]

use geotopo_core::engine::resolve_threads;
use geotopo_core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use geotopo_core::query::bulk_lookup;
use geotopo_core::telemetry::Telemetry;
use std::net::Ipv4Addr;
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 2002;

struct Run {
    threads: usize,
    /// Best wall time for one full hitlist resolution, seconds.
    best_s: f64,
    /// Hitlist addresses served per second at that best time.
    lookups_per_s: f64,
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

fn measure(out: &PipelineOutput, hitlist: &[Ipv4Addr], threads: usize, iters: usize) -> Run {
    let telemetry = Telemetry::new();
    let mut best_s = f64::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        let answers = bulk_lookup(&out.query, hitlist, threads, &telemetry);
        best_s = best_s.min(start.elapsed().as_secs_f64());
        assert_eq!(answers.len(), hitlist.len());
        std::hint::black_box(&answers);
    }
    Run {
        threads,
        best_s,
        lookups_per_s: hitlist.len() as f64 / best_s.max(1e-12),
    }
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
    let json_path = arg_value(&args, "--json").unwrap_or_else(|| "target/query.json".into());
    let baseline_path = arg_value(&args, "--check");
    let min_speedup: f64 = arg_value(&args, "--min-speedup")
        .map(|s| s.parse().expect("--min-speedup takes a number"))
        .unwrap_or(1.5);
    let tolerance: f64 = arg_value(&args, "--tolerance")
        .map(|s| s.parse().expect("--tolerance takes a number"))
        .unwrap_or(0.5);
    let iters: usize = arg_value(&args, "--iters")
        .map(|s| s.parse().expect("--iters takes a count"))
        .unwrap_or(5);
    let hitlist_n: usize = arg_value(&args, "--hitlist")
        .map(|s| s.parse().expect("--hitlist takes an address count"))
        .unwrap_or(400_000);
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

    // Build once, untimed: the bench measures serving, not production.
    let build = Instant::now();
    let out = Pipeline::new(config_for(&scale)).run().unwrap();
    let interfaces: Vec<Ipv4Addr> = out
        .ground_truth
        .topology
        .interfaces()
        .map(|(_, iface)| iface.ip)
        .collect();
    let hitlist: Vec<Ipv4Addr> = interfaces.iter().copied().cycle().take(hitlist_n).collect();
    println!(
        "query (scale = {scale}, seed = {SEED}, best of {iters}): snapshot of {} \
         addresses built in {:.1}s, hitlist of {}",
        out.query.len(),
        build.elapsed().as_secs_f64(),
        hitlist.len()
    );

    let runs: Vec<Run> = threads
        .iter()
        .map(|&t| measure(&out, &hitlist, t, iters))
        .collect();
    for run in &runs {
        println!(
            "  threads = {}: {:.4}s per hitlist, {:.0} lookups/s",
            run.threads, run.best_s, run.lookups_per_s
        );
    }
    if let (Some(a), Some(b)) = (runs.first(), runs.last()) {
        if a.threads != b.threads {
            println!(
                "  serving speedup: {:.2}x ({} workers over {})",
                b.lookups_per_s / a.lookups_per_s,
                b.threads,
                a.threads
            );
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let entry = serde_json::json!({
        "seed": SEED,
        "iters": iters,
        "host_cores": cores,
        "hitlist": hitlist.len(),
        "snapshot_addresses": out.query.len(),
        "runs": runs
            .iter()
            .map(|r| {
                serde_json::json!({
                    "threads": r.threads,
                    "best_s": r.best_s,
                    "lookups_per_s": r.lookups_per_s,
                })
            })
            .collect::<Vec<_>>(),
    });
    // Merge this scale's entry into whatever the file already holds.
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
        "bench": "query",
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

/// The `--check` gate; exit 1 on a regression so CI fails the job.
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
    let base_rate_1 = entry["runs"]
        .as_array()
        .and_then(|rs| rs.iter().find(|r| r["threads"] == 1))
        .and_then(|r| r["lookups_per_s"].as_f64());
    let Some(base_rate_1) = base_rate_1 else {
        eprintln!("bench check: baseline entry {scale:?} has no 1-thread lookups_per_s");
        return ExitCode::from(2);
    };

    let mut failed = false;
    let seq = runs.iter().find(|r| r.threads == 1);
    let par = runs.iter().rfind(|r| r.threads > 1);

    // Gate 1: no single-thread throughput regression.
    if let Some(seq) = seq {
        let floor = base_rate_1 / (1.0 + tolerance);
        if seq.lookups_per_s < floor {
            eprintln!(
                "bench check: FAIL 1-thread throughput {:.0}/s fell below baseline \
                 {base_rate_1:.0}/s by more than {:.0}%",
                seq.lookups_per_s,
                tolerance * 100.0
            );
            failed = true;
        } else {
            println!(
                "bench check: 1-thread throughput {:.0}/s within {:.0}% of \
                 baseline {base_rate_1:.0}/s",
                seq.lookups_per_s,
                tolerance * 100.0
            );
        }
    }

    // Gate 2: thread scaling, when the host can express it and the
    // baseline is from a comparable host.
    if let (Some(seq), Some(par)) = (seq, par) {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let base_cores = entry["host_cores"].as_u64();
        if let Some(skip) = geotopo_bench::scaling_gate_skip(cores, par.threads, base_cores) {
            println!("bench check: {skip}");
        } else {
            let speedup = par.lookups_per_s / seq.lookups_per_s;
            if speedup < min_speedup {
                eprintln!(
                    "bench check: FAIL serving speedup {speedup:.2}x at \
                     {} threads < required {min_speedup:.2}x",
                    par.threads
                );
                failed = true;
            } else {
                println!(
                    "bench check: serving speedup {speedup:.2}x at {} threads \
                     (>= {min_speedup:.2}x)",
                    par.threads
                );
            }
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        println!("bench check: ok against {baseline_path} (entry: {scale})");
        ExitCode::SUCCESS
    }
}
