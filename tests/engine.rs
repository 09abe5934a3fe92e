//! Stage-graph engine guarantees: scheduling must never change results,
//! and the artifact store must actually avoid recomputation.

use geotopo::core::engine::{ArtifactStore, CacheStatus};
use geotopo::core::experiments;
use geotopo::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use std::sync::Arc;

/// The engine's core promise: output is a pure function of the config,
/// so a 4-worker run must be byte-identical to the sequential path —
/// both the archived dataset form and every rendered experiment.
#[test]
fn output_byte_identical_across_thread_counts() {
    let seq = Pipeline::new(PipelineConfig::tiny(77))
        .with_threads(1)
        .run()
        .unwrap();
    let par = Pipeline::new(PipelineConfig::tiny(77))
        .with_threads(4)
        .run()
        .unwrap();

    assert_eq!(seq.datasets.len(), par.datasets.len());
    for (a, b) in seq.datasets.iter().zip(&par.datasets) {
        assert_eq!(
            serde_json::to_string(&**a).unwrap(),
            serde_json::to_string(&**b).unwrap(),
            "{} {} diverged between thread counts",
            a.mapper,
            a.collector
        );
    }

    let ra = experiments::run_all(&seq);
    let rb = experiments::run_all(&par);
    assert_eq!(ra.len(), rb.len());
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.text, y.text, "experiment {} text diverged", x.id);
        assert_eq!(
            serde_json::to_string(&x.json).unwrap(),
            serde_json::to_string(&y.json).unwrap(),
            "experiment {} json diverged",
            x.id
        );
    }
}

/// Every stage of the graph reports exactly once, in graph order, and a
/// cold run is all cache misses.
#[test]
fn reports_cover_every_stage() {
    let cfg = PipelineConfig::tiny(3);
    let n_regions = cfg.world.regions.len();
    let out = Pipeline::new(cfg).run().unwrap();
    assert_eq!(out.reports.len(), n_regions + 14);
    let mut names: Vec<&str> = out.reports.iter().map(|r| r.stage.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), out.reports.len(), "duplicate stage report");
    for r in &out.reports {
        assert_eq!(
            r.cache,
            CacheStatus::Miss,
            "{} unexpectedly cached",
            r.stage
        );
        assert_eq!(r.fingerprint.len(), 16, "{} fingerprint", r.stage);
        assert!(r.wall_ms >= 0.0);
    }
}

/// Stages of a run that had to compute their artifact.
fn misses(out: &PipelineOutput) -> usize {
    out.reports
        .iter()
        .filter(|r| r.cache == CacheStatus::Miss)
        .count()
}

/// A second `run()` against the same store and config must reuse every
/// artifact (same `Arc`s, zero new misses) instead of regenerating.
#[test]
fn artifact_store_skips_regeneration() {
    let store = Arc::new(ArtifactStore::new());
    let first = Pipeline::new(PipelineConfig::tiny(5))
        .with_store(store.clone())
        .run()
        .unwrap();
    assert_eq!(misses(&first), first.reports.len(), "a cold store hit");

    let second = Pipeline::new(PipelineConfig::tiny(5))
        .with_store(store.clone())
        .run()
        .unwrap();
    for r in &second.reports {
        assert_eq!(
            r.cache,
            CacheStatus::HitMemory,
            "{} not served from memory",
            r.stage
        );
    }
    // Reuse is by sharing, not by copy.
    assert!(Arc::ptr_eq(&first.ground_truth, &second.ground_truth));
    assert!(Arc::ptr_eq(&first.route_table, &second.route_table));
    for (a, b) in first.datasets.iter().zip(&second.datasets) {
        assert!(Arc::ptr_eq(a, b));
    }

    // A different config fingerprint must miss again.
    let third = Pipeline::new(PipelineConfig::tiny(6))
        .with_store(store.clone())
        .run()
        .unwrap();
    assert!(misses(&third) > 0, "different seed reused stale artifacts");
}

/// Dataset artifacts spill to disk; a cold in-memory store backed by the
/// same directory reloads them instead of re-running the map stages, and
/// what it reloads is what the first run computed — bytes, accounted
/// heap and all.
#[test]
fn disk_cache_survives_store_loss() {
    let dir = std::env::temp_dir().join("geotopo_engine_disk_cache_test");
    let _ = std::fs::remove_dir_all(&dir);

    let warm = Arc::new(ArtifactStore::with_disk(&dir));
    let first = Pipeline::new(PipelineConfig::tiny(8))
        .with_store(warm)
        .run()
        .unwrap();

    // Fresh store, same directory: memory is empty, the files are not.
    let cold = Arc::new(ArtifactStore::with_disk(&dir));
    let second = Pipeline::new(PipelineConfig::tiny(8))
        .with_store(cold)
        .run()
        .unwrap();
    let disk_hits = second
        .reports
        .iter()
        .filter(|r| r.cache == CacheStatus::HitDisk)
        .count();
    assert_eq!(
        disk_hits, 8,
        "ground truth, route table, both collectors, and all four map stages should reload from disk"
    );
    for (a, b) in first.datasets.iter().zip(&second.datasets) {
        assert_eq!(
            serde_json::to_string(&**a).unwrap(),
            serde_json::to_string(&**b).unwrap(),
            "disk roundtrip changed {} {}",
            a.mapper,
            a.collector
        );
    }
    assert_eq!(
        serde_json::to_string(&*first.skitter).unwrap(),
        serde_json::to_string(&*second.skitter).unwrap(),
        "disk roundtrip changed the Skitter collection"
    );
    assert_eq!(
        serde_json::to_string(&*first.mercator).unwrap(),
        serde_json::to_string(&*second.mercator).unwrap(),
        "disk roundtrip changed the Mercator collection"
    );
    assert_eq!(
        first.skitter.dataset.mem_bytes(),
        second.skitter.dataset.mem_bytes()
    );
    assert_eq!(
        first.mercator.dataset.mem_bytes(),
        second.mercator.dataset.mem_bytes()
    );
    let resident = |out: &PipelineOutput| out.metrics.gauges["engine.store.resident_bytes"] as u64;
    assert_eq!(resident(&first), resident(&second));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GEOTOPO_THREADS` feeds the same resolution path as the config knob;
/// an explicit knob always wins.
#[test]
fn threads_knob_beats_env() {
    assert_eq!(geotopo::core::engine::resolve_threads(3), 3);
    assert!(geotopo::core::engine::resolve_threads(0) >= 1);
}
