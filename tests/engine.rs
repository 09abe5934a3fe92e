//! Stage-graph engine guarantees: scheduling must never change results,
//! and the artifact store must actually avoid recomputation.

use geotopo::core::engine::{
    config_fingerprint, map_stage_name, stage_fingerprint, ArtifactStore, CacheStatus,
    COLLECT_MERCATOR, COLLECT_SKITTER, GROUND_TRUTH, ROUTE_TABLE,
};
use geotopo::core::experiments;
use geotopo::core::io;
use geotopo::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use geotopo::core::vfs::RealVfs;
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

/// One artifact's JSON three ways: compact, compact through the `Value`
/// built from it, and pretty.
macro_rules! forms {
    ($artifact:expr) => {
        [
            serde_json::to_string($artifact).unwrap(),
            serde_json::to_string(&serde_json::to_value($artifact).unwrap()).unwrap(),
            serde_json::to_string_pretty($artifact).unwrap(),
        ]
    };
}

/// The 8 artifacts a run persists, by stage name, in [`forms!`].
fn persisted(out: &PipelineOutput) -> Vec<(String, [String; 3])> {
    let mut all = vec![
        (GROUND_TRUTH.to_string(), forms!(&*out.ground_truth)),
        (ROUTE_TABLE.to_string(), forms!(&*out.route_table)),
        (COLLECT_SKITTER.to_string(), forms!(&*out.skitter)),
        (COLLECT_MERCATOR.to_string(), forms!(&*out.mercator)),
    ];
    for d in &out.datasets {
        all.push((map_stage_name(d.mapper, d.collector), forms!(&**d)));
    }
    all
}

/// Envelopes written before payloads went compact hold pretty JSON. A
/// store of them must restore all 8 artifacts from disk, quarantine
/// none, and give what the run that computed them gave.
#[test]
fn pretty_payload_cache_restores_from_disk() {
    let dir = std::env::temp_dir().join("geotopo_engine_pretty_cache_test");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PipelineConfig::tiny(8);
    let fresh = persisted(&Pipeline::new(cfg.clone()).run().unwrap());
    for (stage, [_, _, pretty]) in &fresh {
        let fp = stage_fingerprint(config_fingerprint(&cfg), stage);
        let path = io::dataset_cache_path(&dir, &fp.to_string(), stage);
        io::save_envelope(&RealVfs, &path, stage, fp, pretty.as_bytes()).unwrap();
    }

    let store = Arc::new(ArtifactStore::with_disk(&dir));
    let out = Pipeline::new(cfg).with_store(store.clone()).run().unwrap();
    let disk_hits = out
        .reports
        .iter()
        .filter(|r| r.cache == CacheStatus::HitDisk)
        .count();
    assert_eq!(disk_hits, 8, "every pretty envelope should reload");
    assert_eq!(store.corrupt_detected(), 0);
    for ((stage, restored), (_, computed)) in persisted(&out).iter().zip(&fresh) {
        assert!(restored == computed, "{stage} differs after the restore");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The JSON writer and the `Value` builder implement one serializer
/// interface: for every persisted artifact, writing it directly and
/// writing the `Value` built from it give the same text.
#[test]
fn direct_writer_and_value_builder_agree() {
    let out = Pipeline::new(PipelineConfig::tiny(8)).run().unwrap();
    for (stage, [direct, via_value, _]) in persisted(&out) {
        assert!(
            direct == via_value,
            "{stage}: the two serializer paths differ"
        );
    }
}

/// `GEOTOPO_THREADS` feeds the same resolution path as the config knob;
/// an explicit knob always wins.
#[test]
fn threads_knob_beats_env() {
    assert_eq!(geotopo::core::engine::resolve_threads(3), 3);
    assert!(geotopo::core::engine::resolve_threads(0) >= 1);
}
