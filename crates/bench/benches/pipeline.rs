//! End-to-end pipeline benches: the cost of producing Table I's four
//! processed datasets, stage by stage.

// Bench setup code: aborting on malformed fixtures is the right behaviour.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use geotopo_bgp::{RouteTable, RouteTableConfig};
use geotopo_core::experiments;
use geotopo_core::pipeline::{Pipeline, PipelineConfig};
use geotopo_measure::{FaultConfig, Mercator, MercatorConfig, Skitter, SkitterConfig};
use geotopo_stats::SerialExec;
use geotopo_topology::generate::{GroundTruth, GroundTruthConfig};
use std::hint::black_box;

fn bench_ground_truth(c: &mut Criterion) {
    c.bench_function("ground_truth/tiny", |b| {
        b.iter(|| GroundTruth::generate(black_box(GroundTruthConfig::tiny(2002))).unwrap())
    });
}

fn bench_collectors(c: &mut Criterion) {
    let gt = GroundTruth::generate(GroundTruthConfig::tiny(2002)).unwrap();
    c.bench_function("collect/skitter_tiny", |b| {
        let cfg = SkitterConfig::scaled(&gt, 7);
        let none = FaultConfig::none();
        b.iter(|| {
            Skitter::collect_with_faults_exec(black_box(&gt), black_box(&cfg), &none, &SerialExec)
        })
    });
    c.bench_function("collect/mercator_tiny", |b| {
        let cfg = MercatorConfig::scaled(&gt, 7);
        let none = FaultConfig::none();
        b.iter(|| Mercator::collect_with_faults(black_box(&gt), black_box(&cfg), &none))
    });
    c.bench_function("bgp/route_table_synthesis", |b| {
        let cfg = RouteTableConfig::default();
        b.iter(|| RouteTable::synthesize(black_box(&gt.allocations), black_box(&cfg)))
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("full_tiny_table1", |b| {
        b.iter(|| {
            let out = Pipeline::new(PipelineConfig::tiny(2002)).run().unwrap();
            experiments::table1(black_box(&out))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ground_truth,
    bench_collectors,
    bench_full_pipeline
);
criterion_main!(benches);
