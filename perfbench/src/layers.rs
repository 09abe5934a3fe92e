//! The traced path: the pipeline's work done by calling each layer's
//! public entry points directly, in the stage graph's order, with one
//! span around every call. Each call mirrors the body of the engine
//! stage that makes it (same configs, same seeds, one worker), so the
//! outputs are the ones `Pipeline::run` produces; the runner checks that
//! by comparing digests with an untraced run.

use crate::trace::Tracer;
use geotopo::bgp::RouteTable;
use geotopo::core::engine::{self, config_fingerprint, stage_fingerprint};
use geotopo::core::experiments::{self, ExperimentResult};
use geotopo::core::io::{self, CacheRead};
use geotopo::core::pipeline::{
    process_chunked, Collector, MapperKind, NearestHints, PipelineConfig, PipelineOutput,
    ProcessTelemetry, ProcessedDataset,
};
use geotopo::core::section5::{self, RegionBins};
use geotopo::core::telemetry::MetricsSnapshot;
use geotopo::core::vfs::RealVfs;
use geotopo::geomap::{EdgeScape, Gazetteer, GeoMapper, IxMapper, MapContext, OrgDb};
use geotopo::measure::{
    Mercator, MercatorConfig, MercatorOutput, Skitter, SkitterConfig, SkitterOutput,
};
use geotopo::population::PopulationGrid;
use geotopo::query::QuerySnapshot;
use geotopo::stats::SerialExec;
use geotopo::topology::generate::GroundTruth;
use std::path::Path;
use std::sync::Arc;

/// The processed datasets in Table I order (the engine's stage order).
const TABLE_I_ORDER: [(MapperKind, Collector); 4] = [
    (MapperKind::IxMapper, Collector::Mercator),
    (MapperKind::IxMapper, Collector::Skitter),
    (MapperKind::EdgeScape, Collector::Mercator),
    (MapperKind::EdgeScape, Collector::Skitter),
];

/// Counts read from the values the layers return.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub cells: u64,
    pub cities: u64,
    /// The four map runs' tallies, merged (zero when the datasets were
    /// restored from disk).
    pub process: ProcessTelemetry,
    pub dropped_links: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
}

/// Where a traced run keeps the engine's eight persisted artifacts: the
/// same directory, file names and envelopes `ArtifactStore::with_disk`
/// uses, so an untraced restart on it must find eight disk hits.
pub struct Persist<'a> {
    dir: &'a Path,
    config_fp: engine::Fingerprint,
}

impl<'a> Persist<'a> {
    pub fn new(dir: &'a Path, cfg: &PipelineConfig) -> Self {
        Persist {
            dir,
            config_fp: config_fingerprint(cfg),
        }
    }

    fn entry(&self, stage: &str) -> (std::path::PathBuf, engine::Fingerprint) {
        let fp = stage_fingerprint(self.config_fp, stage);
        (io::dataset_cache_path(self.dir, &fp.to_string(), stage), fp)
    }

    fn save<T: serde::Serialize>(
        &self,
        tr: &mut Tracer,
        counts: &mut LayerCounts,
        stage: &str,
        value: &T,
    ) -> Result<(), String> {
        let (path, fp) = self.entry(stage);
        tr.time("io", &format!("io.save:{stage}"), || {
            io::save_json(&RealVfs, value, &path, stage, fp)
        })
        .map_err(|e| format!("saving {stage}: {e}"))?;
        counts.bytes_written += file_len(&path)?;
        Ok(())
    }

    fn load<T: serde::Deserialize>(
        &self,
        tr: &mut Tracer,
        counts: &mut LayerCounts,
        stage: &str,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Result<T, String> {
        let (path, fp) = self.entry(stage);
        counts.bytes_read += file_len(&path)?;
        tr.time("io", &format!("io.load:{stage}"), || {
            match io::load_json::<T>(&RealVfs, &path, stage, fp) {
                CacheRead::Hit(v) => check(&v).map(|()| v),
                CacheRead::Miss => Err("missing".into()),
                CacheRead::Corrupt(reason) => Err(reason),
            }
        })
        .map_err(|e| format!("loading {stage}: {e}"))
    }
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn population_grids(
    cfg: &PipelineConfig,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<Vec<PopulationGrid>, String> {
    let grids = (0..cfg.world.regions.len())
        .map(|i| {
            tr.time("population", "population.grid", || {
                cfg.world.population_grid(i)
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("population grid: {e}"))?;
    counts.cells = grids.iter().map(|g| g.cells().len() as u64).sum();
    Ok(grids)
}

fn org_db(gt: &GroundTruth, tr: &mut Tracer) -> Arc<OrgDb> {
    tr.time("geomap", "geomap.orgdb", || {
        let mut orgs = OrgDb::new();
        for rec in &gt.as_records {
            orgs.insert(rec.asn, gt.as_name(rec.asn), rec.home);
        }
        Arc::new(orgs)
    })
}

fn gazetteer(
    grids: &[PopulationGrid],
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Arc<Gazetteer> {
    let gazetteer = tr.time("geomap", "geomap.gazetteer", || {
        let mut g = Gazetteer::builtin();
        for grid in grids {
            g.extend_from_population(grid, 8_000.0);
        }
        Arc::new(g)
    });
    counts.cities = gazetteer.len() as u64;
    gazetteer
}

fn nearest_hints(gt: &GroundTruth, gazetteer: &Gazetteer, tr: &mut Tracer) -> NearestHints {
    tr.time("pipeline", "pipeline.nearest_hints", || {
        NearestHints::compute(gt, gazetteer, &SerialExec)
    })
}

fn mappers(
    cfg: &PipelineConfig,
    orgs: &Arc<OrgDb>,
    gazetteer: &Arc<Gazetteer>,
    tr: &mut Tracer,
) -> (IxMapper, EdgeScape) {
    tr.time("geomap", "geomap.mappers", || {
        (
            IxMapper::with_gazetteer(cfg.mapper_seed, orgs.clone(), gazetteer.clone()),
            EdgeScape::with_gazetteer(cfg.mapper_seed ^ 0x77, orgs.clone(), gazetteer.clone()),
        )
    })
}

fn freeze(
    gt: &GroundTruth,
    table: &Arc<RouteTable>,
    gazetteer: &Arc<Gazetteer>,
    ix: &IxMapper,
    hints: &NearestHints,
    tr: &mut Tracer,
) -> QuerySnapshot {
    tr.time("query", "query.freeze", || {
        let topo = &gt.topology;
        let addresses = topo.interfaces().map(|(_, iface)| {
            let r = topo.router(iface.router);
            (
                iface.ip,
                MapContext::new(r.location, r.asn)
                    .with_nearest_hint(hints.for_router(iface.router)),
            )
        });
        QuerySnapshot::freeze(
            addresses,
            ix as &dyn GeoMapper,
            table.clone(),
            gazetteer.clone(),
        )
    })
}

fn output(
    gt: Arc<GroundTruth>,
    route_table: Arc<RouteTable>,
    datasets: Vec<Arc<ProcessedDataset>>,
    skitter: Arc<SkitterOutput>,
    mercator: Arc<MercatorOutput>,
    query: QuerySnapshot,
) -> PipelineOutput {
    PipelineOutput {
        ground_truth: gt,
        route_table,
        datasets,
        skitter,
        mercator,
        query: Arc::new(query),
        reports: Vec::new(),
        metrics: MetricsSnapshot::default(),
    }
}

/// The cold pipeline, layer by layer. With `persist`, every artifact the
/// engine persists is saved right after it is computed, as the engine
/// does when it populates a disk store.
pub fn build(
    cfg: &PipelineConfig,
    tr: &mut Tracer,
    persist: Option<&Persist<'_>>,
) -> Result<(PipelineOutput, LayerCounts), String> {
    let mut counts = LayerCounts::default();
    let grids = population_grids(cfg, tr, &mut counts)?;
    let gt = tr
        .time("topology", "topology.generate", || {
            let refs: Vec<&PopulationGrid> = grids.iter().collect();
            GroundTruth::generate_with_grids(cfg.world.clone(), &refs)
        })
        .map_err(|e| format!("ground truth: {e}"))?;
    if let Some(p) = persist {
        p.save(tr, &mut counts, engine::GROUND_TRUTH, &gt)?;
    }
    let table = tr.time("bgp", "bgp.synthesize", || {
        Arc::new(RouteTable::synthesize(&gt.allocations, &cfg.route_table))
    });
    if let Some(p) = persist {
        p.save(tr, &mut counts, engine::ROUTE_TABLE, &*table)?;
    }
    let orgs = org_db(&gt, tr);
    let gazetteer = gazetteer(&grids, tr, &mut counts);
    let hints = nearest_hints(&gt, &gazetteer, tr);

    let skitter = tr.time("measure", "measure.skitter", || {
        let sc = cfg
            .skitter
            .clone()
            .unwrap_or_else(|| SkitterConfig::scaled(&gt, cfg.world.seed ^ 0x51));
        Skitter::collect_with_faults_exec(&gt, &sc, &cfg.faults, &SerialExec)
    });
    let need = cfg.faults.quorum_monitors(skitter.monitors.len());
    if skitter.active_monitors() < need {
        return Err(format!(
            "skitter quorum lost: {} active, need {need}",
            skitter.active_monitors()
        ));
    }
    if let Some(p) = persist {
        p.save(tr, &mut counts, engine::COLLECT_SKITTER, &skitter)?;
    }
    let mercator = tr.time("measure", "measure.mercator", || {
        let mc = cfg
            .mercator
            .clone()
            .unwrap_or_else(|| MercatorConfig::scaled(&gt, cfg.world.seed ^ 0x3E));
        Mercator::collect_with_faults(&gt, &mc, &cfg.faults)
    });
    if let Some(p) = persist {
        p.save(tr, &mut counts, engine::COLLECT_MERCATOR, &mercator)?;
    }

    let (ix, es) = mappers(cfg, &orgs, &gazetteer, tr);
    let mut datasets = Vec::with_capacity(4);
    for (mapper, collector) in TABLE_I_ORDER {
        let measured = match collector {
            Collector::Skitter => &skitter.dataset,
            Collector::Mercator => &mercator.dataset,
        };
        let tool: &(dyn GeoMapper + Sync) = match mapper {
            MapperKind::IxMapper => &ix,
            MapperKind::EdgeScape => &es,
        };
        let name = engine::map_stage_name(mapper, collector);
        let (dataset, tally) = tr.time("pipeline", &format!("pipeline.process:{name}"), || {
            process_chunked(measured, tool, &table, &gt, Some(&hints), &SerialExec)
        });
        counts.process.absorb(&tally);
        counts.dropped_links += dataset.stats.dropped_links as u64;
        let ds = ProcessedDataset {
            collector,
            mapper,
            dataset,
        };
        if let Some(p) = persist {
            p.save(tr, &mut counts, &name, &ds)?;
        }
        datasets.push(Arc::new(ds));
    }
    let query = freeze(&gt, &table, &gazetteer, &ix, &hints, tr);
    let out = output(
        Arc::new(gt),
        table,
        datasets,
        Arc::new(skitter),
        Arc::new(mercator),
        query,
    );
    Ok((out, counts))
}

/// A restart on a populated store, layer by layer: each persisted entry
/// is read back with the integrity guard its stage applies, and the
/// stages without a disk form (population grids, org-db, gazetteer,
/// nearest hints, mappers, query snapshot) are recomputed.
pub fn restore(
    cfg: &PipelineConfig,
    persist: &Persist<'_>,
    tr: &mut Tracer,
) -> Result<(PipelineOutput, LayerCounts), String> {
    let mut counts = LayerCounts::default();
    let grids = population_grids(cfg, tr, &mut counts)?;
    let gt: GroundTruth =
        persist.load(tr, &mut counts, engine::GROUND_TRUTH, |gt: &GroundTruth| {
            if gt.topology.num_routers() == gt.config.total_routers {
                Ok(())
            } else {
                Err("embedded config disagrees with the topology".into())
            }
        })?;
    let table: RouteTable =
        persist.load(tr, &mut counts, engine::ROUTE_TABLE, |t: &RouteTable| {
            t.validate_structure().map_err(|e| format!("{e:?}"))
        })?;
    let table = Arc::new(table);
    let orgs = org_db(&gt, tr);
    let gazetteer = gazetteer(&grids, tr, &mut counts);
    let hints = nearest_hints(&gt, &gazetteer, tr);
    let skitter: SkitterOutput =
        persist.load(tr, &mut counts, engine::COLLECT_SKITTER, |_| Ok(()))?;
    let mercator: MercatorOutput =
        persist.load(tr, &mut counts, engine::COLLECT_MERCATOR, |_| Ok(()))?;
    let (ix, _es) = mappers(cfg, &orgs, &gazetteer, tr);
    let mut datasets = Vec::with_capacity(4);
    for (mapper, collector) in TABLE_I_ORDER {
        let name = engine::map_stage_name(mapper, collector);
        let ds: ProcessedDataset =
            persist.load(tr, &mut counts, &name, |ds: &ProcessedDataset| {
                ds.dataset.validate(&[]).map_err(|e| format!("{e:?}"))?;
                if ds.mapper == mapper && ds.collector == collector {
                    Ok(())
                } else {
                    Err("provenance labels disagree".into())
                }
            })?;
        datasets.push(Arc::new(ds));
    }
    let query = freeze(&gt, &table, &gazetteer, &ix, &hints, tr);
    let out = output(
        Arc::new(gt),
        table,
        datasets,
        Arc::new(skitter),
        Arc::new(mercator),
        query,
    );
    Ok((out, counts))
}

type Experiment = Box<dyn Fn(&PipelineOutput) -> ExperimentResult>;

fn relabeled(
    f: fn(&PipelineOutput, MapperKind) -> ExperimentResult,
    id: &'static str,
    title: &'static str,
) -> Experiment {
    Box::new(move |out| {
        let mut r = f(out, MapperKind::EdgeScape);
        r.id = id.into();
        r.title = title.into();
        r
    })
}

/// The experiments `experiments::run_all` runs, in its order, each tagged
/// with the paper section its span is billed to.
fn paper_experiments() -> Vec<(&'static str, Experiment)> {
    use experiments as e;
    use MapperKind::IxMapper;
    vec![
        ("section4", Box::new(e::table1)),
        ("section4", Box::new(|_| e::table2())),
        ("section4", Box::new(e::table3)),
        ("section4", Box::new(e::table4)),
        ("section4", Box::new(e::fig1)),
        ("section4", Box::new(|o| e::fig2(o, IxMapper))),
        ("section5", Box::new(|o| e::fig4(o, IxMapper))),
        ("section5", Box::new(|o| e::fig5(o, IxMapper))),
        ("section5", Box::new(|o| e::fig6(o, IxMapper))),
        ("section5", Box::new(|o| e::table5(o, IxMapper))),
        ("section6", Box::new(e::fig7)),
        ("section6", Box::new(e::fig8)),
        ("section6", Box::new(e::fig9)),
        ("section6", Box::new(e::fig10)),
        ("section6", Box::new(e::table6)),
        ("fractal", Box::new(e::fractal_dimension)),
        ("robustness", Box::new(e::robustness)),
        (
            "section4",
            relabeled(e::fig2, "fig11", "Figure 11 (EdgeScape)"),
        ),
        (
            "section5",
            relabeled(e::fig4, "fig12", "Figure 12 (EdgeScape)"),
        ),
        (
            "section5",
            relabeled(e::fig5, "fig13", "Figure 13 (EdgeScape)"),
        ),
        (
            "section5",
            relabeled(e::fig6, "fig14", "Figure 14 (EdgeScape)"),
        ),
        (
            "section5",
            relabeled(e::table5, "table5es", "Table V (EdgeScape)"),
        ),
        ("section6", Box::new(e::fig15)),
        ("section6", Box::new(e::fig16)),
        ("section6", Box::new(e::fig17)),
    ]
}

/// Every experiment function, one span each
/// (`experiments.<section>:<result id>`).
pub fn run_experiments(out: &PipelineOutput, tr: &mut Tracer) -> Vec<ExperimentResult> {
    paper_experiments()
        .into_iter()
        .zip(crate::checks::RESULT_IDS)
        .map(|((section, job), result)| {
            tr.time(
                "experiments",
                &format!("experiments.{section}:{result}"),
                || job(out),
            )
        })
        .collect()
}

/// One pass over the 12 distinct `section5::distance_preference` inputs
/// (2 tools x 2 collectors x 3 study regions): the floor under the
/// Section V experiments, which recompute them per figure.
pub fn preference_set(out: &PipelineOutput, tr: &mut Tracer) {
    tr.time("experiments", "experiments.preference_set", || {
        for (mapper, collector) in TABLE_I_ORDER {
            let ds = &out.dataset(mapper, collector).dataset;
            for bins in RegionBins::paper() {
                std::hint::black_box(section5::distance_preference(ds, &bins, false));
            }
        }
    });
}
