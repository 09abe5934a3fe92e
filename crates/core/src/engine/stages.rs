//! The concrete pipeline stage graph.
//!
//! [`pipeline_stages`] lays out the paper's pipeline as stages wired by
//! name:
//!
//! ```text
//! pop-grid-0..R ──┬─> ground-truth ──┬─> route-table ──────────┐
//!                 │                  ├─> org-db ──┐            │
//!                 └─> gazetteer ─────┤            ├─> mapper-* ─┴─> map-{tool}-{collector} ×4
//!                                    ├─> nearest-hints ────────┘
//!                                    ├─> collect-skitter ──────┘
//!                                    └─> collect-mercator
//!
//! ground-truth + route-table + gazetteer + mapper-ixmapper + nearest-hints
//!   ─> query-snapshot
//! ```
//!
//! Stage bodies are verbatim extractions of the old `Pipeline::run`
//! monolith — same seed derivations, same iteration orders — so the
//! artifacts are byte-identical to the pre-engine pipeline. Next to each
//! stage sits the [`Artifact`] impl of the type it produces.

use super::supervise::{check_invariant, StageError};
use super::{Artifact, Fingerprint, Stage, StageCtx};
use crate::io::{self, CacheRead, IoError};
use crate::pipeline::{
    generation_regions, process_chunked, Collector, MapperKind, NearestHints, PipelineConfig,
    ProcessTelemetry, ProcessedDataset,
};
use crate::telemetry::Telemetry;
use crate::vfs::Vfs;
use geotopo_bgp::RouteTable;
use geotopo_geomap::{EdgeScape, Gazetteer, GeoMapper, IxMapper, MapContext, OrgDb};
use geotopo_measure::{FaultStats, RoutingStats};
use geotopo_measure::{
    MeasuredDataset, Mercator, MercatorConfig, MercatorOutput, Skitter, SkitterConfig,
    SkitterOutput,
};
use geotopo_population::PopulationGrid;
use geotopo_query::QuerySnapshot;
use geotopo_topology::generate::GroundTruth;
use std::path::Path;
use std::sync::Arc;

/// Name of the world-generation stage (artifact: [`GroundTruth`]).
pub const GROUND_TRUTH: &str = "ground-truth";
/// Name of the BGP snapshot stage (artifact: [`RouteTable`]).
pub const ROUTE_TABLE: &str = "route-table";
/// Name of the whois-registry stage (artifact: [`OrgDb`]).
pub const ORG_DB: &str = "org-db";
/// Name of the densified-gazetteer stage (artifact: [`Gazetteer`]).
pub const GAZETTEER: &str = "gazetteer";
/// Name of the per-router nearest-city memo stage (artifact:
/// [`NearestHints`]).
pub const NEAREST_HINTS: &str = "nearest-hints";
/// Name of the Skitter collection stage (artifact: `SkitterOutput`).
pub const COLLECT_SKITTER: &str = "collect-skitter";
/// Name of the Mercator collection stage (artifact: `MercatorOutput`).
pub const COLLECT_MERCATOR: &str = "collect-mercator";
/// Name of the IxMapper construction stage (artifact: [`IxMapper`]).
pub const MAPPER_IXMAPPER: &str = "mapper-ixmapper";
/// Name of the EdgeScape construction stage (artifact: [`EdgeScape`]).
pub const MAPPER_EDGESCAPE: &str = "mapper-edgescape";
/// Name of the query-snapshot freeze stage (artifact: [`QuerySnapshot`]).
pub const QUERY_SNAPSHOT: &str = "query-snapshot";

/// Name of the population-grid stage for region `i` (artifact:
/// [`PopulationGrid`]).
pub fn pop_grid_name(region: usize) -> String {
    format!("pop-grid-{region}")
}

/// Name of the processed-dataset stage for one (tool, collector) pair
/// (artifact: [`ProcessedDataset`]).
pub fn map_stage_name(mapper: MapperKind, collector: Collector) -> String {
    let m = match mapper {
        MapperKind::IxMapper => "ixmapper",
        MapperKind::EdgeScape => "edgescape",
    };
    let c = match collector {
        Collector::Mercator => "mercator",
        Collector::Skitter => "skitter",
    };
    format!("map-{m}-{c}")
}

/// The four (tool, collector) pairs in Table I order.
pub(crate) const TABLE_I_ORDER: [(MapperKind, Collector); 4] = [
    (MapperKind::IxMapper, Collector::Mercator),
    (MapperKind::IxMapper, Collector::Skitter),
    (MapperKind::EdgeScape, Collector::Mercator),
    (MapperKind::EdgeScape, Collector::Skitter),
];

/// Builds the full stage graph for a configuration, topologically
/// ordered (every stage appears after its dependencies).
pub fn pipeline_stages(config: &PipelineConfig) -> Vec<Box<dyn super::ErasedStage>> {
    let n_regions = config.world.regions.len();
    let mut stages: Vec<Box<dyn super::ErasedStage>> = Vec::with_capacity(n_regions + 14);
    for region in 0..n_regions {
        stages.push(Box::new(PopGridStage { region }));
    }
    stages.push(Box::new(GroundTruthStage { n_regions }));
    stages.push(Box::new(RouteTableStage));
    stages.push(Box::new(OrgDbStage));
    stages.push(Box::new(GazetteerStage { n_regions }));
    stages.push(Box::new(NearestHintsStage));
    stages.push(Box::new(CollectSkitterStage));
    stages.push(Box::new(CollectMercatorStage));
    stages.push(Box::new(MapperIxStage));
    stages.push(Box::new(MapperEsStage));
    for (mapper, collector) in TABLE_I_ORDER {
        stages.push(Box::new(MapStage { mapper, collector }));
    }
    stages.push(Box::new(QuerySnapshotStage));
    stages
}

/// Synthesizes one region's population raster (fanned out per region so
/// large worlds build their grids concurrently).
struct PopGridStage {
    region: usize,
}

impl Stage for PopGridStage {
    type Output = PopulationGrid;

    fn name(&self) -> String {
        pop_grid_name(self.region)
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        config.world.seed.wrapping_add(1000 + self.region as u64)
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<PopulationGrid, StageError> {
        Ok(ctx.config.world.population_grid(self.region)?)
    }
}

impl Artifact for PopulationGrid {
    fn items(&self) -> usize {
        self.cells().len()
    }

    fn heap_bytes(&self) -> usize {
        self.mem_bytes()
    }
}

/// Generates the ground-truth world from the pre-built region grids.
struct GroundTruthStage {
    n_regions: usize,
}

impl Stage for GroundTruthStage {
    type Output = GroundTruth;

    fn name(&self) -> String {
        GROUND_TRUTH.into()
    }

    fn deps(&self) -> Vec<String> {
        (0..self.n_regions).map(pop_grid_name).collect()
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        config.world.seed
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<GroundTruth, StageError> {
        let grids = (0..self.n_regions)
            .map(|i| ctx.dep::<PopulationGrid>(i))
            .collect::<Result<Vec<_>, _>>()?;
        let refs: Vec<&PopulationGrid> = grids.iter().map(|g| g.as_ref()).collect();
        let exec = ctx.exec(GROUND_TRUTH);
        let gt = GroundTruth::generate_with_grids_exec(ctx.config.world.clone(), &refs, &exec)?;
        ctx.telemetry()
            .count("ground-truth.routers", gt.topology.num_routers() as u64);
        Ok(gt)
    }

    fn validate(&self, gt: &GroundTruth, _ctx: &StageCtx<'_>) -> Result<(), StageError> {
        check_invariant(gt.topology.validate())
    }
}

impl Artifact for GroundTruth {
    fn items(&self) -> usize {
        self.topology.num_routers()
    }

    fn heap_bytes(&self) -> usize {
        self.mem_bytes()
    }

    fn load(vfs: &dyn Vfs, path: &Path, stage: &str, fp: Fingerprint) -> CacheRead<Self> {
        // Guard against fingerprint collisions or a tampered file: the
        // embedded config must describe the same world size, the packed
        // topology arrays must agree with each other (deserialization
        // bypasses the builder that establishes them; `validate` costs
        // a few ms at `large` against a ~1 s restore), and every router
        // must name a region of the config, since the collectors index
        // per-region tables with it.
        io::load_json(vfs, path, stage, fp).guard(|gt: &GroundTruth| {
            let routers = gt.topology.num_routers();
            if routers != gt.config.total_routers {
                return Err(format!(
                    "embedded config expects {} routers, topology holds {routers}",
                    gt.config.total_routers
                ));
            }
            gt.topology
                .validate()
                .map_err(|e| format!("topology invariant violated: {e}"))?;
            let regions = gt.config.regions.len();
            if gt.router_region.len() != routers {
                return Err(format!(
                    "{} router regions for {routers} routers",
                    gt.router_region.len()
                ));
            }
            match gt
                .router_region
                .iter()
                .position(|&r| usize::from(r) >= regions)
            {
                Some(r) => Err(format!(
                    "router {r} names region {} of {regions}",
                    gt.router_region[r]
                )),
                None => Ok(()),
            }
        })
    }

    fn save(
        &self,
        vfs: &dyn Vfs,
        path: &Path,
        stage: &str,
        fp: Fingerprint,
    ) -> Result<(), IoError> {
        io::save_json(vfs, self, path, stage, fp)
    }
}

/// Synthesizes the RouteViews snapshot from the world's allocations.
struct RouteTableStage;

impl Stage for RouteTableStage {
    type Output = RouteTable;

    fn name(&self) -> String {
        ROUTE_TABLE.into()
    }

    fn deps(&self) -> Vec<String> {
        vec![GROUND_TRUTH.into()]
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        config.route_table.seed
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<RouteTable, StageError> {
        let gt = ctx.dep::<GroundTruth>(0)?;
        let table = RouteTable::synthesize(&gt.allocations, &ctx.config.route_table);
        ctx.telemetry()
            .count("route-table.entries", table.len() as u64);
        Ok(table)
    }

    fn validate(&self, table: &RouteTable, _ctx: &StageCtx<'_>) -> Result<(), StageError> {
        check_invariant(table.validate())
    }
}

impl Artifact for RouteTable {
    fn items(&self) -> usize {
        self.len()
    }

    fn load(vfs: &dyn Vfs, path: &Path, stage: &str, fp: Fingerprint) -> CacheRead<Self> {
        // A thawed table is served to longest-prefix lookups without a
        // resynthesis pass, so its trie arena must be proven sound
        // first. `validate_structure` is the near-linear check (bounds,
        // acyclicity, entry reachability) — cheap enough to run on
        // every load, unlike the quadratic canonical `validate`.
        io::load_json(vfs, path, stage, fp).guard(|t: &RouteTable| {
            t.validate_structure()
                .map_err(|e| format!("deserialized route table failed structural validation: {e}"))
        })
    }

    fn save(
        &self,
        vfs: &dyn Vfs,
        path: &Path,
        stage: &str,
        fp: Fingerprint,
    ) -> Result<(), IoError> {
        io::save_json(vfs, self, path, stage, fp)
    }
}

/// Builds the whois registry from the world's AS records.
struct OrgDbStage;

impl Stage for OrgDbStage {
    type Output = OrgDb;

    fn name(&self) -> String {
        ORG_DB.into()
    }

    fn deps(&self) -> Vec<String> {
        vec![GROUND_TRUTH.into()]
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        config.world.seed
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<OrgDb, StageError> {
        let gt = ctx.dep::<GroundTruth>(0)?;
        let mut orgs = OrgDb::new();
        for rec in &gt.as_records {
            orgs.insert(rec.asn, gt.as_name(rec.asn), rec.home);
        }
        Ok(orgs)
    }
}

impl Artifact for OrgDb {
    fn items(&self) -> usize {
        self.len()
    }
}

/// Densifies the curated gazetteer with one synthetic town per populated
/// raster cell, region by region (the grids are shared artifacts, not
/// regenerated).
struct GazetteerStage {
    n_regions: usize,
}

impl Stage for GazetteerStage {
    type Output = Gazetteer;

    fn name(&self) -> String {
        GAZETTEER.into()
    }

    fn deps(&self) -> Vec<String> {
        (0..self.n_regions).map(pop_grid_name).collect()
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        config.world.seed
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<Gazetteer, StageError> {
        let mut gazetteer = Gazetteer::builtin();
        for i in 0..self.n_regions {
            let grid = ctx.dep::<PopulationGrid>(i)?;
            gazetteer.extend_from_population(&grid, 8_000.0);
        }
        Ok(gazetteer)
    }
}

impl Artifact for Gazetteer {
    fn items(&self) -> usize {
        self.len()
    }
}

/// Precomputes the per-router gazetteer nearest-city memo shared by the
/// four map stages and the query snapshot. Router locations repeat
/// heavily across interfaces (every interface of a router shares its
/// location), so one `nearest_idx` per *router* replaces one per
/// *address* in the downstream hot loops. Chunks fan out over the
/// engine pool and merge in router-index order — byte-identical at any
/// thread count.
struct NearestHintsStage;

impl Stage for NearestHintsStage {
    type Output = NearestHints;

    fn name(&self) -> String {
        NEAREST_HINTS.into()
    }

    fn deps(&self) -> Vec<String> {
        vec![GROUND_TRUTH.into(), GAZETTEER.into()]
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        // No randomness: derived purely from the world and gazetteer.
        config.world.seed
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<NearestHints, StageError> {
        let gt = ctx.dep::<GroundTruth>(0)?;
        let gazetteer = ctx.dep::<Gazetteer>(1)?;
        let hints = NearestHints::compute(&gt, &gazetteer, &ctx.exec(NEAREST_HINTS));
        ctx.telemetry()
            .count("nearest-hints.routers", hints.len() as u64);
        Ok(hints)
    }
}

impl Artifact for NearestHints {
    fn items(&self) -> usize {
        self.len()
    }

    fn heap_bytes(&self) -> usize {
        self.mem_bytes()
    }
}

/// Absorbs a collection campaign's counters into the metrics registry
/// under a collector prefix (`collect-skitter` / `collect-mercator`).
/// One batch of registry writes per stage: the hot probe loops only
/// touch the session's plain fields.
fn record_collection_metrics(
    telemetry: &Telemetry,
    prefix: &str,
    probes_sent: u64,
    virtual_ticks: u64,
    faults: &FaultStats,
    routing: &RoutingStats,
) {
    telemetry.count(&format!("{prefix}.probes.sent"), probes_sent);
    telemetry.count(&format!("{prefix}.probes.lost"), faults.probes_lost);
    telemetry.count(
        &format!("{prefix}.probes.rate_limited"),
        faults.rate_limited,
    );
    telemetry.count(&format!("{prefix}.probes.flapped"), faults.flap_breaks);
    telemetry.count(&format!("{prefix}.retries"), faults.retries);
    telemetry.count(&format!("{prefix}.retry_successes"), faults.retry_successes);
    telemetry.count(&format!("{prefix}.outage_skips"), faults.outage_skips);
    telemetry.count(&format!("{prefix}.virtual_ticks"), virtual_ticks);
    telemetry.count(
        &format!("{prefix}.routing.sources_solved"),
        routing.sources_solved,
    );
    telemetry.count(
        &format!("{prefix}.routing.edges_relaxed"),
        routing.edges_relaxed,
    );
    telemetry.count(
        &format!("{prefix}.routing.bucket_pushes"),
        routing.bucket_pushes,
    );
    telemetry.count(
        &format!("{prefix}.routing.bucket_reuses"),
        routing.bucket_reuses,
    );
    telemetry.count(&format!("{prefix}.routing.memo_hits"), routing.memo_hits);
}

/// Absorbs one map stage's processing tallies into the registry under
/// the stage's own name (`map-ixmapper-skitter.resolved`, ...).
fn record_map_metrics(telemetry: &Telemetry, stage: &str, tally: &ProcessTelemetry) {
    telemetry.count(&format!("{stage}.addresses"), tally.addresses);
    telemetry.count(&format!("{stage}.resolved"), tally.resolved);
    telemetry.count(&format!("{stage}.unresolved"), tally.unresolved);
    telemetry.count(&format!("{stage}.fallback"), tally.fallback);
    for (source, n) in &tally.sources {
        telemetry.count(&format!("{stage}.source.{source}"), *n);
    }
    telemetry.count(&format!("{stage}.lpm.lookups"), tally.lpm_lookups);
    telemetry.count(&format!("{stage}.lpm.unmapped"), tally.lpm_unmapped);
    telemetry.merge_histogram(&format!("{stage}.lpm.matched_len"), &tally.lpm_matched_len);
    if let Some(mean) = tally.lpm_matched_len.mean() {
        telemetry.gauge(&format!("{stage}.lpm.mean_matched_len"), mean);
    }
}

/// Runs the Skitter collection over the world.
struct CollectSkitterStage;

impl Stage for CollectSkitterStage {
    type Output = SkitterOutput;

    fn name(&self) -> String {
        COLLECT_SKITTER.into()
    }

    fn deps(&self) -> Vec<String> {
        vec![GROUND_TRUTH.into()]
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        config
            .skitter
            .as_ref()
            .map_or(config.world.seed ^ 0x51, |c| c.seed)
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<SkitterOutput, StageError> {
        let gt = ctx.dep::<GroundTruth>(0)?;
        let cfg = ctx
            .config
            .skitter
            .clone()
            .unwrap_or_else(|| SkitterConfig::scaled(&gt, ctx.config.world.seed ^ 0x51));
        let t = ctx.telemetry();
        // Oracle solves and per-(monitor, destination-chunk) trace jobs
        // fan out over the engine's deterministic scoped-thread pool;
        // all RNG is drawn in Skitter's serial prologue and results
        // merge in job-index order, so the bytes are identical at any
        // thread count.
        let exec = ctx.exec(COLLECT_SKITTER).with_span("stage.measure.skitter");
        let out = Skitter::collect_with_faults_exec(&gt, &cfg, &ctx.config.faults, &exec);
        let planned = out.monitors.len();
        let need = ctx.config.faults.quorum_monitors(planned);
        let active = out.active_monitors();
        if active < need {
            return Err(StageError::QuorumLost {
                active,
                planned,
                need,
            });
        }
        record_collection_metrics(
            t,
            COLLECT_SKITTER,
            out.probes_sent,
            out.virtual_ticks,
            &out.dataset.anomalies.faults,
            &out.routing,
        );
        t.count(
            "collect-skitter.monitors.failed",
            out.failed_monitors as u64,
        );
        t.count(
            "collect-skitter.destinations.discarded",
            out.discarded_destinations as u64,
        );
        Ok(out)
    }

    fn validate(&self, out: &SkitterOutput, ctx: &StageCtx<'_>) -> Result<(), StageError> {
        let gt = ctx.dep::<GroundTruth>(0)?;
        check_invariant(out.dataset.validate_against(&gt.topology))
    }
}

impl Artifact for SkitterOutput {
    fn items(&self) -> usize {
        self.dataset.num_nodes()
    }

    fn heap_bytes(&self) -> usize {
        self.dataset.mem_bytes()
    }

    fn health(&self) -> Option<String> {
        (self.failed_monitors > 0).then(|| {
            format!(
                "quorum run: {}/{} monitors healthy",
                self.active_monitors(),
                self.monitors.len()
            )
        })
    }

    fn anomalies(&self) -> Option<String> {
        self.dataset.anomalies.summary()
    }

    fn load(vfs: &dyn Vfs, path: &Path, stage: &str, fp: Fingerprint) -> CacheRead<Self> {
        io::load_json(vfs, path, stage, fp)
    }

    fn save(
        &self,
        vfs: &dyn Vfs,
        path: &Path,
        stage: &str,
        fp: Fingerprint,
    ) -> Result<(), IoError> {
        io::save_json(vfs, self, path, stage, fp)
    }
}

/// Runs the Mercator collection over the world.
struct CollectMercatorStage;

impl Stage for CollectMercatorStage {
    type Output = MercatorOutput;

    fn name(&self) -> String {
        COLLECT_MERCATOR.into()
    }

    fn deps(&self) -> Vec<String> {
        vec![GROUND_TRUTH.into()]
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        config
            .mercator
            .as_ref()
            .map_or(config.world.seed ^ 0x3E, |c| c.seed)
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<MercatorOutput, StageError> {
        let gt = ctx.dep::<GroundTruth>(0)?;
        let cfg = ctx
            .config
            .mercator
            .clone()
            .unwrap_or_else(|| MercatorConfig::scaled(&gt, ctx.config.world.seed ^ 0x3E));
        // No quorum check: Mercator's primary source is operator-attended
        // (outages only thin the lateral vantages), so the collection
        // always stands.
        let out = Mercator::collect_with_faults(&gt, &cfg, &ctx.config.faults);
        record_collection_metrics(
            ctx.telemetry(),
            COLLECT_MERCATOR,
            out.probes_sent,
            out.virtual_ticks,
            &out.dataset.anomalies.faults,
            &out.routing,
        );
        Ok(out)
    }

    fn validate(&self, out: &MercatorOutput, ctx: &StageCtx<'_>) -> Result<(), StageError> {
        let gt = ctx.dep::<GroundTruth>(0)?;
        check_invariant(out.dataset.validate_against(&gt.topology))
    }
}

impl Artifact for MercatorOutput {
    fn items(&self) -> usize {
        self.dataset.num_nodes()
    }

    fn heap_bytes(&self) -> usize {
        self.dataset.mem_bytes()
    }

    fn anomalies(&self) -> Option<String> {
        self.dataset.anomalies.summary()
    }

    fn load(vfs: &dyn Vfs, path: &Path, stage: &str, fp: Fingerprint) -> CacheRead<Self> {
        io::load_json(vfs, path, stage, fp)
    }

    fn save(
        &self,
        vfs: &dyn Vfs,
        path: &Path,
        stage: &str,
        fp: Fingerprint,
    ) -> Result<(), IoError> {
        io::save_json(vfs, self, path, stage, fp)
    }
}

/// Constructs the IxMapper tool over the shared registry and gazetteer.
struct MapperIxStage;

impl Stage for MapperIxStage {
    type Output = IxMapper;

    fn name(&self) -> String {
        MAPPER_IXMAPPER.into()
    }

    fn deps(&self) -> Vec<String> {
        vec![ORG_DB.into(), GAZETTEER.into()]
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        config.mapper_seed
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<IxMapper, StageError> {
        let seed = ctx.config.mapper_seed;
        Ok(IxMapper::with_gazetteer(seed, ctx.dep(0)?, ctx.dep(1)?))
    }
}

impl Artifact for IxMapper {}

/// Constructs the EdgeScape tool over the shared registry and gazetteer.
struct MapperEsStage;

impl Stage for MapperEsStage {
    type Output = EdgeScape;

    fn name(&self) -> String {
        MAPPER_EDGESCAPE.into()
    }

    fn deps(&self) -> Vec<String> {
        vec![ORG_DB.into(), GAZETTEER.into()]
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        config.mapper_seed ^ 0x77
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<EdgeScape, StageError> {
        let seed = ctx.config.mapper_seed ^ 0x77;
        Ok(EdgeScape::with_gazetteer(seed, ctx.dep(0)?, ctx.dep(1)?))
    }
}

impl Artifact for EdgeScape {}

/// Produces one processed (geolocated, AS-labelled) dataset — the unit
/// of Table I. The four instances are independent and run concurrently.
struct MapStage {
    mapper: MapperKind,
    collector: Collector,
}

impl MapStage {
    fn mapper_dep(&self) -> &'static str {
        match self.mapper {
            MapperKind::IxMapper => MAPPER_IXMAPPER,
            MapperKind::EdgeScape => MAPPER_EDGESCAPE,
        }
    }

    fn collect_dep(&self) -> &'static str {
        match self.collector {
            Collector::Skitter => COLLECT_SKITTER,
            Collector::Mercator => COLLECT_MERCATOR,
        }
    }
}

impl Stage for MapStage {
    type Output = ProcessedDataset;

    fn name(&self) -> String {
        map_stage_name(self.mapper, self.collector)
    }

    fn deps(&self) -> Vec<String> {
        vec![
            GROUND_TRUTH.into(),
            ROUTE_TABLE.into(),
            self.mapper_dep().into(),
            self.collect_dep().into(),
            NEAREST_HINTS.into(),
        ]
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        match self.mapper {
            MapperKind::IxMapper => config.mapper_seed,
            MapperKind::EdgeScape => config.mapper_seed ^ 0x77,
        }
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<ProcessedDataset, StageError> {
        let gt = ctx.dep::<GroundTruth>(0)?;
        let table = ctx.dep::<RouteTable>(1)?;
        let mapper: Arc<dyn GeoMapper + Send + Sync> = match self.mapper {
            MapperKind::IxMapper => ctx.dep::<IxMapper>(2)?,
            MapperKind::EdgeScape => ctx.dep::<EdgeScape>(2)?,
        };
        let hints = ctx.dep::<NearestHints>(4)?;
        let name = self.name();
        // Address chunks fan out over the engine pool; chunk results
        // merge in index order, so the bytes are identical at any
        // thread count.
        let exec = ctx.exec(&name);
        let process = |measured: &MeasuredDataset| {
            process_chunked(measured, &*mapper, &table, &gt, Some(&hints), &exec)
        };
        let (dataset, tally) = match self.collector {
            Collector::Skitter => process(&ctx.dep::<SkitterOutput>(3)?.dataset),
            Collector::Mercator => process(&ctx.dep::<MercatorOutput>(3)?.dataset),
        };
        record_map_metrics(ctx.telemetry(), &name, &tally);
        Ok(ProcessedDataset {
            collector: self.collector,
            mapper: self.mapper,
            dataset,
        })
    }

    fn validate(&self, ds: &ProcessedDataset, ctx: &StageCtx<'_>) -> Result<(), StageError> {
        let gt = ctx.dep::<GroundTruth>(0)?;
        check_invariant(ds.dataset.validate(&generation_regions(&gt)))
    }
}

impl Artifact for ProcessedDataset {
    fn items(&self) -> usize {
        self.dataset.num_nodes()
    }

    fn heap_bytes(&self) -> usize {
        self.dataset.mem_bytes()
    }

    fn load(vfs: &dyn Vfs, path: &Path, stage: &str, fp: Fingerprint) -> CacheRead<Self> {
        // Deserialization bypasses `GeoPoint::new`, so the structural
        // half of `GeoDataset::validate` (link sanity, coordinate ranges)
        // runs here; the generating regions are not in the file. A
        // violation surfaces as Corrupt, not a miss. A fingerprint
        // collision (or a tampered file) could hand back the wrong view;
        // the provenance labels are cheap to check.
        io::load_json::<ProcessedDataset>(vfs, path, stage, fp).guard(|ds| {
            ds.dataset
                .validate(&[])
                .map_err(|e| format!("dataset invariant violated: {e}"))?;
            if map_stage_name(ds.mapper, ds.collector) == stage {
                Ok(())
            } else {
                Err("provenance labels disagree with the requesting stage".into())
            }
        })
    }

    fn save(
        &self,
        vfs: &dyn Vfs,
        path: &Path,
        stage: &str,
        fp: Fingerprint,
    ) -> Result<(), IoError> {
        io::save_json(vfs, self, path, stage, fp)
    }
}

/// Freezes the read-side [`QuerySnapshot`]: every interface mapped
/// through IxMapper once, plus `Arc` handles on the route table and
/// gazetteer, ready for allocation-free per-address serving.
struct QuerySnapshotStage;

impl Stage for QuerySnapshotStage {
    type Output = QuerySnapshot;

    fn name(&self) -> String {
        QUERY_SNAPSHOT.into()
    }

    fn deps(&self) -> Vec<String> {
        vec![
            GROUND_TRUTH.into(),
            ROUTE_TABLE.into(),
            GAZETTEER.into(),
            MAPPER_IXMAPPER.into(),
            NEAREST_HINTS.into(),
        ]
    }

    fn seed(&self, config: &PipelineConfig) -> u64 {
        config.mapper_seed
    }

    fn run(&self, ctx: &StageCtx<'_>) -> Result<QuerySnapshot, StageError> {
        let gt = ctx.dep::<GroundTruth>(0)?;
        let table = ctx.dep::<RouteTable>(1)?;
        let gazetteer = ctx.dep::<Gazetteer>(2)?;
        let mapper = ctx.dep::<IxMapper>(3)?;
        let hints = ctx.dep::<NearestHints>(4)?;
        let topo = &gt.topology;
        let addresses = topo.interfaces().map(|(_, iface)| {
            let r = topo.router(iface.router);
            (
                iface.ip,
                MapContext::new(r.location, r.asn)
                    .with_nearest_hint(hints.for_router(iface.router)),
            )
        });
        let snapshot =
            QuerySnapshot::freeze(addresses, &*mapper as &dyn GeoMapper, table, gazetteer);
        let stats = snapshot.stats();
        let t = ctx.telemetry();
        t.count("query.snapshot.addresses", stats.addresses as u64);
        t.count("query.snapshot.resolved", stats.resolved as u64);
        t.count("query.snapshot.fallbacks", stats.fallbacks as u64);
        Ok(snapshot)
    }
}

impl Artifact for QuerySnapshot {
    fn items(&self) -> usize {
        self.len()
    }

    fn heap_bytes(&self) -> usize {
        self.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique() {
        let cfg = PipelineConfig::tiny(1);
        let stages = pipeline_stages(&cfg);
        let mut names: Vec<String> = stages.iter().map(|s| s.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), stages.len());
    }

    #[test]
    fn deps_reference_earlier_stages_only() {
        // The builder's output must be topologically ordered.
        let cfg = PipelineConfig::tiny(1);
        let stages = pipeline_stages(&cfg);
        let mut seen = std::collections::HashSet::new();
        for s in &stages {
            for d in s.deps() {
                assert!(seen.contains(&d), "{} depends on later stage {d}", s.name());
            }
            seen.insert(s.name());
        }
    }

    #[test]
    fn out_of_range_link_rejected_as_corrupt() {
        use crate::pipeline::{GeoDataset, GeoNode};
        use crate::vfs::RealVfs;
        let dir = std::env::temp_dir().join("geotopo_stages_invalid");
        let path = dir.join("ds.json");
        let stage = map_stage_name(MapperKind::IxMapper, Collector::Skitter);
        let node = GeoNode {
            ip: "1.0.0.1".parse().unwrap(),
            location: geotopo_geo::GeoPoint::new(40.0, -100.0).unwrap(),
            asn: geotopo_bgp::AsId(7),
        };
        let ds = ProcessedDataset {
            collector: Collector::Skitter,
            mapper: MapperKind::IxMapper,
            dataset: GeoDataset {
                kind: geotopo_measure::NodeKind::Interface,
                nodes: vec![node],
                links: vec![(0, 99)],
                stats: Default::default(),
            },
        };
        let fp = Fingerprint(0xBEEF);
        ds.save(&RealVfs, &path, &stage, fp).unwrap();
        let CacheRead::Corrupt(reason) =
            <ProcessedDataset as Artifact>::load(&RealVfs, &path, &stage, fp)
        else {
            panic!("invalid dataset must be corrupt");
        };
        assert!(reason.contains("invariant"), "{reason}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stage_count_matches_graph_shape() {
        let cfg = PipelineConfig::tiny(1);
        let n = cfg.world.regions.len();
        // R grids + gt + rt + orgdb + gazetteer + nearest-hints +
        // 2 collectors + 2 mappers + 4 map jobs + query snapshot.
        assert_eq!(pipeline_stages(&cfg).len(), n + 14);
    }
}
