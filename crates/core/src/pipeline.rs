//! End-to-end dataset production.
//!
//! Section III in code: two topology snapshots (Skitter interfaces,
//! Mercator routers), two geographic mappings (IxMapper, EdgeScape), and
//! BGP-table AS origination, yielding the four processed datasets of
//! Table I. Processing mirrors the paper's discard rules:
//!
//! - nodes the mapping tool cannot locate are discarded;
//! - for Mercator routers, the location is the one "most commonly
//!   reported across all its interfaces", and routers with ties are
//!   discarded (paper: 2.9% IxMapper / 2.5% EdgeScape);
//! - unmapped-AS nodes are kept but grouped under [`AsId::UNMAPPED`],
//!   which Section VI omits.

use crate::engine::{self, ArtifactStore, StageReport};
use crate::telemetry::{Histogram, MetricsSnapshot, Telemetry};
use geotopo_bgp::{AsId, RouteTable, RouteTableConfig};
use geotopo_geo::{GeoPoint, Region};
use geotopo_geomap::{GeoMapper, MapContext};
use geotopo_measure::{
    FaultConfig, MeasuredDataset, MercatorConfig, MercatorOutput, NodeKind, SkitterConfig,
    SkitterOutput,
};
use geotopo_query::QuerySnapshot;
use geotopo_stats::ChunkExec;
use geotopo_topology::generate::{GroundTruth, GroundTruthConfig};
use geotopo_topology::RouterId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Which collector produced a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Collector {
    /// Single-source router-level map (1999-style snapshot).
    Mercator,
    /// Multi-monitor interface-level map (2001/2002-style snapshot).
    Skitter,
}

impl std::fmt::Display for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Collector::Mercator => write!(f, "Mercator"),
            Collector::Skitter => write!(f, "Skitter"),
        }
    }
}

/// Which mapping tool located a dataset's nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MapperKind {
    /// Hostname/LOC/whois tool.
    IxMapper,
    /// ISP-feed tool.
    EdgeScape,
}

impl std::fmt::Display for MapperKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapperKind::IxMapper => write!(f, "IxMapper"),
            MapperKind::EdgeScape => write!(f, "EdgeScape"),
        }
    }
}

/// A geolocated, AS-labelled node.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GeoNode {
    /// Canonical address.
    pub ip: Ipv4Addr,
    /// Mapped location.
    pub location: GeoPoint,
    /// Origin AS ([`AsId::UNMAPPED`] when no advertised prefix matched).
    pub asn: AsId,
}

/// Per-dataset processing counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ProcessingStats {
    /// Nodes the mapper could not locate (discarded).
    pub unmapped_location: usize,
    /// Mercator routers with location ties (discarded).
    pub location_ties: usize,
    /// Nodes with no matching BGP prefix (kept, AS 0).
    pub unmapped_as: usize,
    /// Links dropped because an endpoint was discarded.
    pub dropped_links: usize,
}

/// A processed (geolocated, AS-labelled) measured graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeoDataset {
    /// Node semantics (interfaces vs routers).
    pub kind: NodeKind,
    /// Nodes with locations and AS labels.
    pub nodes: Vec<GeoNode>,
    /// Undirected links between node indices.
    pub links: Vec<(u32, u32)>,
    /// Processing counters.
    pub stats: ProcessingStats,
}

/// A violated [`GeoDataset`] invariant, found by [`GeoDataset::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeoInvariant {
    /// A link references a node index past the end of the node list.
    LinkOutOfRange {
        /// The offending link, as stored.
        link: (u32, u32),
    },
    /// A self-loop survived processing (the paper discards them during
    /// collection).
    SelfLoopLink {
        /// The node linked to itself.
        node: u32,
    },
    /// A node coordinate is non-finite or outside valid lat/lon ranges
    /// (possible via deserialization, which bypasses `GeoPoint::new`).
    BadCoordinate {
        /// The node's canonical address.
        ip: Ipv4Addr,
    },
    /// A node was mapped outside every region the world was generated
    /// from (plus the city-granularity error margin).
    OutOfRegion {
        /// The node's canonical address.
        ip: Ipv4Addr,
    },
}

impl std::fmt::Display for GeoInvariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeoInvariant::LinkOutOfRange { link } => {
                write!(f, "link ({}, {}) references a missing node", link.0, link.1)
            }
            GeoInvariant::SelfLoopLink { node } => {
                write!(f, "self-loop link on node {node}")
            }
            GeoInvariant::BadCoordinate { ip } => {
                write!(f, "node {ip} has a non-finite or out-of-range coordinate")
            }
            GeoInvariant::OutOfRegion { ip } => {
                write!(f, "node {ip} was mapped outside every generation region")
            }
        }
    }
}

impl std::error::Error for GeoInvariant {}

impl GeoDataset {
    /// Approximate heap footprint in bytes (nodes + links). Feeds the
    /// engine's resident-artifact accounting.
    pub fn mem_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<GeoNode>()
            + self.links.len() * std::mem::size_of::<(u32, u32)>()
    }

    /// Checks structural and geographic invariants: every link joins two
    /// distinct in-range nodes, every coordinate is a finite, in-range
    /// lat/lon pair, and — when `regions` is non-empty — every node lies
    /// inside at least one of the given regions. Callers that only want
    /// the structural checks (e.g. deserialization, where the generating
    /// regions are unknown) pass `&[]`.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, regions: &[Region]) -> Result<(), GeoInvariant> {
        let n = self.nodes.len() as u32;
        for &(a, b) in &self.links {
            if a >= n || b >= n {
                return Err(GeoInvariant::LinkOutOfRange { link: (a, b) });
            }
            if a == b {
                return Err(GeoInvariant::SelfLoopLink { node: a });
            }
        }
        for node in &self.nodes {
            let (lat, lon) = (node.location.lat(), node.location.lon());
            if !lat.is_finite()
                || !lon.is_finite()
                || !(-90.0..=90.0).contains(&lat)
                || !(-180.0..=180.0).contains(&lon)
            {
                return Err(GeoInvariant::BadCoordinate { ip: node.ip });
            }
            if !regions.is_empty() && !regions.iter().any(|r| r.contains(&node.location)) {
                return Err(GeoInvariant::OutOfRegion { ip: node.ip });
            }
        }
        Ok(())
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Link count.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of distinct mapped locations (Table I's "No. of
    /// Locations").
    pub fn num_locations(&self) -> usize {
        let mut set: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
        for n in &self.nodes {
            set.insert(location_key(&n.location));
        }
        set.len()
    }

    /// Length of a link in miles.
    pub fn link_length_miles(&self, link: (u32, u32)) -> f64 {
        geotopo_geo::haversine_miles(
            &self.nodes[link.0 as usize].location,
            &self.nodes[link.1 as usize].location,
        )
    }
}

/// Quantizes a location for distinct-location counting (1e-4 degrees,
/// ~11 m — far below city granularity).
pub(crate) fn location_key(p: &GeoPoint) -> (u64, u64) {
    (
        ((p.lat() + 90.0) * 1e4).round() as u64,
        ((p.lon() + 180.0) * 1e4).round() as u64,
    )
}

/// One processed dataset with its provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProcessedDataset {
    /// The collector that measured it.
    pub collector: Collector,
    /// The tool that mapped it.
    pub mapper: MapperKind,
    /// The processed graph.
    pub dataset: GeoDataset,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Ground-truth world configuration.
    pub world: GroundTruthConfig,
    /// Skitter collection parameters (`None` = scaled defaults).
    pub skitter: Option<SkitterConfig>,
    /// Mercator collection parameters (`None` = scaled defaults).
    pub mercator: Option<MercatorConfig>,
    /// BGP table synthesis parameters.
    pub route_table: RouteTableConfig,
    /// Mapper tool seeds.
    pub mapper_seed: u64,
    /// Fault-injection profile. Probe-level fields are serialized (they
    /// change the measured output, so they feed the fingerprint);
    /// engine-level `stage_failures` are output-neutral and skipped —
    /// see [`FaultConfig`].
    pub faults: FaultConfig,
    /// Worker threads for stage execution (`0` = resolve from
    /// `GEOTOPO_THREADS`, else available parallelism; `1` = every stage
    /// on the calling thread, no worker spawned). Excluded from the
    /// config fingerprint and from serialization: thread count must never
    /// change output.
    #[serde(skip)]
    pub threads: usize,
}

impl PipelineConfig {
    /// A tiny, seconds-fast configuration for tests and doctests.
    pub fn tiny(seed: u64) -> Self {
        PipelineConfig {
            world: GroundTruthConfig::tiny(seed),
            skitter: None,
            mercator: None,
            route_table: RouteTableConfig {
                seed,
                ..RouteTableConfig::default()
            },
            mapper_seed: seed ^ 0xFEED,
            faults: FaultConfig::none(),
            threads: 0,
        }
    }

    /// A small configuration for integration tests and quick examples.
    pub fn small(seed: u64) -> Self {
        PipelineConfig {
            world: GroundTruthConfig::small(seed),
            ..Self::tiny(seed)
        }
    }

    /// The default experiment scale (~25k routers; the full paper run).
    pub fn default_scale(seed: u64) -> Self {
        PipelineConfig {
            world: GroundTruthConfig::default_scale(seed),
            ..Self::tiny(seed)
        }
    }

    /// A large memory-stress scale (~100k routers): exercises the packed
    /// topology layout and the store's spill path; gated into the bench
    /// suite rather than the default test run.
    pub fn large(seed: u64) -> Self {
        PipelineConfig {
            world: GroundTruthConfig::large(seed),
            ..Self::tiny(seed)
        }
    }

    /// The paper-scale world (~250k routers, the population the paper's
    /// Skitter/Mercator datasets actually sampled from). Minutes-long;
    /// for explicit one-off runs only.
    pub fn paper(seed: u64) -> Self {
        PipelineConfig {
            world: GroundTruthConfig::paper(seed),
            ..Self::tiny(seed)
        }
    }
}

/// When the pipeline runs its cross-layer invariant validators between
/// stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ValidationMode {
    /// Never validate.
    Off,
    /// Validate in debug builds only (`cfg!(debug_assertions)`) — free in
    /// release runs, always-on under `cargo test`.
    #[default]
    DebugOnly,
    /// Validate in every build (release runs opt in with `--validate`).
    Always,
}

impl ValidationMode {
    /// Whether this mode validates in the current build.
    pub fn is_active(self) -> bool {
        match self {
            ValidationMode::Off => false,
            ValidationMode::DebugOnly => cfg!(debug_assertions),
            ValidationMode::Always => true,
        }
    }
}

/// Pipeline errors.
#[derive(Debug)]
pub enum PipelineError {
    /// World generation failed.
    GroundTruth(geotopo_topology::generate::ground_truth::GroundTruthError),
    /// A between-stage invariant validator found a corrupt structure.
    Invariant {
        /// The stage-graph name of the stage whose output failed
        /// validation.
        stage: String,
        /// The violated invariant.
        detail: String,
    },
    /// The stage graph is miswired: a dependency names no earlier stage
    /// (an unknown name or a cycle), or an artifact has an unexpected
    /// type.
    Wiring {
        /// The stage-graph name of the miswired stage.
        stage: String,
        /// What is miswired.
        detail: String,
    },
    /// A stage failed after exhausting its supervision policy (retries
    /// for transient errors; quorum rules for degraded collections).
    Stage {
        /// The stage-graph name of the failed stage.
        stage: String,
        /// Execution attempts made, including the first.
        attempts: u32,
        /// The final classified error.
        detail: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::GroundTruth(e) => write!(f, "ground truth generation: {e}"),
            PipelineError::Invariant { stage, detail } => {
                write!(f, "invariant violated after {stage} stage: {detail}")
            }
            PipelineError::Wiring { stage, detail } => {
                write!(f, "stage `{stage}` is miswired: {detail}")
            }
            PipelineError::Stage {
                stage,
                attempts,
                detail,
            } => {
                write!(
                    f,
                    "stage `{stage}` failed after {attempts} attempt(s): {detail}"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// The full pipeline output.
///
/// The heavy artifacts are `Arc`-shared with the engine's
/// [`ArtifactStore`] (when one is attached), so holding an output does
/// not copy the world.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The ground-truth world (available for validation experiments; the
    /// paper's analyses only look at `datasets`).
    pub ground_truth: Arc<GroundTruth>,
    /// The synthesized RouteViews snapshot.
    pub route_table: Arc<RouteTable>,
    /// The four processed datasets, ordered as Table I:
    /// (IxMapper, Mercator), (IxMapper, Skitter), (EdgeScape, Mercator),
    /// (EdgeScape, Skitter).
    pub datasets: Vec<Arc<ProcessedDataset>>,
    /// The raw Skitter collection (pre-mapping), for anomaly and
    /// monitor-health reporting.
    pub skitter: Arc<SkitterOutput>,
    /// The raw Mercator collection (pre-mapping), for anomaly reporting.
    pub mercator: Arc<MercatorOutput>,
    /// The frozen read-side query snapshot (per-address location, city,
    /// origin, and provenance lookups; see [`crate::query`]).
    pub query: Arc<QuerySnapshot>,
    /// Per-stage execution reports (timing, artifact sizes, cache
    /// outcomes), in stage-graph order.
    pub reports: Vec<StageReport>,
    /// The run's metrics snapshot (empty when the attached registry was
    /// disabled). Purely observational: the same run with telemetry off
    /// produces byte-identical datasets.
    pub metrics: MetricsSnapshot,
}

impl PipelineOutput {
    /// Fetches a processed dataset by provenance.
    pub fn dataset(&self, mapper: MapperKind, collector: Collector) -> &ProcessedDataset {
        let d = self
            .datasets
            .iter()
            .find(|d| d.mapper == mapper && d.collector == collector)
            .expect("all four combinations are always produced");
        d
    }
}

/// The end-to-end pipeline.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    validation: ValidationMode,
    store: Option<Arc<ArtifactStore>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl Pipeline {
    /// Creates a pipeline with the default [`ValidationMode::DebugOnly`].
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline {
            config,
            validation: ValidationMode::default(),
            store: None,
            telemetry: None,
        }
    }

    /// Sets when between-stage invariant validators run.
    #[must_use]
    pub fn with_validation(mut self, mode: ValidationMode) -> Self {
        self.validation = mode;
        self
    }

    /// Attaches a shared artifact store: stage outputs are reused across
    /// `run()` calls with the same config fingerprint instead of being
    /// regenerated.
    #[must_use]
    pub fn with_store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Overrides the worker-thread knob (equivalent to setting
    /// [`PipelineConfig::threads`]).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Attaches an explicit metrics registry. Without one the pipeline
    /// creates its own enabled registry; pass [`Telemetry::disabled`] to
    /// prove output-neutrality, or share one registry across runs to
    /// accumulate fleet-level counters.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Runs everything: world → collection → mapping → AS origination.
    ///
    /// The run is delegated to the [`engine`]: the
    /// configuration compiles to a stage graph
    /// ([`engine::pipeline_stages`]) and a deterministic scheduler
    /// executes independent stages concurrently. The worker count is
    /// resolved once here (`threads` knob, else `GEOTOPO_THREADS`, else
    /// available parallelism) and serves both the scheduler and the
    /// stage interiors; at `1` everything runs on the calling thread.
    /// Every stage seeds its RNG from the config alone, so output is
    /// byte-identical at any thread count.
    ///
    /// Depending on the configured [`ValidationMode`], each stage's output
    /// is checked against its layer's invariants before the next stage
    /// consumes it: topology well-formedness, route-table/trie fidelity,
    /// measured-dataset provenance, and processed-dataset geography.
    ///
    /// # Errors
    ///
    /// Propagates world-generation failures, reports the first invariant
    /// violation as [`PipelineError::Invariant`] and a miswired stage
    /// graph as [`PipelineError::Wiring`].
    pub fn run(self) -> Result<PipelineOutput, PipelineError> {
        let validate = self.validation.is_active();
        let cfg = self.config;
        let telemetry = self.telemetry.unwrap_or_else(|| Arc::new(Telemetry::new()));
        let threads = engine::resolve_threads(cfg.threads);
        telemetry.gauge("engine.threads.resolved", threads as f64);
        if engine::threads_env_warning().is_some() {
            telemetry.count("engine.threads.env_malformed", 1);
        }
        let stages = engine::pipeline_stages(&cfg);
        let (mut artifacts, reports) = engine::execute(
            &stages,
            &cfg,
            validate,
            threads,
            self.store.as_deref(),
            &telemetry,
        )?;
        let datasets = engine::TABLE_I_ORDER
            .iter()
            .map(|&(mapper, collector)| artifacts.take(&engine::map_stage_name(mapper, collector)))
            .collect::<Result<_, _>>()?;
        Ok(PipelineOutput {
            ground_truth: artifacts.take(engine::GROUND_TRUTH)?,
            route_table: artifacts.take(engine::ROUTE_TABLE)?,
            datasets,
            skitter: artifacts.take(engine::COLLECT_SKITTER)?,
            mercator: artifacts.take(engine::COLLECT_MERCATOR)?,
            query: artifacts.take(engine::QUERY_SNAPSHOT)?,
            reports,
            metrics: telemetry.snapshot(),
        })
    }
}

/// Per-dataset processing tallies destined for the metrics registry.
///
/// Accumulated in plain chunk-local fields inside the [`process_chunked`]
/// hot loop — the registry's locks are touched once per stage, when the
/// owning stage absorbs the totals.
#[derive(Debug, Clone, Default)]
pub struct ProcessTelemetry {
    /// Addresses handed to the mapping tool (alias interfaces counted
    /// individually).
    pub addresses: u64,
    /// Addresses the tool located.
    pub resolved: u64,
    /// Addresses the tool gave up on.
    pub unresolved: u64,
    /// Resolved addresses answered by a fallback source (below the head
    /// of the tool's chain).
    pub fallback: u64,
    /// Per-source resolution counts, keyed by the tool's stable source
    /// labels (see `geotopo_geomap::MapOutcome`).
    pub sources: std::collections::BTreeMap<&'static str, u64>,
    /// Longest-prefix-match lookups issued for AS origination.
    pub lpm_lookups: u64,
    /// Lookups that matched no advertised prefix.
    pub lpm_unmapped: u64,
    /// Matched prefix lengths (bits), over successful lookups.
    pub lpm_matched_len: Histogram,
}

/// Fixed node-chunk size for the map-stage interior
/// ([`process_chunked`]). A constant — never derived from the thread
/// count — so chunk boundaries, per-chunk tallies, and the merged
/// output are byte-identical no matter how many workers run the chunks.
// analyze: allow(dead-pub): part of the documented interior-parallelism contract (DESIGN.md); root-package tests exercise chunk boundaries through it
pub const NODE_CHUNK: usize = 2048;

/// Fixed router-chunk size for [`NearestHints::compute`]. Same
/// contract as [`NODE_CHUNK`]: thread-count-independent boundaries.
// analyze: allow(dead-pub): part of the documented interior-parallelism contract (DESIGN.md)
pub const ROUTER_HINT_CHUNK: usize = 4096;

/// Frozen per-router nearest-city results: the gazetteer memo the map
/// stages and the query-snapshot freeze share.
///
/// The nearest-city search is the dominant per-address mapping cost at
/// scale, and every interface of a router shares its router's
/// location, so the pipeline computes `nearest_idx` once per router —
/// in fixed chunks over the engine executor — and hands the results to
/// every mapping consumer as [`MapContext::nearest_hint`]. Hints are
/// the exact `nearest_idx` output (index and distance bits), so hinted
/// and unhinted mapping are bit-identical.
#[derive(Debug, Clone)]
pub struct NearestHints {
    per_router: Vec<Option<(u32, f64)>>,
}

impl NearestHints {
    /// Computes the per-router memo against `gazetteer` — the same
    /// artifact the pipeline's mappers hold, which is what makes the
    /// hints valid for them.
    pub fn compute(
        gt: &GroundTruth,
        gazetteer: &geotopo_geomap::Gazetteer,
        exec: &impl ChunkExec,
    ) -> Self {
        let n = gt.topology.num_routers();
        let n_chunks = n.div_ceil(ROUTER_HINT_CHUNK);
        let chunks = exec.dispatch(n_chunks, &|c| {
            let lo = c * ROUTER_HINT_CHUNK;
            let hi = usize::min(lo + ROUTER_HINT_CHUNK, n);
            (lo..hi)
                .map(|r| {
                    let router = gt.topology.router(RouterId(r as u32));
                    gazetteer.nearest_idx(&router.location)
                })
                .collect::<Vec<_>>()
        });
        let mut per_router = Vec::with_capacity(n);
        for chunk in chunks {
            per_router.extend(chunk);
        }
        NearestHints { per_router }
    }

    /// The memoized `nearest_idx` result for one router.
    pub fn for_router(&self, r: RouterId) -> Option<(u32, f64)> {
        self.per_router.get(r.0 as usize).copied().flatten()
    }

    /// Number of routers covered.
    pub fn len(&self) -> usize {
        self.per_router.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.per_router.is_empty()
    }

    /// Approximate resident size in bytes.
    pub fn mem_bytes(&self) -> usize {
        self.per_router.len() * std::mem::size_of::<Option<(u32, f64)>>()
    }
}

impl ProcessTelemetry {
    /// Folds another tally into this one (chunk-merge). Every field is
    /// an order-independent sum or merge, so folding per-chunk tallies
    /// in chunk order equals tallying serially.
    pub fn absorb(&mut self, other: &ProcessTelemetry) {
        self.addresses += other.addresses;
        self.resolved += other.resolved;
        self.unresolved += other.unresolved;
        self.fallback += other.fallback;
        for (source, n) in &other.sources {
            *self.sources.entry(source).or_insert(0) += n;
        }
        self.lpm_lookups += other.lpm_lookups;
        self.lpm_unmapped += other.lpm_unmapped;
        self.lpm_matched_len.merge(&other.lpm_matched_len);
    }
}

/// One node chunk's partial result: per-node outcomes plus the chunk's
/// local tallies, merged in chunk order by [`process_chunked`].
struct NodeChunk {
    nodes: Vec<Option<GeoNode>>,
    tally: ProcessTelemetry,
    stats: ProcessingStats,
}

/// The map-stage interior: shards `measured.nodes()` into fixed
/// [`NODE_CHUNK`]-node chunks, maps each chunk independently (per-chunk
/// scratch, no shared mutable state), and merges nodes and tallies in
/// chunk index order, then compacts serially. Byte-identical to the
/// serial fold at any thread count; `hints` (the per-router gazetteer
/// memo) changes the cost of each item, never its outcome.
pub fn process_chunked(
    measured: &MeasuredDataset,
    mapper: &(dyn GeoMapper + Sync),
    route_table: &RouteTable,
    gt: &GroundTruth,
    hints: Option<&NearestHints>,
    exec: &impl ChunkExec,
) -> (GeoDataset, ProcessTelemetry) {
    let nodes_in = measured.nodes();
    let n_chunks = nodes_in.len().div_ceil(NODE_CHUNK);
    let chunks = exec.dispatch(n_chunks, &|c| {
        let lo = c * NODE_CHUNK;
        let hi = usize::min(lo + NODE_CHUNK, nodes_in.len());
        process_node_chunk(&nodes_in[lo..hi], mapper, route_table, gt, hints)
    });

    let mut stats = ProcessingStats::default();
    let mut tally = ProcessTelemetry::default();
    let mut nodes: Vec<Option<GeoNode>> = Vec::with_capacity(nodes_in.len());
    for chunk in chunks {
        nodes.extend(chunk.nodes);
        tally.absorb(&chunk.tally);
        stats.unmapped_location += chunk.stats.unmapped_location;
        stats.location_ties += chunk.stats.location_ties;
        stats.unmapped_as += chunk.stats.unmapped_as;
    }

    // Compact: drop unlocated nodes and their links.
    let mut remap: Vec<Option<u32>> = vec![None; nodes.len()];
    let mut kept: Vec<GeoNode> = Vec::with_capacity(nodes.len());
    for (i, n) in nodes.into_iter().enumerate() {
        if let Some(n) = n {
            remap[i] = Some(kept.len() as u32);
            kept.push(n);
        }
    }
    let mut links = Vec::with_capacity(measured.num_links());
    for &(a, b) in measured.links() {
        match (remap[a as usize], remap[b as usize]) {
            (Some(na), Some(nb)) => links.push((na, nb)),
            _ => stats.dropped_links += 1,
        }
    }

    (
        GeoDataset {
            kind: measured.kind,
            nodes: kept,
            links,
            stats,
        },
        tally,
    )
}

/// The region boxes the world was generated from, padded by the
/// city-granularity mapping error: routers sit inside their region, but
/// the gazetteer city a mapper reports for an edge router can lie a few
/// degrees outside the box.
pub(crate) fn generation_regions(gt: &GroundTruth) -> Vec<Region> {
    const MAPPING_SLOP_DEG: f64 = 5.0;
    gt.config
        .regions
        .iter()
        .map(|p| {
            let r = &p.economic.region;
            Region::named(
                &r.name,
                (r.north + MAPPING_SLOP_DEG).min(90.0),
                (r.south - MAPPING_SLOP_DEG).max(-90.0),
                r.west - MAPPING_SLOP_DEG,
                r.east + MAPPING_SLOP_DEG,
            )
        })
        .collect()
}

/// Maps one chunk of measured nodes. Scratch (the vote maps) is owned
/// by the chunk and reused across its nodes — allocation stops growing
/// with the node count — and every tally is chunk-local, so chunks
/// share nothing mutable.
fn process_node_chunk(
    chunk: &[geotopo_measure::dataset::MeasuredNode],
    mapper: &(dyn GeoMapper + Sync),
    route_table: &RouteTable,
    gt: &GroundTruth,
    hints: Option<&NearestHints>,
) -> NodeChunk {
    let mut stats = ProcessingStats::default();
    let mut tally = ProcessTelemetry::default();
    let mut nodes: Vec<Option<GeoNode>> = Vec::with_capacity(chunk.len());
    let mut votes: HashMap<(u64, u64), (GeoPoint, usize)> = HashMap::new();
    let mut as_votes: HashMap<AsId, usize> = HashMap::new();

    for node in chunk {
        let addrs: &[Ipv4Addr] = if node.aliases.is_empty() {
            std::slice::from_ref(&node.ip)
        } else {
            &node.aliases
        };

        // Geographic mapping: per-interface, then majority for routers.
        votes.clear();
        for &ip in addrs {
            let Some(truth) = interface_truth(gt, ip, hints) else {
                continue;
            };
            let outcome = mapper.map_resolved(ip, &truth);
            tally.addresses += 1;
            *tally.sources.entry(outcome.source).or_insert(0) += 1;
            if let Some(loc) = outcome.location {
                tally.resolved += 1;
                if outcome.fallback {
                    tally.fallback += 1;
                }
                votes
                    .entry(location_key(&loc))
                    .and_modify(|e| e.1 += 1)
                    .or_insert((loc, 1));
            } else {
                tally.unresolved += 1;
            }
        }
        let location = match majority(&votes) {
            MajorityResult::Winner(loc) => Some(loc),
            MajorityResult::Tie => {
                stats.location_ties += 1;
                None
            }
            MajorityResult::Empty => {
                stats.unmapped_location += 1;
                None
            }
        };

        // AS origination: longest-prefix match, majority across aliases.
        as_votes.clear();
        for &ip in addrs {
            tally.lpm_lookups += 1;
            let asn = match route_table.origin_with_len(ip) {
                Some((asn, len)) => {
                    tally.lpm_matched_len.record(u64::from(len));
                    asn
                }
                None => {
                    tally.lpm_unmapped += 1;
                    AsId::UNMAPPED
                }
            };
            if !asn.is_unmapped() {
                *as_votes.entry(asn).or_insert(0) += 1;
            }
        }
        let asn = as_votes
            .iter()
            .max_by_key(|(asid, &c)| (c, std::cmp::Reverse(asid.0)))
            .map(|(&a, _)| a)
            .unwrap_or(AsId::UNMAPPED);
        if asn.is_unmapped() {
            stats.unmapped_as += 1;
        }

        nodes.push(location.map(|location| GeoNode {
            ip: node.ip,
            location,
            asn,
        }));
    }

    NodeChunk {
        nodes,
        tally,
        stats,
    }
}

/// The ground-truth context a mapper needs for one address, carrying
/// the router's memoized nearest-city hint when the caller has one.
fn interface_truth(
    gt: &GroundTruth,
    ip: Ipv4Addr,
    hints: Option<&NearestHints>,
) -> Option<MapContext> {
    let router = gt.topology.router_by_ip(ip)?;
    let r = gt.topology.router(router);
    Some(
        MapContext::new(r.location, r.asn)
            .with_nearest_hint(hints.and_then(|h| h.for_router(router))),
    )
}

enum MajorityResult {
    Winner(GeoPoint),
    Tie,
    Empty,
}

fn majority(votes: &HashMap<(u64, u64), (GeoPoint, usize)>) -> MajorityResult {
    // Single pass, order-independent: track the best count seen and
    // whether another entry matched it. A later strictly-greater count
    // clears the tie flag, so `tied` ends true iff the maximum count is
    // shared — regardless of map iteration order.
    let mut best: Option<(GeoPoint, usize)> = None;
    let mut tied = false;
    for &(point, count) in votes.values() {
        match best {
            None => best = Some((point, count)),
            Some((_, max)) => match count.cmp(&max) {
                std::cmp::Ordering::Greater => {
                    best = Some((point, count));
                    tied = false;
                }
                std::cmp::Ordering::Equal => tied = true,
                std::cmp::Ordering::Less => {}
            },
        }
    }
    match best {
        None => MajorityResult::Empty,
        Some(_) if tied => MajorityResult::Tie,
        Some((point, _)) => MajorityResult::Winner(point),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> PipelineOutput {
        Pipeline::new(PipelineConfig::tiny(5)).run().unwrap()
    }

    #[test]
    fn produces_all_four_datasets() {
        let out = output();
        assert_eq!(out.datasets.len(), 4);
        for mapper in [MapperKind::IxMapper, MapperKind::EdgeScape] {
            for collector in [Collector::Mercator, Collector::Skitter] {
                let d = out.dataset(mapper, collector);
                assert!(d.dataset.num_nodes() > 50, "{mapper} {collector} empty");
                assert!(d.dataset.num_links() > 50);
            }
        }
    }

    #[test]
    fn skitter_is_interface_level_and_larger() {
        let out = output();
        let sk = out.dataset(MapperKind::IxMapper, Collector::Skitter);
        let me = out.dataset(MapperKind::IxMapper, Collector::Mercator);
        assert_eq!(sk.dataset.kind, NodeKind::Interface);
        assert_eq!(me.dataset.kind, NodeKind::Router);
        assert!(
            sk.dataset.num_nodes() > me.dataset.num_nodes(),
            "skitter {} <= mercator {}",
            sk.dataset.num_nodes(),
            me.dataset.num_nodes()
        );
    }

    #[test]
    fn discard_rates_are_small() {
        let out = output();
        for d in &out.datasets {
            let total = d.dataset.num_nodes()
                + d.dataset.stats.unmapped_location
                + d.dataset.stats.location_ties;
            let unmapped_frac = d.dataset.stats.unmapped_location as f64 / total as f64;
            assert!(
                unmapped_frac < 0.06,
                "{} {}: unmapped {unmapped_frac}",
                d.mapper,
                d.collector
            );
            let as_unmapped_frac = d.dataset.stats.unmapped_as as f64 / total as f64;
            assert!(as_unmapped_frac < 0.10, "AS-unmapped {as_unmapped_frac}");
        }
    }

    #[test]
    fn mercator_has_location_ties_skitter_does_not() {
        let out = output();
        let sk = out.dataset(MapperKind::IxMapper, Collector::Skitter);
        // Interfaces have exactly one address: no ties possible.
        assert_eq!(sk.dataset.stats.location_ties, 0);
    }

    #[test]
    fn locations_count_is_plausible() {
        let out = output();
        for d in &out.datasets {
            let locs = d.dataset.num_locations();
            assert!(
                locs >= 10,
                "{} {}: only {locs} locations",
                d.mapper,
                d.collector
            );
            assert!(locs < d.dataset.num_nodes());
        }
    }

    #[test]
    fn validation_always_mode_passes_on_honest_run() {
        let out = Pipeline::new(PipelineConfig::tiny(9))
            .with_validation(ValidationMode::Always)
            .run()
            .unwrap();
        assert_eq!(out.datasets.len(), 4);
        // Off mode also succeeds (validators simply skipped).
        Pipeline::new(PipelineConfig::tiny(9))
            .with_validation(ValidationMode::Off)
            .run()
            .unwrap();
    }

    #[test]
    fn validation_mode_activation_matrix() {
        assert!(!ValidationMode::Off.is_active());
        assert!(ValidationMode::Always.is_active());
        assert_eq!(
            ValidationMode::DebugOnly.is_active(),
            cfg!(debug_assertions)
        );
    }

    #[test]
    fn processed_datasets_pass_geo_validation() {
        let out = output();
        let regions = generation_regions(&out.ground_truth);
        assert!(!regions.is_empty());
        for d in &out.datasets {
            assert_eq!(d.dataset.validate(&regions), Ok(()));
        }
    }

    #[test]
    fn geo_validate_rejects_corruption() {
        let out = output();
        let good = &out
            .dataset(MapperKind::IxMapper, Collector::Skitter)
            .dataset;

        // Link referencing a missing node.
        let mut bad = good.clone();
        let n = bad.nodes.len() as u32;
        bad.links.push((0, n));
        assert_eq!(
            bad.validate(&[]),
            Err(GeoInvariant::LinkOutOfRange { link: (0, n) })
        );

        // Self-loop.
        let mut bad = good.clone();
        bad.links.push((3, 3));
        assert_eq!(
            bad.validate(&[]),
            Err(GeoInvariant::SelfLoopLink { node: 3 })
        );

        // Out-of-range coordinate: reachable via deserialization, which
        // bypasses GeoPoint::new (JSON happily carries lat 200).
        let mut bad = good.clone();
        bad.nodes[0].location =
            serde_json::from_str::<GeoPoint>(r#"{"lat":200.0,"lon":0.0}"#).unwrap();
        assert_eq!(
            bad.validate(&[]),
            Err(GeoInvariant::BadCoordinate {
                ip: bad.nodes[0].ip
            })
        );

        // A node teleported outside every generation region.
        let mut bad = good.clone();
        bad.nodes[0].location = GeoPoint::new(-80.0, 10.0).unwrap();
        assert_eq!(
            bad.validate(&generation_regions(&out.ground_truth)),
            Err(GeoInvariant::OutOfRegion {
                ip: bad.nodes[0].ip
            })
        );
        // ...but with no regions given, only structure is checked.
        assert_eq!(bad.validate(&[]), Ok(()));
    }

    #[test]
    fn most_nodes_get_an_as_label() {
        let out = output();
        let d = &out
            .dataset(MapperKind::IxMapper, Collector::Skitter)
            .dataset;
        let labelled = d.nodes.iter().filter(|n| !n.asn.is_unmapped()).count();
        assert!(labelled as f64 / d.num_nodes() as f64 > 0.9);
    }
}
