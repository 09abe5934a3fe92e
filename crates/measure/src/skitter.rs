//! Skitter-like multi-monitor collection.
//!
//! "Skitter sends hop-limited probes to a list of destination nodes
//! located worldwide ... a successful Skitter probe reports a sequence of
//! interfaces along contiguous routers on the path from the source to the
//! destination. In this study, we treat interfaces as virtual nodes, and
//! define a link to mean a connection between two adjacent interfaces."
//!
//! Faithfully reproduced artifacts:
//!
//! - the dataset is the **union of forward paths from ~19 monitors**;
//! - nodes are **interfaces, not routers** (no alias resolution);
//! - destination-list addresses are end hosts — after collection, "we
//!   further discarded all interfaces appearing in the destination lists";
//! - self-loops and duplicate observations are discarded as anomalies.

use crate::dataset::{DatasetBuilder, MeasuredDataset, MonitorRecord, NodeKind};
use crate::faults::{FaultConfig, FaultPlan, FaultSession, FaultStats};
use crate::probe::{sample_destinations, TraceBuf, TracerouteSim};
use crate::routing::{RoutingOracle, RoutingScratch, RoutingStats};
use geotopo_stats::ChunkExec;
use geotopo_topology::generate::GroundTruth;
use geotopo_topology::{InterfaceId, RouterId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Destinations per trace chunk: the unit of interior parallelism
/// within one monitor's campaign. Fixed (never derived from the thread
/// count) so the job list — and every merged byte — is identical at any
/// parallelism.
pub const DEST_CHUNK: usize = 2048;

/// Trace-chunk jobs dispatched per wave. Each wave's replay logs are
/// merged into the dataset before the next wave runs, bounding how much
/// raw event log is ever resident while still keeping far more jobs in
/// flight than any scheduler has workers. Fixed (never derived from the
/// thread count) so wave boundaries — and the merge order — are
/// identical at any parallelism.
const TRACE_WAVE_JOBS: usize = 64;

/// Skitter collection parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkitterConfig {
    /// Number of monitors (the paper's dataset unions 19).
    pub n_monitors: usize,
    /// Total destination-list size.
    pub destinations: usize,
    /// Fraction of the destination list each monitor probes
    /// ("each probing a destination list of varying size").
    pub monitor_coverage: f64,
    /// Per-router probe-response probability.
    pub response_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SkitterConfig {
    /// Paper-like defaults scaled to the world size: the destination list
    /// covers the address space densely enough that most of the core is
    /// traversed.
    pub fn scaled(gt: &GroundTruth, seed: u64) -> Self {
        SkitterConfig {
            n_monitors: 19,
            destinations: gt.topology.num_routers() * 3,
            monitor_coverage: 0.8,
            response_prob: 0.97,
            seed,
        }
    }
}

/// Skitter collection result.
#[derive(Debug, Serialize, Deserialize)]
pub struct SkitterOutput {
    /// The processed interface-level dataset (destinations discarded).
    pub dataset: MeasuredDataset,
    /// Interfaces observed before destination discarding.
    pub raw_nodes: usize,
    /// Destination-list nodes discarded (paper: 18%).
    pub discarded_destinations: usize,
    /// The monitors planned for the campaign.
    pub monitors: Vec<RouterId>,
    /// Monitors that lost more of their campaign to outage than they
    /// completed (also recorded per-monitor in `dataset.anomalies`).
    pub failed_monitors: usize,
    /// Probes actually sent during the campaign (retries included).
    pub probes_sent: u64,
    /// Virtual probe-tick clock reading at campaign end (probes sent
    /// plus backoff waits; see `faults`).
    pub virtual_ticks: u64,
    /// Shortest-path solver counters, merged in monitor-index order.
    pub routing: RoutingStats,
}

impl SkitterOutput {
    /// Monitors that stayed healthy for at least half their campaign.
    pub fn active_monitors(&self) -> usize {
        self.monitors.len().saturating_sub(self.failed_monitors)
    }
}

/// One dataset event recorded by a trace chunk, replayed serially in
/// (monitor, chunk) order. Interfaces and end hosts are named by index —
/// the fold resolves both through vec-indexed intern caches instead of a
/// by-IP hash probe per event.
#[derive(Debug, Clone, Copy)]
enum ReplayEvent {
    /// A responding hop: intern the interface and link it to the
    /// previous node in the chain.
    Iface(InterfaceId),
    /// The end host of destination-list entry `.0` answering last.
    Host(u32),
    /// Chain break (silent router or end of a trace).
    Break,
}

/// One (monitor, destination-chunk) job's output: the dataset events to
/// replay plus every per-chunk counter. Merged serially in job-index
/// order — monitor-major, chunk-minor — which is what keeps the final
/// dataset byte-identical at any thread count.
#[derive(Debug)]
struct TraceChunk {
    replay: Vec<ReplayEvent>,
    probes: u64,
    skipped: u64,
    probes_sent: u64,
    ticks_elapsed: u64,
    /// Link sightings the chunk did not replay because an earlier
    /// destination of its monitor already walked them: all duplicates.
    repeat_links: u64,
    fstats: FaultStats,
}

/// What a trace chunk under an inert plan does not walk but must still
/// count, summed over the chunk's destinations by its monitor's phase-1
/// job.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkTally {
    /// Hops of the chunk's routes in full: one probe and one virtual
    /// tick each.
    hops: u64,
    /// Link sightings on route prefixes an earlier destination of the
    /// same monitor walked.
    repeat_links: u64,
}

/// What a campaign counts besides the dataset, accumulated in job-index
/// order.
#[derive(Debug)]
struct Counters {
    records: Vec<MonitorRecord>,
    faults: FaultStats,
    /// Link sightings the trace chunks did not replay (all duplicates).
    repeat_links: u64,
    probes_sent: u64,
    virtual_ticks: u64,
    routing: RoutingStats,
}

/// One monitor's phase-1 result, shared by reference into every trace
/// chunk of that monitor.
#[derive(Debug)]
struct MonitorTree {
    oracle: RoutingOracle,
    /// Under an inert plan, for each router: the index of the first
    /// destination whose route reaches it ([`UNVISITED`] for the monitor
    /// itself and for routers no traced route reaches). Empty under an
    /// active plan.
    first_visit: Vec<u32>,
    /// Under an inert plan, one tally per destination chunk.
    tallies: Vec<ChunkTally>,
}

/// [`MonitorTree::first_visit`] of a router no traced route reaches.
const UNVISITED: u32 = u32::MAX;

/// Everything the serial prologue fixes before any job runs: the
/// destination list, the monitors, every RNG draw, the fault plan and
/// the per-destination attachment routers. Trace jobs read it and
/// nothing else, so their output cannot depend on scheduling.
#[derive(Debug)]
struct Campaign<'a> {
    gt: &'a GroundTruth,
    destinations: Vec<Ipv4Addr>,
    monitors: Vec<RouterId>,
    sim: TracerouteSim<'a>,
    /// Coverage coins, monitor-major: `coverage[m * destinations + d]`.
    coverage: Vec<bool>,
    plan: FaultPlan,
    /// Virtual-clock slice each monitor owns.
    slice_len: u64,
    /// Virtual-clock stride between a monitor's chunks.
    chunk_ticks: u64,
    n_dest_chunks: usize,
    /// Access router of each destination (`None`: unallocated space or
    /// an AS without routers).
    attach: Vec<Option<RouterId>>,
}

impl<'a> Campaign<'a> {
    /// The serial prologue: every RNG draw of the campaign, in one
    /// fixed order.
    fn plan(
        gt: &'a GroundTruth,
        cfg: &SkitterConfig,
        faults: &FaultConfig,
        exec: &impl ChunkExec,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let t = &gt.topology;
        let (destinations, attach) = sample_destinations(gt, cfg.destinations, &mut rng, exec);

        // Monitors: distinct routers, preferring distinct regions first.
        let monitors = pick_monitors(gt, cfg.n_monitors, &mut rng);

        let sim = TracerouteSim::new(t, cfg.response_prob, &mut rng);

        // Last of the serial RNG prologue: pre-draw every coverage coin
        // in the exact nested (monitor, destination) order the serial
        // loop used, so the RNG stream — and therefore every downstream
        // byte — is independent of how the jobs are later scheduled.
        let coverage: Vec<bool> = (0..monitors.len() * destinations.len())
            .map(|_| rng.random::<f64>() < cfg.monitor_coverage)
            .collect();

        // Compile the fault plan against the campaign's probe budget
        // (monitors × destinations × coverage × a typical hop count) so
        // flap windows and outage onsets land mid-campaign.
        let expected_probes =
            (monitors.len() as f64 * destinations.len() as f64 * cfg.monitor_coverage * 8.0) as u64;
        let plan = FaultPlan::compile(faults, t.num_routers(), monitors.len(), expected_probes);
        // Each monitor owns a disjoint slice of the virtual clock, so
        // its hash-derived fate stream depends only on its own probes.
        let slice_len = (expected_probes / monitors.len().max(1) as u64).max(1);

        let n_dest_chunks = destinations.len().div_ceil(DEST_CHUNK).max(1);
        Campaign {
            gt,
            chunk_ticks: (slice_len / n_dest_chunks as u64).max(1),
            destinations,
            monitors,
            sim,
            coverage,
            plan,
            slice_len,
            n_dest_chunks,
            attach,
        }
    }

    /// Zeroed counters with one record per planned monitor.
    fn counters(&self) -> Counters {
        Counters {
            records: self
                .monitors
                .iter()
                .map(|m| MonitorRecord {
                    router: m.0,
                    node: None,
                    probes: 0,
                    skipped: 0,
                })
                .collect(),
            faults: FaultStats::default(),
            repeat_links: 0,
            probes_sent: 0,
            virtual_ticks: 0,
            routing: RoutingStats::default(),
        }
    }

    /// Destination indices of chunk `c`.
    fn chunk(&self, c: usize) -> std::ops::Range<usize> {
        c * DEST_CHUNK..((c + 1) * DEST_CHUNK).min(self.destinations.len())
    }

    /// Monitor `m`'s coverage coins, indexed by destination.
    fn cover(&self, m: usize) -> &[bool] {
        let n = self.destinations.len();
        &self.coverage[m * n..(m + 1) * n]
    }

    /// The virtual tick chunk `c` of monitor `m` starts at: the
    /// monitor's slice base plus a per-chunk stride, so the chunk's
    /// hash-derived fate stream depends only on its own coordinates.
    fn chunk_base(&self, m: usize, c: usize) -> u64 {
        m as u64 * self.slice_len + c as u64 * self.chunk_ticks
    }

    /// The attachment router of destination `d` if the monitor with
    /// coverage coins `cover` traces it and `oracle` routes to it — the
    /// destinations whose routes form the monitor's route tree under an
    /// inert plan.
    fn traced_route(&self, oracle: &RoutingOracle, cover: &[bool], d: usize) -> Option<RouterId> {
        self.attach[d].filter(|&dst| cover[d] && oracle.reachable(dst))
    }

    /// Phase 1 for monitor `m`: its routing oracle and, under an inert
    /// plan, its route tree's first-visit marks and chunk tallies.
    ///
    /// Destinations are walked in list order, each from its attachment
    /// router up to the first router an earlier destination reached (or
    /// the monitor), so every tree edge is walked once. A per-router
    /// `(hops, chained links)` prefix count — transient, freed with the
    /// job — turns the stopping router into the tally of the walk's
    /// skipped prefix.
    fn solve_monitor(&self, m: usize, inert: bool) -> (MonitorTree, RoutingStats) {
        let t = &self.gt.topology;
        let mut scratch = RoutingScratch::new();
        let oracle = RoutingOracle::new_in(t, self.monitors[m], &mut scratch);
        if !inert {
            let tree = MonitorTree {
                oracle,
                first_visit: Vec::new(),
                tallies: Vec::new(),
            };
            return (tree, scratch.stats);
        }
        let source = self.monitors[m];
        let cover = self.cover(m);
        let mut first_visit = vec![UNVISITED; t.num_routers()];
        let mut prefix = vec![(0u32, 0u32); t.num_routers()];
        let mut tallies = vec![ChunkTally::default(); self.n_dest_chunks];
        let mut fresh: Vec<RouterId> = Vec::new();
        for d in 0..self.destinations.len() {
            let Some(dst) = self.traced_route(&oracle, cover, d) else {
                continue;
            };
            fresh.clear();
            let mut r = dst;
            while r != source && first_visit[r.0 as usize] == UNVISITED {
                fresh.push(r);
                r = oracle.parent(r).unwrap_or(source);
            }
            let (mut hops, mut links) = prefix[r.0 as usize];
            let tally = &mut tallies[d / DEST_CHUNK];
            tally.repeat_links += u64::from(links);
            let mut prev = r;
            for &v in fresh.iter().rev() {
                hops += 1;
                if prev != source && self.sim.is_responsive(prev) && self.sim.is_responsive(v) {
                    links += 1;
                }
                prefix[v.0 as usize] = (hops, links);
                first_visit[v.0 as usize] = d as u32;
                prev = v;
            }
            tally.hops += u64::from(prefix[dst.0 as usize].0);
        }
        let tree = MonitorTree {
            oracle,
            first_visit,
            tallies,
        };
        (tree, scratch.stats)
    }

    /// Phase 2 under an inert plan: chunk `c` of monitor `m` emits only
    /// the hops of each route that no earlier destination of the
    /// monitor walked. The route tree makes those a suffix; the router
    /// above it starts the chain when it answers, exactly as it would
    /// have at the end of the skipped prefix. Everything skipped is
    /// counted from the phase-1 tally.
    fn walk_new_suffixes(&self, tree: &MonitorTree, m: usize, c: usize) -> TraceChunk {
        let oracle = &tree.oracle;
        let cover = self.cover(m);
        let mut replay: Vec<ReplayEvent> = Vec::new();
        let mut fresh: Vec<RouterId> = Vec::new();
        let mut probes = 0u64;
        for d in self.chunk(c) {
            if !cover[d] {
                continue;
            }
            probes += 1;
            let Some(dst) = self.traced_route(oracle, cover, d) else {
                continue;
            };
            fresh.clear();
            let mut r = dst;
            while tree.first_visit[r.0 as usize] == d as u32 {
                fresh.push(r);
                r = oracle.parent(r).unwrap_or(oracle.source());
            }
            let mut chained = false;
            for &v in std::iter::once(&r).chain(fresh.iter().rev()) {
                // The monitor emits, it does not report.
                if v != oracle.source() {
                    let reported = oracle.incoming_interface(v);
                    chained = push_hop(&mut replay, reported.filter(|_| self.sim.is_responsive(v)));
                }
            }
            end_trace(&mut replay, chained, d);
        }
        let tally = tree.tallies[c];
        TraceChunk {
            replay,
            probes,
            skipped: 0,
            probes_sent: tally.hops,
            ticks_elapsed: tally.hops,
            repeat_links: tally.repeat_links,
            fstats: FaultStats::default(),
        }
    }

    /// Phase 2 under an active plan: chunk `c` of monitor `m` traces
    /// every hop through its own fault session, since each probe takes
    /// a virtual tick and draws a fate.
    fn walk_every_hop(&self, oracle: &RoutingOracle, m: usize, c: usize) -> TraceChunk {
        let cover = self.cover(m);
        let base = self.chunk_base(m, c);
        let mut session = FaultSession::at_tick(&self.plan, base);
        let mut buf = TraceBuf::new();
        let mut replay: Vec<ReplayEvent> = Vec::new();
        let (mut probes, mut skipped) = (0u64, 0u64);
        for d in self.chunk(c) {
            if !cover[d] {
                continue;
            }
            if session.monitor_down(m) {
                skipped += 1;
                session.stats.outage_skips += 1;
                continue;
            }
            probes += 1;
            let Some(dst) = self.attach[d] else { continue };
            let Some(hops) = self
                .sim
                .trace_with_faults_into(oracle, dst, &mut session, &mut buf)
            else {
                continue;
            };
            let mut chained = false;
            for hop in hops {
                chained = push_hop(&mut replay, hop.interface);
            }
            end_trace(&mut replay, chained, d);
        }
        TraceChunk {
            replay,
            probes,
            skipped,
            probes_sent: session.probes_sent(),
            ticks_elapsed: session.tick() - base,
            repeat_links: 0,
            fstats: session.stats,
        }
    }

    /// The serial epilogue: anchors each monitor record at its router's
    /// lowest-indexed interface in the dataset, then discards the
    /// destination-list end hosts.
    fn finish(self, dataset: DatasetBuilder, counters: Counters) -> SkitterOutput {
        let t = &self.gt.topology;
        // The destination-list end hosts, discarded below.
        let remove: HashSet<u32> = self
            .destinations
            .iter()
            .filter_map(|&ip| dataset.node_by_ip(ip))
            .collect();
        let mut dataset = dataset.finish();
        let mut records = counters.records;
        // Anchor each monitor record at the lowest-indexed interface of
        // its router present in the dataset (before destination
        // discarding — without_nodes remaps or clears the reference).
        let mut first_node_of_router: HashMap<u32, u32> = HashMap::new();
        for (i, node) in dataset.nodes().iter().enumerate() {
            if let Some(iface) = t.interface_by_ip(node.ip) {
                first_node_of_router
                    .entry(t.interface(iface).router.0)
                    .or_insert(i as u32);
            }
        }
        for record in &mut records {
            record.node = first_node_of_router.get(&record.router).copied();
        }
        let failed_monitors = records.iter().filter(|r| r.failed()).count();
        dataset.anomalies.duplicate_links += counters.repeat_links;
        dataset.anomalies.faults.absorb(&counters.faults);
        dataset.anomalies.monitors = records;

        // Discard destination-list interfaces (end hosts).
        let raw_nodes = dataset.num_nodes();
        let discarded_destinations = remove.len();
        let dataset = dataset.without_nodes(&remove);

        SkitterOutput {
            dataset,
            raw_nodes,
            discarded_destinations,
            monitors: self.monitors,
            failed_monitors,
            probes_sent: counters.probes_sent,
            virtual_ticks: counters.virtual_ticks,
            routing: counters.routing,
        }
    }
}

/// The Skitter collector.
#[derive(Debug)]
pub struct Skitter;

impl Skitter {
    /// Runs a collection under the fault plan `faults` (a fault-free
    /// run passes [`FaultConfig::none`]), with its interior jobs
    /// dispatched through `exec`: the engine passes its deterministic
    /// scoped-thread scheduler, a serial caller
    /// [`SerialExec`](geotopo_stats::SerialExec). Fault decisions are
    /// hash-derived in virtual probe-tick time and never touch the
    /// collection RNG stream. Parallelism is two-layered: one routing
    /// oracle per monitor, then one trace job per (monitor,
    /// [`DEST_CHUNK`] destinations) pair, so a 19-monitor campaign
    /// exposes far more than 19 units of work. The output is
    /// byte-identical for any conforming [`ChunkExec`] because all RNG
    /// draws happen up front in the serial prologue, each trace chunk
    /// owns a fixed slice of the virtual fault clock, and results merge
    /// in job-index order.
    ///
    /// Under an inert plan each monitor's routes form one route tree,
    /// and a trace chunk emits only the hops no earlier destination of
    /// its monitor walked (see `Campaign::walk_new_suffixes`); an
    /// active plan walks every hop, because every probe consumes a
    /// virtual tick and draws a fate. Both give the bytes and counters
    /// of the per-hop walk.
    pub fn collect_with_faults_exec(
        gt: &GroundTruth,
        cfg: &SkitterConfig,
        faults: &FaultConfig,
        exec: &impl ChunkExec,
    ) -> SkitterOutput {
        let campaign = Campaign::plan(gt, cfg, faults, exec);
        let t = &gt.topology;
        let n_monitors = campaign.monitors.len();

        // Phase 1: one policy-aware shortest-path oracle per monitor —
        // plus, under an inert plan, its route tree's first-visit marks.
        // Trees are immutable after the solve and shared by reference
        // into every trace chunk of their monitor.
        let inert = faults.is_inert();
        let mut counters = campaign.counters();
        let mut trees = Vec::with_capacity(n_monitors);
        for (tree, stats) in exec.dispatch(n_monitors, &|m| campaign.solve_monitor(m, inert)) {
            counters.routing.absorb(&stats);
            trees.push(tree);
        }

        // Phase 2: trace jobs, one per (monitor, destination chunk),
        // monitor-major so the merge below reads in the same nested
        // order the serial loop produced.
        let n_dest_chunks = campaign.n_dest_chunks;
        let n_jobs = n_monitors * n_dest_chunks;
        let trace_job = |j: usize| -> TraceChunk {
            let (m, c) = (j / n_dest_chunks, j % n_dest_chunks);
            if inert {
                campaign.walk_new_suffixes(&trees[m], m, c)
            } else {
                campaign.walk_every_hop(&trees[m].oracle, m, c)
            }
        };

        // Serial epilogue, interleaved in waves: trace jobs are
        // dispatched [`TRACE_WAVE_JOBS`] at a time and each wave's
        // replay logs are folded into the dataset (in job-index order)
        // before the next wave runs, so at most one wave of raw event
        // logs is resident — a large campaign records millions of
        // events, and materializing them all at once costs a multiple
        // of the final dataset in peak RSS. Wave boundaries are fixed
        // (never derived from the thread count), so node interning —
        // and with it every downstream byte — is schedule-independent.
        // Interfaces and end hosts intern through vec-indexed caches;
        // only first sightings touch the builder's by-IP hash map.
        let mut dataset = DatasetBuilder::new(NodeKind::Interface);
        let mut iface_node: Vec<u32> = vec![u32::MAX; t.num_interfaces()];
        let mut host_node: Vec<u32> = vec![u32::MAX; campaign.destinations.len()];
        let mut wave_base = 0usize;
        while wave_base < n_jobs {
            let wave_len = TRACE_WAVE_JOBS.min(n_jobs - wave_base);
            let chunks = exec.dispatch(wave_len, &|w| trace_job(wave_base + w));
            // Chunks are consumed by value so each replay log is freed
            // as soon as it has been replayed: the allocator reuses
            // those pages for the growing dataset.
            for (w, chunk) in chunks.into_iter().enumerate() {
                let j = wave_base + w;
                let mut prev: Option<u32> = None;
                for ev in &chunk.replay {
                    let node = match *ev {
                        ReplayEvent::Iface(id) => {
                            intern_cached(&mut dataset, &mut iface_node[id.0 as usize], || {
                                t.interface(id).ip
                            })
                        }
                        ReplayEvent::Host(d) => {
                            intern_cached(&mut dataset, &mut host_node[d as usize], || {
                                campaign.destinations[d as usize]
                            })
                        }
                        ReplayEvent::Break => {
                            prev = None;
                            continue;
                        }
                    };
                    if let Some(p) = prev {
                        dataset.observe_link(p, node);
                    }
                    prev = Some(node);
                }
                counters.repeat_links += chunk.repeat_links;
                let record = &mut counters.records[j / n_dest_chunks];
                record.probes += chunk.probes;
                record.skipped += chunk.skipped;
                counters.faults.absorb(&chunk.fstats);
                counters.probes_sent += chunk.probes_sent;
                counters.virtual_ticks += chunk.ticks_elapsed;
            }
            wave_base += wave_len;
        }
        campaign.finish(dataset, counters)
    }
}

/// Records one hop: a reported interface extends the chain, silence
/// breaks it so no false link spans an unresponsive router. Returns
/// whether the chain is open.
fn push_hop(replay: &mut Vec<ReplayEvent>, reported: Option<InterfaceId>) -> bool {
    replay.push(reported.map_or(ReplayEvent::Break, ReplayEvent::Iface));
    reported.is_some()
}

/// Ends the trace to destination `d`: its end host answers last when
/// the chain reaches it.
fn end_trace(replay: &mut Vec<ReplayEvent>, chained: bool, d: usize) {
    if chained {
        replay.push(ReplayEvent::Host(d as u32));
    }
    replay.push(ReplayEvent::Break);
}

/// The dataset node behind an intern-cache `slot`, interning `ip()` on
/// the first sighting. An address keeps its node once interned, so the
/// cache answers exactly what the by-IP map would.
fn intern_cached(
    dataset: &mut DatasetBuilder,
    slot: &mut u32,
    ip: impl FnOnce() -> Ipv4Addr,
) -> u32 {
    if *slot == u32::MAX {
        *slot = dataset.intern(ip());
    }
    *slot
}

/// Picks monitor routers spread across regions.
fn pick_monitors(gt: &GroundTruth, n: usize, rng: &mut StdRng) -> Vec<RouterId> {
    let n_regions = gt.config.regions.len();
    let mut by_region: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
    for (i, &reg) in gt.router_region.iter().enumerate() {
        by_region[reg as usize].push(i as u32);
    }
    let mut monitors = Vec::with_capacity(n);
    let mut region = 0usize;
    let mut guard = 0usize;
    while monitors.len() < n && guard < n * 20 {
        guard += 1;
        let bucket = &by_region[region % n_regions];
        region += 1;
        if bucket.is_empty() {
            continue;
        }
        let pick = RouterId(bucket[rng.random_range(0..bucket.len())]);
        if !monitors.contains(&pick) {
            monitors.push(pick);
        }
    }
    monitors
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotopo_stats::SerialExec;
    use geotopo_topology::generate::GroundTruthConfig;

    fn world() -> GroundTruth {
        GroundTruth::generate(GroundTruthConfig::tiny(77)).unwrap()
    }

    /// A serial collection under `faults`.
    fn collect(gt: &GroundTruth, cfg: &SkitterConfig, faults: &FaultConfig) -> SkitterOutput {
        Skitter::collect_with_faults_exec(gt, cfg, faults, &SerialExec)
    }

    #[test]
    fn collects_interface_level_dataset() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 5,
            destinations: 800,
            monitor_coverage: 0.8,
            response_prob: 0.97,
            seed: 1,
        };
        let out = collect(&gt, &cfg, &FaultConfig::none());
        assert_eq!(out.dataset.kind, NodeKind::Interface);
        assert!(
            out.dataset.num_nodes() > 100,
            "nodes {}",
            out.dataset.num_nodes()
        );
        assert!(
            out.dataset.num_links() > 100,
            "links {}",
            out.dataset.num_links()
        );
        assert_eq!(out.monitors.len(), 5);
        // An inert plan counts no fault.
        assert!(out.dataset.anomalies.faults.is_zero());
        assert_eq!(out.failed_monitors, 0);
    }

    #[test]
    fn destination_interfaces_are_discarded() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 4,
            destinations: 500,
            monitor_coverage: 1.0,
            response_prob: 1.0,
            seed: 2,
        };
        let out = collect(&gt, &cfg, &FaultConfig::none());
        assert!(out.discarded_destinations > 0);
        assert_eq!(
            out.dataset.num_nodes(),
            out.raw_nodes - out.discarded_destinations
        );
        // A meaningful share of raw nodes were destinations (paper: 18%).
        let frac = out.discarded_destinations as f64 / out.raw_nodes as f64;
        assert!(frac > 0.03 && frac < 0.6, "destination share {frac}");
    }

    #[test]
    fn observed_interfaces_exist_in_ground_truth() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 3,
            destinations: 300,
            monitor_coverage: 1.0,
            response_prob: 1.0,
            seed: 3,
        };
        let out = collect(&gt, &cfg, &FaultConfig::none());
        for node in out.dataset.nodes() {
            assert!(
                gt.topology.interface_by_ip(node.ip).is_some(),
                "phantom interface {}",
                node.ip
            );
        }
    }

    #[test]
    fn more_monitors_see_more() {
        let gt = world();
        let base = SkitterConfig {
            n_monitors: 2,
            destinations: 600,
            monitor_coverage: 1.0,
            response_prob: 1.0,
            seed: 4,
        };
        let few = collect(&gt, &base, &FaultConfig::none());
        let mut more_cfg = base.clone();
        more_cfg.n_monitors = 7;
        let more = collect(&gt, &more_cfg, &FaultConfig::none());
        assert!(more.dataset.num_links() > few.dataset.num_links());
    }

    #[test]
    fn deterministic_per_seed() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 3,
            destinations: 200,
            monitor_coverage: 0.9,
            response_prob: 0.95,
            seed: 5,
        };
        let a = collect(&gt, &cfg, &FaultConfig::none());
        let b = collect(&gt, &cfg, &FaultConfig::none());
        assert_eq!(a.dataset.num_nodes(), b.dataset.num_nodes());
        assert_eq!(a.dataset.num_links(), b.dataset.num_links());
    }

    #[test]
    fn active_faults_are_counted_and_survived() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 6,
            destinations: 400,
            monitor_coverage: 0.9,
            response_prob: 0.97,
            seed: 7,
        };
        let out = collect(&gt, &cfg, &FaultConfig::at_severity(0.6, 21));
        let f = &out.dataset.anomalies.faults;
        assert!(f.probes_lost > 0, "packet loss never fired");
        assert!(f.retries > 0, "no retries issued");
        assert!(f.retry_successes > 0, "no retry recovered an answer");
        assert_eq!(out.dataset.anomalies.monitors.len(), 6);
        // Pathologies distort the dataset (loss thins it, churn adds
        // same-router artifacts) but never corrupt it.
        assert!(out.dataset.validate_against(&gt.topology).is_ok());
        let clean = collect(&gt, &cfg, &FaultConfig::none());
        assert_ne!(
            serde_json::to_string(&out.dataset).unwrap(),
            serde_json::to_string(&clean.dataset).unwrap(),
            "an active fault plan left the dataset untouched"
        );
    }

    #[test]
    fn executor_schedule_does_not_change_bytes() {
        // Jobs executed in reverse order (the worst-case schedule) must
        // produce the same bytes as the serial executor, faulted or not:
        // all RNG is drawn in the prologue and each monitor owns its own
        // clock slice, so only the merge order — fixed — matters.
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 5,
            destinations: 300,
            monitor_coverage: 0.85,
            response_prob: 0.95,
            seed: 12,
        };
        for faults in [FaultConfig::none(), FaultConfig::at_severity(0.6, 9)] {
            let serial = collect(&gt, &cfg, &faults);
            let shuffled = Skitter::collect_with_faults_exec(&gt, &cfg, &faults, &ReversedExec);
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&shuffled).unwrap()
            );
        }
    }

    /// The per-hop walk with a full replay: every covered destination
    /// traced hop by hop through its chunk's fault session, every
    /// sighting interned by IP and linked on the spot. The route-tree
    /// walk and its caches must reproduce this byte for byte.
    fn reference_collect(
        gt: &GroundTruth,
        cfg: &SkitterConfig,
        faults: &FaultConfig,
    ) -> SkitterOutput {
        let campaign = Campaign::plan(gt, cfg, faults, &SerialExec);
        let t = &gt.topology;
        let mut dataset = DatasetBuilder::new(NodeKind::Interface);
        let mut counters = campaign.counters();
        let mut buf = TraceBuf::new();
        for (m, &monitor) in campaign.monitors.iter().enumerate() {
            let mut scratch = RoutingScratch::new();
            let oracle = RoutingOracle::new_in(t, monitor, &mut scratch);
            counters.routing.absorb(&scratch.stats);
            let cover = campaign.cover(m);
            for c in 0..campaign.n_dest_chunks {
                let base = campaign.chunk_base(m, c);
                let mut session = FaultSession::at_tick(&campaign.plan, base);
                for d in campaign.chunk(c) {
                    if !cover[d] {
                        continue;
                    }
                    if session.monitor_down(m) {
                        counters.records[m].skipped += 1;
                        session.stats.outage_skips += 1;
                        continue;
                    }
                    counters.records[m].probes += 1;
                    let Some(dst) = campaign.attach[d] else {
                        continue;
                    };
                    let Some(hops) =
                        campaign
                            .sim
                            .trace_with_faults_into(&oracle, dst, &mut session, &mut buf)
                    else {
                        continue;
                    };
                    let mut prev: Option<u32> = None;
                    for hop in hops {
                        prev = hop.interface.map(|iface| {
                            let node = dataset.intern(t.interface(iface).ip);
                            if let Some(p) = prev {
                                dataset.observe_link(p, node);
                            }
                            node
                        });
                    }
                    if let Some(p) = prev {
                        let host = dataset.intern(campaign.destinations[d]);
                        dataset.observe_link(p, host);
                    }
                }
                counters.faults.absorb(&session.stats);
                counters.probes_sent += session.probes_sent();
                counters.virtual_ticks += session.tick() - base;
            }
        }
        campaign.finish(dataset, counters)
    }

    /// Runs jobs in reverse index order: the worst-case schedule.
    struct ReversedExec;
    impl ChunkExec for ReversedExec {
        fn dispatch<T: Send>(&self, n: usize, job: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
            let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
            for i in (0..n).rev() {
                out[i] = Some(job(i));
            }
            out.into_iter().flatten().collect()
        }
    }

    /// The plans the route-tree walk is checked under: the inert plan it
    /// shortcuts, every named active profile, and a total outage.
    fn plans(seed: u64) -> Vec<FaultConfig> {
        let mut outage = FaultConfig::none();
        outage.outage_fraction = 1.0;
        outage.seed = seed;
        ["none", "light", "moderate", "heavy"]
            .iter()
            .filter_map(|name| FaultConfig::profile(name, seed))
            .chain([outage])
            .collect()
    }

    #[test]
    fn route_tree_walk_matches_per_hop_reference() {
        // Random tiny worlds and campaigns, each under every plan and
        // both schedules: same serialized output, counters included.
        let mut rng = StdRng::seed_from_u64(0x5C17);
        for _ in 0..5 {
            let routers = rng.random_range(300..1_200);
            let gt =
                GroundTruth::generate(GroundTruthConfig::at_scale(routers, rng.random())).unwrap();
            let cfg = SkitterConfig {
                n_monitors: rng.random_range(1..8),
                destinations: rng.random_range(50..5_000),
                monitor_coverage: rng.random_range(0.3..1.0),
                response_prob: rng.random_range(0.5..1.0),
                seed: rng.random(),
            };
            for faults in plans(rng.random()) {
                let reference =
                    serde_json::to_string(&reference_collect(&gt, &cfg, &faults)).unwrap();
                let serial = Skitter::collect_with_faults_exec(&gt, &cfg, &faults, &SerialExec);
                assert_eq!(
                    serde_json::to_string(&serial).unwrap(),
                    reference,
                    "{cfg:?} {faults:?}"
                );
                let reversed = Skitter::collect_with_faults_exec(&gt, &cfg, &faults, &ReversedExec);
                assert_eq!(
                    serde_json::to_string(&reversed).unwrap(),
                    reference,
                    "{cfg:?} {faults:?}"
                );
            }
        }
    }

    #[test]
    fn outages_fail_monitors_deterministically() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 8,
            destinations: 300,
            monitor_coverage: 0.9,
            response_prob: 0.97,
            seed: 8,
        };
        let mut faults = FaultConfig::none();
        faults.outage_fraction = 1.0;
        faults.seed = 5;
        let a = collect(&gt, &cfg, &faults);
        assert!(a.failed_monitors > 0, "no monitor failed under outage 1.0");
        assert!(a.dataset.anomalies.faults.outage_skips > 0);
        assert!(a.active_monitors() < a.monitors.len());
        let b = collect(&gt, &cfg, &faults);
        assert_eq!(a.failed_monitors, b.failed_monitors);
        assert_eq!(
            serde_json::to_string(&a.dataset).unwrap(),
            serde_json::to_string(&b.dataset).unwrap()
        );
    }
}
