//! Mercator-like single-source collection with alias resolution.
//!
//! "Mercator is run from a single host to a heuristically determined
//! destination address space. Further, Mercator employs loose source
//! routing to discover lateral connectivity ... Mercator employs
//! published techniques to collapse interface IP addresses belonging to
//! the same router to a canonical IP address for that router.
//! Unfortunately, this technique suffers from numerous limitations."
//!
//! Reproduced artifacts:
//!
//! - single primary vantage point → strongly tree-biased raw view;
//! - **lateral vantage points** stand in for loose source routing (the
//!   real trick bounces probes off intermediate routers; the effect —
//!   paths not rooted at the primary source — is the same);
//! - **imperfect alias resolution**: each router's interfaces collapse
//!   only with a given success probability; failures leave multiple nodes
//!   for one router, so the router count overestimates slightly — and
//!   alias-induced self-loops are discarded as anomalies.

use crate::dataset::{DatasetBuilder, MeasuredDataset, NodeKind};
use crate::faults::{FaultConfig, FaultPlan, FaultSession};
use crate::probe::{sample_destinations, Hop, TraceBuf, TracerouteSim};
use crate::routing::RoutingScratch;
use geotopo_stats::SerialExec;
use geotopo_topology::generate::GroundTruth;
use geotopo_topology::{RouterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Mercator collection parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MercatorConfig {
    /// Destination addresses probed from the primary source.
    pub destinations: usize,
    /// Lateral vantage routers (loose-source-routing stand-in).
    pub lateral_sources: usize,
    /// Fraction of destinations each lateral vantage traces.
    pub lateral_coverage: f64,
    /// Per-router probe-response probability.
    pub response_prob: f64,
    /// Per-router alias-resolution success probability.
    pub alias_success: f64,
    /// RNG seed.
    pub seed: u64,
}

impl MercatorConfig {
    /// Paper-like defaults: Mercator's snapshot is considerably smaller
    /// than Skitter's (268k vs 704k interfaces), so the destination list
    /// is scaled down accordingly.
    pub fn scaled(gt: &GroundTruth, seed: u64) -> Self {
        MercatorConfig {
            destinations: (gt.topology.num_routers() as f64 * 0.8) as usize,
            lateral_sources: 8,
            lateral_coverage: 0.25,
            response_prob: 0.96,
            alias_success: 0.85,
            seed,
        }
    }
}

/// Mercator collection result.
#[derive(Debug, Serialize, Deserialize)]
pub struct MercatorOutput {
    /// The router-level dataset after alias resolution.
    pub dataset: MeasuredDataset,
    /// Interfaces observed before alias resolution (paper: 268,382).
    pub raw_interfaces: usize,
    /// The primary source router.
    pub source: RouterId,
    /// Probes actually sent during the campaign (retries included).
    pub probes_sent: u64,
    /// Virtual probe-tick clock reading at campaign end (probes sent
    /// plus backoff waits; see `faults`).
    pub virtual_ticks: u64,
    /// Shortest-path solver counters: one solve per distinct vantage,
    /// memo hits for every repeated lateral pick.
    pub routing: crate::routing::RoutingStats,
}

/// The Mercator collector.
#[derive(Debug)]
pub struct Mercator;

impl Mercator {
    /// Runs a collection under the fault plan `faults` (a fault-free run
    /// passes [`FaultConfig::none`]). Monitor outages apply to the
    /// *lateral* vantages (the operator notices and restarts their own
    /// primary host); all probe-level faults apply everywhere. Fault
    /// decisions never touch the collection RNG stream.
    pub fn collect_with_faults(
        gt: &GroundTruth,
        cfg: &MercatorConfig,
        faults: &FaultConfig,
    ) -> MercatorOutput {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let t = &gt.topology;

        // Primary source: a well-connected router (Mercator ran from a
        // single university host behind a big provider).
        let source = t
            .routers()
            .max_by_key(|(id, _)| t.degree(*id))
            .map(|(id, _)| id)
            .expect("non-empty topology"); // lint: allow(unwrap): generated topologies are non-empty

        // Heuristic destination space: addresses inside allocations,
        // weighted by capacity.
        let (destinations, attach) =
            sample_destinations(gt, cfg.destinations, &mut rng, &SerialExec);

        let sim = TracerouteSim::new(t, cfg.response_prob, &mut rng);

        // One fault session spans both sweeps; outage indices address the
        // lateral vantages. The probe budget mirrors the sweep sizes.
        let expected_probes = (destinations.len() as f64
            * (1.0 + cfg.lateral_sources as f64 * cfg.lateral_coverage)
            * 8.0) as u64;
        let plan = FaultPlan::compile(
            faults,
            t.num_routers(),
            cfg.lateral_sources,
            expected_probes,
        );
        let mut session = FaultSession::new(&plan);

        // Raw interface-level adjacency observations.
        let mut sweep = RawSweep::new(t);

        // Primary sweep. One scratch spans the whole collection: the
        // bucket ring warms once, and every vantage solved once is
        // served from the memo thereafter.
        let mut scratch = RoutingScratch::new();
        let mut buf = TraceBuf::new();
        let primary = scratch.oracle(t, source);
        for &dst in attach.iter().flatten() {
            if let Some(hops) = sim.trace_with_faults_into(primary, dst, &mut session, &mut buf) {
                sweep.record(hops);
            }
        }

        // Lateral vantage sweeps (loose-source-routing effect): re-probe
        // a subset of the space from routers discovered by the primary,
        // in ascending id order so vantage choice is a pure function of
        // the seed.
        let discovered = sweep.discovered();
        if !discovered.is_empty() {
            for v in 0..cfg.lateral_sources {
                let vantage = RouterId(discovered[rng.random_range(0..discovered.len())]);
                // Memoized: a vantage already solved (the primary, or a
                // repeated lateral pick) costs a map lookup, not a
                // Dijkstra run.
                let oracle = scratch.oracle(t, vantage);
                for &dst in &attach {
                    // The coverage draw stays unconditional so the RNG
                    // stream is identical with and without faults.
                    if rng.random::<f64>() < cfg.lateral_coverage {
                        if session.monitor_down(v) {
                            session.stats.outage_skips += 1;
                            continue;
                        }
                        let Some(dst) = dst else { continue };
                        if let Some(hops) =
                            sim.trace_with_faults_into(oracle, dst, &mut session, &mut buf)
                        {
                            sweep.record(hops);
                        }
                    }
                }
            }
        }
        let raw = sweep.raw.finish();
        let mut dataset = resolve_aliases(t, cfg, &raw);
        dataset.anomalies.faults.absorb(&session.stats);

        MercatorOutput {
            raw_interfaces: raw.num_nodes(),
            dataset,
            source,
            probes_sent: session.probes_sent(),
            virtual_ticks: session.tick(),
            routing: scratch.stats,
        }
    }
}

/// Alias resolution: collapses the interfaces of each router whose
/// UDP-probe resolution succeeds into one node named by its lowest
/// address, and carries the raw sweep's discards into the router-level
/// dataset's anomalies.
fn resolve_aliases(t: &Topology, cfg: &MercatorConfig, raw: &MeasuredDataset) -> MeasuredDataset {
    let mut resolvable: HashMap<u32, bool> = HashMap::new();
    let mut canonical: HashMap<u32, Ipv4Addr> = HashMap::new(); // router -> canonical ip
    let mut node_target: Vec<Ipv4Addr> = Vec::with_capacity(raw.num_nodes());
    for node in raw.nodes() {
        let router = t
            .router_by_ip(node.ip)
            .expect("observed interfaces exist in ground truth"); // lint: allow(unwrap): probes only reach ground-truth interfaces
        let ok = *resolvable.entry(router.0).or_insert_with(|| {
            let mut r = crate::alias_rng(cfg.seed, router.0);
            r.random::<f64>() < cfg.alias_success
        });
        if ok {
            let canon = canonical.entry(router.0).or_insert(node.ip);
            if node.ip < *canon {
                *canon = node.ip;
            }
        }
        node_target.push(node.ip); // placeholder, resolved below
    }
    // Second pass now that canonical IPs are final.
    for (i, node) in raw.nodes().iter().enumerate() {
        let router = t.router_by_ip(node.ip).expect("checked above"); // lint: allow(unwrap): resolved in the first pass
        if resolvable[&router.0] {
            node_target[i] = canonical[&router.0];
        }
    }

    let mut routers = DatasetBuilder::new(NodeKind::Router);
    let mut raw_to_new: Vec<u32> = Vec::with_capacity(raw.num_nodes());
    for (node, &canon) in raw.nodes().iter().zip(&node_target) {
        let new = routers.intern(canon);
        routers.add_alias(new, node.ip);
        raw_to_new.push(new);
    }
    let mut alias_self_loops = 0;
    for &(a, b) in raw.links() {
        let (na, nb) = (raw_to_new[a as usize], raw_to_new[b as usize]);
        if na == nb {
            // Both raw endpoints collapsed onto one router: an
            // alias-resolution artifact, reported distinctly from
            // probing self-loops.
            alias_self_loops += 1;
            continue;
        }
        routers.observe_link(na, nb);
    }
    // One struct reports every anomaly of the collection: the raw
    // sweep's discards join the final dataset's stats (the collector
    // adds the fault session's counters).
    let mut dataset = routers.finish();
    dataset.anomalies.alias_self_loops = alias_self_loops;
    dataset.anomalies.self_loops += raw.anomalies.self_loops;
    dataset.anomalies.duplicate_links += raw.anomalies.duplicate_links;
    dataset
}

/// The raw interface-level sweep: the dataset under construction, a
/// per-router flag for the routers any hop reached, and each
/// interface's node (`u32::MAX` until first reported), so a hop costs
/// no hash but the link set's.
#[derive(Debug)]
struct RawSweep<'t> {
    topology: &'t Topology,
    raw: DatasetBuilder,
    seen_routers: Vec<bool>,
    iface_node: Vec<u32>,
}

impl<'t> RawSweep<'t> {
    fn new(topology: &'t Topology) -> Self {
        RawSweep {
            topology,
            raw: DatasetBuilder::new(NodeKind::Interface),
            seen_routers: vec![false; topology.num_routers()],
            iface_node: vec![u32::MAX; topology.num_interfaces()],
        }
    }

    /// Marks every hop's router seen and links each pair of adjacent
    /// reported interfaces; a silent hop breaks the chain.
    fn record(&mut self, hops: &[Hop]) {
        let t = self.topology;
        let mut prev: Option<u32> = None;
        for hop in hops {
            self.seen_routers[hop.router.0 as usize] = true;
            prev = hop.interface.map(|iface| {
                let node = self
                    .raw
                    .intern_cached(&mut self.iface_node[iface.0 as usize], || {
                        t.interface(iface).ip
                    });
                if let Some(p) = prev {
                    self.raw.observe_link(p, node);
                }
                node
            });
        }
    }

    /// The routers any hop reached, ascending.
    fn discovered(&self) -> Vec<u32> {
        (0..)
            .zip(&self.seen_routers)
            .filter_map(|(r, &seen)| seen.then_some(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotopo_topology::generate::GroundTruthConfig;
    use std::collections::HashSet;

    fn world() -> GroundTruth {
        GroundTruth::generate(GroundTruthConfig::tiny(99)).unwrap()
    }

    /// A fault-free collection.
    fn collect(gt: &GroundTruth, cfg: &MercatorConfig) -> MercatorOutput {
        Mercator::collect_with_faults(gt, cfg, &FaultConfig::none())
    }

    fn cfg(seed: u64) -> MercatorConfig {
        MercatorConfig {
            destinations: 800,
            lateral_sources: 4,
            lateral_coverage: 0.3,
            response_prob: 0.97,
            alias_success: 0.85,
            seed,
        }
    }

    #[test]
    fn collects_router_level_dataset() {
        let gt = world();
        let out = collect(&gt, &cfg(1));
        assert_eq!(out.dataset.kind, NodeKind::Router);
        assert!(out.dataset.num_nodes() > 50);
        assert!(out.dataset.num_links() > 50);
        // An inert plan counts no fault.
        assert!(out.dataset.anomalies.faults.is_zero());
    }

    #[test]
    fn alias_resolution_shrinks_the_node_set() {
        let gt = world();
        let out = collect(&gt, &cfg(2));
        assert!(
            out.dataset.num_nodes() < out.raw_interfaces,
            "{} !< {}",
            out.dataset.num_nodes(),
            out.raw_interfaces
        );
    }

    #[test]
    fn perfect_aliasing_yields_true_router_count_upper_bound() {
        let gt = world();
        let mut c = cfg(3);
        c.alias_success = 1.0;
        let out = collect(&gt, &c);
        // With perfect resolution every node is a distinct true router.
        assert!(out.dataset.num_nodes() <= gt.topology.num_routers());
        let mut routers = HashSet::new();
        for node in out.dataset.nodes() {
            let r = gt.topology.router_by_ip(node.ip).unwrap();
            assert!(routers.insert(r), "two nodes map to router {r:?}");
        }
    }

    #[test]
    fn failed_aliasing_inflates_node_count() {
        let gt = world();
        let mut perfect = cfg(4);
        perfect.alias_success = 1.0;
        let mut broken = cfg(4);
        broken.alias_success = 0.0;
        let p = collect(&gt, &perfect);
        let b = collect(&gt, &broken);
        assert!(b.dataset.num_nodes() > p.dataset.num_nodes());
        // With no aliasing the node count equals raw interfaces.
        assert_eq!(b.dataset.num_nodes(), b.raw_interfaces);
    }

    #[test]
    fn lateral_vantages_add_links() {
        let gt = world();
        let mut no_lateral = cfg(5);
        no_lateral.lateral_sources = 0;
        let mut with_lateral = cfg(5);
        with_lateral.lateral_sources = 8;
        with_lateral.lateral_coverage = 0.5;
        let a = collect(&gt, &no_lateral);
        let b = collect(&gt, &with_lateral);
        assert!(
            b.dataset.num_links() > a.dataset.num_links(),
            "{} !> {}",
            b.dataset.num_links(),
            a.dataset.num_links()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let gt = world();
        let a = collect(&gt, &cfg(6));
        let b = collect(&gt, &cfg(6));
        assert_eq!(a.dataset.num_nodes(), b.dataset.num_nodes());
        assert_eq!(a.dataset.num_links(), b.dataset.num_links());
    }

    #[test]
    fn alias_self_loops_reported_in_anomaly_stats() {
        let gt = world();
        // Route churn is the organic source of same-router adjacencies:
        // a flapping route briefly reverts and the previous router
        // answers the TTL again. After alias resolution both endpoints
        // collapse and the self-loop is discarded — into the unified
        // struct, not silently.
        let mut faults = FaultConfig::none();
        faults.flap_fraction = 0.5;
        faults.flap_duration = 0.4;
        faults.seed = 13;
        let out = Mercator::collect_with_faults(&gt, &cfg(7), &faults);
        assert!(
            out.dataset.anomalies.alias_self_loops > 0,
            "route churn produced no alias self-loop discards"
        );
        // And they never survive into the link list.
        assert!(out.dataset.validate().is_ok());
    }

    #[test]
    fn routing_counters_account_for_every_vantage() {
        let gt = world();
        let mut c = cfg(10);
        c.lateral_sources = 12;
        let out = collect(&gt, &c);
        let r = &out.routing;
        // The primary plus each lateral pick calls into the scratch
        // exactly once: every call is either a fresh solve or a memo hit.
        assert_eq!(r.sources_solved + r.memo_hits, 1 + 12);
        assert!(r.sources_solved >= 1);
        assert!(r.edges_relaxed > 0);
        assert!(r.bucket_pushes >= r.sources_solved);
        // Every solve after the first reuses the warm bucket ring.
        assert_eq!(r.bucket_reuses + 1, r.sources_solved);
    }

    #[test]
    fn faults_thin_but_never_corrupt() {
        let gt = world();
        let out = Mercator::collect_with_faults(&gt, &cfg(9), &FaultConfig::at_severity(0.7, 31));
        let clean = collect(&gt, &cfg(9));
        assert!(!out.dataset.anomalies.faults.is_zero());
        assert!(out.dataset.num_links() < clean.dataset.num_links());
        assert!(out.dataset.validate_against(&gt.topology).is_ok());
        let again = Mercator::collect_with_faults(&gt, &cfg(9), &FaultConfig::at_severity(0.7, 31));
        assert_eq!(
            serde_json::to_string(&out.dataset).unwrap(),
            serde_json::to_string(&again.dataset).unwrap()
        );
    }

    /// A reference collection without the sweep's caches: a hash set of
    /// the routers hops reached, sorted for the lateral picks, and every
    /// reported interface interned by address. The router flags and the
    /// interface cache must reproduce it byte for byte.
    fn reference_collect(
        gt: &GroundTruth,
        cfg: &MercatorConfig,
        faults: &FaultConfig,
    ) -> MercatorOutput {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let t = &gt.topology;
        let source = t
            .routers()
            .max_by_key(|(id, _)| t.degree(*id))
            .map(|(id, _)| id)
            .unwrap();
        let (destinations, attach) =
            sample_destinations(gt, cfg.destinations, &mut rng, &SerialExec);
        let sim = TracerouteSim::new(t, cfg.response_prob, &mut rng);
        let expected_probes = (destinations.len() as f64
            * (1.0 + cfg.lateral_sources as f64 * cfg.lateral_coverage)
            * 8.0) as u64;
        let plan = FaultPlan::compile(
            faults,
            t.num_routers(),
            cfg.lateral_sources,
            expected_probes,
        );
        let mut session = FaultSession::new(&plan);
        let mut raw = DatasetBuilder::new(NodeKind::Interface);
        let mut seen_routers: HashSet<u32> = HashSet::new();
        let record = |raw: &mut DatasetBuilder, seen: &mut HashSet<u32>, hops: &[Hop]| {
            let mut prev: Option<u32> = None;
            for hop in hops {
                seen.insert(hop.router.0);
                prev = hop.interface.map(|iface| {
                    let node = raw.intern(t.interface(iface).ip);
                    if let Some(p) = prev {
                        raw.observe_link(p, node);
                    }
                    node
                });
            }
        };
        let mut scratch = RoutingScratch::new();
        let mut buf = TraceBuf::new();
        let primary = scratch.oracle(t, source);
        for &dst in attach.iter().flatten() {
            if let Some(hops) = sim.trace_with_faults_into(primary, dst, &mut session, &mut buf) {
                record(&mut raw, &mut seen_routers, hops);
            }
        }
        let mut discovered: Vec<u32> = seen_routers.iter().copied().collect();
        discovered.sort_unstable();
        if !discovered.is_empty() {
            for v in 0..cfg.lateral_sources {
                let vantage = RouterId(discovered[rng.random_range(0..discovered.len())]);
                let oracle = scratch.oracle(t, vantage);
                for &dst in &attach {
                    if rng.random::<f64>() < cfg.lateral_coverage {
                        if session.monitor_down(v) {
                            session.stats.outage_skips += 1;
                            continue;
                        }
                        let Some(dst) = dst else { continue };
                        if let Some(hops) =
                            sim.trace_with_faults_into(oracle, dst, &mut session, &mut buf)
                        {
                            record(&mut raw, &mut seen_routers, hops);
                        }
                    }
                }
            }
        }
        let raw = raw.finish();
        let mut dataset = resolve_aliases(t, cfg, &raw);
        dataset.anomalies.faults.absorb(&session.stats);
        MercatorOutput {
            raw_interfaces: raw.num_nodes(),
            dataset,
            source,
            probes_sent: session.probes_sent(),
            virtual_ticks: session.tick(),
            routing: scratch.stats,
        }
    }

    #[test]
    fn cached_sweep_matches_hash_set_reference() {
        // Random tiny worlds and campaigns, each under the inert plan and
        // every named active profile: same serialized output.
        let mut rng = StdRng::seed_from_u64(0x3E2C);
        for _ in 0..4 {
            let routers = rng.random_range(300..1_200);
            let gt =
                GroundTruth::generate(GroundTruthConfig::at_scale(routers, rng.random())).unwrap();
            let cfg = MercatorConfig {
                destinations: rng.random_range(50..2_000),
                lateral_sources: rng.random_range(0..10),
                lateral_coverage: rng.random_range(0.1..0.6),
                response_prob: rng.random_range(0.5..1.0),
                alias_success: rng.random_range(0.0..1.0),
                seed: rng.random(),
            };
            let fault_seed = rng.random();
            for name in ["none", "light", "moderate", "heavy"] {
                let faults = FaultConfig::profile(name, fault_seed).unwrap();
                assert_eq!(
                    serde_json::to_string(&Mercator::collect_with_faults(&gt, &cfg, &faults))
                        .unwrap(),
                    serde_json::to_string(&reference_collect(&gt, &cfg, &faults)).unwrap(),
                    "{cfg:?} {name}"
                );
            }
        }
    }
}
