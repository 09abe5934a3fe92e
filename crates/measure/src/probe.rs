//! Forward-path (traceroute) probing.
//!
//! "Intermediate routers which respond to packets with expired TTL values
//! transmit an ICMP message back to the source. Contained within this
//! packet is the IP address of an interface on the router" — the
//! *incoming* interface, in real traceroute and here.
//!
//! Routers that do not respond (rate-limiting, ICMP disabled) leave gaps;
//! a gap breaks the adjacent-interface chain so no false link spans it.
//! Both collectors trace to destination lists drawn here by one sampler.

use crate::faults::{FaultSession, ProbeFate};
use crate::routing::RoutingOracle;
use crate::skitter::DEST_CHUNK;
use geotopo_bgp::trie::PrefixTrie;
use geotopo_stats::ChunkExec;
use geotopo_topology::generate::GroundTruth;
use geotopo_topology::{InterfaceId, RouterId, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// A traced hop: the responding router and the interface it reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The router at this hop.
    pub router: RouterId,
    /// The reported (incoming) interface, `None` if the router stayed
    /// silent.
    pub interface: Option<InterfaceId>,
}

/// Reusable trace-walk buffers: the router path and the hop list. The
/// collectors keep one per monitor so the hot loop performs no
/// per-trace allocation — every walk reuses the same two vectors.
#[derive(Debug, Default)]
pub struct TraceBuf {
    path: Vec<RouterId>,
    hops: Vec<Hop>,
}

impl TraceBuf {
    /// Creates empty buffers (they grow to the longest trace and stay).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Traceroute simulation over a topology.
#[derive(Debug)]
pub struct TracerouteSim<'a> {
    topology: &'a Topology,
    /// Per-router responsiveness (drawn once; silent routers are silent
    /// for every probe, like ICMP-disabled boxes).
    responsive: Vec<bool>,
}

impl<'a> TracerouteSim<'a> {
    /// Creates a simulator where each router responds with probability
    /// `response_prob`, drawn once per router from `rng`.
    pub fn new<R: Rng + ?Sized>(topology: &'a Topology, response_prob: f64, rng: &mut R) -> Self {
        let responsive = (0..topology.num_routers())
            .map(|_| rng.random::<f64>() < response_prob)
            .collect();
        TracerouteSim {
            topology,
            responsive,
        }
    }

    /// Whether a router answers probes.
    pub fn is_responsive(&self, r: RouterId) -> bool {
        self.responsive[r.0 as usize]
    }

    /// Traces from the oracle's source to `dst`, returning the hop list
    /// *after* the source (the source itself emits, it does not report),
    /// or `None` if the destination is unreachable. The route walk and
    /// hop list reuse `buf`'s vectors and the result borrows from them.
    ///
    /// Every probe runs through the fault `session` in virtual time, with
    /// bounded retry-with-backoff when a probe is swallowed by loss,
    /// rate-limiting, or a flap; under an inert session every probe is
    /// answered. Routers that are silent by disposition (the per-router
    /// coin) stay silent — retransmitting cannot help, and a real prober
    /// cannot tell the difference anyway, so the channel fate is decided
    /// first and the responsiveness coin only gates what an answered
    /// probe reports.
    // analyze: hot-path-root
    pub fn trace_with_faults_into<'b>(
        &self,
        oracle: &RoutingOracle,
        dst: RouterId,
        session: &mut FaultSession<'_>,
        buf: &'b mut TraceBuf,
    ) -> Option<&'b [Hop]> {
        let TraceBuf { path, hops } = buf;
        if !oracle.path_into(dst, path) {
            return None;
        }
        hops.clear();
        for w in path.windows(2) {
            let (prev, cur) = (w[0], w[1]);
            let mut reported = cur;
            let mut interface = None;
            let mut attempt = 0u32;
            loop {
                let fate = session.probe(cur.0);
                match fate {
                    ProbeFate::Answered => {
                        if self.responsive[cur.0 as usize] {
                            interface = oracle.incoming_interface(cur);
                            if attempt > 0 {
                                session.stats.retry_successes += 1;
                            }
                        }
                        break;
                    }
                    ProbeFate::Lost | ProbeFate::RateLimited | ProbeFate::Flapped => {
                        if attempt >= session.max_retries() {
                            if fate == ProbeFate::Flapped && self.responsive[prev.0 as usize] {
                                // Route churn: the flapping route briefly
                                // reverts and the *previous* router answers
                                // this TTL again — real traceroute's loop
                                // artifact. The recorded adjacency then
                                // joins two interfaces of one router, the
                                // organic source of alias-induced
                                // self-loops after resolution.
                                interface = self.topology.interface_between(prev, cur);
                                reported = prev;
                            }
                            break;
                        }
                        attempt += 1;
                        session.stats.retries += 1;
                        session.backoff(attempt);
                    }
                }
            }
            hops.push(Hop {
                router: reported,
                interface,
            });
        }
        Some(hops)
    }
}

/// The destination list both collectors trace to: up to `n` distinct
/// end-host addresses spread over the allocated space, weighted by
/// allocation capacity and drawn from `rng` (at most `10 n` draws; "the
/// destination lists are created with the aim to cover all blocks of
/// 256 addresses"). Each comes with its access router: a deterministic
/// member of the AS owning the address, `None` for unallocated space or
/// an AS without routers. Access routers take no randomness; they are
/// resolved in jobs of [`DEST_CHUNK`] destinations (at least one job)
/// dispatched through `exec`.
pub(crate) fn sample_destinations(
    gt: &GroundTruth,
    n: usize,
    rng: &mut StdRng,
    exec: &impl ChunkExec,
) -> (Vec<Ipv4Addr>, Vec<Option<RouterId>>) {
    // Ground-truth address ownership (who a destination belongs to).
    let mut truth = PrefixTrie::new();
    for alloc in &gt.allocations {
        for &p in &alloc.prefixes {
            truth.insert(p, alloc.asn);
        }
    }
    let weights: Vec<f64> = gt.allocations.iter().map(|a| a.capacity() as f64).collect();
    let pick = geotopo_stats::AliasTable::new(&weights).expect("non-empty allocations"); // lint: allow(unwrap): generated worlds always allocate prefixes
    let mut ips: Vec<Ipv4Addr> = Vec::with_capacity(n);
    let mut seen: HashSet<Ipv4Addr> = HashSet::new();
    let mut guard = 0usize;
    while ips.len() < n && guard < n * 10 {
        guard += 1;
        let alloc = &gt.allocations[pick.sample(rng)];
        let prefix = alloc.prefixes[rng.random_range(0..alloc.prefixes.len())];
        let Some(ip) = prefix.nth(rng.random_range(0..prefix.size())) else {
            continue;
        };
        if seen.insert(ip) {
            ips.push(ip);
        }
    }
    // Per-AS membership comes straight off the topology's packed AS
    // ranges (ascending router ids).
    let t = &gt.topology;
    let attach = exec
        .dispatch(ips.len().div_ceil(DEST_CHUNK).max(1), &|c| {
            let chunk = &ips[c * DEST_CHUNK..((c + 1) * DEST_CHUNK).min(ips.len())];
            chunk
                .iter()
                .map(|&ip| {
                    let members = t.routers_of_as(*truth.lookup(ip)?.0);
                    (!members.is_empty()).then(|| members[(u32::from(ip) as usize) % members.len()])
                })
                .collect::<Vec<_>>()
        })
        .concat();
    (ips, attach)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultPlan};
    use geotopo_bgp::AsId;
    use geotopo_geo::GeoPoint;
    use geotopo_topology::TopologyBuilder;
    use rand::SeedableRng;

    fn line_topology(n: usize) -> (geotopo_topology::Topology, Vec<RouterId>) {
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..n)
            .map(|i| b.add_router(GeoPoint::new(10.0 + i as f64 * 0.1, 10.0).unwrap(), AsId(1)))
            .collect();
        for w in r.windows(2) {
            b.add_link_auto(w[0], w[1]).unwrap();
        }
        (b.build(), r)
    }

    /// Traces under an inert fault plan, which must count no fault.
    fn trace(sim: &TracerouteSim<'_>, oracle: &RoutingOracle, dst: RouterId) -> Option<Vec<Hop>> {
        let plan = FaultPlan::compile(&FaultConfig::none(), sim.topology.num_routers(), 1, 100);
        let mut session = FaultSession::new(&plan);
        let hops = sim
            .trace_with_faults_into(oracle, dst, &mut session, &mut TraceBuf::new())
            .map(<[Hop]>::to_vec);
        assert!(session.stats.is_zero());
        hops
    }

    #[test]
    fn trace_reuses_buffers() {
        let (t, r) = line_topology(6);
        let mut rng = StdRng::seed_from_u64(11);
        let sim = TracerouteSim::new(&t, 0.7, &mut rng);
        let oracle = RoutingOracle::new(&t, r[0]);
        let plan = FaultPlan::compile(&FaultConfig::none(), t.num_routers(), 1, 100);
        let mut session = FaultSession::new(&plan);
        let mut buf = TraceBuf::new();
        for &dst in &r[1..] {
            let hops = sim
                .trace_with_faults_into(&oracle, dst, &mut session, &mut buf)
                .unwrap();
            // A hop reports an interface iff its router answers probes.
            for h in hops {
                assert_eq!(h.interface.is_some(), sim.is_responsive(h.router));
            }
        }
        // After the longest trace the buffers never shrink: a short
        // trace must reuse the capacity, not reallocate.
        let cap = (buf.path.capacity(), buf.hops.capacity());
        assert!(sim
            .trace_with_faults_into(&oracle, r[1], &mut session, &mut buf)
            .is_some());
        assert_eq!((buf.path.capacity(), buf.hops.capacity()), cap);
    }

    #[test]
    fn trace_reports_incoming_interfaces() {
        let (t, r) = line_topology(4);
        let mut rng = StdRng::seed_from_u64(1);
        let sim = TracerouteSim::new(&t, 1.0, &mut rng);
        let oracle = RoutingOracle::new(&t, r[0]);
        let hops = trace(&sim, &oracle, r[3]).unwrap();
        assert_eq!(hops.len(), 3);
        for (i, hop) in hops.iter().enumerate() {
            assert_eq!(hop.router, r[i + 1]);
            let iface = hop.interface.unwrap();
            // The reported interface belongs to the hop router and faces
            // the previous router.
            assert_eq!(t.interface(iface).router, r[i + 1]);
            assert_eq!(t.interface_between(r[i + 1], r[i]), Some(iface));
        }
    }

    #[test]
    fn unresponsive_routers_leave_gaps() {
        let (t, r) = line_topology(5);
        let mut rng = StdRng::seed_from_u64(2);
        let sim = TracerouteSim::new(&t, 0.0, &mut rng);
        let oracle = RoutingOracle::new(&t, r[0]);
        let hops = trace(&sim, &oracle, r[4]).unwrap();
        assert_eq!(hops.len(), 4);
        assert!(hops.iter().all(|h| h.interface.is_none()));
    }

    #[test]
    fn unreachable_destination_is_none() {
        let mut b = TopologyBuilder::new();
        let a = b.add_router(GeoPoint::new(0.0, 0.0).unwrap(), AsId(1));
        let z = b.add_router(GeoPoint::new(1.0, 1.0).unwrap(), AsId(1));
        let t = b.build();
        let mut rng = StdRng::seed_from_u64(3);
        let sim = TracerouteSim::new(&t, 1.0, &mut rng);
        let oracle = RoutingOracle::new(&t, a);
        assert!(trace(&sim, &oracle, z).is_none());
    }

    #[test]
    fn silence_is_stable_across_probes() {
        let (t, r) = line_topology(10);
        let mut rng = StdRng::seed_from_u64(4);
        let sim = TracerouteSim::new(&t, 0.5, &mut rng);
        let oracle = RoutingOracle::new(&t, r[0]);
        let h1 = trace(&sim, &oracle, r[9]).unwrap();
        let h2 = trace(&sim, &oracle, r[9]).unwrap();
        assert_eq!(h1, h2);
    }

    #[test]
    fn retries_recover_lost_answers() {
        let (t, r) = line_topology(6);
        let mut rng = StdRng::seed_from_u64(7);
        let sim = TracerouteSim::new(&t, 1.0, &mut rng);
        let oracle = RoutingOracle::new(&t, r[0]);
        let mut cfg = FaultConfig::none();
        cfg.packet_loss = 0.4;
        cfg.max_retries = 5;
        cfg.seed = 17;
        let plan = FaultPlan::compile(&cfg, t.num_routers(), 1, 10_000);
        let mut session = FaultSession::new(&plan);
        let mut buf = TraceBuf::new();
        let mut answered = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            let hops = sim
                .trace_with_faults_into(&oracle, r[5], &mut session, &mut buf)
                .unwrap();
            total += hops.len();
            answered += hops.iter().filter(|h| h.interface.is_some()).count();
        }
        assert!(session.stats.probes_lost > 0, "loss never fired");
        assert!(session.stats.retry_successes > 0, "no retry ever recovered");
        // With 5 retries against 40% loss, nearly every hop answers:
        // failure needs 6 consecutive losses (~0.4%).
        assert!(
            answered as f64 / total as f64 > 0.95,
            "retries failed to mask loss: {answered}/{total}"
        );
    }

    #[test]
    fn trace_to_source_is_empty() {
        let (t, r) = line_topology(3);
        let mut rng = StdRng::seed_from_u64(5);
        let sim = TracerouteSim::new(&t, 1.0, &mut rng);
        let oracle = RoutingOracle::new(&t, r[0]);
        assert_eq!(trace(&sim, &oracle, r[0]).unwrap().len(), 0);
    }
}
