//! Property-based tests for measurement invariants.

// Strategy/fixture helpers run outside #[test] fns, where clippy's
// allow-unwrap-in-tests does not reach; aborting there is fine too.
#![allow(clippy::unwrap_used)]

use geotopo_bgp::{AsId, Relationship};
use geotopo_geo::GeoPoint;
use geotopo_measure::dataset::{DatasetBuilder, NodeKind};
use geotopo_measure::policy::{infer_relations, PolicyOracle};
use geotopo_measure::routing::RoutingOracle;
use geotopo_topology::{RouterId, Topology, TopologyBuilder};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn build(n: usize, edges: &[(u32, u32)]) -> Topology {
    let mut b = TopologyBuilder::new();
    for i in 0..n {
        b.add_router(
            GeoPoint::new(10.0 + (i % 50) as f64, 20.0 + (i / 50) as f64).unwrap(),
            AsId((i % 4) as u32 + 1),
        );
    }
    for &(a, bb) in edges {
        let _ = b.add_link_auto(RouterId(a), RouterId(bb));
    }
    b.build()
}

/// Like [`build`], but with skewed AS sizes (half the routers in AS1,
/// a quarter in AS2, an eighth each in AS3/AS4) so size-inferred
/// relations mix providers, customers, and peers instead of collapsing
/// to all-peer.
fn build_tiered(n: usize, edges: &[(u32, u32)]) -> Topology {
    let mut b = TopologyBuilder::new();
    for i in 0..n {
        let asn = if i < n / 2 {
            1
        } else if i < 3 * n / 4 {
            2
        } else if i < 7 * n / 8 {
            3
        } else {
            4
        };
        b.add_router(
            GeoPoint::new(10.0 + (i % 50) as f64, 20.0 + (i / 50) as f64).unwrap(),
            AsId(asn),
        );
    }
    for &(a, bb) in edges {
        let _ = b.add_link_auto(RouterId(a), RouterId(bb));
    }
    b.build()
}

/// A parametrized valley: two provider chains (AS2, AS3) hang off
/// opposite ends of a tier-1 chain (AS1), and a single-router customer
/// (AS4) multihomes to both — the hop-count shortcut between AS2 and
/// AS3 that policy routing must refuse. Returns
/// `(topology, src, dst, stub)` with src/dst the chain tails next to
/// the stub.
fn valley_world(t1_len: usize, side_len: usize) -> (Topology, RouterId, RouterId, RouterId) {
    let mut b = TopologyBuilder::new();
    let mut loc = 0usize;
    let mut next_loc = || {
        loc += 1;
        GeoPoint::new(10.0 + (loc % 50) as f64 * 0.3, 20.0 + (loc / 50) as f64).unwrap()
    };
    let chain =
        |b: &mut TopologyBuilder, len: usize, asn: u32, next: &mut dyn FnMut() -> GeoPoint| {
            let routers: Vec<RouterId> =
                (0..len).map(|_| b.add_router(next(), AsId(asn))).collect();
            for w in routers.windows(2) {
                b.add_link_auto(w[0], w[1]).unwrap();
            }
            routers
        };
    let t1 = chain(&mut b, t1_len, 1, &mut next_loc);
    let a2 = chain(&mut b, side_len, 2, &mut next_loc);
    let a3 = chain(&mut b, side_len, 3, &mut next_loc);
    let stub = b.add_router(next_loc(), AsId(4));
    b.add_link_auto(a2[0], t1[0]).unwrap();
    b.add_link_auto(a3[0], t1[t1_len - 1]).unwrap();
    b.add_link_auto(a2[side_len - 1], stub).unwrap();
    b.add_link_auto(a3[side_len - 1], stub).unwrap();
    (b.build(), a2[side_len - 1], a3[side_len - 1], stub)
}

proptest! {
    #[test]
    fn routing_paths_are_simple_and_anchored(
        edges in prop::collection::vec((0u32..20, 0u32..20), 1..60),
        src in 0u32..20,
        dst in 0u32..20,
    ) {
        let t = build(20, &edges);
        let oracle = RoutingOracle::new(&t, RouterId(src));
        if let Some(path) = oracle.path(RouterId(dst)) {
            prop_assert_eq!(path[0], RouterId(src));
            prop_assert_eq!(*path.last().unwrap(), RouterId(dst));
            // No repeated routers (shortest paths are simple).
            let set: std::collections::HashSet<_> = path.iter().collect();
            prop_assert_eq!(set.len(), path.len());
            // Consecutive hops are adjacent.
            for w in path.windows(2) {
                prop_assert!(
                    t.neighbors(w[0]).iter().any(|e| e.neighbor() == w[1]),
                    "non-adjacent hop"
                );
            }
        }
    }

    #[test]
    fn bucket_queue_matches_reference_heap_dijkstra(
        // Sparse edge sets leave unreachable components; dense ones
        // exercise stale bucket entries. Both must agree with the
        // BinaryHeap reference bit-for-bit.
        edges in prop::collection::vec((0u32..20, 0u32..20), 0..70),
        src in 0u32..20,
    ) {
        let t = build(20, &edges);
        let fast = RoutingOracle::new(&t, RouterId(src));
        let (dist, parent) = geotopo_measure::routing::reference::solve(&t, RouterId(src));
        for v in 0..20u32 {
            let d = dist[v as usize];
            let expect_cost = if d == u64::MAX { None } else { Some(d) };
            prop_assert_eq!(fast.cost(RouterId(v)), expect_cost, "dist diverged at {}", v);
            // The parent is the second element of the walk to the
            // source (None for the source itself and unreachables).
            prop_assert_eq!(
                fast.walk_up(RouterId(v)).nth(1),
                parent[v as usize],
                "parent diverged at {}", v
            );
            // The recorded incoming interface is the router's end of the
            // link from its parent — what the adjacency scan would find.
            prop_assert_eq!(
                fast.incoming_interface(RouterId(v)),
                parent[v as usize].and_then(|p| t.interface_between(RouterId(v), p)),
                "incoming interface diverged at {}", v
            );
        }
    }

    #[test]
    fn routing_cost_is_monotone_along_path(
        edges in prop::collection::vec((0u32..15, 0u32..15), 1..40),
        src in 0u32..15,
    ) {
        let t = build(15, &edges);
        let oracle = RoutingOracle::new(&t, RouterId(src));
        for dst in 0..15u32 {
            if let Some(path) = oracle.path(RouterId(dst)) {
                let mut prev = 0;
                for &hop in &path {
                    let c = oracle.cost(hop).expect("on-path hops are reachable");
                    prop_assert!(c >= prev);
                    prev = c;
                }
            }
        }
    }

    #[test]
    fn policy_paths_climb_cross_once_then_descend(
        edges in prop::collection::vec((0u32..16, 0u32..16), 1..60),
        src in 0u32..16,
    ) {
        let t = build_tiered(16, &edges);
        let rel = infer_relations(&t, 2.0);
        let oracle = PolicyOracle::new(&t, &rel, RouterId(src));
        for dst in 0..16u32 {
            let Some(path) = oracle.path(RouterId(dst)) else { continue };
            prop_assert_eq!(path[0], RouterId(src));
            prop_assert_eq!(*path.last().unwrap(), RouterId(dst));
            // Walk the AS-level relationship sequence through the
            // valley-free automaton: climb (customer→provider), at most
            // one peering, then descend (provider→customer). Intra-AS
            // hops never change phase.
            let mut descending = false;
            let mut peerings = 0usize;
            for w in path.windows(2) {
                let (as_u, as_v) = (t.router(w[0]).asn, t.router(w[1]).asn);
                if as_u == as_v {
                    continue;
                }
                match rel.get(as_u, as_v) {
                    Some(Relationship::CustomerToProvider) => {
                        prop_assert!(!descending, "climb after descend: {path:?}");
                    }
                    Some(Relationship::PeerToPeer) => {
                        prop_assert!(!descending, "peering after descend: {path:?}");
                        peerings += 1;
                        descending = true;
                    }
                    Some(Relationship::ProviderToCustomer) => {
                        descending = true;
                    }
                    None => prop_assert!(false, "unknown AS edge on path: {path:?}"),
                }
            }
            prop_assert!(peerings <= 1, "{peerings} peerings: {path:?}");
        }
    }

    #[test]
    fn valley_blocked_destinations_detour_instead_of_none(
        side_len in 2usize..5,
        extra in 0usize..4,
    ) {
        let t1_len = 2 * side_len + extra;
        let (t, src, dst, stub) = valley_world(t1_len, side_len);
        let rel = infer_relations(&t, 2.0);

        // Hop-count routing happily cuts through the multihomed
        // customer...
        let plain = RoutingOracle::new(&t, src);
        let short = plain.path(dst).expect("stub shortcut connects the sides");
        prop_assert!(short.contains(&stub), "plain path avoids valley: {short:?}");

        // ...policy routing must not — and must return the inflated
        // detour over the tier-1, not give up.
        let policy = PolicyOracle::new(&t, &rel, src);
        let detour = policy.path(dst);
        prop_assert!(detour.is_some(), "valley-blocked destination unreachable");
        let detour = detour.unwrap();
        prop_assert!(!detour.contains(&stub), "policy path transits customer: {detour:?}");
        prop_assert!(detour.len() > short.len(), "detour {} not inflated over {}", detour.len(), short.len());
        let as_path: Vec<AsId> = detour.iter().map(|&r| t.router(r).asn).collect();
        prop_assert!(rel.is_valley_free(&as_path), "detour has a valley: {as_path:?}");
        prop_assert!(policy.cost(dst).unwrap() >= plain.cost(dst).unwrap());
    }

    #[test]
    fn dataset_links_reference_valid_nodes(
        ips in prop::collection::vec(any::<u32>(), 2..40),
        pairs in prop::collection::vec((0usize..40, 0usize..40), 0..80),
    ) {
        let mut d = DatasetBuilder::new(NodeKind::Interface);
        let nodes: Vec<u32> = ips.iter().map(|&b| d.intern(Ipv4Addr::from(b))).collect();
        for (a, b) in pairs {
            d.observe_link(nodes[a % nodes.len()], nodes[b % nodes.len()]);
        }
        let d = d.finish();
        let n = d.num_nodes() as u32;
        for &(a, b) in d.links() {
            prop_assert!(a < n && b < n);
            prop_assert!(a != b);
        }
        // Interning is injective on distinct IPs.
        let distinct: std::collections::HashSet<_> = ips.iter().collect();
        prop_assert_eq!(d.num_nodes(), distinct.len());
    }

    #[test]
    fn without_nodes_preserves_remaining_structure(
        ips in prop::collection::vec(any::<u32>(), 3..30),
        pairs in prop::collection::vec((0usize..30, 0usize..30), 0..60),
        victim in 0usize..30,
    ) {
        let mut d = DatasetBuilder::new(NodeKind::Interface);
        let nodes: Vec<u32> = ips.iter().map(|&b| d.intern(Ipv4Addr::from(b))).collect();
        for (a, b) in pairs {
            d.observe_link(nodes[a % nodes.len()], nodes[b % nodes.len()]);
        }
        let d = d.finish();
        let before_nodes = d.num_nodes();
        let surviving_ips: Vec<Ipv4Addr> = d
            .nodes()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != victim % before_nodes)
            .map(|(_, n)| n.ip)
            .collect();
        let rm = std::collections::HashSet::from([(victim % before_nodes) as u32]);
        let d = d.without_nodes(&rm);
        // Every surviving node keeps its place in the order.
        let kept: Vec<Ipv4Addr> = d.nodes().iter().map(|n| n.ip).collect();
        prop_assert_eq!(kept, surviving_ips);
        let n = d.num_nodes() as u32;
        for &(a, b) in d.links() {
            prop_assert!(a < n && b < n && a != b);
        }
    }
}
