//! Property-based tests for measurement invariants.

// Strategy/fixture helpers run outside #[test] fns, where clippy's
// allow-unwrap-in-tests does not reach; aborting there is fine too.
#![allow(clippy::unwrap_used)]

use geotopo_bgp::AsId;
use geotopo_geo::GeoPoint;
use geotopo_measure::dataset::{DatasetBuilder, NodeKind};
use geotopo_measure::routing::RoutingOracle;
use geotopo_topology::{RouterId, Topology, TopologyBuilder};
use proptest::prelude::*;
use std::collections::HashSet;
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

    #[test]
    fn link_dedup_matches_a_hash_set_model(
        // (op, x, y): 0 interns address x, 1 links nodes x and y, 2
        // repeats the last link, 3 repeats it reversed, 4 extends it to
        // node x like the next hop of a trace. A small address pool
        // makes repeats, reversed pairs and self-loops common.
        ops in prop::collection::vec((0u8..5, 0usize..12, 0usize..12), 1..300),
    ) {
        let mut d = DatasetBuilder::new(NodeKind::Interface);
        let mut nodes: Vec<u32> = Vec::new();
        let mut last: Option<(u32, u32)> = None;
        // The model: nodes in first-intern order, canonical pairs in a
        // plain hash set and in first-sighting order, and the counts.
        let mut model_ips: Vec<Ipv4Addr> = Vec::new();
        let mut model_set: HashSet<(u32, u32)> = HashSet::new();
        let mut model_links: Vec<(u32, u32)> = Vec::new();
        let (mut self_loops, mut duplicates) = (0u64, 0u64);
        for (op, x, y) in ops {
            if op == 0 {
                let ip = Ipv4Addr::from(0x0A00_0000 + x as u32);
                let want = match model_ips.iter().position(|&m| m == ip) {
                    Some(i) => i,
                    None => {
                        model_ips.push(ip);
                        model_ips.len() - 1
                    }
                };
                let node = d.intern(ip);
                prop_assert_eq!(node as usize, want);
                nodes.push(node);
                continue;
            }
            if nodes.is_empty() {
                continue;
            }
            let pair = match (op, last) {
                (1, _) => (nodes[x % nodes.len()], nodes[y % nodes.len()]),
                (2, Some(p)) => p,
                (3, Some((a, b))) => (b, a),
                (_, Some((_, b))) => (b, nodes[x % nodes.len()]),
                (_, None) => continue,
            };
            last = Some(pair);
            d.observe_link(pair.0, pair.1);
            let (a, b) = pair;
            if a == b {
                self_loops += 1;
            } else if model_set.insert((a.min(b), a.max(b))) {
                model_links.push((a.min(b), a.max(b)));
            } else {
                duplicates += 1;
            }
        }
        let d = d.finish();
        prop_assert_eq!(d.num_nodes(), model_ips.len());
        prop_assert_eq!(d.links(), &model_links[..]);
        prop_assert_eq!(d.anomalies.self_loops, self_loops);
        prop_assert_eq!(d.anomalies.duplicate_links, duplicates);
    }
}
