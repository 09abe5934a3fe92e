//! Graph metrics over topologies.

use crate::graph::{RouterId, Topology};
use std::collections::VecDeque;

/// Degree distribution: `counts[d]` = number of routers with degree `d`.
pub fn degree_distribution(t: &Topology) -> Vec<usize> {
    let max_deg = (0..t.num_routers())
        .map(|i| t.degree(RouterId(i as u32)))
        .max()
        .unwrap_or(0);
    let mut counts = vec![0usize; max_deg + 1];
    for i in 0..t.num_routers() {
        counts[t.degree(RouterId(i as u32))] += 1;
    }
    counts
}

/// Mean router degree (2·links / routers). Zero for an empty topology.
pub fn average_degree(t: &Topology) -> f64 {
    if t.num_routers() == 0 {
        return 0.0;
    }
    2.0 * t.num_links() as f64 / t.num_routers() as f64
}

/// Sizes of connected components, largest first.
pub fn component_sizes(t: &Topology) -> Vec<usize> {
    let n = t.num_routers();
    let mut seen = vec![false; n];
    let mut sizes = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut size = 0usize;
        let mut queue = VecDeque::new();
        queue.push_back(start);
        seen[start] = true;
        while let Some(u) = queue.pop_front() {
            size += 1;
            for e in t.neighbors(RouterId(u as u32)) {
                let v = e.neighbor();
                if !seen[v.0 as usize] {
                    seen[v.0 as usize] = true;
                    queue.push_back(v.0 as usize);
                }
            }
        }
        sizes.push(size);
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

/// Fraction of routers in the largest connected component.
pub fn giant_component_fraction(t: &Topology) -> f64 {
    if t.num_routers() == 0 {
        return 0.0;
    }
    let sizes = component_sizes(t);
    sizes[0] as f64 / t.num_routers() as f64
}

/// All link lengths in miles.
pub fn link_lengths_miles(t: &Topology) -> Vec<f64> {
    t.links().map(|(id, _)| t.link_length_miles(id)).collect()
}

/// Fraction of links that are intradomain (both endpoints in one AS).
pub fn intradomain_fraction(t: &Topology) -> f64 {
    if t.num_links() == 0 {
        return 0.0;
    }
    let intra = t.links().filter(|(id, _)| !t.is_interdomain(*id)).count();
    intra as f64 / t.num_links() as f64
}

/// Average local clustering coefficient (Watts–Strogatz): the mean over
/// routers of degree ≥ 2 of the fraction of neighbour pairs that are
/// themselves linked. The paper's reference \[37\] (small worlds) is about
/// exactly this quantity's interaction with a few long-range links.
pub fn clustering_coefficient(t: &Topology) -> f64 {
    let mut total = 0.0;
    let mut counted = 0usize;
    let neighbor_sets: Vec<std::collections::HashSet<u32>> = (0..t.num_routers())
        .map(|i| {
            t.neighbors(RouterId(i as u32))
                .iter()
                .map(|e| e.neighbor().0)
                .collect()
        })
        .collect();
    for i in 0..t.num_routers() {
        let nbrs: Vec<u32> = neighbor_sets[i].iter().copied().collect();
        let k = nbrs.len();
        if k < 2 {
            continue;
        }
        let mut closed = 0usize;
        for a in 0..k {
            for b in (a + 1)..k {
                if neighbor_sets[nbrs[a] as usize].contains(&nbrs[b]) {
                    closed += 1;
                }
            }
        }
        total += closed as f64 / (k * (k - 1) / 2) as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Mean shortest-path hop count over sampled reachable source–target
/// pairs (BFS from up to `sources` routers). `None` if no pair is
/// reachable.
pub fn average_path_length(t: &Topology, sources: usize) -> Option<f64> {
    let n = t.num_routers();
    if n == 0 {
        return None;
    }
    let step = (n / sources.max(1)).max(1);
    let mut total = 0u64;
    let mut pairs = 0u64;
    for start in (0..n).step_by(step) {
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        dist[start] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for e in t.neighbors(RouterId(u as u32)) {
                let v = e.neighbor();
                if dist[v.0 as usize] == u32::MAX {
                    dist[v.0 as usize] = dist[u] + 1;
                    queue.push_back(v.0 as usize);
                }
            }
        }
        for (i, &d) in dist.iter().enumerate() {
            if i != start && d != u32::MAX {
                total += d as u64;
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        None
    } else {
        Some(total as f64 / pairs as f64)
    }
}

/// Degree assortativity: the Pearson correlation of endpoint degrees
/// over links. `None` for degenerate graphs. Negative values mean hubs
/// attach to leaves (typical of Internet maps).
pub fn degree_assortativity(t: &Topology) -> Option<f64> {
    let mut xs = Vec::with_capacity(t.num_links() * 2);
    let mut ys = Vec::with_capacity(t.num_links() * 2);
    for (id, _) in t.links() {
        let (a, b) = t.link_routers(id);
        let (da, db) = (t.degree(a) as f64, t.degree(b) as f64);
        // Symmetrize: each link contributes both orientations.
        xs.push(da);
        ys.push(db);
        xs.push(db);
        ys.push(da);
    }
    geotopo_stats::pearson(&xs, &ys)
}

#[cfg(test)]
mod tests {
    // Tests assert exact expected values; bitwise float equality is the point.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::graph::TopologyBuilder;
    use geotopo_bgp::AsId;
    use geotopo_geo::GeoPoint;

    fn path_graph(n: usize) -> Topology {
        let mut b = TopologyBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_router(GeoPoint::new(10.0 + i as f64 * 0.1, 10.0).unwrap(), AsId(1)))
            .collect();
        for w in ids.windows(2) {
            b.add_link_auto(w[0], w[1]).unwrap();
        }
        b.build()
    }

    #[test]
    fn degree_distribution_of_path() {
        let t = path_graph(5);
        let dd = degree_distribution(&t);
        assert_eq!(dd, vec![0, 2, 3]); // two endpoints, three middle nodes
    }

    #[test]
    fn average_degree_of_path() {
        let t = path_graph(5);
        assert!((average_degree(&t) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..6)
            .map(|i| b.add_router(GeoPoint::new(i as f64, 0.0).unwrap(), AsId(1)))
            .collect();
        b.add_link_auto(r[0], r[1]).unwrap();
        b.add_link_auto(r[1], r[2]).unwrap();
        b.add_link_auto(r[3], r[4]).unwrap();
        let t = b.build();
        assert_eq!(component_sizes(&t), vec![3, 2, 1]);
        assert!((giant_component_fraction(&t) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_topology_metrics() {
        let t = TopologyBuilder::new().build();
        assert_eq!(average_degree(&t), 0.0);
        assert_eq!(giant_component_fraction(&t), 0.0);
        assert!(component_sizes(&t).is_empty());
        assert_eq!(degree_distribution(&t), vec![0usize; 1]);
    }

    #[test]
    fn intradomain_fraction_counts() {
        let mut b = TopologyBuilder::new();
        let a = b.add_router(GeoPoint::new(0.0, 0.0).unwrap(), AsId(1));
        let c = b.add_router(GeoPoint::new(1.0, 0.0).unwrap(), AsId(1));
        let d = b.add_router(GeoPoint::new(2.0, 0.0).unwrap(), AsId(2));
        b.add_link_auto(a, c).unwrap();
        b.add_link_auto(c, d).unwrap();
        let t = b.build();
        assert!((intradomain_fraction(&t) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn link_lengths_positive() {
        let t = path_graph(4);
        for l in link_lengths_miles(&t) {
            assert!(l > 0.0 && l < 10.0);
        }
    }

    fn triangle_plus_tail() -> Topology {
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..4)
            .map(|i| b.add_router(GeoPoint::new(i as f64, 0.0).unwrap(), AsId(1)))
            .collect();
        b.add_link_auto(r[0], r[1]).unwrap();
        b.add_link_auto(r[1], r[2]).unwrap();
        b.add_link_auto(r[0], r[2]).unwrap();
        b.add_link_auto(r[2], r[3]).unwrap();
        b.build()
    }

    #[test]
    fn clustering_of_triangle_plus_tail() {
        // Nodes 0,1: C=1 (their two neighbours are linked). Node 2 has
        // neighbours {0,1,3}: one of three pairs closed → 1/3. Node 3:
        // degree 1, excluded. Mean = (1 + 1 + 1/3)/3 = 7/9.
        let t = triangle_plus_tail();
        let c = clustering_coefficient(&t);
        assert!((c - 7.0 / 9.0).abs() < 1e-12, "c = {c}");
    }

    #[test]
    fn clustering_of_path_is_zero() {
        assert_eq!(clustering_coefficient(&path_graph(6)), 0.0);
    }

    #[test]
    fn path_length_of_path_graph() {
        // Full BFS from every node of P5: mean distance = 2.0.
        let t = path_graph(5);
        let apl = average_path_length(&t, 5).unwrap();
        assert!((apl - 2.0).abs() < 1e-12, "apl {apl}");
    }

    #[test]
    fn path_length_none_for_isolated() {
        let mut b = TopologyBuilder::new();
        b.add_router(GeoPoint::new(0.0, 0.0).unwrap(), AsId(1));
        b.add_router(GeoPoint::new(1.0, 0.0).unwrap(), AsId(1));
        let t = b.build();
        assert_eq!(average_path_length(&t, 2), None);
    }

    #[test]
    fn star_graph_is_disassortative() {
        let mut b = TopologyBuilder::new();
        let hub = b.add_router(GeoPoint::new(0.0, 0.0).unwrap(), AsId(1));
        for i in 1..=6 {
            let leaf = b.add_router(GeoPoint::new(i as f64, 0.0).unwrap(), AsId(1));
            b.add_link_auto(hub, leaf).unwrap();
        }
        let t = b.build();
        let r = degree_assortativity(&t).unwrap();
        assert!(r < -0.9, "assortativity {r}");
    }
}
