//! The Barabási–Albert preferential-attachment baseline.
//!
//! Grows a graph by attaching each new node to `m` existing nodes with
//! probability proportional to their current degree, producing the
//! power-law degree distributions of \[2\]. Placement is uniform — the
//! model is geometry-free, which is exactly the contrast the paper draws
//! against distance-sensitive link formation.

use super::waxman::GenError;
use crate::graph::{RouterId, Topology, TopologyBuilder};
use geotopo_bgp::AsId;
use geotopo_geo::Region;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Barabási–Albert parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BarabasiAlbertConfig {
    /// Final number of nodes (must exceed `m`).
    pub n: usize,
    /// Edges attached per new node.
    pub m: usize,
    /// Region for (decorative) uniform placement.
    pub region: Region,
    /// RNG seed.
    pub seed: u64,
}

/// Generates a BA topology via the repeated-endpoint urn trick: sampling
/// uniformly from the list of all edge endpoints is sampling proportional
/// to degree.
///
/// # Errors
///
/// Rejects `m == 0` and `n <= m`.
pub fn barabasi_albert(cfg: &BarabasiAlbertConfig) -> Result<Topology, GenError> {
    if cfg.m == 0 {
        return Err(GenError::BadParameter("m"));
    }
    if cfg.n <= cfg.m {
        return Err(GenError::BadParameter("n"));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Seed clique plus up to m links per joining node.
    let est_links = cfg.m * (cfg.m + 1) / 2 + cfg.m * (cfg.n - cfg.m - 1);
    let mut b = TopologyBuilder::with_capacity(cfg.n, est_links);
    let ids: Vec<RouterId> = (0..cfg.n)
        .map(|_| b.add_router(super::uniform_in_region(&mut rng, &cfg.region), AsId(1)))
        .collect();

    // Seed clique over the first m+1 nodes.
    let mut endpoints: Vec<u32> = Vec::new();
    for i in 0..=cfg.m {
        for j in (i + 1)..=cfg.m {
            b.add_link_auto(ids[i], ids[j]).expect("valid pair"); // lint: allow(unwrap): distinct seed-clique indices
            endpoints.push(i as u32);
            endpoints.push(j as u32);
        }
    }

    for new in (cfg.m + 1)..cfg.n {
        let mut chosen = std::collections::HashSet::new();
        let mut guard = 0;
        while chosen.len() < cfg.m && guard < 10_000 {
            guard += 1;
            let target = endpoints[rng.random_range(0..endpoints.len())];
            if target as usize != new {
                chosen.insert(target);
            }
        }
        for &t in &chosen {
            b.add_link_auto(ids[new], ids[t as usize])
                .expect("valid pair"); // lint: allow(unwrap): chosen excludes new; both routers exist
            endpoints.push(new as u32);
            endpoints.push(t);
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use geotopo_geo::RegionSet;

    fn cfg(n: usize, m: usize) -> BarabasiAlbertConfig {
        BarabasiAlbertConfig {
            n,
            m,
            region: RegionSet::us(),
            seed: 11,
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(barabasi_albert(&cfg(10, 0)).is_err());
        assert!(barabasi_albert(&cfg(3, 3)).is_err());
    }

    #[test]
    fn node_and_edge_counts() {
        let t = barabasi_albert(&cfg(500, 2)).unwrap();
        assert_eq!(t.num_routers(), 500);
        // m(m+1)/2 seed edges + ~m per subsequent node.
        let expected = 3 + 2 * (500 - 3);
        assert!((t.num_links() as i64 - expected as i64).abs() < 50);
    }

    #[test]
    fn graph_is_connected() {
        let t = barabasi_albert(&cfg(400, 2)).unwrap();
        assert!((metrics::giant_component_fraction(&t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let t = barabasi_albert(&cfg(2000, 2)).unwrap();
        let dd = metrics::degree_distribution(&t);
        let max_degree = dd.len() - 1;
        // Preferential attachment: max degree far above the mean (4).
        assert!(max_degree > 30, "max degree {max_degree}");
        // And most nodes sit at the minimum degree m.
        let at_min: usize = dd[2] + dd[3];
        assert!(at_min as f64 / 2000.0 > 0.5);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = barabasi_albert(&cfg(200, 2)).unwrap();
        let b = barabasi_albert(&cfg(200, 2)).unwrap();
        assert_eq!(a.num_links(), b.num_links());
    }
}
