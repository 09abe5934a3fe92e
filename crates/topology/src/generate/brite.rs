//! A BRITE-flavoured generator.
//!
//! BRITE (Medina, Lakhina, Matta, Byers — the same group as the paper,
//! reference \[25\]) grows a router-level graph incrementally, joining
//! each new node to `m` existing nodes with probability combining
//! **preferential connectivity** (∝ current degree) and **Waxman
//! distance preference** (∝ exp(−d/(αL))). This reproduces BRITE's
//! router-level "incremental + preferential + locality" mode, with
//! optional heavy-tailed node placement.

use super::waxman::GenError;
use crate::graph::{RouterId, Topology, TopologyBuilder};
use geotopo_bgp::AsId;
use geotopo_geo::{haversine_miles, GeoPoint, Region};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Node placement modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Uniform at random over the region.
    Uniform,
    /// Heavy-tailed: new nodes land near existing ones with Pareto
    /// offsets (BRITE's "heavy-tailed" plane assignment).
    HeavyTailed,
}

/// BRITE parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BriteConfig {
    /// Final node count.
    pub n: usize,
    /// Links per joining node.
    pub m: usize,
    /// Region for placement.
    pub region: Region,
    /// Placement mode.
    pub placement: Placement,
    /// Waxman α (distance sensitivity) of the locality factor.
    pub waxman_alpha: f64,
    /// Weight of preferential connectivity vs pure locality in [0, 1]:
    /// 1 = BA-like, 0 = Waxman-like; BRITE's default mixes both.
    pub preferential_weight: f64,
    /// RNG seed.
    pub seed: u64,
}

impl BriteConfig {
    /// BRITE-ish defaults over the US region.
    pub fn us_default(n: usize, seed: u64) -> Self {
        BriteConfig {
            n,
            m: 2,
            region: geotopo_geo::RegionSet::us(),
            placement: Placement::HeavyTailed,
            waxman_alpha: 0.1,
            preferential_weight: 0.5,
            seed,
        }
    }
}

/// Generates a BRITE-style topology.
///
/// # Errors
///
/// Rejects `m == 0`, `n <= m`, α outside (0, 1], and weights outside
/// [0, 1].
pub fn brite(cfg: &BriteConfig) -> Result<Topology, GenError> {
    if cfg.m == 0 {
        return Err(GenError::BadParameter("m"));
    }
    if cfg.n <= cfg.m {
        return Err(GenError::BadParameter("n"));
    }
    if !(0.0 < cfg.waxman_alpha && cfg.waxman_alpha <= 1.0) {
        return Err(GenError::BadParameter("waxman_alpha"));
    }
    if !(0.0..=1.0).contains(&cfg.preferential_weight) {
        return Err(GenError::BadParameter("preferential_weight"));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Seed clique plus m links per joining node.
    let est_links = cfg.m * (cfg.m + 1) / 2 + cfg.m * (cfg.n - cfg.m - 1);
    let mut b = TopologyBuilder::with_capacity(cfg.n, est_links);

    // Region scale L for the Waxman factor: the box diagonal.
    let sw = GeoPoint::new_unchecked(cfg.region.south, cfg.region.west);
    let ne = GeoPoint::new_unchecked(cfg.region.north, cfg.region.east);
    let l = haversine_miles(&sw, &ne).max(1.0);

    let mut positions: Vec<GeoPoint> = Vec::with_capacity(cfg.n);
    let mut degrees: Vec<f64> = Vec::with_capacity(cfg.n);
    let mut ids: Vec<RouterId> = Vec::with_capacity(cfg.n);

    let place = |rng: &mut StdRng, existing: &[GeoPoint]| -> GeoPoint {
        match cfg.placement {
            Placement::Uniform => super::uniform_in_region(rng, &cfg.region),
            Placement::HeavyTailed => {
                if existing.is_empty() || rng.random::<f64>() < 0.25 {
                    super::uniform_in_region(rng, &cfg.region)
                } else {
                    let parent = existing[rng.random_range(0..existing.len())];
                    // Pareto(0.1°, 1.0) offset with uniform bearing.
                    let u: f64 = 1.0 - rng.random::<f64>();
                    let r_deg = (0.1 / u).min(cfg.region.lat_span());
                    let theta = rng.random_range(0.0..std::f64::consts::TAU);
                    let p = GeoPoint::new_unchecked(
                        (parent.lat() + r_deg * theta.sin()).clamp(-89.9, 89.9),
                        parent.lon() + r_deg * theta.cos(),
                    );
                    cfg.region.clamp(&p)
                }
            }
        }
    };

    // Seed clique of m+1 nodes.
    for _ in 0..=cfg.m {
        let p = place(&mut rng, &positions);
        ids.push(b.add_router(p, AsId(1)));
        positions.push(p);
        degrees.push(0.0);
    }
    for i in 0..=cfg.m {
        for j in (i + 1)..=cfg.m {
            b.add_link_auto(ids[i], ids[j]).expect("seed clique"); // lint: allow(unwrap): distinct seed-clique indices
            degrees[i] += 1.0;
            degrees[j] += 1.0;
        }
    }

    // Incremental growth.
    for _ in (cfg.m + 1)..cfg.n {
        let p = place(&mut rng, &positions);
        let new_idx = positions.len();
        ids.push(b.add_router(p, AsId(1)));
        positions.push(p);
        degrees.push(0.0);

        // Joint weights over existing nodes.
        let mut weights: Vec<f64> = Vec::with_capacity(new_idx);
        let mut total = 0.0;
        for j in 0..new_idx {
            let d = haversine_miles(&p, &positions[j]);
            let locality = (-d / (cfg.waxman_alpha * l)).exp();
            let pref = degrees[j].max(1.0);
            let w = cfg.preferential_weight * pref * locality
                + (1.0 - cfg.preferential_weight) * locality;
            weights.push(w);
            total += w;
        }
        let mut chosen: Vec<usize> = Vec::with_capacity(cfg.m);
        let mut guard = 0;
        while chosen.len() < cfg.m && guard < 10_000 {
            guard += 1;
            if total <= 0.0 {
                // Degenerate locality: fall back to uniform choice.
                let j = rng.random_range(0..new_idx);
                if !chosen.contains(&j) {
                    chosen.push(j);
                }
                continue;
            }
            let mut draw = rng.random::<f64>() * total;
            let mut pick = new_idx - 1;
            for (j, w) in weights.iter().enumerate() {
                draw -= w;
                if draw <= 0.0 {
                    pick = j;
                    break;
                }
            }
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        for j in chosen {
            b.add_link_auto(ids[new_idx], ids[j]).expect("new pair"); // lint: allow(unwrap): chosen excludes new_idx; both routers exist
            degrees[new_idx] += 1.0;
            degrees[j] += 1.0;
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use geotopo_geo::RegionSet;

    fn cfg(n: usize) -> BriteConfig {
        BriteConfig::us_default(n, 13)
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut c = cfg(100);
        c.m = 0;
        assert!(brite(&c).is_err());
        let mut c = cfg(100);
        c.n = 2;
        assert!(brite(&c).is_err());
        let mut c = cfg(100);
        c.waxman_alpha = 0.0;
        assert!(brite(&c).is_err());
        let mut c = cfg(100);
        c.preferential_weight = 1.5;
        assert!(brite(&c).is_err());
    }

    #[test]
    fn connected_with_expected_edges() {
        let t = brite(&cfg(500)).unwrap();
        assert_eq!(t.num_routers(), 500);
        assert!((metrics::giant_component_fraction(&t) - 1.0).abs() < 1e-12);
        let expected = 3 + 2 * (500 - 3);
        assert!((t.num_links() as i64 - expected as i64).abs() < 30);
    }

    #[test]
    fn mixes_hub_growth_and_locality() {
        let t = brite(&cfg(1500)).unwrap();
        // Preferential component: a heavy degree tail.
        let max_deg = metrics::degree_distribution(&t).len() - 1;
        assert!(max_deg > 15, "max degree {max_deg}");
        // Locality component: most links shorter than the region scale.
        let lengths = metrics::link_lengths_miles(&t);
        let short = lengths.iter().filter(|&&d| d < 1200.0).count();
        assert!(
            short as f64 / lengths.len() as f64 > 0.7,
            "short fraction {}",
            short as f64 / lengths.len() as f64
        );
    }

    #[test]
    fn pure_preferential_limit_grows_bigger_hubs() {
        let mut pref = cfg(1200);
        pref.preferential_weight = 1.0;
        pref.placement = Placement::Uniform;
        let mut local = cfg(1200);
        local.preferential_weight = 0.0;
        local.placement = Placement::Uniform;
        let tp = brite(&pref).unwrap();
        let tl = brite(&local).unwrap();
        let max = |t: &crate::graph::Topology| metrics::degree_distribution(t).len() - 1;
        assert!(
            max(&tp) > max(&tl),
            "pref {} vs local {}",
            max(&tp),
            max(&tl)
        );
    }

    #[test]
    fn heavy_tailed_placement_clusters() {
        let mut ht = cfg(1500);
        ht.placement = Placement::HeavyTailed;
        let mut un = cfg(1500);
        un.placement = Placement::Uniform;
        let t_ht = brite(&ht).unwrap();
        let t_un = brite(&un).unwrap();
        let dim = |t: &crate::graph::Topology| {
            let pts: Vec<_> = t.routers().map(|(_, r)| r.location).collect();
            geotopo_geo::box_counting_dimension(
                &RegionSet::us(),
                &pts,
                &geotopo_geo::boxcount::default_scales(),
            )
            .unwrap()
            .dimension
        };
        assert!(dim(&t_ht) < dim(&t_un), "{} !< {}", dim(&t_ht), dim(&t_un));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = brite(&cfg(300)).unwrap();
        let b = brite(&cfg(300)).unwrap();
        assert_eq!(a.num_links(), b.num_links());
    }
}
