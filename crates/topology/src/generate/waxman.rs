//! The Waxman topology model.
//!
//! Waxman \[38\] places `n` nodes uniformly at random in the plane and
//! connects each pair with probability
//!
//! ```text
//! f_W(d) = β · exp(−d / (α·L))
//! ```
//!
//! where `L` is the maximum distance between nodes, `0 < α ≤ 1` the
//! distance sensitivity, and `0 < β ≤ 1` the link density. The paper
//! finds assumption (1) — uniform placement — badly wrong for the real
//! Internet, but assumption (2) — exponential distance decay — a good
//! description of most links (Section V). This baseline lets the bench
//! suite contrast both regimes.

use crate::graph::{RouterId, Topology, TopologyBuilder};
use geotopo_bgp::AsId;
use geotopo_geo::{haversine_miles, Region};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Waxman generator parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WaxmanConfig {
    /// Number of nodes.
    pub n: usize,
    /// Distance-sensitivity parameter α in (0, 1].
    pub alpha: f64,
    /// Density parameter β in (0, 1].
    pub beta: f64,
    /// Region nodes are scattered over.
    pub region: Region,
    /// RNG seed.
    pub seed: u64,
}

/// Errors from baseline generators.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// A parameter was out of range.
    BadParameter(&'static str),
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::BadParameter(p) => write!(f, "parameter out of range: {p}"),
        }
    }
}

impl std::error::Error for GenError {}

/// Generates a Waxman topology (O(n²) pair sampling).
///
/// All nodes share `AsId(1)` — the model has no AS notion.
///
/// # Errors
///
/// Rejects `n == 0` and α/β outside `(0, 1]`.
pub fn waxman(cfg: &WaxmanConfig) -> Result<Topology, GenError> {
    if cfg.n == 0 {
        return Err(GenError::BadParameter("n"));
    }
    if !(0.0 < cfg.alpha && cfg.alpha <= 1.0) {
        return Err(GenError::BadParameter("alpha"));
    }
    if !(0.0 < cfg.beta && cfg.beta <= 1.0) {
        return Err(GenError::BadParameter("beta"));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Acceptance is at most β per pair; the exponential factor thins it
    // further, so β·pairs/4 is a serviceable reservation.
    let est_links = (cfg.beta * (cfg.n * cfg.n.saturating_sub(1) / 2) as f64 / 4.0) as usize;
    let mut b = TopologyBuilder::with_capacity(cfg.n, est_links);
    let ids: Vec<RouterId> = (0..cfg.n)
        .map(|_| b.add_router(super::uniform_in_region(&mut rng, &cfg.region), AsId(1)))
        .collect();

    // L: maximum pairwise distance. Use the region diagonal as the upper
    // bound Waxman intends (exact max over pairs is O(n²) anyway; the
    // diagonal differs by < the sampling noise).
    let sw = geotopo_geo::GeoPoint::new_unchecked(cfg.region.south, cfg.region.west);
    let ne = geotopo_geo::GeoPoint::new_unchecked(cfg.region.north, cfg.region.east);
    let l = haversine_miles(&sw, &ne).max(1.0);

    for i in 0..cfg.n {
        for j in (i + 1)..cfg.n {
            let d = haversine_miles(
                &b.router(ids[i]).expect("added").location, // lint: allow(unwrap): router just added
                &b.router(ids[j]).expect("added").location, // lint: allow(unwrap): router just added
            );
            let p = cfg.beta * (-d / (cfg.alpha * l)).exp();
            if rng.random::<f64>() < p {
                b.add_link_auto(ids[i], ids[j]).expect("valid pair"); // lint: allow(unwrap): i < j distinct routers
            }
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use geotopo_geo::RegionSet;

    fn cfg(n: usize, alpha: f64, beta: f64) -> WaxmanConfig {
        WaxmanConfig {
            n,
            alpha,
            beta,
            region: RegionSet::us(),
            seed: 42,
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(waxman(&cfg(0, 0.2, 0.3)).is_err());
        assert!(waxman(&cfg(10, 0.0, 0.3)).is_err());
        assert!(waxman(&cfg(10, 1.5, 0.3)).is_err());
        assert!(waxman(&cfg(10, 0.2, 0.0)).is_err());
    }

    #[test]
    fn generates_requested_nodes() {
        let t = waxman(&cfg(200, 0.2, 0.4)).unwrap();
        assert_eq!(t.num_routers(), 200);
        assert!(t.num_links() > 0);
    }

    #[test]
    fn higher_beta_means_more_links() {
        let lo = waxman(&cfg(200, 0.2, 0.1)).unwrap();
        let hi = waxman(&cfg(200, 0.2, 0.8)).unwrap();
        assert!(hi.num_links() > lo.num_links());
    }

    #[test]
    fn short_links_dominate_at_low_alpha() {
        let t = waxman(&cfg(400, 0.08, 0.8)).unwrap();
        let lengths = metrics::link_lengths_miles(&t);
        let short = lengths.iter().filter(|&&d| d < 1500.0).count();
        assert!(
            short as f64 / lengths.len() as f64 > 0.8,
            "short fraction {}",
            short as f64 / lengths.len() as f64
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = waxman(&cfg(100, 0.2, 0.3)).unwrap();
        let b = waxman(&cfg(100, 0.2, 0.3)).unwrap();
        assert_eq!(a.num_links(), b.num_links());
    }

    #[test]
    fn nodes_inside_region() {
        let t = waxman(&cfg(100, 0.2, 0.3)).unwrap();
        for (_, r) in t.routers() {
            assert!(RegionSet::us().contains(&r.location));
        }
    }
}
