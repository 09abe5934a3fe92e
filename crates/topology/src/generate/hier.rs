//! A GT-ITM-style transit-stub hierarchy baseline.
//!
//! Structural models (Tiers, GT-ITM; the paper's \[9\], \[41\]) "chose a
//! different tack, building an explicit hierarchy into their topologies".
//! This generator builds a two-level transit-stub graph: a ring+chords
//! core of transit domains, each transit router sponsoring a handful of
//! stub domains. Every domain is its own AS, so the output exercises the
//! interdomain/intradomain analyses too.

use super::waxman::GenError;
use crate::graph::{RouterId, Topology, TopologyBuilder};
use geotopo_bgp::AsId;
use geotopo_geo::Region;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Transit-stub parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransitStubConfig {
    /// Number of transit domains.
    pub transit_domains: usize,
    /// Routers per transit domain.
    pub transit_size: usize,
    /// Stub domains attached to each transit router.
    pub stubs_per_transit_router: usize,
    /// Routers per stub domain.
    pub stub_size: usize,
    /// Region for placement: transit routers spread widely, stub routers
    /// cluster near their attachment.
    pub region: Region,
    /// Degrees of clustering for stub placement.
    pub stub_spread_deg: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        TransitStubConfig {
            transit_domains: 4,
            transit_size: 8,
            stubs_per_transit_router: 2,
            stub_size: 6,
            region: geotopo_geo::RegionSet::us(),
            stub_spread_deg: 0.5,
            seed: 0,
        }
    }
}

/// Generates a transit-stub topology. AS numbering: transit domains get
/// `AsId(1..)`, stub domains follow.
///
/// # Errors
///
/// All size parameters must be nonzero.
pub fn transit_stub(cfg: &TransitStubConfig) -> Result<Topology, GenError> {
    if cfg.transit_domains == 0 {
        return Err(GenError::BadParameter("transit_domains"));
    }
    if cfg.transit_size == 0 {
        return Err(GenError::BadParameter("transit_size"));
    }
    if cfg.stub_size == 0 {
        return Err(GenError::BadParameter("stub_size"));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Ring + chords per transit domain, domain ring, star + gateway per
    // stub domain.
    let n_transit = cfg.transit_domains * cfg.transit_size;
    let n_stub_domains = n_transit * cfg.stubs_per_transit_router;
    let est_routers = n_transit + n_stub_domains * cfg.stub_size;
    let est_links = cfg.transit_domains * (cfg.transit_size + cfg.transit_size / 3)
        + cfg.transit_domains
        + n_stub_domains * cfg.stub_size;
    let mut b = TopologyBuilder::with_capacity(est_routers, est_links);
    let mut next_as = 1u32;

    // Transit domains: each a ring with chords; domains connected in a
    // ring of domains (via their first routers) to keep the core whole.
    let mut transit_routers: Vec<Vec<RouterId>> = Vec::new();
    for _ in 0..cfg.transit_domains {
        let asn = AsId(next_as);
        next_as += 1;
        let anchor = super::uniform_in_region(&mut rng, &cfg.region);
        let members: Vec<RouterId> = (0..cfg.transit_size)
            .map(|_| {
                let p = super::jitter_in_region(&mut rng, &anchor, 2.0, &cfg.region);
                b.add_router(p, asn)
            })
            .collect();
        for i in 0..members.len() {
            let j = (i + 1) % members.len();
            if members.len() > 1 && !b.has_link(members[i], members[j]) {
                b.add_link_auto(members[i], members[j]).expect("valid"); // lint: allow(unwrap): distinct routers, link checked absent
            }
        }
        // A couple of chords for redundancy.
        for _ in 0..(cfg.transit_size / 3) {
            let i = rng.random_range(0..members.len());
            let j = rng.random_range(0..members.len());
            if i != j && !b.has_link(members[i], members[j]) {
                b.add_link_auto(members[i], members[j]).expect("valid"); // lint: allow(unwrap): distinct routers, link checked absent
            }
        }
        transit_routers.push(members);
    }
    for k in 0..transit_routers.len() {
        let l = (k + 1) % transit_routers.len();
        if k != l && !b.has_link(transit_routers[k][0], transit_routers[l][0]) {
            b.add_link_auto(transit_routers[k][0], transit_routers[l][0])
                .expect("valid"); // lint: allow(unwrap): distinct routers, link checked absent
        }
    }

    // Stub domains: a small tree of routers hanging off each transit
    // router, clustered tightly around it.
    for domain in &transit_routers {
        for &tr in domain {
            let anchor = b.router(tr).expect("added").location; // lint: allow(unwrap): router just added
            for _ in 0..cfg.stubs_per_transit_router {
                let asn = AsId(next_as);
                next_as += 1;
                let members: Vec<RouterId> = (0..cfg.stub_size)
                    .map(|_| {
                        let p = super::jitter_in_region(
                            &mut rng,
                            &anchor,
                            cfg.stub_spread_deg,
                            &cfg.region,
                        );
                        b.add_router(p, asn)
                    })
                    .collect();
                // Star within the stub, gateway link to the transit router.
                for &m in &members[1..] {
                    b.add_link_auto(members[0], m).expect("valid"); // lint: allow(unwrap): distinct routers within one stub
                }
                b.add_link_auto(members[0], tr).expect("valid"); // lint: allow(unwrap): distinct routers, link checked absent
            }
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn rejects_zero_sizes() {
        let cfg = TransitStubConfig {
            transit_domains: 0,
            ..Default::default()
        };
        assert!(transit_stub(&cfg).is_err());
    }

    #[test]
    fn expected_node_count() {
        let cfg = TransitStubConfig::default();
        let t = transit_stub(&cfg).unwrap();
        let transit = cfg.transit_domains * cfg.transit_size;
        let stubs = transit * cfg.stubs_per_transit_router * cfg.stub_size;
        assert_eq!(t.num_routers(), transit + stubs);
    }

    #[test]
    fn graph_is_connected() {
        let t = transit_stub(&TransitStubConfig::default()).unwrap();
        assert!((metrics::giant_component_fraction(&t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interdomain_links_are_minority() {
        let t = transit_stub(&TransitStubConfig::default()).unwrap();
        let intra = metrics::intradomain_fraction(&t);
        assert!(intra > 0.5, "intradomain fraction {intra}");
    }

    #[test]
    fn many_ases_present() {
        let t = transit_stub(&TransitStubConfig::default()).unwrap();
        let ases: std::collections::HashSet<_> = t.routers().map(|(_, r)| r.asn).collect();
        let cfg = TransitStubConfig::default();
        let expected = cfg.transit_domains
            + cfg.transit_domains * cfg.transit_size * cfg.stubs_per_transit_router;
        assert_eq!(ases.len(), expected);
    }

    #[test]
    fn stub_links_are_short() {
        let t = transit_stub(&TransitStubConfig::default()).unwrap();
        // Median link is a stub link: tightly clustered, tens of miles.
        let mut lengths = metrics::link_lengths_miles(&t);
        lengths.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = lengths[lengths.len() / 2];
        assert!(median < 150.0, "median length {median}");
    }
}
