//! Section VI — Autonomous Systems.
//!
//! Per-AS aggregation of the processed dataset:
//!
//! - [`as_measures`]: the three size measures per AS — number of
//!   interfaces/nodes, number of distinct locations, and AS degree (the
//!   number of neighbouring ASes) — plus convex-hull areas on the Albers
//!   plane (Figures 7–10).
//! - [`domain_links`]: interdomain vs intradomain link counts and mean
//!   lengths per region (Table VI).
//!
//! Nodes in the unmapped AS ([`geotopo_bgp::AsId::UNMAPPED`]) are
//! omitted, as in the paper.

use crate::pipeline::{location_key, GeoDataset};
use crate::report::{FigureData, Panel, Series, TextTable};
use geotopo_bgp::AsId;
use geotopo_geo::{hull::hull_area, AlbersProjection, Region, RegionSet};
use geotopo_stats::{ccdf_points, pearson, Ecdf};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Per-AS size and extent measures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsMeasures {
    /// The AS.
    pub asn: AsId,
    /// Number of nodes (interfaces for Skitter, routers for Mercator).
    pub nodes: usize,
    /// Number of distinct mapped locations.
    pub locations: usize,
    /// Degree in the AS graph (distinct neighbour ASes).
    pub degree: usize,
    /// Convex hull area of the AS's nodes, square miles (world Albers).
    pub hull_area: f64,
}

/// Computes per-AS measures over a processed dataset.
pub fn as_measures(dataset: &GeoDataset) -> Vec<AsMeasures> {
    let mut nodes_of: HashMap<AsId, Vec<u32>> = HashMap::new();
    for (i, n) in dataset.nodes.iter().enumerate() {
        if !n.asn.is_unmapped() {
            nodes_of.entry(n.asn).or_default().push(i as u32);
        }
    }
    let mut neighbors: HashMap<AsId, HashSet<AsId>> = HashMap::new();
    for &(a, b) in &dataset.links {
        let (asa, asb) = (dataset.nodes[a as usize].asn, dataset.nodes[b as usize].asn);
        if asa != asb && !asa.is_unmapped() && !asb.is_unmapped() {
            neighbors.entry(asa).or_default().insert(asb);
            neighbors.entry(asb).or_default().insert(asa);
        }
    }
    let projection = AlbersProjection::world();
    let mut out: Vec<AsMeasures> = nodes_of
        .into_iter()
        .map(|(asn, members)| {
            let mut locs = HashSet::new();
            let mut planar = Vec::with_capacity(members.len());
            for &i in &members {
                let p = dataset.nodes[i as usize].location;
                locs.insert(location_key(&p));
                planar.push(projection.project(&p));
            }
            AsMeasures {
                asn,
                nodes: members.len(),
                locations: locs.len(),
                degree: neighbors.get(&asn).map_or(0, |s| s.len()),
                hull_area: hull_area(&planar),
            }
        })
        .collect();
    out.sort_by_key(|m| m.asn);
    out
}

/// Convex-hull areas restricted to a region: only the AS's nodes inside
/// the region contribute (Figure 9's US and Europe panels).
pub fn hull_areas_in_region(dataset: &GeoDataset, region: &Region) -> Vec<f64> {
    let projection =
        AlbersProjection::for_bounds(region.south, region.north, region.west, region.east);
    let mut planar_of: HashMap<AsId, Vec<geotopo_geo::PlanarPoint>> = HashMap::new();
    for n in &dataset.nodes {
        if !n.asn.is_unmapped() && region.contains(&n.location) {
            planar_of
                .entry(n.asn)
                .or_default()
                .push(projection.project(&n.location));
        }
    }
    let mut areas: Vec<f64> = planar_of.values().map(|pts| hull_area(pts)).collect();
    areas.sort_by(|a, b| a.partial_cmp(b).expect("finite areas"));
    areas
}

/// Figure 7: log-log CCDFs of the three AS size measures.
pub fn fig7(measures: &[AsMeasures]) -> FigureData {
    let series = |label: &str, vals: Vec<f64>| Panel {
        label: label.to_string(),
        series: vec![Series {
            label: label.to_string(),
            points: ccdf_points(&vals),
        }],
        fit: None,
        axes: "log10(x) vs log10(P[X>x])".into(),
    };
    FigureData {
        id: "Figure 7".into(),
        title: "Distributions of AS Sizes (World)".into(),
        panels: vec![
            series(
                "No. of Interfaces",
                measures.iter().map(|m| m.nodes as f64).collect(),
            ),
            series(
                "No. of Locations",
                measures.iter().map(|m| m.locations as f64).collect(),
            ),
            series(
                "AS degree",
                measures.iter().map(|m| m.degree as f64).collect(),
            ),
        ],
    }
}

/// Figure 8: pairwise scatterplots of the size measures (log10) with
/// Pearson correlations of the log-transformed values.
pub fn fig8(measures: &[AsMeasures]) -> (FigureData, [Option<f64>; 3]) {
    let log = |v: usize| (v.max(1) as f64).log10();
    let ifaces: Vec<f64> = measures.iter().map(|m| log(m.nodes)).collect();
    let locs: Vec<f64> = measures.iter().map(|m| log(m.locations)).collect();
    // Degree-0 ASes (stub-only views) are excluded from degree panels,
    // matching the paper's log-log axes.
    let pairs_with_degree: Vec<&AsMeasures> = measures.iter().filter(|m| m.degree > 0).collect();
    let if_d: Vec<f64> = pairs_with_degree.iter().map(|m| log(m.nodes)).collect();
    let lo_d: Vec<f64> = pairs_with_degree.iter().map(|m| log(m.locations)).collect();
    let deg: Vec<f64> = pairs_with_degree.iter().map(|m| log(m.degree)).collect();

    let r_if_lo = pearson(&ifaces, &locs);
    let r_if_deg = pearson(&if_d, &deg);
    let r_lo_deg = pearson(&lo_d, &deg);

    let scatter = |label: &str, xs: &[f64], ys: &[f64]| Panel {
        label: label.to_string(),
        series: vec![Series {
            label: label.to_string(),
            points: xs.iter().cloned().zip(ys.iter().cloned()).collect(),
        }],
        fit: None,
        axes: "log10 vs log10".into(),
    };
    let fig = FigureData {
        id: "Figure 8".into(),
        title: "Scatterplots of AS Size Measures (World)".into(),
        panels: vec![
            scatter("Interfaces vs Locations", &ifaces, &locs),
            scatter("Interfaces vs Degree", &if_d, &deg),
            scatter("Locations vs Degree", &lo_d, &deg),
        ],
    };
    (fig, [r_if_lo, r_if_deg, r_lo_deg])
}

/// Figure 9: CDFs of AS convex-hull area for the World and per-region
/// restrictions.
pub fn fig9(dataset: &GeoDataset, measures: &[AsMeasures]) -> FigureData {
    let world_areas: Vec<f64> = measures.iter().map(|m| m.hull_area).collect();
    let us = hull_areas_in_region(dataset, &RegionSet::us());
    let eu = hull_areas_in_region(dataset, &RegionSet::europe());
    let cdf_panel = |label: &str, areas: Vec<f64>| {
        let e = Ecdf::new(areas);
        Panel {
            label: label.to_string(),
            series: vec![Series {
                label: label.to_string(),
                points: e.cdf_points(),
            }],
            fit: None,
            axes: "hull area (sq mi) vs P[X<=x]".into(),
        }
    };
    FigureData {
        id: "Figure 9".into(),
        title: "CDFs of AS Convex Hull Size".into(),
        panels: vec![
            cdf_panel("World", world_areas),
            cdf_panel("US", us),
            cdf_panel("Europe", eu),
        ],
    }
}

/// The fraction of ASes with zero-area hulls (paper: ~80% have one or two
/// locations and thus zero area).
pub fn zero_hull_fraction(measures: &[AsMeasures]) -> f64 {
    if measures.is_empty() {
        return 0.0;
    }
    measures.iter().filter(|m| m.hull_area == 0.0).count() as f64 / measures.len() as f64
}

/// Figure 10: size measures vs convex hull (log10 axes; zero-area hulls
/// are plotted at 0 like the paper's log10(size of hull) floor).
pub fn fig10(measures: &[AsMeasures]) -> FigureData {
    let log_hull = |a: f64| if a > 1.0 { a.log10() } else { 0.0 };
    let log = |v: usize| (v.max(1) as f64).log10();
    let scatter = |label: &str, points: Vec<(f64, f64)>| Panel {
        label: label.to_string(),
        series: vec![Series {
            label: label.to_string(),
            points,
        }],
        fit: None,
        axes: "log10(measure) vs log10(hull area)".into(),
    };
    FigureData {
        id: "Figure 10".into(),
        title: "Scatterplots of Size Measures vs Convex Hull (World)".into(),
        panels: vec![
            scatter(
                "Degree vs CH",
                measures
                    .iter()
                    .filter(|m| m.degree > 0)
                    .map(|m| (log(m.degree), log_hull(m.hull_area)))
                    .collect(),
            ),
            scatter(
                "Interfaces vs CH",
                measures
                    .iter()
                    .map(|m| (log(m.nodes), log_hull(m.hull_area)))
                    .collect(),
            ),
            scatter(
                "Locations vs CH",
                measures
                    .iter()
                    .map(|m| (log(m.locations), log_hull(m.hull_area)))
                    .collect(),
            ),
        ],
    }
}

/// The dispersal-threshold check behind Figure 10: among ASes above the
/// given location count, the fraction whose hull area exceeds
/// `dispersed_area` (paper: all large ASes are maximally dispersed).
pub fn large_as_dispersal(
    measures: &[AsMeasures],
    min_locations: usize,
    dispersed_area: f64,
) -> Option<f64> {
    let large: Vec<&AsMeasures> = measures
        .iter()
        .filter(|m| m.locations >= min_locations)
        .collect();
    if large.is_empty() {
        return None;
    }
    Some(
        large
            .iter()
            .filter(|m| m.hull_area >= dispersed_area)
            .count() as f64
            / large.len() as f64,
    )
}

/// One row of Table VI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table6Row {
    /// Region name ("World" for the unrestricted row).
    pub region: String,
    /// Interdomain link count.
    pub inter_count: usize,
    /// Mean interdomain link length (miles).
    pub inter_mean_miles: f64,
    /// Intradomain link count.
    pub intra_count: usize,
    /// Mean intradomain link length (miles).
    pub intra_mean_miles: f64,
}

impl Table6Row {
    /// Fraction of links that are intradomain.
    pub(crate) fn intra_fraction(&self) -> f64 {
        let total = self.inter_count + self.intra_count;
        if total == 0 {
            0.0
        } else {
            self.intra_count as f64 / total as f64
        }
    }
}

/// Table VI: inter- vs intradomain links per region. A link counts for a
/// region when both endpoints are inside it; links with an unmapped-AS
/// endpoint are skipped.
pub fn domain_links(dataset: &GeoDataset, regions: &[(String, Option<Region>)]) -> Vec<Table6Row> {
    let mut rows: Vec<Table6Row> = Vec::new();
    for (name, region) in regions {
        let mut inter = (0usize, 0.0f64);
        let mut intra = (0usize, 0.0f64);
        for &(a, b) in &dataset.links {
            let na = &dataset.nodes[a as usize];
            let nb = &dataset.nodes[b as usize];
            if na.asn.is_unmapped() || nb.asn.is_unmapped() {
                continue;
            }
            if let Some(r) = region {
                if !r.contains(&na.location) || !r.contains(&nb.location) {
                    continue;
                }
            }
            let len = dataset.link_length_miles((a, b));
            if na.asn == nb.asn {
                intra.0 += 1;
                intra.1 += len;
            } else {
                inter.0 += 1;
                inter.1 += len;
            }
        }
        rows.push(Table6Row {
            region: name.clone(),
            inter_count: inter.0,
            inter_mean_miles: if inter.0 > 0 {
                inter.1 / inter.0 as f64
            } else {
                0.0
            },
            intra_count: intra.0,
            intra_mean_miles: if intra.0 > 0 {
                intra.1 / intra.0 as f64
            } else {
                0.0
            },
        });
    }
    rows
}

/// The paper's Table VI region list.
pub fn table6_regions() -> Vec<(String, Option<Region>)> {
    vec![
        ("World".to_string(), None),
        ("US".to_string(), Some(RegionSet::us())),
        ("Europe".to_string(), Some(RegionSet::europe())),
        ("Japan".to_string(), Some(RegionSet::japan())),
    ]
}

/// Renders Table VI.
pub fn table6_text(rows: &[Table6Row]) -> TextTable {
    let mut t = TextTable::new(
        "Table VI — Intradomain vs Interdomain Links",
        &[
            "Region",
            "Inter count",
            "Inter mean (mi)",
            "Intra count",
            "Intra mean (mi)",
            "Intra share",
        ],
    );
    for r in rows {
        t.row(&[
            r.region.clone(),
            r.inter_count.to_string(),
            format!("{:.1}", r.inter_mean_miles),
            r.intra_count.to_string(),
            format!("{:.1}", r.intra_mean_miles),
            format!("{:.1}%", 100.0 * r.intra_fraction()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    // Tests assert exact expected values; bitwise float equality is the point.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::pipeline::GeoNode;
    use geotopo_geo::GeoPoint;
    use geotopo_measure::NodeKind;

    fn node(i: u32, lat: f64, lon: f64, asn: u32) -> GeoNode {
        GeoNode {
            ip: std::net::Ipv4Addr::from(0x01000000 + i),
            location: GeoPoint::new(lat, lon).unwrap(),
            asn: AsId(asn),
        }
    }

    fn small_dataset() -> GeoDataset {
        // AS1: three nodes in a US triangle (non-zero hull).
        // AS2: two coincident nodes (zero hull).
        // AS3: one node; unmapped: one node.
        GeoDataset {
            kind: NodeKind::Interface,
            nodes: vec![
                node(0, 40.0, -100.0, 1),
                node(1, 41.0, -100.0, 1),
                node(2, 40.5, -99.0, 1),
                node(3, 34.0, -118.0, 2),
                node(4, 34.0, -118.0, 2),
                node(5, 48.86, 2.35, 3),
                node(6, 50.0, 10.0, 0),
            ],
            links: vec![(0, 1), (1, 2), (0, 3), (3, 4), (2, 5), (5, 6)],
            stats: Default::default(),
        }
    }

    #[test]
    fn measures_per_as() {
        let d = small_dataset();
        let m = as_measures(&d);
        assert_eq!(m.len(), 3); // unmapped AS omitted
        let as1 = m.iter().find(|x| x.asn == AsId(1)).unwrap();
        assert_eq!(as1.nodes, 3);
        assert_eq!(as1.locations, 3);
        // AS1 neighbors: AS2 (link 0-3) and AS3 (link 2-5).
        assert_eq!(as1.degree, 2);
        assert!(as1.hull_area > 1000.0, "hull {}", as1.hull_area);
        let as2 = m.iter().find(|x| x.asn == AsId(2)).unwrap();
        assert_eq!(as2.nodes, 2);
        assert_eq!(as2.locations, 1);
        assert_eq!(as2.hull_area, 0.0);
        let as3 = m.iter().find(|x| x.asn == AsId(3)).unwrap();
        // AS3's only in-graph neighbours: AS1; the link to the unmapped
        // node does not count.
        assert_eq!(as3.degree, 1);
    }

    #[test]
    fn zero_hull_fraction_counts() {
        let d = small_dataset();
        let m = as_measures(&d);
        let f = zero_hull_fraction(&m);
        assert!((f - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn region_restricted_hulls() {
        let d = small_dataset();
        let us = hull_areas_in_region(&d, &RegionSet::us());
        // AS1 (3 nodes) and AS2 (2 coincident) have US presence.
        assert_eq!(us.len(), 2);
        assert_eq!(us[0], 0.0);
        assert!(us[1] > 0.0);
        let eu = hull_areas_in_region(&d, &RegionSet::europe());
        assert_eq!(eu.len(), 1); // AS3 only (AS0 unmapped skipped)
    }

    #[test]
    fn domain_links_classify() {
        let d = small_dataset();
        let rows = domain_links(&d, &table6_regions());
        let world = &rows[0];
        // Links with unmapped endpoint (5-6) skipped: 5 remain.
        assert_eq!(world.inter_count + world.intra_count, 5);
        // Intra: (0,1), (1,2), (3,4) = 3; inter: (0,3), (2,5) = 2.
        assert_eq!(world.intra_count, 3);
        assert_eq!(world.inter_count, 2);
        assert!(world.inter_mean_miles > world.intra_mean_miles);
        let us = &rows[1];
        // US-internal links only: (0,1), (1,2), (3,4), (0,3).
        assert_eq!(us.intra_count, 3);
        assert_eq!(us.inter_count, 1);
    }

    #[test]
    fn fig7_ccdfs_have_points() {
        let d = small_dataset();
        let m = as_measures(&d);
        let f = fig7(&m);
        assert_eq!(f.panels.len(), 3);
        assert!(!f.panels[0].series[0].points.is_empty());
    }

    #[test]
    fn fig8_correlations_positive_for_aligned_measures() {
        // Construct ASes where size measures align perfectly.
        let mut nodes = Vec::new();
        let mut links = Vec::new();
        let mut id = 0u32;
        for asn in 1..=6u32 {
            let count = asn as usize * 2;
            let first = id;
            for k in 0..count {
                nodes.push(node(id, 30.0 + k as f64, -120.0 + asn as f64 * 3.0, asn));
                if id > first {
                    links.push((id - 1, id));
                }
                id += 1;
            }
        }
        // Chain ASes so degree grows with index.
        // AS k links to all ASes < k via their first nodes.
        let d = GeoDataset {
            kind: NodeKind::Interface,
            nodes,
            links,
            stats: Default::default(),
        };
        let m = as_measures(&d);
        let (_, [r_if_lo, _, _]) = fig8(&m);
        assert!(r_if_lo.unwrap() > 0.9, "r {:?}", r_if_lo);
    }

    #[test]
    fn fig9_and_fig10_render() {
        let d = small_dataset();
        let m = as_measures(&d);
        let f9 = fig9(&d, &m);
        assert_eq!(f9.panels.len(), 3);
        let f10 = fig10(&m);
        assert_eq!(f10.panels.len(), 3);
        assert!(f10.render().contains("Figure 10"));
    }

    #[test]
    fn dispersal_threshold() {
        let d = small_dataset();
        let m = as_measures(&d);
        assert_eq!(large_as_dispersal(&m, 100, 1e6), None);
        let all = large_as_dispersal(&m, 1, 0.0).unwrap();
        assert!((all - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table6_renders() {
        let d = small_dataset();
        let rows = domain_links(&d, &table6_regions());
        let t = table6_text(&rows);
        let s = t.render();
        assert!(s.contains("World") && s.contains("Japan"));
    }
}
