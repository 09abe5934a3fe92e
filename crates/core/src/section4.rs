//! Section IV — Routers and Population.
//!
//! - [`table3`]: people/interface and online-users/interface across the
//!   economic regions (the >100× vs ~4× spread).
//! - [`table4`]: the homogeneity test (Northern US vs Southern US vs
//!   Central America).
//! - [`fig2`]: per-patch log-log regression of node count against
//!   population count for the three homogeneous study regions, with the
//!   superlinear fitted slope.

use crate::pipeline::GeoDataset;
use crate::report::{FigureData, Panel, Series, TextTable};
use geotopo_geo::{PatchGrid, Region, RegionSet};
use geotopo_population::{PopulationGrid, WorldModel};
use geotopo_stats::{fit_line, LinearFit};
use serde::{Deserialize, Serialize};

/// One row of Table III.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Region name.
    pub region: String,
    /// Population (persons).
    pub population: f64,
    /// Nodes mapped into the region.
    pub nodes: usize,
    /// People per node.
    pub people_per_node: f64,
    /// Online users (persons).
    pub online: f64,
    /// Online users per node.
    pub online_per_node: f64,
}

/// Table III: variation in people/interface density across regions.
pub fn table3(dataset: &GeoDataset, world: &WorldModel) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    let mut world_nodes = 0usize;
    for profile in &world.regions {
        let nodes = dataset
            .nodes
            .iter()
            .filter(|n| profile.region.contains(&n.location))
            .count();
        world_nodes += nodes;
        rows.push(Table3Row {
            region: profile.region.name.clone(),
            population: profile.population,
            nodes,
            people_per_node: safe_div(profile.population, nodes),
            online: profile.online_users,
            online_per_node: safe_div(profile.online_users, nodes),
        });
    }
    // World row: totals over modelled regions; node count over the whole
    // dataset (as in the paper, where World is the full dataset).
    rows.push(Table3Row {
        region: "World".into(),
        population: world.total_population(),
        nodes: dataset.num_nodes().max(world_nodes),
        people_per_node: safe_div(world.total_population(), dataset.num_nodes()),
        online: world.total_online(),
        online_per_node: safe_div(world.total_online(), dataset.num_nodes()),
    });
    rows
}

/// The headline ratios of Table III: (max/min people-per-node,
/// max/min online-per-node) across regions with any nodes.
pub fn table3_spreads(rows: &[Table3Row]) -> (f64, f64) {
    let regional: Vec<&Table3Row> = rows
        .iter()
        .filter(|r| r.region != "World" && r.nodes > 0)
        .collect();
    let spread = |f: fn(&Table3Row) -> f64| -> f64 {
        let vals: Vec<f64> = regional.iter().map(|r| f(r)).collect();
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        if min > 0.0 {
            max / min
        } else {
            f64::INFINITY
        }
    };
    (spread(|r| r.people_per_node), spread(|r| r.online_per_node))
}

/// Renders Table III.
pub fn table3_text(rows: &[Table3Row]) -> TextTable {
    let mut t = TextTable::new(
        "Table III — Variation in people/interface density across regions",
        &[
            "Region",
            "Population (M)",
            "Nodes",
            "People per node",
            "Online (M)",
            "Online per node",
        ],
    );
    for r in rows {
        t.row(&[
            r.region.clone(),
            format!("{:.0}", r.population / 1e6),
            r.nodes.to_string(),
            format!("{:.0}", r.people_per_node),
            format!("{:.2}", r.online / 1e6),
            format!("{:.0}", r.online_per_node),
        ]);
    }
    t
}

/// The northern share of the US population when no realized grid is
/// available (the real-world census split of the box at 37.5°N).
pub const NOMINAL_US_NORTH_SHARE: f64 = 0.56;

/// Table IV: the homogeneity test over US subregions vs Central America.
///
/// `us_north_share` is the fraction of the US box population in the
/// northern subregion (north of 37.5°N). For synthetic worlds it must be
/// *measured* from the realized population grid
/// (`PopulationGrid::total_within`) — the city draw makes the split
/// seed-dependent, and assuming the nominal census split would charge
/// placement homogeneity with population-synthesis variance. For
/// real-world data use [`NOMINAL_US_NORTH_SHARE`].
pub fn table4(dataset: &GeoDataset, world: &WorldModel, us_north_share: f64) -> Vec<Table3Row> {
    let usa = world.profile("USA").expect("world model has USA");
    let mexico = world.profile("Mexico").expect("world model has Mexico");
    let n = us_north_share.clamp(0.0, 1.0);
    let s = 1.0 - n;
    let subregions: [(Region, f64, f64); 3] = [
        (
            RegionSet::northern_us(),
            usa.population * n,
            usa.online_users * n,
        ),
        (
            RegionSet::southern_us(),
            usa.population * s,
            usa.online_users * s,
        ),
        (
            RegionSet::central_america(),
            mexico.population,
            mexico.online_users,
        ),
    ];
    subregions
        .into_iter()
        .map(|(region, population, online)| {
            let nodes = dataset
                .nodes
                .iter()
                .filter(|n| region.contains(&n.location))
                .count();
            Table3Row {
                region: region.name.clone(),
                population,
                nodes,
                people_per_node: safe_div(population, nodes),
                online,
                online_per_node: safe_div(online, nodes),
            }
        })
        .collect()
}

/// Renders Table IV.
pub fn table4_text(rows: &[Table3Row]) -> TextTable {
    let mut t = TextTable::new(
        "Table IV — Testing for homogeneity",
        &["Region", "Population (M)", "Nodes", "People per node"],
    );
    for r in rows {
        t.row(&[
            r.region.clone(),
            format!("{:.0}", r.population / 1e6),
            r.nodes.to_string(),
            format!("{:.0}", r.people_per_node),
        ]);
    }
    t
}

/// One Figure 2 panel: per-patch (log10 population, log10 node count)
/// points and the fitted line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Panel {
    /// Region name.
    pub region: String,
    /// (log10 population, log10 nodes) per patch with both non-zero.
    pub points: Vec<(f64, f64)>,
    /// Least-squares fit (the superlinear slope α).
    pub fit: Option<LinearFit>,
}

/// Figure 2 analysis for one region.
///
/// Subdivides the region into 75-arcmin patches, tallies population and
/// mapped nodes per patch, and fits `log10(count)` on `log10(pop)`.
pub fn fig2_region(
    dataset: &GeoDataset,
    population: &PopulationGrid,
    region: &Region,
) -> Fig2Panel {
    let grid = PatchGrid::paper_grid(region.clone()).expect("paper regions are valid");
    let pop = population.tally_onto(&grid);
    let counts = grid.tally(
        dataset
            .nodes
            .iter()
            .map(|n| n.location)
            .filter(|p| region.contains(p)),
    );
    let mut points = Vec::new();
    for i in 0..grid.len() {
        if pop[i] > 0.0 && counts[i] > 0 {
            points.push((pop[i].log10(), (counts[i] as f64).log10()));
        }
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().cloned().unzip();
    let fit = fit_line(&xs, &ys).ok();
    Fig2Panel {
        region: region.name.clone(),
        points,
        fit,
    }
}

/// Assembles the full Figure 2 data for a dataset (3 regions).
pub fn fig2(
    dataset: &GeoDataset,
    pops: &[(Region, PopulationGrid)],
    dataset_label: &str,
) -> FigureData {
    let panels = pops
        .iter()
        .map(|(region, pop)| {
            let p = fig2_region(dataset, pop, region);
            Panel {
                label: format!("{} ({})", p.region, dataset_label),
                series: vec![Series {
                    label: "patches".into(),
                    points: p.points.clone(),
                }],
                fit: p.fit,
                axes: "log10(population) vs log10(node count)".into(),
            }
        })
        .collect();
    FigureData {
        id: "Figure 2".into(),
        title: "Router/Interface Density vs Population Density".into(),
        panels,
    }
}

fn safe_div(num: f64, den: usize) -> f64 {
    if den == 0 {
        f64::INFINITY
    } else {
        num / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::GeoNode;
    use geotopo_bgp::AsId;
    use geotopo_geo::GeoPoint;
    use geotopo_measure::NodeKind;
    use geotopo_population::SyntheticPopulation;

    /// A dataset with `n` nodes at the given locations.
    fn dataset(locs: &[(f64, f64)]) -> GeoDataset {
        GeoDataset {
            kind: NodeKind::Interface,
            nodes: locs
                .iter()
                .enumerate()
                .map(|(i, &(lat, lon))| GeoNode {
                    ip: std::net::Ipv4Addr::from(0x01000000 + i as u32),
                    location: GeoPoint::new(lat, lon).unwrap(),
                    asn: AsId(1),
                })
                .collect(),
            links: vec![],
            stats: Default::default(),
        }
    }

    #[test]
    fn table3_counts_by_region() {
        let world = WorldModel::paper();
        // Two nodes in the US, one in Japan.
        let d = dataset(&[(40.0, -100.0), (41.0, -101.0), (35.7, 139.7)]);
        let rows = table3(&d, &world);
        let usa = rows.iter().find(|r| r.region == "USA").unwrap();
        assert_eq!(usa.nodes, 2);
        assert!((usa.people_per_node - 299e6 / 2.0).abs() < 1.0);
        let japan = rows.iter().find(|r| r.region == "Japan").unwrap();
        assert_eq!(japan.nodes, 1);
        let world_row = rows.last().unwrap();
        assert_eq!(world_row.region, "World");
        assert_eq!(world_row.nodes, 3);
    }

    #[test]
    fn table3_spreads_computed() {
        let world = WorldModel::paper();
        let d = dataset(&[(40.0, -100.0), (41.0, -101.0), (35.7, 139.7)]);
        let rows = table3(&d, &world);
        let (people_spread, online_spread) = table3_spreads(&rows);
        // USA: 149.5M per node; Japan: 136M per node → spread ~1.1 here.
        assert!(people_spread >= 1.0);
        assert!(online_spread >= 1.0);
    }

    #[test]
    fn table4_rows_cover_subregions() {
        let world = WorldModel::paper();
        let d = dataset(&[(45.0, -100.0), (30.0, -100.0), (20.0, -100.0)]);
        let rows = table4(&d, &world, NOMINAL_US_NORTH_SHARE);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].nodes, 1); // northern
        assert_eq!(rows[1].nodes, 1); // southern
        assert_eq!(rows[2].nodes, 1); // central america
    }

    #[test]
    fn fig2_recovers_superlinearity_end_to_end() {
        // Build a population grid, place nodes ∝ pop^1.5, and verify the
        // fitted slope is clearly superlinear.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let region = RegionSet::japan();
        let pop = SyntheticPopulation::developed(region.clone(), 136e6)
            .generate(11)
            .unwrap();
        let sampler = pop.point_sampler(1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let locs: Vec<(f64, f64)> = (0..8000)
            .map(|_| {
                let p = sampler.sample(&mut rng);
                (p.lat(), p.lon())
            })
            .collect();
        let d = dataset(&locs);
        let panel = fig2_region(&d, &pop, &region);
        let fit = panel.fit.expect("enough patches");
        assert!(
            fit.slope > 1.1 && fit.slope < 2.0,
            "slope {} not superlinear",
            fit.slope
        );
        assert!(panel.points.len() > 30);
    }

    #[test]
    fn fig2_linear_placement_gives_slope_near_one() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let region = RegionSet::japan();
        let pop = SyntheticPopulation::developed(region.clone(), 136e6)
            .generate(13)
            .unwrap();
        let sampler = pop.point_sampler(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let locs: Vec<(f64, f64)> = (0..8000)
            .map(|_| {
                let p = sampler.sample(&mut rng);
                (p.lat(), p.lon())
            })
            .collect();
        let d = dataset(&locs);
        let fit = fig2_region(&d, &pop, &region).fit.unwrap();
        assert!((fit.slope - 1.0).abs() < 0.25, "slope {}", fit.slope);
    }

    #[test]
    fn empty_dataset_has_no_fit() {
        let region = RegionSet::us();
        let pop = SyntheticPopulation::developed(region.clone(), 1e6)
            .generate(1)
            .unwrap();
        let d = dataset(&[]);
        let panel = fig2_region(&d, &pop, &region);
        assert!(panel.fit.is_none());
        assert!(panel.points.is_empty());
    }

    #[test]
    fn tables_render() {
        let world = WorldModel::paper();
        let d = dataset(&[(40.0, -100.0)]);
        let t3 = table3_text(&table3(&d, &world));
        assert!(t3.render().contains("USA"));
        let t4 = table4_text(&table4(&d, &world, NOMINAL_US_NORTH_SHARE));
        assert!(t4.render().contains("Northern US"));
    }
}
