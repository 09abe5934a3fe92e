//! The experiment registry: one entry per table and figure.
//!
//! Each experiment consumes a [`PipelineOutput`] and produces an
//! [`ExperimentResult`] holding a rendered text block (the shape the
//! paper prints) and a JSON value with the raw data. [`run_all`] executes
//! the entire paper, appendix included, computing each intermediate that
//! several results read (the Section V distance preferences and the
//! Section VI AS measures) once and sharing it.

use crate::ascii_map;
use crate::fractal;
use crate::pipeline::{Collector, GeoDataset, MapperKind, PipelineOutput};
use crate::report::{FigureData, Panel, Series, TextTable};
use crate::section4;
use crate::section5::{self, DistancePreference, RegionBins};
use crate::section6;
use geotopo_geo::{Region, RegionSet};
use geotopo_population::{PopulationGrid, WorldModel};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A finished experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
// analyze: allow(dead-pub): every experiment entry returns this record; callers read fields via inference
pub struct ExperimentResult {
    /// Short id ("table1", "fig5", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Rendered text.
    pub text: String,
    /// Raw data for re-plotting.
    pub json: serde_json::Value,
}

/// The intermediates several experiments read, each computed on first
/// use and then shared: the distance preferences of every (mapper,
/// collector) dataset over [`RegionBins::paper`] (Figures 4–6 and 12–14,
/// both Tables V) and the AS measures of both Skitter datasets (Figures
/// 7–10 and 15–17, robustness). One instance serves a whole [`run_all`];
/// each public entry point builds its own, so it computes only what it
/// reads.
struct Shared<'a> {
    out: &'a PipelineOutput,
    /// Indexed by mapper, then collector.
    preferences: [[OnceLock<Vec<DistancePreference>>; 2]; 2],
    /// Indexed by mapper.
    skitter_measures: [OnceLock<Vec<section6::AsMeasures>>; 2],
}

impl<'a> Shared<'a> {
    fn new(out: &'a PipelineOutput) -> Self {
        Shared {
            out,
            preferences: Default::default(),
            skitter_measures: Default::default(),
        }
    }

    /// The distance preference of one dataset, one per study region.
    fn preferences(&self, mapper: MapperKind, collector: Collector) -> &[DistancePreference] {
        self.preferences[mapper as usize][collector as usize].get_or_init(|| {
            let ds = &self.out.dataset(mapper, collector).dataset;
            RegionBins::paper()
                .iter()
                .map(|bins| section5::distance_preference(ds, bins, false))
                .collect()
        })
    }

    /// The per-AS measures of one mapper's Skitter dataset.
    fn skitter_measures(&self, mapper: MapperKind) -> &[section6::AsMeasures] {
        self.skitter_measures[mapper as usize].get_or_init(|| {
            section6::as_measures(&self.out.dataset(mapper, Collector::Skitter).dataset)
        })
    }
}

/// One experiment job: a pure function of the pipeline output and the
/// intermediates shared across jobs.
type ExperimentJob = fn(&Shared<'_>) -> ExperimentResult;

/// The full paper as an ordered job list (appendix included). Jobs only
/// share intermediates that are pure functions of the pipeline output, so
/// [`run_all`] can fan them out across workers without changing the
/// result.
fn paper_jobs() -> [ExperimentJob; 25] {
    use MapperKind::{EdgeScape, IxMapper};
    [
        |s| table1(s.out),
        |_| table2(),
        |s| table3(s.out),
        |s| table4(s.out),
        |s| fig1(s.out),
        |s| fig2(s.out, IxMapper),
        |s| fig4_from(s, IxMapper),
        |s| fig5_from(s, IxMapper),
        |s| fig6_from(s, IxMapper),
        |s| table5_from(s, IxMapper),
        fig7_from,
        fig8_from,
        fig9_from,
        fig10_from,
        |s| table6(s.out),
        |s| fractal_dimension(s.out),
        robustness_from,
        |s| relabel(fig2(s.out, EdgeScape), "fig11", "Figure 11 (EdgeScape)"),
        |s| relabel(fig4_from(s, EdgeScape), "fig12", "Figure 12 (EdgeScape)"),
        |s| relabel(fig5_from(s, EdgeScape), "fig13", "Figure 13 (EdgeScape)"),
        |s| relabel(fig6_from(s, EdgeScape), "fig14", "Figure 14 (EdgeScape)"),
        |s| relabel(table5_from(s, EdgeScape), "table5es", "Table V (EdgeScape)"),
        fig15_from,
        fig16_from,
        fig17_from,
    ]
}

/// Runs every experiment in paper order (appendix included).
///
/// Experiments are independent, so they are dispatched across the
/// engine's worker pool (`GEOTOPO_THREADS`, defaulting to available
/// parallelism); results always come back in paper order regardless of
/// how the jobs interleave. The intermediates several experiments read
/// are computed once per call, by whichever job needs them first.
pub fn run_all(out: &PipelineOutput) -> Vec<ExperimentResult> {
    let shared = Shared::new(out);
    let jobs = paper_jobs();
    let threads = crate::engine::resolve_threads(0);
    crate::engine::parallel_map(threads, jobs.len(), |i| jobs[i](&shared))
}

/// Figure 15: AS size distributions under EdgeScape.
pub fn fig15(out: &PipelineOutput) -> ExperimentResult {
    fig15_from(&Shared::new(out))
}

fn fig15_from(s: &Shared<'_>) -> ExperimentResult {
    let f15 = section6::fig7(s.skitter_measures(MapperKind::EdgeScape));
    ExperimentResult {
        id: "fig15".into(),
        title: "Figure 15 — AS size distributions (EdgeScape)".into(),
        text: f15.render(),
        json: f15.to_json(),
    }
}

/// Figure 16: AS size scatterplots under EdgeScape.
pub fn fig16(out: &PipelineOutput) -> ExperimentResult {
    fig16_from(&Shared::new(out))
}

fn fig16_from(s: &Shared<'_>) -> ExperimentResult {
    let (f16, corr) = section6::fig8(s.skitter_measures(MapperKind::EdgeScape));
    ExperimentResult {
        id: "fig16".into(),
        title: "Figure 16 — AS size scatterplots (EdgeScape)".into(),
        text: format!("{}\ncorrelations: {corr:?}\n", f16.render()),
        json: f16.to_json(),
    }
}

/// Figure 17: size vs convex hull under EdgeScape.
pub fn fig17(out: &PipelineOutput) -> ExperimentResult {
    fig17_from(&Shared::new(out))
}

fn fig17_from(s: &Shared<'_>) -> ExperimentResult {
    let f17 = section6::fig10(s.skitter_measures(MapperKind::EdgeScape));
    ExperimentResult {
        id: "fig17".into(),
        title: "Figure 17 — size vs convex hull (EdgeScape)".into(),
        text: f17.render(),
        json: f17.to_json(),
    }
}

fn relabel(mut r: ExperimentResult, id: &str, title: &str) -> ExperimentResult {
    r.id = id.into();
    r.title = title.into();
    r
}

/// Table I: sizes of the four processed datasets.
pub fn table1(out: &PipelineOutput) -> ExperimentResult {
    let mut t = TextTable::new(
        "Table I — Sizes of processed datasets",
        &[
            "Dataset",
            "No. of Nodes",
            "No. of Links",
            "No. of Locations",
        ],
    );
    for d in &out.datasets {
        t.row(&[
            format!("{}, {}", d.mapper, d.collector),
            d.dataset.num_nodes().to_string(),
            d.dataset.num_links().to_string(),
            d.dataset.num_locations().to_string(),
        ]);
    }
    ExperimentResult {
        id: "table1".into(),
        title: "Table I — Sizes of processed datasets".into(),
        text: t.render(),
        json: t.to_json(),
    }
}

/// Table II: region boundaries (constants).
pub fn table2() -> ExperimentResult {
    let mut t = TextTable::new(
        "Table II — Boundaries of regions studied",
        &["Name", "North", "South", "West", "East"],
    );
    for r in RegionSet::study_regions() {
        t.row(&[
            r.name.clone(),
            format!("{}", r.north),
            format!("{}", r.south),
            format!("{}", r.west),
            format!("{}", r.east),
        ]);
    }
    ExperimentResult {
        id: "table2".into(),
        title: "Table II — Boundaries of regions studied".into(),
        text: t.render(),
        json: t.to_json(),
    }
}

/// Table III: people/interface density across economic regions
/// (Skitter + IxMapper, as in the paper).
pub fn table3(out: &PipelineOutput) -> ExperimentResult {
    let world = WorldModel::paper();
    let ds = &out
        .dataset(MapperKind::IxMapper, Collector::Skitter)
        .dataset;
    let rows = section4::table3(ds, &world);
    let (people_spread, online_spread) = section4::table3_spreads(&rows);
    let mut text = section4::table3_text(&rows).render();
    text.push_str(&format!(
        "\npeople-per-node spread: {people_spread:.1}x; online-per-node spread: {online_spread:.1}x\n"
    ));
    ExperimentResult {
        id: "table3".into(),
        title: "Table III — Variation in people/interface density".into(),
        text,
        json: serde_json::json!({
            "rows": rows,
            "people_spread": people_spread,
            "online_spread": online_spread,
        }),
    }
}

/// Table IV: the homogeneity test.
pub fn table4(out: &PipelineOutput) -> ExperimentResult {
    let world = WorldModel::paper();
    let ds = &out
        .dataset(MapperKind::IxMapper, Collector::Skitter)
        .dataset;
    let rows = section4::table4(ds, &world, us_north_share(out));
    ExperimentResult {
        id: "table4".into(),
        title: "Table IV — Testing for homogeneity".into(),
        text: section4::table4_text(&rows).render(),
        json: serde_json::json!({ "rows": rows }),
    }
}

/// Measures the realized northern share of the US box population from the
/// world that actually generated `out`. Table IV tests *placement*
/// homogeneity, so the population denominator must come from the realized
/// synthetic grid, not the nominal census split — the city draw moves the
/// north/south split around from seed to seed.
fn us_north_share(out: &PipelineOutput) -> f64 {
    let gt = &out.ground_truth;
    gt.config
        .regions
        .iter()
        .position(|rp| rp.economic.region.name == "USA")
        .and_then(|i| gt.population_grid(i).ok())
        .map(|grid| {
            let total = grid.total();
            if total > 0.0 {
                grid.total_within(&RegionSet::northern_us()) / total
            } else {
                section4::NOMINAL_US_NORTH_SHARE
            }
        })
        .unwrap_or(section4::NOMINAL_US_NORTH_SHARE)
}

/// Figure 1: ASCII density maps of the three study regions
/// (Skitter + IxMapper).
pub fn fig1(out: &PipelineOutput) -> ExperimentResult {
    let ds = &out
        .dataset(MapperKind::IxMapper, Collector::Skitter)
        .dataset;
    let mut text = String::from("Figure 1 — Regions studied (node density)\n\n");
    for region in RegionSet::study_regions() {
        text.push_str(&ascii_map::render_region(ds, &region, 100));
        text.push('\n');
    }
    ExperimentResult {
        id: "fig1".into(),
        title: "Figure 1 — Regions studied".into(),
        text,
        json: serde_json::json!({}),
    }
}

/// The three study-region population grids, regenerated from the ground
/// truth (our "CIESIN data").
pub(crate) fn study_population_grids(out: &PipelineOutput) -> Vec<(Region, PopulationGrid)> {
    let gt = &out.ground_truth;
    let mut grids = Vec::new();
    for (name, region) in [
        ("USA", RegionSet::us()),
        ("W. Europe", RegionSet::europe()),
        ("Japan", RegionSet::japan()),
    ] {
        let idx = gt
            .config
            .regions
            .iter()
            .position(|r| r.economic.region.name == name)
            .expect("paper config includes study regions");
        let grid = gt.population_grid(idx).expect("regeneration succeeds");
        grids.push((region, grid));
    }
    grids
}

/// Figure 2: node density vs population density, both collectors.
/// The text report annotates each fitted slope with a 95% bootstrap
/// confidence interval (pair resampling, deterministic seed).
pub fn fig2(out: &PipelineOutput, mapper: MapperKind) -> ExperimentResult {
    use rand::SeedableRng;
    let pops = study_population_grids(out);
    let mut panels = Vec::new();
    let mut ci_lines = String::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF162);
    for collector in [Collector::Mercator, Collector::Skitter] {
        let ds = &out.dataset(mapper, collector).dataset;
        let fig = section4::fig2(ds, &pops, &collector.to_string());
        for panel in &fig.panels {
            let (xs, ys): (Vec<f64>, Vec<f64>) = panel.series[0].points.iter().cloned().unzip();
            if let Some(ci) = geotopo_stats::bootstrap_slope_ci(&xs, &ys, 300, 0.95, &mut rng) {
                ci_lines.push_str(&format!(
                    "  {}: slope {:.3} (95% CI [{:.3}, {:.3}])\n",
                    panel.label, ci.slope, ci.lo, ci.hi
                ));
            }
        }
        panels.extend(fig.panels);
    }
    let fig = FigureData {
        id: "Figure 2".into(),
        title: format!("Router/Interface Density vs Population Density ({mapper})"),
        panels,
    };
    ExperimentResult {
        id: "fig2".into(),
        title: fig.title.clone(),
        text: format!("{}\nbootstrap slope CIs:\n{ci_lines}", fig.render()),
        json: fig.to_json(),
    }
}

/// Figure 4: the empirical distance preference function, both collectors.
pub fn fig4(out: &PipelineOutput, mapper: MapperKind) -> ExperimentResult {
    fig4_from(&Shared::new(out), mapper)
}

fn fig4_from(s: &Shared<'_>, mapper: MapperKind) -> ExperimentResult {
    let mut panels = Vec::new();
    for collector in [Collector::Mercator, Collector::Skitter] {
        let fig = section5::fig4(s.preferences(mapper, collector), &collector.to_string());
        panels.extend(fig.panels);
    }
    let fig = FigureData {
        id: "Figure 4".into(),
        title: format!("Empirical Distance Preference Function ({mapper})"),
        panels,
    };
    ExperimentResult {
        id: "fig4".into(),
        title: fig.title.clone(),
        text: fig.render(),
        json: fig.to_json(),
    }
}

/// Figure 5: small-d semi-log views with exponential fits.
pub fn fig5(out: &PipelineOutput, mapper: MapperKind) -> ExperimentResult {
    fig5_from(&Shared::new(out), mapper)
}

fn fig5_from(s: &Shared<'_>, mapper: MapperKind) -> ExperimentResult {
    let mut panels = Vec::new();
    for collector in [Collector::Mercator, Collector::Skitter] {
        for dp in s.preferences(mapper, collector) {
            let (points, fit) = section5::fig5_fit(dp);
            panels.push(Panel {
                label: format!("{} ({collector})", dp.region),
                series: vec![Series {
                    label: "ln f(d)".into(),
                    points,
                }],
                fit,
                axes: "d (miles) vs ln f(d)".into(),
            });
        }
    }
    let fig = FigureData {
        id: "Figure 5".into(),
        title: format!("Distance Preference, Small d, Semi-Log ({mapper})"),
        panels,
    };
    ExperimentResult {
        id: "fig5".into(),
        title: fig.title.clone(),
        text: fig.render(),
        json: fig.to_json(),
    }
}

/// Figure 6: cumulated preference over large d with linear fits.
pub fn fig6(out: &PipelineOutput, mapper: MapperKind) -> ExperimentResult {
    fig6_from(&Shared::new(out), mapper)
}

fn fig6_from(s: &Shared<'_>, mapper: MapperKind) -> ExperimentResult {
    let mut panels = Vec::new();
    for collector in [Collector::Mercator, Collector::Skitter] {
        for dp in s.preferences(mapper, collector) {
            let (points, fit) = section5::fig6_cumulated(dp);
            panels.push(Panel {
                label: format!("{} ({collector})", dp.region),
                series: vec![Series {
                    label: "F(d)".into(),
                    points,
                }],
                fit,
                axes: "d (miles) vs F(d)".into(),
            });
        }
    }
    let fig = FigureData {
        id: "Figure 6".into(),
        title: format!("Cumulated Distance Preference, Large d ({mapper})"),
        panels,
    };
    ExperimentResult {
        id: "fig6".into(),
        title: fig.title.clone(),
        text: fig.render(),
        json: fig.to_json(),
    }
}

/// Table V: limits of distance sensitivity, both collectors.
pub fn table5(out: &PipelineOutput, mapper: MapperKind) -> ExperimentResult {
    table5_from(&Shared::new(out), mapper)
}

fn table5_from(s: &Shared<'_>, mapper: MapperKind) -> ExperimentResult {
    let mut t = TextTable::new(
        "Table V — Limits of distance sensitivity",
        &[
            "Dataset",
            "Region",
            "Limit (mi)",
            "% links < limit",
            "decay αL (mi)",
        ],
    );
    let mut rows_json = Vec::new();
    for collector in [Collector::Mercator, Collector::Skitter] {
        for dp in s.preferences(mapper, collector) {
            if let Some(row) = section5::sensitivity_limit(dp) {
                t.row(&[
                    collector.to_string(),
                    row.region.clone(),
                    format!("{:.0}", row.limit_miles),
                    format!("{:.1}%", 100.0 * row.frac_below),
                    format!("{:.0}", row.decay_miles),
                ]);
                rows_json.push(serde_json::json!({
                    "collector": collector.to_string(),
                    "row": row,
                }));
            }
        }
    }
    ExperimentResult {
        id: "table5".into(),
        title: format!("Table V — Limits of distance sensitivity ({mapper})"),
        text: t.render(),
        json: serde_json::json!({ "rows": rows_json }),
    }
}

/// Figure 7: AS size CCDFs.
pub fn fig7(out: &PipelineOutput) -> ExperimentResult {
    fig7_from(&Shared::new(out))
}

fn fig7_from(s: &Shared<'_>) -> ExperimentResult {
    let fig = section6::fig7(s.skitter_measures(MapperKind::IxMapper));
    ExperimentResult {
        id: "fig7".into(),
        title: fig.title.clone(),
        text: fig.render(),
        json: fig.to_json(),
    }
}

/// Figure 8: AS size-measure scatterplots with correlations.
pub fn fig8(out: &PipelineOutput) -> ExperimentResult {
    fig8_from(&Shared::new(out))
}

fn fig8_from(s: &Shared<'_>) -> ExperimentResult {
    let (fig, corr) = section6::fig8(s.skitter_measures(MapperKind::IxMapper));
    let text = format!(
        "{}\nPearson (log10): interfaces↔locations {:?}, interfaces↔degree {:?}, locations↔degree {:?}\n",
        fig.render(),
        corr[0],
        corr[1],
        corr[2]
    );
    ExperimentResult {
        id: "fig8".into(),
        title: fig.title.clone(),
        text,
        json: serde_json::json!({ "figure": fig.to_json(), "pearson_log10": corr }),
    }
}

/// Figure 9: CDFs of AS convex-hull areas.
pub fn fig9(out: &PipelineOutput) -> ExperimentResult {
    fig9_from(&Shared::new(out))
}

fn fig9_from(s: &Shared<'_>) -> ExperimentResult {
    let ds = &s
        .out
        .dataset(MapperKind::IxMapper, Collector::Skitter)
        .dataset;
    let measures = s.skitter_measures(MapperKind::IxMapper);
    let fig = section6::fig9(ds, measures);
    let zero = section6::zero_hull_fraction(measures);
    ExperimentResult {
        id: "fig9".into(),
        title: fig.title.clone(),
        text: format!(
            "{}\nzero-area AS fraction: {:.1}%\n",
            fig.render(),
            zero * 100.0
        ),
        json: serde_json::json!({ "figure": fig.to_json(), "zero_hull_fraction": zero }),
    }
}

/// Figure 10: size measures vs convex hull.
pub fn fig10(out: &PipelineOutput) -> ExperimentResult {
    fig10_from(&Shared::new(out))
}

fn fig10_from(s: &Shared<'_>) -> ExperimentResult {
    let measures = s.skitter_measures(MapperKind::IxMapper);
    let fig = section6::fig10(measures);
    let dispersal = section6::large_as_dispersal(measures, 20, 1e6);
    ExperimentResult {
        id: "fig10".into(),
        title: fig.title.clone(),
        text: format!(
            "{}\nfraction of ≥20-location ASes with ≥1M sq-mi hulls: {dispersal:?}\n",
            fig.render()
        ),
        json: serde_json::json!({ "figure": fig.to_json(), "large_as_dispersal": dispersal }),
    }
}

/// Table VI: inter- vs intradomain links.
pub fn table6(out: &PipelineOutput) -> ExperimentResult {
    let ds = &out
        .dataset(MapperKind::IxMapper, Collector::Skitter)
        .dataset;
    let rows = section6::domain_links(ds, &section6::table6_regions());
    ExperimentResult {
        id: "table6".into(),
        title: "Table VI — Intradomain vs Interdomain Links".into(),
        text: section6::table6_text(&rows).render(),
        json: serde_json::json!({ "rows": rows }),
    }
}

/// Quantified Appendix robustness: two-sample Kolmogorov–Smirnov tests
/// between the IxMapper and EdgeScape views of the same measurement.
/// The paper argues robustness by replotting; here the distributions the
/// figures are built from are compared directly. Perfect agreement is
/// not expected (the tools have different error models — that is the
/// point); what matters is that the KS distances are small.
pub fn robustness(out: &PipelineOutput) -> ExperimentResult {
    robustness_from(&Shared::new(out))
}

fn robustness_from(s: &Shared<'_>) -> ExperimentResult {
    use MapperKind::{EdgeScape, IxMapper};
    let mut t = TextTable::new(
        "Appendix robustness — KS distance between mapper views (Skitter)",
        &["Quantity", "KS statistic", "p-value", "n_eff"],
    );
    let lengths = |mapper| -> Vec<f64> {
        let ds = &s.out.dataset(mapper, Collector::Skitter).dataset;
        ds.links.iter().map(|&l| ds.link_length_miles(l)).collect()
    };
    let as_sizes = |mapper| -> Vec<f64> {
        s.skitter_measures(mapper)
            .iter()
            .map(|m| m.nodes as f64)
            .collect()
    };
    let hulls = |mapper| -> Vec<f64> {
        s.skitter_measures(mapper)
            .iter()
            .map(|m| m.hull_area)
            .collect()
    };

    let mut rows_json = Vec::new();
    for (name, a, b) in [
        ("link lengths", lengths(IxMapper), lengths(EdgeScape)),
        ("AS sizes", as_sizes(IxMapper), as_sizes(EdgeScape)),
        ("hull areas", hulls(IxMapper), hulls(EdgeScape)),
    ] {
        if let Some(ks) = geotopo_stats::ks_two_sample(&a, &b) {
            t.row(&[
                name.to_string(),
                format!("{:.4}", ks.statistic),
                format!("{:.3}", ks.p_value),
                format!("{:.0}", ks.effective_n),
            ]);
            rows_json.push(serde_json::json!({
                "quantity": name,
                "statistic": ks.statistic,
                "p_value": ks.p_value,
            }));
        }
    }
    ExperimentResult {
        id: "robustness".into(),
        title: "Appendix robustness — KS across mappers".into(),
        text: t.render(),
        json: serde_json::json!({ "rows": rows_json }),
    }
}

/// The Section II fractal-dimension confirmation.
pub fn fractal_dimension(out: &PipelineOutput) -> ExperimentResult {
    let ds = &out
        .dataset(MapperKind::IxMapper, Collector::Skitter)
        .dataset;
    let rows = fractal::fractal_dimensions(ds, &RegionSet::study_regions());
    let mut t = TextTable::new(
        "Fractal dimension of mapped nodes (box counting)",
        &["Region", "Dimension", "Scales"],
    );
    for r in &rows {
        match &r.nodes {
            Some(res) => t.row(&[
                r.region.clone(),
                format!("{:.2}", res.dimension),
                format!("{:?}", res.occupied),
            ]),
            None => t.row(&[r.region.clone(), "n/a".into(), String::new()]),
        }
    }
    ExperimentResult {
        id: "fractal".into(),
        title: "Fractal dimension (Section II confirmation)".into(),
        text: t.render(),
        json: serde_json::json!({ "rows": rows }),
    }
}

/// One row of the `faults` sweep: a full pipeline run at one severity,
/// scored against its own (clean, identical) ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
// analyze: allow(dead-pub): rows of the public fault sweep; callers read fields via inference
pub struct FaultSweepPoint {
    /// Fault severity in `[0, 1]` (0 = inert plan).
    pub severity: f64,
    /// Nodes in the mapped IxMapper/Skitter dataset.
    pub nodes: usize,
    /// Links in the mapped dataset.
    pub links: usize,
    /// Median great-circle error (miles) of mapped node locations
    /// against the true router locations.
    pub median_error_miles: f64,
    /// Probes lost to injected packet loss (both collectors).
    pub probes_lost: u64,
    /// Probe retries issued in virtual time (both collectors).
    pub retries: u64,
    /// Skitter monitors that lost their campaign to outage.
    pub failed_monitors: usize,
}

/// Median location error of a mapped dataset against the world it was
/// measured from; nodes whose IP no longer resolves to a router (or that
/// the mapper left unplaced at the origin) still count — distortion is
/// the quantity of interest.
fn median_error_miles(ds: &GeoDataset, gt: &geotopo_topology::generate::GroundTruth) -> f64 {
    let mut errs: Vec<f64> = ds
        .nodes
        .iter()
        .filter_map(|n| {
            let router = gt.topology.router_by_ip(n.ip)?;
            Some(
                gt.topology
                    .router(router)
                    .location
                    .distance_miles(&n.location),
            )
        })
        .collect();
    if errs.is_empty() {
        return 0.0;
    }
    errs.sort_by(f64::total_cmp);
    errs[errs.len() / 2]
}

/// The `faults` experiment: sweeps injected fault severity and reports
/// how the mapped picture degrades — dataset size, median geolocation
/// error, and the injected-and-survived pathology counters. Each
/// severity is a full pipeline run over the *same* world (the fault seed
/// is derived from `seed`, so the sweep is deterministic).
///
/// Not part of [`run_all`]: the paper has no such figure. The
/// `fault_sweep` example and the fault test suite drive it directly.
pub fn fault_severity_sweep(seed: u64, severities: &[f64]) -> ExperimentResult {
    use crate::pipeline::{Pipeline, PipelineConfig};
    let mut points = Vec::with_capacity(severities.len());
    let mut t = TextTable::new(
        "Fault severity vs mapping accuracy (IxMapper/Skitter, tiny world)",
        &[
            "Severity",
            "Nodes",
            "Links",
            "Median err (mi)",
            "Lost",
            "Retries",
            "Failed monitors",
        ],
    );
    for &severity in severities {
        let mut config = PipelineConfig::tiny(seed);
        config.faults = geotopo_measure::FaultConfig::at_severity(severity, seed ^ 0xFA);
        let out = Pipeline::new(config)
            .run()
            .expect("default severities stay above monitor quorum");
        let ds = &out
            .dataset(MapperKind::IxMapper, Collector::Skitter)
            .dataset;
        let faults = &out.skitter.dataset.anomalies.faults;
        let mfaults = &out.mercator.dataset.anomalies.faults;
        let point = FaultSweepPoint {
            severity,
            nodes: ds.num_nodes(),
            links: ds.num_links(),
            median_error_miles: median_error_miles(ds, &out.ground_truth),
            probes_lost: faults.probes_lost + mfaults.probes_lost,
            retries: faults.retries + mfaults.retries,
            failed_monitors: out.skitter.failed_monitors,
        };
        t.row(&[
            format!("{:.2}", point.severity),
            point.nodes.to_string(),
            point.links.to_string(),
            format!("{:.1}", point.median_error_miles),
            point.probes_lost.to_string(),
            point.retries.to_string(),
            point.failed_monitors.to_string(),
        ]);
        points.push(point);
    }
    ExperimentResult {
        id: "faults".into(),
        title: "Fault severity vs mapping accuracy".into(),
        text: t.render(),
        json: serde_json::json!({ "points": points }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};

    fn output() -> PipelineOutput {
        Pipeline::new(PipelineConfig::tiny(3)).run().unwrap()
    }

    #[test]
    fn run_all_produces_every_experiment() {
        let out = output();
        let results = run_all(&out);
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        for want in [
            "table1",
            "table2",
            "table3",
            "table4",
            "fig1",
            "fig2",
            "fig4",
            "fig5",
            "fig6",
            "table5",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "table6",
            "fractal",
            "robustness",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "table5es",
            "fig15",
            "fig16",
            "fig17",
        ] {
            assert!(ids.contains(&want), "missing {want}: {ids:?}");
        }
        for r in &results {
            assert!(!r.text.is_empty(), "{} empty", r.id);
        }
    }

    /// `run_all` shares its intermediates across results; each public
    /// entry point computes its own. Both must give the same result, id
    /// for id, in paper order.
    #[test]
    fn run_all_equals_the_public_entry_points() {
        use MapperKind::{EdgeScape, IxMapper};
        let out = output();
        let per_call = [
            table1(&out),
            table2(),
            table3(&out),
            table4(&out),
            fig1(&out),
            fig2(&out, IxMapper),
            fig4(&out, IxMapper),
            fig5(&out, IxMapper),
            fig6(&out, IxMapper),
            table5(&out, IxMapper),
            fig7(&out),
            fig8(&out),
            fig9(&out),
            fig10(&out),
            table6(&out),
            fractal_dimension(&out),
            robustness(&out),
            relabel(fig2(&out, EdgeScape), "fig11", "Figure 11 (EdgeScape)"),
            relabel(fig4(&out, EdgeScape), "fig12", "Figure 12 (EdgeScape)"),
            relabel(fig5(&out, EdgeScape), "fig13", "Figure 13 (EdgeScape)"),
            relabel(fig6(&out, EdgeScape), "fig14", "Figure 14 (EdgeScape)"),
            relabel(table5(&out, EdgeScape), "table5es", "Table V (EdgeScape)"),
            fig15(&out),
            fig16(&out),
            fig17(&out),
        ];
        let shared = run_all(&out);
        assert_eq!(shared.len(), per_call.len());
        for (a, b) in shared.iter().zip(&per_call) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.title, b.title, "{}", a.id);
            assert_eq!(a.text, b.text, "{}", a.id);
            assert_eq!(a.json.to_string(), b.json.to_string(), "{}", a.id);
        }
    }

    #[test]
    fn table1_lists_four_datasets() {
        let out = output();
        let t = table1(&out);
        assert_eq!(t.json["rows"].as_array().unwrap().len(), 4);
        assert!(t.text.contains("IxMapper, Mercator"));
        assert!(t.text.contains("EdgeScape, Skitter"));
    }

    #[test]
    fn table3_spreads_match_paper_shape() {
        // People-per-node varies far more than online-per-node.
        let out = output();
        let t = table3(&out);
        let people = t.json["people_spread"].as_f64().unwrap();
        let online = t.json["online_spread"].as_f64().unwrap();
        assert!(
            people > 2.0 * online,
            "people spread {people} vs online spread {online}"
        );
    }

    #[test]
    fn fig2_panels_cover_both_collectors_and_regions() {
        // Slope calibration is checked at `small` scale in the
        // integration suite; at tiny scale patches are count-1 dominated
        // and the slope is not meaningful. Here: structure only.
        let out = output();
        let f = fig2(&out, MapperKind::IxMapper);
        let panels = f.json["panels"].as_array().unwrap();
        assert_eq!(panels.len(), 6);
        let us_sk = panels
            .iter()
            .find(|p| p["label"].as_str().unwrap().contains("US (Skitter)"))
            .expect("US Skitter panel");
        assert!(
            !us_sk["series"][0]["points"].as_array().unwrap().is_empty(),
            "US Skitter panel empty"
        );
    }

    #[test]
    fn fault_sweep_reports_degradation() {
        let r = fault_severity_sweep(11, &[0.0, 0.6]);
        assert_eq!(r.id, "faults");
        let pts = r.json["points"].as_array().unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0]["probes_lost"].as_u64().unwrap(), 0);
        assert!(
            pts[1]["probes_lost"].as_u64().unwrap() > 0,
            "severity 0.6 injected no loss"
        );
        assert!(r.text.contains("Severity"));
    }

    #[test]
    fn table5_has_rows() {
        let out = output();
        let t = table5(&out, MapperKind::IxMapper);
        let rows = t.json["rows"].as_array().unwrap();
        assert!(!rows.is_empty(), "no sensitivity limits found");
    }
}
