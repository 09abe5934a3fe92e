//! Section V — Links and Distance.
//!
//! The empirical distance preference function (equation 1):
//!
//! ```text
//! f̂(d) = (# links with length in [d, d+b)) / (# node pairs at distance in [d, d+b))
//! ```
//!
//! - [`distance_preference`] estimates f̂ for one region (Figure 4). The
//!   exact denominator counts every node pair, once per pair of distinct
//!   locations with multiplicity; at scale we use a grid-convolution
//!   estimator (cells of half a bin width; cell pairs contribute `n₁·n₂`
//!   pairs at their centre distance).
//! - [`fig5_fit`] fits `ln f(d)` on `d` over the small-`d` regime — a
//!   straight line means Waxman-form exponential decay (Figure 5).
//! - [`fig6_cumulated`] cumulates f over the large-`d` regime and fits a
//!   straight line — linearity means distance independence (Figure 6).
//! - [`sensitivity_limit`] intersects the exponential fit with the
//!   large-`d` mean to find the distance-sensitivity limit and the share
//!   of links below it (Table V: 75–95%).

use crate::pipeline::GeoDataset;
use crate::report::{FigureData, Panel, Series};
use geotopo_geo::{
    haversine_miles, GeoPoint, PatchCell, PatchGrid, Region, RegionSet, EARTH_RADIUS_MILES,
};
use geotopo_stats::{fit_line, fit_semilog, BinnedRatio, LinearFit};
use serde::{Deserialize, Serialize};

/// Binning parameters per region (the paper's Figure 4 captions).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionBins {
    /// The region analysed.
    pub region: Region,
    /// Bin width in miles (US 35, Europe 15, Japan 11).
    pub bin_miles: f64,
    /// Number of bins (the paper uses 100 everywhere).
    pub n_bins: usize,
    /// Upper end of the "small d" regime in miles (Figure 5's x-ranges).
    pub small_d_miles: f64,
}

impl RegionBins {
    /// The paper's three study regions with their bin sizes.
    pub fn paper() -> Vec<RegionBins> {
        vec![
            RegionBins {
                region: RegionSet::us(),
                bin_miles: 35.0,
                n_bins: 100,
                small_d_miles: 250.0,
            },
            RegionBins {
                region: RegionSet::europe(),
                bin_miles: 15.0,
                n_bins: 100,
                small_d_miles: 300.0,
            },
            RegionBins {
                region: RegionSet::japan(),
                bin_miles: 11.0,
                n_bins: 100,
                small_d_miles: 200.0,
            },
        ]
    }
}

/// The estimated distance preference function for one region.
#[derive(Debug, Clone)]
pub struct DistancePreference {
    /// Region name.
    pub region: String,
    /// Paired link/pair histograms.
    pub binned: BinnedRatio,
    /// Small-d cutoff used downstream.
    pub small_d_miles: f64,
    /// Nodes inside the region.
    pub n_nodes: usize,
    /// Links with both endpoints inside the region.
    pub n_links: usize,
}

/// Estimates f̂(d) for one region.
///
/// `exact_pairs` forces the exact denominator (quadratic in the number of
/// distinct in-region locations); otherwise the grid-convolution
/// approximation is used above 4,000 in-region nodes.
pub fn distance_preference(
    dataset: &GeoDataset,
    bins: &RegionBins,
    exact_pairs: bool,
) -> DistancePreference {
    distance_preference_with_threshold(dataset, bins, exact_pairs, 4000)
}

/// [`distance_preference`] with an explicit node-count threshold above
/// which the grid-convolution denominator is used (exposed for the
/// accuracy ablation bench and tests).
pub fn distance_preference_with_threshold(
    dataset: &GeoDataset,
    bins: &RegionBins,
    exact_pairs: bool,
    grid_threshold: usize,
) -> DistancePreference {
    let region = &bins.region;
    let mut binned = BinnedRatio::new(bins.bin_miles, bins.n_bins);

    // In-region nodes.
    let mut in_region = vec![false; dataset.nodes.len()];
    let mut members = Vec::new();
    for (i, n) in dataset.nodes.iter().enumerate() {
        if region.contains(&n.location) {
            in_region[i] = true;
            members.push(n.location);
        }
    }

    // Numerator: link lengths.
    let mut n_links = 0usize;
    for &(a, b) in &dataset.links {
        if in_region[a as usize] && in_region[b as usize] {
            binned.add_num(dataset.link_length_miles((a, b)));
            n_links += 1;
        }
    }

    // Denominator: node-pair distances.
    if exact_pairs || members.len() <= grid_threshold {
        exact_pair_counts(&members, &mut binned);
    } else {
        grid_pair_counts(bins, &members, &mut binned);
    }

    DistancePreference {
        region: region.name.clone(),
        binned,
        small_d_miles: bins.small_d_miles,
        n_nodes: members.len(),
        n_links,
    }
}

/// Exact denominator: every pair of `members` at its great-circle
/// distance. City-granular mapping stacks many nodes on one point, so the
/// pairs are counted once per pair of distinct locations, with
/// multiplicity `n_u·n_v` (`n_u(n_u−1)/2` within one location). Each
/// distance is the one the per-node-pair loop computes, up to argument
/// order, and `haversine_miles` is bitwise symmetric.
fn exact_pair_counts(members: &[GeoPoint], binned: &mut BinnedRatio) {
    let key = |p: &GeoPoint| (p.lat().to_bits(), p.lon().to_bits());
    let mut sorted = members.to_vec();
    sorted.sort_unstable_by_key(key);
    let mut locations: Vec<(GeoPoint, u64)> = Vec::new();
    for p in sorted {
        match locations.last_mut() {
            Some((q, n)) if key(q) == key(&p) => *n += 1,
            _ => locations.push((p, 1)),
        }
    }
    for (k, &(p, n)) in locations.iter().enumerate() {
        if n > 1 {
            binned.add_den_n(haversine_miles(&p, &p), n * (n - 1) / 2);
        }
        for &(q, m) in &locations[k + 1..] {
            binned.add_den_n(haversine_miles(&p, &q), n * m);
        }
    }
}

/// Grid-convolution denominator: half-bin cells, each occupied cell pair
/// contributing `n₁·n₂` pairs at its centre distance.
fn grid_pair_counts(bins: &RegionBins, members: &[GeoPoint], binned: &mut BinnedRatio) {
    let cell_arcmin = (bins.bin_miles / 2.0) / 69.0 * 60.0;
    let grid = PatchGrid::new(bins.region.clone(), cell_arcmin).expect("valid region");
    let cols = grid.cols();
    let occupied: Vec<(PatchCell, u64)> = grid
        .tally(members.iter().copied())
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .map(|(i, c)| {
            let cell = PatchCell {
                row: i / cols,
                col: i % cols,
            };
            (cell, c)
        })
        .collect();
    let centres = CentreDistances::new(&grid);

    // Mean distance of two uniform points in a square of side s is
    // ≈ 0.5214 s; use it for the in-cell pair distance.
    let cell_miles = bins.bin_miles / 2.0;
    let max_miles = bins.bin_miles * bins.n_bins as f64;
    for (k, &(a, n1)) in occupied.iter().enumerate() {
        if n1 > 1 {
            binned.add_den_n(0.5214 * cell_miles, n1 * (n1 - 1) / 2);
        }
        for &(b, n2) in &occupied[k + 1..] {
            let d = centres.miles(a, b);
            if d < max_miles {
                binned.add_den_n(d, n1 * n2);
            }
        }
    }
}

/// Great-circle distances between the cell centres of one [`PatchGrid`].
///
/// `haversine_miles(p, q)` is `R·2·asin(√h)` with
/// `h = sin²(Δlat/2) + cos(lat_p)·cos(lat_q)·sin²(Δlon/2)`. A cell
/// centre's latitude depends only on its row and its longitude only on
/// its column, so the three terms come from per-row-pair and
/// per-column-pair tables, and what is left per cell pair is the same
/// operations on the same operands: every distance is bit-identical to
/// `haversine_miles` on the two centres.
struct CentreDistances {
    rows: usize,
    cols: usize,
    /// `sin²((lat_q − lat_p)/2)`, indexed `row_p · rows + row_q`.
    sin2_dlat: Vec<f64>,
    /// `cos(lat_p)·cos(lat_q)`, indexed like `sin2_dlat`.
    cos_cos: Vec<f64>,
    /// `sin²((lon_q − lon_p)/2)`, indexed `col_p · cols + col_q`.
    sin2_dlon: Vec<f64>,
}

impl CentreDistances {
    fn new(grid: &PatchGrid) -> Self {
        let (rows, cols) = (grid.rows(), grid.cols());
        let lat: Vec<f64> = (0..rows)
            .map(|row| grid.cell_center(PatchCell { row, col: 0 }).lat_rad())
            .collect();
        let lon: Vec<f64> = (0..cols)
            .map(|col| grid.cell_center(PatchCell { row: 0, col }).lon_rad())
            .collect();
        let cos_lat: Vec<f64> = lat.iter().map(|l| l.cos()).collect();
        let mut sin2_dlat = Vec::with_capacity(rows * rows);
        let mut cos_cos = Vec::with_capacity(rows * rows);
        for (&lat_p, &cos_p) in lat.iter().zip(&cos_lat) {
            for (&lat_q, &cos_q) in lat.iter().zip(&cos_lat) {
                sin2_dlat.push(((lat_q - lat_p) / 2.0).sin().powi(2));
                cos_cos.push(cos_p * cos_q);
            }
        }
        let mut sin2_dlon = Vec::with_capacity(cols * cols);
        for &lon_p in &lon {
            for &lon_q in &lon {
                sin2_dlon.push(((lon_q - lon_p) / 2.0).sin().powi(2));
            }
        }
        CentreDistances {
            rows,
            cols,
            sin2_dlat,
            cos_cos,
            sin2_dlon,
        }
    }

    /// `haversine_miles` between the centres of cells `p` and `q`.
    fn miles(&self, p: PatchCell, q: PatchCell) -> f64 {
        let rows = p.row * self.rows + q.row;
        let h =
            self.sin2_dlat[rows] + self.cos_cos[rows] * self.sin2_dlon[p.col * self.cols + q.col];
        EARTH_RADIUS_MILES * (2.0 * h.sqrt().clamp(0.0, 1.0).asin())
    }
}

/// Figure 4 series: (d, f̂(d)) for every bin with a defined estimate.
pub(crate) fn fig4_series(dp: &DistancePreference) -> Series {
    Series {
        label: dp.region.clone(),
        points: dp
            .binned
            .ratios()
            .into_iter()
            .filter_map(|b| b.value.map(|v| (b.d, v)))
            .collect(),
    }
}

/// Figure 5: the semi-log fit over the small-`d` regime. Returns the
/// `(d, ln f)` points and the linear fit (slope = −1/(αL) in Waxman
/// terms).
pub fn fig5_fit(dp: &DistancePreference) -> (Vec<(f64, f64)>, Option<LinearFit>) {
    // The first bin is dominated by co-located pairs: city-granularity
    // mapping snaps same-metro endpoints to identical coordinates, so
    // f(0) spikes far above the exponential trend. Start the fit at the
    // second bin.
    let pts: Vec<(f64, f64)> = dp
        .binned
        .ratios()
        .into_iter()
        .skip(1)
        .filter(|b| b.d < dp.small_d_miles)
        .filter_map(|b| match b.value {
            Some(v) if v > 0.0 => Some((b.d, v)),
            _ => None,
        })
        .collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().cloned().unzip();
    let fit = fit_semilog(&xs, &ys).ok();
    let log_pts = pts.iter().map(|&(d, v)| (d, v.ln())).collect();
    (log_pts, fit)
}

/// The Waxman decay length αL implied by a Figure 5 fit (−1/slope).
pub fn waxman_decay_miles(fit: &LinearFit) -> Option<f64> {
    if fit.slope < 0.0 {
        Some(-1.0 / fit.slope)
    } else {
        None
    }
}

/// Figure 6: the cumulated preference `F(d)` over the large-`d` regime
/// with a linear fit (linearity ⇒ distance independence).
pub fn fig6_cumulated(dp: &DistancePreference) -> (Vec<(f64, f64)>, Option<LinearFit>) {
    let all = dp.binned.cumulated().points;
    let large: Vec<(f64, f64)> = all
        .iter()
        .cloned()
        .filter(|&(d, _)| d >= dp.small_d_miles)
        .collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = large.iter().cloned().unzip();
    let fit = fit_line(&xs, &ys).ok();
    (large, fit)
}

/// One row of Table V.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5Row {
    /// Region name.
    pub region: String,
    /// The distance-sensitivity limit in miles.
    pub limit_miles: f64,
    /// Fraction of links shorter than the limit.
    pub frac_below: f64,
    /// Implied Waxman decay length αL in miles.
    pub decay_miles: f64,
}

/// Table V: intersects the small-`d` exponential fit with the mean
/// large-`d` level to find the limit of distance sensitivity, then
/// reports the fraction of links below it.
pub fn sensitivity_limit(dp: &DistancePreference) -> Option<Table5Row> {
    let (_, fit) = fig5_fit(dp);
    let fit = fit?;
    if fit.slope >= 0.0 {
        return None;
    }
    // Mean f over the large-d regime.
    let first_large_bin = (dp.small_d_miles / dp.binned.bin_width()) as usize;
    let flat = dp.binned.mean_ratio_in(first_large_bin, dp.binned.bins())?;
    if flat <= 0.0 {
        return None;
    }
    let limit = (flat.ln() - fit.intercept) / fit.slope;
    if !limit.is_finite() || limit <= 0.0 {
        return None;
    }
    let frac_below = dp.binned.num_fraction_below(limit)?;
    Some(Table5Row {
        region: dp.region.clone(),
        limit_miles: limit,
        frac_below,
        decay_miles: waxman_decay_miles(&fit)?,
    })
}

/// Assembles Figure 4 (and optionally 5/6 views) as figure data.
pub fn fig4(dps: &[DistancePreference], dataset_label: &str) -> FigureData {
    FigureData {
        id: "Figure 4".into(),
        title: "Empirical Distance Preference Function".into(),
        panels: dps
            .iter()
            .map(|dp| Panel {
                label: format!("{} ({})", dp.region, dataset_label),
                series: vec![fig4_series(dp)],
                fit: None,
                axes: "d (miles) vs f(d)".into(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::GeoNode;
    use geotopo_bgp::AsId;
    use geotopo_measure::NodeKind;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthesizes a dataset in the US box whose links follow a known
    /// mixture: exponential decay of length L plus a uniform tail.
    fn waxman_dataset(n: usize, decay: f64, sensitive_share: f64, seed: u64) -> GeoDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes: Vec<GeoNode> = (0..n)
            .map(|i| {
                let lat = rng.random_range(26.0..49.0);
                let lon = rng.random_range(-124.0..-68.0);
                GeoNode {
                    ip: std::net::Ipv4Addr::from(0x01000000 + i as u32),
                    location: GeoPoint::new(lat, lon).unwrap(),
                    asn: AsId(1),
                }
            })
            .collect();
        let mut links = Vec::new();
        let mut set = std::collections::HashSet::new();
        let target = n * 2;
        let mut produced = 0usize;
        // `sensitive_share` is the share of *accepted* links: each link
        // is either drawn by rejection from the exponential kernel or
        // uniformly at random.
        while produced < target {
            let (a, b) = if rng.random::<f64>() < sensitive_share {
                // Rejection-sample a distance-sensitive pair.
                let mut pair = None;
                for _ in 0..100_000 {
                    let a = rng.random_range(0..n);
                    let b = rng.random_range(0..n);
                    if a == b {
                        continue;
                    }
                    let d = haversine_miles(&nodes[a].location, &nodes[b].location);
                    if rng.random::<f64>() < (-d / decay).exp() {
                        pair = Some((a, b));
                        break;
                    }
                }
                match pair {
                    Some(p) => p,
                    None => continue,
                }
            } else {
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                if a == b {
                    continue;
                }
                (a, b)
            };
            produced += 1;
            let key = if a < b { (a, b) } else { (b, a) };
            if set.insert(key) {
                links.push((key.0 as u32, key.1 as u32));
            }
        }
        GeoDataset {
            kind: NodeKind::Interface,
            nodes,
            links,
            stats: Default::default(),
        }
    }

    /// The estimator as it was before pairs were grouped by location and
    /// the grid's haversine terms tabulated: one haversine per node pair
    /// on the exact path, one per occupied cell pair on the grid path.
    /// Kept as the reference the faster denominators must equal exactly.
    fn reference_binned(dataset: &GeoDataset, bins: &RegionBins, exact_pairs: bool) -> BinnedRatio {
        let region = &bins.region;
        let mut binned = BinnedRatio::new(bins.bin_miles, bins.n_bins);
        let mut in_region = vec![false; dataset.nodes.len()];
        let mut members = Vec::new();
        for (i, n) in dataset.nodes.iter().enumerate() {
            if region.contains(&n.location) {
                in_region[i] = true;
                members.push(n.location);
            }
        }
        for &(a, b) in &dataset.links {
            if in_region[a as usize] && in_region[b as usize] {
                binned.add_num(dataset.link_length_miles((a, b)));
            }
        }
        if exact_pairs {
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    binned.add_den(haversine_miles(&members[i], &members[j]));
                }
            }
        } else {
            let cell_arcmin = (bins.bin_miles / 2.0) / 69.0 * 60.0;
            let grid = PatchGrid::new(region.clone(), cell_arcmin).unwrap();
            let counts = grid.tally(members.iter().copied());
            let mut occupied: Vec<(usize, u64)> = counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect();
            occupied.sort_unstable();
            let centers: Vec<_> = occupied
                .iter()
                .map(|&(i, _)| {
                    grid.cell_center(PatchCell {
                        row: i / grid.cols(),
                        col: i % grid.cols(),
                    })
                })
                .collect();
            let cell_miles = bins.bin_miles / 2.0;
            for (k, &(_, c)) in occupied.iter().enumerate() {
                if c > 1 {
                    binned.add_den_n(0.5214 * cell_miles, c * (c - 1) / 2);
                }
                for (l, &(_, c2)) in occupied.iter().enumerate().skip(k + 1) {
                    let d = haversine_miles(&centers[k], &centers[l]);
                    if d < bins.bin_miles * bins.n_bins as f64 {
                        binned.add_den_n(d, c * c2);
                    }
                }
            }
        }
        binned
    }

    /// Nodes over the three study regions the way city-granular mapping
    /// places them: `cities` points each holding a stack of nodes, plus
    /// `scattered` nodes at distinct points, and random links.
    fn stacked_dataset(seed: u64, cities: usize, scattered: usize) -> GeoDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let regions = RegionBins::paper();
        let point = |rng: &mut StdRng| {
            let r = &regions[rng.random_range(0..regions.len())].region;
            let lat = rng.random_range(r.south..r.north);
            let lon = rng.random_range(r.west..r.east);
            GeoPoint::new(lat, lon).unwrap()
        };
        let mut locations = Vec::new();
        for _ in 0..cities {
            let p = point(&mut rng);
            for _ in 0..rng.random_range(1..40) {
                locations.push(p);
            }
        }
        for _ in 0..scattered {
            locations.push(point(&mut rng));
        }
        let nodes: Vec<GeoNode> = locations
            .into_iter()
            .enumerate()
            .map(|(i, location)| GeoNode {
                ip: std::net::Ipv4Addr::from(0x01000000 + i as u32),
                location,
                asn: AsId(1),
            })
            .collect();
        let n = nodes.len() as u32;
        let links = (0..n)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .filter(|(a, b)| a != b)
            .collect();
        GeoDataset {
            kind: NodeKind::Interface,
            nodes,
            links,
            stats: Default::default(),
        }
    }

    proptest! {
        #[test]
        fn denominators_equal_the_reference_loops(
            seed in any::<u64>(),
            cities in 1usize..8,
            scattered in 0usize..150,
        ) {
            let d = stacked_dataset(seed, cities, scattered);
            for bins in RegionBins::paper() {
                let exact = distance_preference(&d, &bins, true);
                let reference = reference_binned(&d, &bins, true);
                prop_assert_eq!(exact.binned.ratios(), reference.ratios());
                prop_assert_eq!(exact.binned.den_total(), reference.den_total());
                let grid = distance_preference_with_threshold(&d, &bins, false, 0);
                let reference = reference_binned(&d, &bins, false);
                prop_assert_eq!(grid.binned.ratios(), reference.ratios());
                prop_assert_eq!(grid.binned.den_total(), reference.den_total());
            }
        }
    }

    proptest! {
        #[test]
        fn haversine_is_bitwise_symmetric(
            lat1 in -90.0f64..90.0,
            lon1 in -180.0f64..180.0,
            lat2 in -90.0f64..90.0,
            lon2 in -180.0f64..180.0,
        ) {
            let p = GeoPoint::new(lat1, lon1).unwrap();
            let q = GeoPoint::new(lat2, lon2).unwrap();
            prop_assert_eq!(haversine_miles(&p, &q).to_bits(), haversine_miles(&q, &p).to_bits());
        }
    }

    #[test]
    fn tabulated_centre_distances_are_haversine_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        for bins in RegionBins::paper() {
            let cell_arcmin = (bins.bin_miles / 2.0) / 69.0 * 60.0;
            let grid = PatchGrid::new(bins.region.clone(), cell_arcmin).unwrap();
            let centres = CentreDistances::new(&grid);
            let cell = |rng: &mut StdRng| PatchCell {
                row: rng.random_range(0..grid.rows()),
                col: rng.random_range(0..grid.cols()),
            };
            for _ in 0..20_000 {
                let (p, q) = (cell(&mut rng), cell(&mut rng));
                let want = haversine_miles(&grid.cell_center(p), &grid.cell_center(q));
                assert_eq!(
                    centres.miles(p, q).to_bits(),
                    want.to_bits(),
                    "{} {p:?} {q:?}",
                    bins.region.name
                );
            }
        }
    }

    fn us_bins() -> RegionBins {
        RegionBins {
            region: RegionSet::us(),
            bin_miles: 35.0,
            n_bins: 100,
            small_d_miles: 250.0,
        }
    }

    #[test]
    fn exponential_decay_recovered() {
        let d = waxman_dataset(1500, 150.0, 1.0, 1);
        let dp = distance_preference(&d, &us_bins(), true);
        let (_, fit) = fig5_fit(&dp);
        let fit = fit.expect("fit exists");
        assert!(fit.slope < 0.0, "slope {}", fit.slope);
        let decay = waxman_decay_miles(&fit).unwrap();
        assert!((decay - 150.0).abs() < 60.0, "decay {decay} expected ~150");
    }

    #[test]
    fn mixture_has_flat_tail_and_limit() {
        let d = waxman_dataset(1500, 120.0, 0.9, 2);
        let dp = distance_preference(&d, &us_bins(), true);
        let row = sensitivity_limit(&dp).expect("limit exists");
        assert!(
            row.limit_miles > 100.0 && row.limit_miles < 2500.0,
            "{row:?}"
        );
        assert!(row.frac_below > 0.5, "frac {}", row.frac_below);
    }

    #[test]
    fn pure_random_links_have_no_negative_slope_structure() {
        let d = waxman_dataset(800, 150.0, 0.0, 3);
        let dp = distance_preference(&d, &us_bins(), true);
        let (_, fit) = fig5_fit(&dp);
        if let Some(fit) = fit {
            // f(d) is flat: decay length (if any) is enormous.
            if fit.slope < 0.0 {
                assert!(
                    -1.0 / fit.slope > 700.0,
                    "spurious short decay {}",
                    -1.0 / fit.slope
                );
            }
        }
    }

    #[test]
    fn grid_convolution_matches_exact() {
        let d = waxman_dataset(1200, 150.0, 0.9, 4);
        let bins = us_bins();
        let exact = distance_preference(&d, &bins, true);
        let approx = distance_preference_with_threshold(&d, &bins, false, 0);
        // In-range pair totals agree closely...
        let total_exact = exact.binned.den_total();
        let total_approx = approx.binned.den_total();
        let rel = (total_exact as f64 - total_approx as f64).abs() / total_exact as f64;
        assert!(rel < 0.02, "total pair counts differ by {rel}");
        // ...and the per-bin estimates agree closely where defined.
        let re = exact.binned.ratios();
        let ra = approx.binned.ratios();
        let mut compared = 0;
        for (be, ba) in re.iter().zip(&ra) {
            if let (Some(ve), Some(va)) = (be.value, ba.value) {
                if be.den > 5000 {
                    compared += 1;
                    let denom = ve.max(1e-12);
                    assert!(
                        ((ve - va) / denom).abs() < 0.5,
                        "bin at {}: exact {ve} approx {va}",
                        be.d
                    );
                }
            }
        }
        assert!(compared > 20, "only {compared} bins comparable");
    }

    #[test]
    fn fig6_linear_for_flat_tail() {
        // A fat distance-independent share makes the large-d regime well
        // sampled; its cumulation must be close to linear.
        let d = waxman_dataset(1200, 120.0, 0.6, 5);
        let dp = distance_preference(&d, &us_bins(), true);
        let (pts, fit) = fig6_cumulated(&dp);
        assert!(pts.len() > 10);
        let fit = fit.unwrap();
        assert!(fit.r2 > 0.9, "r2 {}", fit.r2);
        assert!(fit.slope > 0.0);
    }

    #[test]
    fn out_of_region_nodes_ignored() {
        let mut d = waxman_dataset(300, 150.0, 1.0, 6);
        let n = d.nodes.len();
        d.nodes.push(GeoNode {
            ip: "9.9.9.9".parse().unwrap(),
            location: GeoPoint::new(35.7, 139.7).unwrap(), // Tokyo
            asn: AsId(1),
        });
        d.links.push((0, n as u32));
        let dp = distance_preference(&d, &us_bins(), true);
        assert_eq!(dp.n_nodes, n);
        // The transpacific link is not an in-region link.
        assert_eq!(dp.n_links, d.links.len() - 1);
    }

    #[test]
    fn empty_region_yields_no_limit() {
        let d = waxman_dataset(200, 150.0, 1.0, 7);
        let bins = RegionBins {
            region: RegionSet::japan(),
            bin_miles: 11.0,
            n_bins: 100,
            small_d_miles: 200.0,
        };
        let dp = distance_preference(&d, &bins, true);
        assert_eq!(dp.n_nodes, 0);
        assert!(sensitivity_limit(&dp).is_none());
    }
}
