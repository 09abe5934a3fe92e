//! Spatial index over points on the sphere.
//!
//! The workspace asks one geometric question in two forms: "which points
//! lie within r miles of p" (ground truth's metro peering, once per
//! draw) and "which point is nearest to p" (the gazetteer's nearest-city
//! search, once per router and per distinct map estimate). One fixed 1°
//! grid-bucket index answers both in time proportional to the local
//! density, and exactly: every answer is a linear [`haversine_miles`]
//! scan's, with bit-identical distances, at any latitude, across the
//! antimeridian and out to the whole sphere.
//!
//! [`haversine_miles`]: crate::haversine_miles

use crate::{GeoPoint, EARTH_RADIUS_MILES};
use std::f64::consts::{FRAC_PI_2, PI};
use std::ops::Range;

/// Grid rows: one per whole degree of latitude from −90 to +90 (a point
/// at exactly +90° has a row of its own).
const ROWS: i32 = 181;

/// Grid columns: one per whole degree of longitude from −180 to +179.
const COLS: i32 = 360;

/// One degree of latitude in miles: the first radius of a nearest
/// search whose centre's own cell is empty.
const CELL_MILES: f64 = EARTH_RADIUS_MILES * (PI / 180.0);

/// Grid-bucket spatial index over indexed points, on a fixed 1° grid.
///
/// Cells are stored as slices of packed parallel arrays (point index,
/// latitude/longitude in radians, cos-latitude, and the sines and
/// cosines of the half angles), so a cell scan is a sequential sweep
/// over dense f64 lanes instead of a gather through the point table —
/// the dominant cost when metro cells hold thousands of routers. The
/// radian and cos-latitude lanes are exactly the values the haversine
/// formula derives per point (`lat_rad()`, `lon_rad()`, and their `cos`),
/// so distances assembled from them are bit-identical to
/// [`haversine_miles`](crate::haversine_miles); the half-angle lanes let
/// [`SpatialIndex::for_each_in_radius`] decide most points without a
/// `sin`.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    /// Packed slot range per grid cell: cell `c` (see `cell_id`) holds
    /// slots `cell_start[c]..cell_start[c + 1]`.
    cell_start: Vec<u32>,
    /// Point index per packed slot (cell-grouped; within a cell,
    /// ascending point index — the original insertion order).
    slot_idx: Vec<u32>,
    /// Latitude in radians per packed slot (`GeoPoint::lat_rad`).
    slot_lat_rad: Vec<f64>,
    /// Longitude in radians per packed slot (`GeoPoint::lon_rad`).
    slot_lon_rad: Vec<f64>,
    /// cos(latitude in radians) per packed slot.
    slot_cos_lat: Vec<f64>,
    /// sin and cos of half the latitude in radians, per packed slot.
    slot_half_lat: Vec<(f64, f64)>,
    /// sin and cos of half the longitude in radians, per packed slot.
    slot_half_lon: Vec<(f64, f64)>,
}

/// A radius query's centre in the forms the scans read, and the bounds
/// they test against.
#[derive(Debug)]
struct Query {
    lat_rad: f64,
    lon_rad: f64,
    cos_lat: f64,
    /// The padded radius (the radius inflated by a relative margin far
    /// above f64 roundoff) as a central angle.
    max_angle: f64,
    /// `hav` of the padded radius.
    hav_padded: f64,
}

/// An absolute bound on `|h̃ − h|` between the haversine term `h̃` that
/// [`SpatialIndex::for_each_in_radius`] assembles from half-angle sines
/// and cosines and the term `h` of the exact scan. With `u = 2⁻⁵³` and
/// every factor in `[−1, 1]`, both are compared with the true
/// `H = sin²(Δφ/2) + C·sin²(Δλ/2)` (`C` the same rounded
/// `cosφ_c·cosφ_q` product in both):
///
/// - exact scan: `Δφ` rounds by `u·|Δφ| ≤ πu` and `Δλ` by `≤ 2πu`
///   (unwrapped), halved exactly, and `sin` adds ≤ 1 ulp ≤ `u`, so
///   `sin(Δφ/2)` is off by ≤ 2.6u and `sin(Δλ/2)` by ≤ 4.2u. Squaring
///   doubles those and rounds (≤ 6.3u and ≤ 9.5u), the product with
///   `C ≤ 1` rounds once more, and the sum of two terms ≤ 1 rounds by
///   ≤ 2u: `|h − H| ≤ 19u`;
/// - half-angle form: `sin(a − b) = sin a·cos b − cos a·sin b` holds
///   exactly for `a`, `b` the halved stored angles, whose sines and
///   cosines are each off by ≤ `u`. Each product is then off by ≤ 3u
///   and the difference by ≤ 7u; squaring, the product with `C` and
///   the sum give `|h̃ − H| ≤ 33u`.
///
/// So `|h̃ − h| ≤ 52u ≈ 5.8e-15`. The margin is about 17 times that,
/// and far below the relative 10⁻⁶ pads of the radius tests it widens
/// (`hav(40 mi)` is ~2.6e-5).
const HALF_ANGLE_MARGIN: f64 = 1e-13;

/// The haversine term `hav(d/R) = sin²(Δφ/2) + cosφ₁·cosφ₂·sin²(Δλ/2)`
/// of an angle given in degrees — used for conservative radius bounds.
fn hav_deg(deg: f64) -> f64 {
    let s = (deg.to_radians() * 0.5).sin();
    s * s
}

/// The haversine term of a distance in miles. From half the
/// circumference on it is infinite: the cap is the whole sphere, and no
/// bound may prune a point there.
fn hav_miles(miles: f64) -> f64 {
    if miles / EARTH_RADIUS_MILES >= PI {
        return f64::INFINITY;
    }
    let s = (miles / (2.0 * EARTH_RADIUS_MILES)).sin();
    s * s
}

/// The grid cell `(row, column)` of `p`: `floor(lat)` and `floor(lon)`,
/// with a point at exactly +180° in column −180, the same meridian.
fn cell_of(p: &GeoPoint) -> (i32, i32) {
    (p.lat().floor() as i32, wrap_col(p.lon().floor() as i32))
}

/// A column, or a column offset from one, wrapped across the
/// antimeridian into −180..=179.
fn wrap_col(col: i32) -> i32 {
    (col + COLS / 2).rem_euclid(COLS) - COLS / 2
}

/// The position of cell `(row, col)` in `cell_start`.
fn cell_id(row: i32, col: i32) -> usize {
    ((row + 90) * COLS + (col + COLS / 2)) as usize
}

impl SpatialIndex {
    /// Builds an index over `points`: the `i`-th point is index `i`.
    pub fn new(points: impl IntoIterator<Item = GeoPoint>) -> Self {
        let points: Vec<GeoPoint> = points.into_iter().collect();
        let cells: Vec<usize> = points
            .iter()
            .map(|p| {
                let (row, col) = cell_of(p);
                cell_id(row, col)
            })
            .collect();
        let n_cells = (ROWS * COLS) as usize;
        let mut cell_start = vec![0u32; n_cells + 1];
        for &c in &cells {
            cell_start[c] += 1;
        }
        // Counts to first slots; the last entry becomes the total.
        let mut total = 0;
        for start in &mut cell_start {
            let count = *start;
            *start = total;
            total += count;
        }
        // A stable sort keeps each cell's points in ascending index order.
        let mut slot_idx: Vec<u32> = (0..points.len() as u32).collect();
        slot_idx.sort_by_key(|&i| cells[i as usize]);
        let slot_points = || slot_idx.iter().map(|&i| points[i as usize]);
        SpatialIndex {
            slot_lat_rad: slot_points().map(|p| p.lat_rad()).collect(),
            slot_lon_rad: slot_points().map(|p| p.lon_rad()).collect(),
            slot_cos_lat: slot_points().map(|p| p.lat_rad().cos()).collect(),
            slot_half_lat: slot_points()
                .map(|p| (p.lat_rad() / 2.0).sin_cos())
                .collect(),
            slot_half_lon: slot_points()
                .map(|p| (p.lon_rad() / 2.0).sin_cos())
                .collect(),
            cell_start,
            slot_idx,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.slot_idx.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.slot_idx.is_empty()
    }

    /// The packed slots of cell `(row, col)`.
    fn cell_slots(&self, row: i32, col: i32) -> Range<usize> {
        let c = cell_id(row, col);
        self.cell_start[c] as usize..self.cell_start[c + 1] as usize
    }

    /// Indices of all points within `radius_miles` of `center`
    /// (inclusive), in cell-scan order.
    pub fn within(&self, center: &GeoPoint, radius_miles: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_in_radius(center, radius_miles, |i| out.push(i));
        out
    }

    /// The query for `center` and `radius_miles`.
    fn query(center: &GeoPoint, radius_miles: f64) -> Query {
        let radius_padded = radius_miles * 1.000_001;
        Query {
            lat_rad: center.lat_rad(),
            lon_rad: center.lon_rad(),
            cos_lat: center.lat_rad().cos(),
            max_angle: radius_padded / EARTH_RADIUS_MILES,
            hav_padded: hav_miles(radius_padded),
        }
    }

    /// Calls `visit(slots)` with the packed slot range of every cell
    /// that may hold a point within the radius, in cell-scan order: rows
    /// south to north, then columns by their offset from the centre's,
    /// west to east. The reach covers the padded cap — in latitude its
    /// angular radius, in longitude the widest the cap gets,
    /// `asin(sin c / cos φ)`, or every column, each once, when the cap
    /// holds a pole — plus one cell for the centre's place inside its
    /// own. A cell in reach is skipped only when provably outside: for
    /// any point `q` in it, `h = sin²(Δφ/2) + cosφ_c·cosφ_q·sin²(Δλ/2)`
    /// is at least `hav(Δφ_min) + cosφ_c·cosφ_min·hav(Δλ_min)` taken
    /// over the cell's lat/lon rectangle (`cos` attains its minimum over
    /// a latitude interval at an endpoint), tested against the padded
    /// radius.
    fn scan_buckets(&self, center: &GeoPoint, q: &Query, mut visit: impl FnMut(Range<usize>)) {
        let lat_reach = q.max_angle.to_degrees().min(180.0).ceil() as i32 + 1;
        let cols = if q.max_angle < FRAC_PI_2 - q.lat_rad.abs() {
            let sin_reach = (q.max_angle.sin() / q.cos_lat).min(1.0);
            let lon_reach = sin_reach.asin().to_degrees().ceil() as i32 + 1;
            -lon_reach..=lon_reach
        } else {
            -COLS / 2..=COLS / 2 - 1
        };
        let (kr, kc) = cell_of(center);
        let center_lat = center.lat();
        let center_lon = center.lon();
        for row in (kr - lat_reach).max(-90)..=(kr + lat_reach).min(90) {
            // Row-level bound: min |Δφ| from the centre to the row's
            // latitude interval, and the row's min cos(lat).
            let row_lat_lo = f64::from(row);
            let row_lat_hi = row_lat_lo + 1.0;
            let dphi_min_deg = (row_lat_lo - center_lat)
                .max(center_lat - row_lat_hi)
                .max(0.0);
            let hav_phi_min = hav_deg(dphi_min_deg);
            if hav_phi_min > q.hav_padded {
                continue;
            }
            let cos_row_min = row_lat_lo
                .to_radians()
                .cos()
                .min(row_lat_hi.to_radians().cos())
                .max(0.0);
            for dc in cols.clone() {
                let col = wrap_col(kc + dc);
                let slots = self.cell_slots(row, col);
                if slots.is_empty() {
                    continue;
                }
                // Column-level bound: min wrapped |Δλ| from the centre
                // to the cell's longitude interval.
                let col_lon_lo = f64::from(col);
                let col_lon_hi = col_lon_lo + 1.0;
                let dlam_min_deg = if center_lon >= col_lon_lo && center_lon <= col_lon_hi {
                    0.0
                } else {
                    let to_edge = |edge: f64| {
                        let d = (center_lon - edge).abs() % 360.0;
                        d.min(360.0 - d)
                    };
                    to_edge(col_lon_lo).min(to_edge(col_lon_hi))
                };
                if hav_phi_min + q.cos_lat * cos_row_min * hav_deg(dlam_min_deg) > q.hav_padded {
                    continue;
                }
                visit(slots);
            }
        }
    }

    /// Whether slot `k` lies outside the latitude band of the padded
    /// radius: the central angle is at least `|Δφ|`, so `d ≥ R·|Δφ|`.
    fn outside_lat_band(&self, q: &Query, k: usize) -> bool {
        (self.slot_lat_rad[k] - q.lat_rad).abs() > q.max_angle
    }

    /// Slot `k`'s haversine term, bit-identical to the one inside
    /// [`haversine_miles`](crate::haversine_miles). `sin²(Δλ/2)` is
    /// 2π-periodic, so unwrapped longitude differences are safe.
    fn hav_term(&self, q: &Query, k: usize) -> f64 {
        let s_lat = ((self.slot_lat_rad[k] - q.lat_rad) / 2.0).sin();
        let s_lon = ((self.slot_lon_rad[k] - q.lon_rad) / 2.0).sin();
        s_lat * s_lat + q.cos_lat * self.slot_cos_lat[k] * (s_lon * s_lon)
    }

    /// Finishes the haversine from its precomputed term: bit-identical
    /// to [`haversine_miles`](crate::haversine_miles) because `h` is
    /// assembled from the same per-point radian values with the same
    /// operation order.
    fn finish_distance(h: f64) -> f64 {
        EARTH_RADIUS_MILES * (2.0 * h.sqrt().clamp(0.0, 1.0).asin())
    }

    /// Calls `f(index, distance_miles)` for each point within the radius
    /// (inclusive), in cell-scan order, with the exact
    /// [`haversine_miles`](crate::haversine_miles) distance. Points
    /// outside the latitude band or with `h` past the padded radius are
    /// skipped before the finish; neither test rejects a point within
    /// the radius.
    pub fn for_each_within<F: FnMut(u32, f64)>(
        &self,
        center: &GeoPoint,
        radius_miles: f64,
        mut f: F,
    ) {
        let q = Self::query(center, radius_miles);
        self.scan_buckets(center, &q, |slots| {
            for k in slots {
                if self.outside_lat_band(&q, k) {
                    continue;
                }
                let h = self.hav_term(&q, k);
                if h > q.hav_padded {
                    continue;
                }
                let d = Self::finish_distance(h);
                if d <= radius_miles {
                    f(self.slot_idx[k], d);
                }
            }
        });
    }

    /// Calls `f(index)` for each point within the radius (inclusive):
    /// the points of [`SpatialIndex::for_each_within`], in its order,
    /// without reporting distances and mostly without a `sin`.
    ///
    /// Each point is first decided on `h̃`, its haversine term assembled
    /// by multiply-adds from the centre's and the slot's half-angle sines
    /// and cosines (`sin(a − b) = sin a·cos b − cos a·sin b`). `h̃` lies
    /// within a rounding margin (`HALF_ANGLE_MARGIN`, derived there) of
    /// the exact term `h`. So `h̃` below `hav(r·(1 − 10⁻⁶))` by more than
    /// the margin puts `h` below it too, hence `d < r`, and `h̃` above
    /// `hav(r·(1 + 10⁻⁶))` by more than the margin means the exact scan
    /// rejects the point. Only points in the band between compute `h`,
    /// then the `asin`/`sqrt` finish unless `h` is conservatively inside.
    pub fn for_each_in_radius<F: FnMut(u32)>(
        &self,
        center: &GeoPoint,
        radius_miles: f64,
        mut f: F,
    ) {
        let q = Self::query(center, radius_miles);
        let hav_shrunk = hav_miles(radius_miles * 0.999_999);
        let surely_in = hav_shrunk - HALF_ANGLE_MARGIN;
        let surely_out = q.hav_padded + HALF_ANGLE_MARGIN;
        let (sin_half_lat, cos_half_lat) = (q.lat_rad / 2.0).sin_cos();
        let (sin_half_lon, cos_half_lon) = (q.lon_rad / 2.0).sin_cos();
        self.scan_buckets(center, &q, |slots| {
            for k in slots {
                if self.outside_lat_band(&q, k) {
                    continue;
                }
                let (sin_lat, cos_lat) = self.slot_half_lat[k];
                let (sin_lon, cos_lon) = self.slot_half_lon[k];
                let s_lat = sin_lat * cos_half_lat - cos_lat * sin_half_lat;
                let s_lon = sin_lon * cos_half_lon - cos_lon * sin_half_lon;
                let h_approx = s_lat * s_lat + q.cos_lat * self.slot_cos_lat[k] * (s_lon * s_lon);
                let inside = if h_approx < surely_in {
                    true
                } else if h_approx > surely_out {
                    false
                } else {
                    let h = self.hav_term(&q, k);
                    h <= q.hav_padded
                        && (h < hav_shrunk || Self::finish_distance(h) <= radius_miles)
                };
                if inside {
                    f(self.slot_idx[k]);
                }
            }
        });
    }

    /// The point nearest to `center` with its exact
    /// [`haversine_miles`](crate::haversine_miles) distance, ties to the
    /// lower index; `None` on an empty index. Allocation-free.
    ///
    /// One radius scan keeps the minimum by (distance, index). Its radius
    /// is the distance to the nearest point in the centre's own cell — 0
    /// when the centre is itself a point, as a city-centre estimate is —
    /// or one cell when that cell is empty, doubled until the scan finds
    /// a point. Every point within the final radius is scanned, so the
    /// minimum is the global one; past half the circumference the scan
    /// covers the whole sphere, so a non-empty index always answers.
    pub fn nearest_point(&self, center: &GeoPoint) -> Option<(u32, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut radius = self.own_cell_radius(center);
        loop {
            let mut best: Option<(u32, f64)> = None;
            self.for_each_within(center, radius, |i, d| {
                if best.is_none_or(|(bi, bd)| (d, i) < (bd, bi)) {
                    best = Some((i, d));
                }
            });
            if best.is_some() {
                return best;
            }
            radius = (2.0 * radius).max(CELL_MILES);
        }
    }

    /// The distance from `center` to the nearest point in its own cell,
    /// or one cell when that cell is empty.
    fn own_cell_radius(&self, center: &GeoPoint) -> f64 {
        let q = Self::query(center, 0.0);
        let (row, col) = cell_of(center);
        self.cell_slots(row, col)
            .map(|k| self.hav_term(&q, k))
            .reduce(f64::min)
            .map_or(CELL_MILES, Self::finish_distance)
    }

    /// The `k` points nearest to `center` as (index, distance), closest
    /// first, ties to the lower index: every point when `k` is at least
    /// [`SpatialIndex::len`]. The radius starts at one cell and doubles
    /// until one scan holds `k` points, which are then the `k` nearest.
    pub fn nearest_points(&self, center: &GeoPoint, k: usize) -> Vec<(u32, f64)> {
        let k = k.min(self.len());
        let mut found = Vec::new();
        let mut radius = CELL_MILES;
        while found.len() < k {
            found.clear();
            self.for_each_within(center, radius, |i, d| found.push((i, d)));
            radius *= 2.0;
        }
        found.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        found.truncate(k);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haversine_miles;
    use proptest::prelude::*;
    use std::f64::consts::TAU;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn within_matches_brute_force() {
        let pts: Vec<GeoPoint> = (0..500)
            .map(|i| {
                let lat = 30.0 + (i % 25) as f64 * 0.8;
                let lon = -120.0 + (i / 25) as f64 * 2.0;
                p(lat, lon)
            })
            .collect();
        let idx = SpatialIndex::new(pts.clone());
        let center = p(38.0, -100.0);
        for radius in [50.0, 200.0, 800.0] {
            let mut got = idx.within(&center, radius);
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, q)| haversine_miles(&center, q) <= radius)
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "radius {radius}");
        }
    }

    #[test]
    fn nearest_finds_closest() {
        let pts = vec![p(0.0, 0.0), p(5.0, 5.0), p(0.2, 0.2)];
        let idx = SpatialIndex::new(pts);
        let (i, d) = idx.nearest_point(&p(0.05, 0.05)).unwrap();
        assert_eq!(i, 0);
        assert!(d < 10.0);
    }

    #[test]
    fn nearest_reaches_across_the_globe() {
        let idx = SpatialIndex::new(vec![p(80.0, 170.0)]);
        // Nothing within many doublings of the near-antipodal probe.
        let (i, _) = idx.nearest_point(&p(-80.0, -10.0)).unwrap();
        assert_eq!(i, 0);
        assert_eq!(idx.nearest_points(&p(-80.0, -10.0), 3).len(), 1);
    }

    #[test]
    fn empty_index() {
        let idx = SpatialIndex::new(vec![]);
        assert!(idx.is_empty());
        assert_eq!(idx.nearest_point(&p(0.0, 0.0)), None);
        assert!(idx.nearest_points(&p(0.0, 0.0), 2).is_empty());
        assert!(idx.within(&p(0.0, 0.0), 1000.0).is_empty());
    }

    #[test]
    fn date_line_neighbors_found() {
        let pts = vec![p(0.0, 179.9), p(0.0, -179.9)];
        let idx = SpatialIndex::new(pts);
        let got = idx.within(&p(0.0, 179.95), 50.0);
        assert_eq!(got.len(), 2, "date-line wrap missed: {got:?}");
    }

    /// A deterministic pseudo-random point cloud clustered like metros,
    /// including date-line and high-latitude clusters.
    fn dense_cloud(n: usize) -> Vec<GeoPoint> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let centers = [
            (40.7, -74.0),
            (35.7, 139.7),
            (51.5, -0.1),
            (0.0, 179.9),
            (68.0, 20.0),
            (-33.9, 151.2),
        ];
        (0..n)
            .map(|i| {
                let (clat, clon) = centers[i % centers.len()];
                let lat = (clat + (next() - 0.5) * 2.5).clamp(-89.9, 89.9);
                let mut lon = clon + (next() - 0.5) * 2.5;
                if lon > 180.0 {
                    lon -= 360.0;
                }
                if lon <= -180.0 {
                    lon += 360.0;
                }
                p(lat, lon)
            })
            .collect()
    }

    #[test]
    fn filtered_scan_matches_brute_force_exactly() {
        // The pruned/packed scan must report exactly the brute-force
        // match set with bit-identical haversine distances.
        let pts = dense_cloud(4000);
        let idx = SpatialIndex::new(pts.clone());
        for &(clat, clon) in &[(40.9, -73.8), (0.05, -179.95), (68.4, 20.5), (35.7, 139.7)] {
            let center = p(clat, clon);
            for radius in [12.0, 40.0, 150.0] {
                let mut got: Vec<(u32, f64)> = Vec::new();
                idx.for_each_within(&center, radius, |i, d| got.push((i, d)));
                let want: Vec<(u32, f64)> = pts
                    .iter()
                    .enumerate()
                    .filter_map(|(i, q)| {
                        let d = haversine_miles(&center, q);
                        (d <= radius).then_some((i as u32, d))
                    })
                    .collect();
                let mut got_sorted = got.clone();
                got_sorted.sort_by_key(|&(i, _)| i);
                assert_eq!(got_sorted, want, "center {clat},{clon} radius {radius}");
            }
        }
    }

    #[test]
    fn in_radius_matches_for_each_within_order() {
        // The distance-free fast path must accept the same points in the
        // same (bucket-scan) order as the distance-reporting scan.
        let pts = dense_cloud(4000);
        let idx = SpatialIndex::new(pts);
        for &(clat, clon) in &[(40.9, -73.8), (0.05, -179.95), (68.4, 20.5)] {
            let center = p(clat, clon);
            for radius in [12.0, 40.0, 150.0] {
                let mut with_d: Vec<u32> = Vec::new();
                idx.for_each_within(&center, radius, |i, _| with_d.push(i));
                let mut without_d: Vec<u32> = Vec::new();
                idx.for_each_in_radius(&center, radius, |i| without_d.push(i));
                assert_eq!(with_d, without_d, "center {clat},{clon} radius {radius}");
            }
        }
    }

    /// The point `miles` from `from` on initial bearing `bearing`
    /// (radians), by the spherical destination formula.
    fn destination(from: &GeoPoint, bearing: f64, miles: f64) -> GeoPoint {
        let delta = miles / EARTH_RADIUS_MILES;
        let (phi, lambda) = (from.lat_rad(), from.lon_rad());
        let lat = (phi.sin() * delta.cos() + phi.cos() * delta.sin() * bearing.cos()).asin();
        let lon = lambda
            + (bearing.sin() * delta.sin() * phi.cos()).atan2(delta.cos() - phi.sin() * lat.sin());
        GeoPoint::new(lat.to_degrees().clamp(-90.0, 90.0), lon.to_degrees()).unwrap()
    }

    /// Every point within `radius` of `center` by a linear
    /// [`haversine_miles`] scan, as (index, distance bits) in index order.
    fn linear_within(pts: &[GeoPoint], center: &GeoPoint, radius: f64) -> Vec<(u32, u64)> {
        pts.iter()
            .enumerate()
            .filter_map(|(i, q)| {
                let d = haversine_miles(center, q);
                (d <= radius).then_some((i as u32, d.to_bits()))
            })
            .collect()
    }

    /// Both radius scans against [`linear_within`]: the same indices,
    /// each once, with bit-identical distances.
    fn assert_scans_match_linear(pts: &[GeoPoint], center: &GeoPoint, radius: f64) {
        let idx = SpatialIndex::new(pts.iter().copied());
        let want = linear_within(pts, center, radius);
        let mut got = Vec::new();
        idx.for_each_within(center, radius, |i, d| got.push((i, d.to_bits())));
        got.sort_unstable();
        assert_eq!(
            got, want,
            "for_each_within from {center:?}, radius {radius}"
        );
        let mut ids = idx.within(center, radius);
        ids.sort_unstable();
        let want_ids: Vec<u32> = want.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, want_ids, "within from {center:?}, radius {radius}");
    }

    #[test]
    fn radius_scans_reach_the_antimeridian_the_poles_and_the_whole_sphere() {
        // (a) A point at exactly +180°, 6.8 mi away.
        assert_scans_match_linear(&[p(10.0, 180.0)], &p(10.0, 179.9), 50.0);
        // (b) 2,087 mi away but 51.5° of longitude east: poleward of the
        // centre a cap reaches wider than at the centre's latitude.
        assert_scans_match_linear(&[p(62.6, 51.5)], &p(50.0, 0.0), 2100.0);
        // (c) A cap over the pole: every column, each scanned once.
        assert_scans_match_linear(&[p(60.0, -179.5)], &p(60.0, 0.0), 7000.0);
        // (d) Past half the circumference: the near-antipode is inside.
        assert_scans_match_linear(&[p(0.5, -179.8), p(0.0, 180.0)], &p(0.0, 0.0), 13_000.0);
    }

    /// Every point as (index, distance), sorted by (distance, index).
    fn linear_by_distance(pts: &[GeoPoint], center: &GeoPoint) -> Vec<(u32, u64)> {
        let mut all: Vec<(u32, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, q)| (i as u32, haversine_miles(center, q)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.into_iter().map(|(i, d)| (i, d.to_bits())).collect()
    }

    proptest! {
        #[test]
        fn half_angle_scan_matches_the_exact_scan(
            // Centres anywhere, half of them within a degree of the
            // antimeridian; radii from a metro to a region.
            lat in -89.0f64..89.0,
            lon in -180.0f64..180.0,
            near_antimeridian in any::<bool>(),
            radius in 0.5f64..300.0,
            // Points on the boundary, within 1e-9 mi of the radius
            // either way, and scattered out to twice the radius.
            rim in prop::collection::vec((0.0f64..std::f64::consts::TAU, -1e-9f64..1e-9), 0..60),
            scatter in prop::collection::vec((0.0f64..std::f64::consts::TAU, 0.0f64..2.0), 0..200),
        ) {
            let lon = if near_antimeridian { 179.0 + lon.rem_euclid(2.0) } else { lon };
            let center = p(lat, lon);
            let pts: Vec<GeoPoint> = rim
                .iter()
                .map(|&(bearing, eps)| destination(&center, bearing, radius + eps))
                .chain(
                    scatter
                        .iter()
                        .map(|&(bearing, f)| destination(&center, bearing, radius * f)),
                )
                .collect();
            let idx = SpatialIndex::new(pts);
            let mut exact: Vec<u32> = Vec::new();
            idx.for_each_within(&center, radius, |i, _| exact.push(i));
            let mut pretested: Vec<u32> = Vec::new();
            idx.for_each_in_radius(&center, radius, |i| pretested.push(i));
            prop_assert_eq!(pretested, exact);
        }

        #[test]
        fn radius_scans_match_a_linear_scan(
            // Centres at any latitude: one in eight at each pole, one in
            // four within a degree of ±180°.
            lat in -90.0f64..=90.0,
            lon in -180.0f64..180.0,
            centre_kind in 0u8..8,
            // From 0 to past half the circumference (12,437 mi).
            radius_f in 0.0f64..1.0,
            // Points anywhere, at exactly +180°, near the centre, or on it.
            spots in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0u8..4), 0..120),
        ) {
            let center = match centre_kind {
                0 => p(90.0, lon),
                1 => p(-90.0, lon),
                2 | 3 => p(lat, 179.0 + lon.rem_euclid(2.0)),
                _ => p(lat, lon),
            };
            let radius = if radius_f < 0.05 { 0.0 } else { 14_000.0 * radius_f.powi(3) };
            let pts: Vec<GeoPoint> = spots
                .iter()
                .map(|&(a, b, kind)| match kind {
                    0 => p(180.0 * a - 90.0, 360.0 * b - 180.0),
                    1 => p(180.0 * a - 90.0, 180.0),
                    2 => destination(&center, TAU * a, 2.0 * radius * b),
                    _ => center,
                })
                .collect();
            assert_scans_match_linear(&pts, &center, radius);
        }

        #[test]
        fn nearest_searches_match_a_linear_scan(
            // One cluster in four on the antimeridian, with a third of its
            // points at exactly +180°; one in four by the north pole.
            cluster in (0.0f64..1.0, 0.0f64..1.0),
            cluster_kind in 0u8..4,
            // Clusters from one spot to the whole sphere.
            spread in 0.0f64..1.0,
            spots in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..60),
            // Repeated locations, for ties.
            repeats in prop::collection::vec(0usize..1000, 0..30),
            probe in (0.0f64..1.0, 0.0f64..1.0),
            at_a_point in any::<bool>(),
        ) {
            let (lat, lon) = (180.0 * cluster.0 - 90.0, 360.0 * cluster.1 - 180.0);
            let cluster = match cluster_kind {
                0 => p(lat, 179.0 + 2.0 * cluster.1),
                1 => p(88.0 + 2.0 * cluster.0, lon),
                _ => p(lat, lon),
            };
            let reach = 13_000.0 * spread.powi(3);
            let mut pts: Vec<GeoPoint> = spots
                .iter()
                .enumerate()
                .map(|(n, &(a, b))| {
                    let q = destination(&cluster, TAU * a, reach * b);
                    if cluster_kind == 0 && n % 3 == 0 {
                        p(q.lat(), 180.0)
                    } else {
                        q
                    }
                })
                .collect();
            for &r in &repeats {
                pts.push(pts[r % spots.len()]);
            }
            let center = if at_a_point {
                pts[repeats.first().copied().unwrap_or(0) % pts.len()]
            } else {
                destination(&cluster, TAU * probe.0, 2.0 * reach * probe.1)
            };
            let idx = SpatialIndex::new(pts.iter().copied());
            let want = linear_by_distance(&pts, &center);
            let nearest = idx.nearest_point(&center).map(|(i, d)| (i, d.to_bits()));
            prop_assert_eq!(nearest, Some(want[0]));
            for k in [0, 1, 2, 3, pts.len(), pts.len() + 1] {
                let got: Vec<(u32, u64)> = idx
                    .nearest_points(&center, k)
                    .into_iter()
                    .map(|(i, d)| (i, d.to_bits()))
                    .collect();
                prop_assert_eq!(&got[..], &want[..k.min(want.len())], "k = {}", k);
            }
        }
    }
}
