//! Spatial index over router locations.
//!
//! Link generation needs "which routers lie within r miles of p" queries
//! millions of times; a simple equal-angle grid bucket index answers them
//! in time proportional to the local density.

use geotopo_geo::{haversine_miles, GeoPoint, EARTH_RADIUS_MILES};
use std::collections::HashMap;
use std::ops::Range;

/// Grid-bucket spatial index over indexed points.
///
/// Buckets are stored as slices of packed parallel arrays (point index,
/// latitude/longitude in radians, cos-latitude, and the sines and
/// cosines of the half angles), so a bucket scan is a sequential sweep
/// over dense f64 lanes instead of a gather through the point table —
/// the dominant cost when metro buckets hold thousands of routers. The
/// radian and cos-latitude lanes are exactly the values the haversine
/// formula derives per point (`lat_rad()`, `lon_rad()`, and their `cos`),
/// so distances assembled from them are bit-identical to
/// [`haversine_miles`]; the half-angle lanes let
/// [`SpatialIndex::for_each_in_radius`] decide most points without a
/// `sin`.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    cell_deg: f64,
    /// Bucket key → `(start, len)` slice of the packed arrays below.
    buckets: HashMap<(i32, i32), (u32, u32)>,
    points: Vec<GeoPoint>,
    /// Point index per packed slot (bucket-grouped; within a bucket,
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
    radius_miles: f64,
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

impl SpatialIndex {
    /// Builds an index with buckets of `cell_deg` degrees (1.0 is a good
    /// default: ~69 miles of latitude per bucket).
    ///
    /// # Panics
    ///
    /// Panics if `cell_deg` is not positive/finite (programming error).
    pub fn new(points: Vec<GeoPoint>, cell_deg: f64) -> Self {
        assert!(cell_deg.is_finite() && cell_deg > 0.0, "bad cell size");
        let mut grouped: HashMap<(i32, i32), Vec<u32>> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            grouped
                .entry(Self::key(p, cell_deg))
                .or_default()
                .push(i as u32);
        }
        let mut buckets = HashMap::with_capacity(grouped.len());
        let mut slot_idx = Vec::with_capacity(points.len());
        let mut slot_lat_rad = Vec::with_capacity(points.len());
        let mut slot_lon_rad = Vec::with_capacity(points.len());
        let mut slot_cos_lat = Vec::with_capacity(points.len());
        let mut slot_half_lat = Vec::with_capacity(points.len());
        let mut slot_half_lon = Vec::with_capacity(points.len());
        for (key, members) in grouped {
            buckets.insert(key, (slot_idx.len() as u32, members.len() as u32));
            for i in members {
                let p = &points[i as usize];
                slot_idx.push(i);
                slot_lat_rad.push(p.lat_rad());
                slot_lon_rad.push(p.lon_rad());
                slot_cos_lat.push(p.lat_rad().cos());
                slot_half_lat.push((p.lat_rad() / 2.0).sin_cos());
                slot_half_lon.push((p.lon_rad() / 2.0).sin_cos());
            }
        }
        SpatialIndex {
            cell_deg,
            buckets,
            points,
            slot_idx,
            slot_lat_rad,
            slot_lon_rad,
            slot_cos_lat,
            slot_half_lat,
            slot_half_lon,
        }
    }

    fn key(p: &GeoPoint, cell_deg: f64) -> (i32, i32) {
        (
            (p.lat() / cell_deg).floor() as i32,
            (p.lon() / cell_deg).floor() as i32,
        )
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The location of point `i`.
    pub fn point(&self, i: u32) -> &GeoPoint {
        &self.points[i as usize]
    }

    /// Indices of all points within `radius_miles` of `center`
    /// (inclusive), excluding `exclude` if given.
    pub fn within(&self, center: &GeoPoint, radius_miles: f64, exclude: Option<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_in_radius(center, radius_miles, |i| {
            if Some(i) != exclude {
                out.push(i);
            }
        });
        out
    }

    /// The query for `center` and `radius_miles`.
    fn query(center: &GeoPoint, radius_miles: f64) -> Query {
        let radius_padded = radius_miles * 1.000_001;
        let s = (radius_padded / (2.0 * EARTH_RADIUS_MILES)).sin();
        Query {
            radius_miles,
            lat_rad: center.lat_rad(),
            lon_rad: center.lon_rad(),
            cos_lat: center.lat_rad().cos(),
            max_angle: radius_padded / EARTH_RADIUS_MILES,
            hav_padded: s * s,
        }
    }

    /// Calls `visit(slots)` with the packed slot range of every bucket
    /// that may hold a point within the radius, in bucket-scan order. A
    /// bucket is skipped only when provably outside: for any point `q`
    /// in it, `h = sin²(Δφ/2) + cosφ_c·cosφ_q·sin²(Δλ/2)` is at least
    /// `hav(Δφ_min) + cosφ_c·cosφ_min·hav(Δλ_min)` taken over the
    /// bucket's lat/lon rectangle (`cos` attains its minimum over a
    /// latitude interval at an endpoint), tested against the padded
    /// radius.
    fn scan_buckets(&self, center: &GeoPoint, q: &Query, mut visit: impl FnMut(Range<usize>)) {
        // Bucket reach: radius in degrees of latitude, padded; longitude
        // reach grows with latitude (cos shrinkage), capped to the globe.
        let radius_miles = q.radius_miles;
        let lat_reach = (radius_miles / 69.0 / self.cell_deg).ceil() as i32 + 1;
        let cos_lat = center.lat().to_radians().cos().max(0.05);
        let lon_reach = (radius_miles / (69.0 * cos_lat) / self.cell_deg).ceil() as i32 + 1;
        let lon_cells = (360.0 / self.cell_deg).ceil() as i32;
        let lon_reach = lon_reach.min(lon_cells / 2);
        let (kr, kc) = Self::key(center, self.cell_deg);
        let center_lat = center.lat();
        let center_lon = center.lon();
        for dr in -lat_reach..=lat_reach {
            // Row-level bound: min |Δφ| from the centre to the row's
            // latitude interval, and the row's max cos(lat).
            let row_lat_lo = f64::from(kr + dr) * self.cell_deg;
            let row_lat_hi = row_lat_lo + self.cell_deg;
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
            for dc in -lon_reach..=lon_reach {
                // Wrap longitude buckets around the globe.
                let mut col = kc + dc;
                let half = lon_cells / 2;
                if col < -half {
                    col += lon_cells;
                } else if col >= half {
                    col -= lon_cells;
                }
                let Some(&(start, len)) = self.buckets.get(&(kr + dr, col)) else {
                    continue;
                };
                // Column-level bound: min wrapped |Δλ| from the centre
                // to the bucket's longitude interval.
                let col_lon_lo = f64::from(col) * self.cell_deg;
                let col_lon_hi = col_lon_lo + self.cell_deg;
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
                visit(start as usize..(start + len) as usize);
            }
        }
    }

    /// Whether slot `k` lies outside the latitude band of the padded
    /// radius: the central angle is at least `|Δφ|`, so `d ≥ R·|Δφ|`.
    fn outside_lat_band(&self, q: &Query, k: usize) -> bool {
        (self.slot_lat_rad[k] - q.lat_rad).abs() > q.max_angle
    }

    /// Slot `k`'s haversine term, bit-identical to the one inside
    /// [`haversine_miles`]. `sin²(Δλ/2)` is 2π-periodic, so unwrapped
    /// longitude differences are safe.
    fn hav_term(&self, q: &Query, k: usize) -> f64 {
        let s_lat = ((self.slot_lat_rad[k] - q.lat_rad) / 2.0).sin();
        let s_lon = ((self.slot_lon_rad[k] - q.lon_rad) / 2.0).sin();
        s_lat * s_lat + q.cos_lat * self.slot_cos_lat[k] * (s_lon * s_lon)
    }

    /// Finishes the haversine from its precomputed term: bit-identical
    /// to [`haversine_miles`] because `h` is assembled from the same
    /// per-point radian values with the same operation order.
    fn finish_distance(h: f64) -> f64 {
        EARTH_RADIUS_MILES * (2.0 * h.sqrt().clamp(0.0, 1.0).asin())
    }

    /// Calls `f(index, distance_miles)` for each point within the radius
    /// (inclusive), in bucket-scan order, with the exact
    /// [`haversine_miles`] distance. Points outside the latitude band or
    /// with `h` past the padded radius are skipped before the finish;
    /// neither test rejects a point within the radius.
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
        let hav_shrunk = {
            let s = ((radius_miles * 0.999_999) / (2.0 * EARTH_RADIUS_MILES)).sin();
            s * s
        };
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

    /// The nearest point to `center` (linear in the local neighbourhood;
    /// falls back to a full scan if nothing is within `hint_radius`).
    pub fn nearest(&self, center: &GeoPoint, hint_radius_miles: f64) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        self.for_each_within(center, hint_radius_miles, |i, d| match best {
            Some((_, bd)) if bd <= d => {}
            _ => best = Some((i, d)),
        });
        if best.is_some() {
            return best;
        }
        // Full scan fallback.
        for (i, p) in self.points.iter().enumerate() {
            let d = haversine_miles(center, p);
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((i as u32, d)),
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let idx = SpatialIndex::new(pts.clone(), 1.0);
        let center = p(38.0, -100.0);
        for radius in [50.0, 200.0, 800.0] {
            let mut got = idx.within(&center, radius, None);
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
    fn exclude_is_honored() {
        let pts = vec![p(10.0, 10.0), p(10.1, 10.1)];
        let idx = SpatialIndex::new(pts, 1.0);
        let center = p(10.0, 10.0);
        let got = idx.within(&center, 100.0, Some(0));
        assert_eq!(got, vec![1]);
    }

    #[test]
    fn nearest_finds_closest() {
        let pts = vec![p(0.0, 0.0), p(5.0, 5.0), p(0.2, 0.2)];
        let idx = SpatialIndex::new(pts, 1.0);
        let (i, d) = idx.nearest(&p(0.05, 0.05), 100.0).unwrap();
        assert_eq!(i, 0);
        assert!(d < 10.0);
    }

    #[test]
    fn nearest_falls_back_to_full_scan() {
        let pts = vec![p(80.0, 170.0)];
        let idx = SpatialIndex::new(pts, 1.0);
        // Nothing within 10 miles of the antipode-ish probe; fallback
        // still finds the single point.
        let (i, _) = idx.nearest(&p(-80.0, -10.0), 10.0).unwrap();
        assert_eq!(i, 0);
    }

    #[test]
    fn empty_index() {
        let idx = SpatialIndex::new(vec![], 1.0);
        assert!(idx.is_empty());
        assert_eq!(idx.nearest(&p(0.0, 0.0), 10.0), None);
        assert!(idx.within(&p(0.0, 0.0), 1000.0, None).is_empty());
    }

    #[test]
    fn date_line_neighbors_found() {
        let pts = vec![p(0.0, 179.9), p(0.0, -179.9)];
        let idx = SpatialIndex::new(pts, 1.0);
        let got = idx.within(&p(0.0, 179.95), 50.0, None);
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
        let idx = SpatialIndex::new(pts.clone(), 1.0);
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
        let idx = SpatialIndex::new(pts, 1.0);
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
            cell_deg in 0.25f64..2.0,
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
            let idx = SpatialIndex::new(pts, cell_deg);
            let mut exact: Vec<u32> = Vec::new();
            idx.for_each_within(&center, radius, |i, _| exact.push(i));
            let mut pretested: Vec<u32> = Vec::new();
            idx.for_each_in_radius(&center, radius, |i| pretested.push(i));
            prop_assert_eq!(pretested, exact);
        }
    }
}
