//! City gazetteer.
//!
//! Hostname-based mapping works because ISPs embed city names or airport
//! codes in router hostnames. This gazetteer is the vocabulary both
//! sides share: the hostname synthesizer picks the nearest city's code,
//! and the parsers resolve codes back to coordinates. City-granularity
//! accuracy is therefore inherent, exactly as in \[28\].

use geotopo_geo::{haversine_miles, GeoPoint};
use geotopo_population::PopulationGrid;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One gazetteer city.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct City {
    /// Human name.
    pub name: String,
    /// Hostname location code (3–4 uppercase letters).
    pub code: String,
    /// City-centre coordinates.
    pub location: GeoPoint,
}

/// The gazetteer: the curated real-city core, optionally densified with
/// synthetic towns derived from a population raster (real hostname
/// conventions name thousands of towns, not just hub airports).
///
/// Nearest-city queries use a 1° bucket index with expanding-ring
/// search, so lookups stay fast with tens of thousands of entries.
#[derive(Debug, Clone)]
pub struct Gazetteer {
    cities: Vec<City>,
    by_code: HashMap<String, u32>,
    buckets: HashMap<(i16, i16), Vec<u32>>,
}

macro_rules! city {
    ($name:literal, $code:literal, $lat:expr, $lon:expr) => {
        City {
            name: $name.to_string(),
            code: $code.to_string(),
            location: GeoPoint::new_unchecked($lat, $lon),
        }
    };
}

impl Default for Gazetteer {
    fn default() -> Self {
        Self::builtin()
    }
}

impl Gazetteer {
    /// The built-in world gazetteer (~140 cities across the paper's
    /// study regions).
    pub fn builtin() -> Self {
        let cities = vec![
            // --- United States & Canada (the paper's US box) ---
            city!("New York", "NYC", 40.71, -74.01),
            city!("Los Angeles", "LAX", 34.05, -118.24),
            city!("Chicago", "CHI", 41.88, -87.63),
            city!("Houston", "HOU", 29.76, -95.37),
            city!("Phoenix", "PHX", 33.45, -112.07),
            city!("Philadelphia", "PHL", 39.95, -75.17),
            city!("San Antonio", "SAT", 29.42, -98.49),
            city!("San Diego", "SAN", 32.72, -117.16),
            city!("Dallas", "DFW", 32.78, -96.80),
            city!("San Jose", "SJC", 37.34, -121.89),
            city!("Austin", "AUS", 30.27, -97.74),
            city!("Jacksonville", "JAX", 30.33, -81.66),
            city!("San Francisco", "SFO", 37.77, -122.42),
            city!("Columbus", "CMH", 39.96, -83.00),
            city!("Charlotte", "CLT", 35.23, -80.84),
            city!("Indianapolis", "IND", 39.77, -86.16),
            city!("Seattle", "SEA", 47.61, -122.33),
            city!("Denver", "DEN", 39.74, -104.99),
            city!("Washington", "WDC", 38.91, -77.04),
            city!("Boston", "BOS", 42.36, -71.06),
            city!("Nashville", "BNA", 36.16, -86.78),
            city!("Detroit", "DTW", 42.33, -83.05),
            city!("Portland", "PDX", 45.52, -122.68),
            city!("Las Vegas", "LAS", 36.17, -115.14),
            city!("Memphis", "MEM", 35.15, -90.05),
            city!("Baltimore", "BWI", 39.29, -76.61),
            city!("Milwaukee", "MKE", 43.04, -87.91),
            city!("Albuquerque", "ABQ", 35.08, -106.65),
            city!("Kansas City", "MCI", 39.10, -94.58),
            city!("Atlanta", "ATL", 33.75, -84.39),
            city!("Miami", "MIA", 25.76, -80.19),
            city!("Minneapolis", "MSP", 44.98, -93.27),
            city!("New Orleans", "MSY", 29.95, -90.07),
            city!("Cleveland", "CLE", 41.50, -81.69),
            city!("Tampa", "TPA", 27.95, -82.46),
            city!("Pittsburgh", "PIT", 40.44, -80.00),
            city!("St. Louis", "STL", 38.63, -90.20),
            city!("Cincinnati", "CVG", 39.10, -84.51),
            city!("Orlando", "MCO", 28.54, -81.38),
            city!("Salt Lake City", "SLC", 40.76, -111.89),
            city!("Raleigh", "RDU", 35.78, -78.64),
            city!("Richmond", "RIC", 37.54, -77.44),
            city!("Sacramento", "SMF", 38.58, -121.49),
            city!("Oklahoma City", "OKC", 35.47, -97.52),
            city!("Buffalo", "BUF", 42.89, -78.88),
            city!("Toronto", "YYZ", 43.65, -79.38),
            city!("Montreal", "YUL", 45.50, -73.57),
            city!("Vancouver", "YVR", 49.28, -123.12),
            city!("Ottawa", "YOW", 45.42, -75.70),
            // --- Europe (the paper's Europe box) ---
            city!("London", "LON", 51.51, -0.13),
            city!("Paris", "PAR", 48.86, 2.35),
            city!("Amsterdam", "AMS", 52.37, 4.90),
            city!("Frankfurt", "FRA", 50.11, 8.68),
            city!("Berlin", "BER", 52.52, 13.41),
            city!("Munich", "MUC", 48.14, 11.58),
            city!("Hamburg", "HAM", 53.55, 9.99),
            city!("Brussels", "BRU", 50.85, 4.35),
            city!("Zurich", "ZRH", 47.37, 8.54),
            city!("Geneva", "GVA", 46.20, 6.14),
            city!("Milan", "MIL", 45.46, 9.19),
            city!("Vienna", "VIE", 48.21, 16.37),
            city!("Prague", "PRG", 50.08, 14.44),
            city!("Copenhagen", "CPH", 55.68, 12.57),
            city!("Dublin", "DUB", 53.35, -6.26),
            city!("Manchester", "MAN", 53.48, -2.24),
            city!("Birmingham", "BHX", 52.48, -1.89),
            city!("Edinburgh", "EDI", 55.95, -3.19),
            city!("Lyon", "LYS", 45.76, 4.84),
            city!("Marseille", "MRS", 43.30, 5.37),
            city!("Barcelona", "BCN", 41.39, 2.17),
            city!("Turin", "TRN", 45.07, 7.69),
            city!("Stuttgart", "STR", 48.78, 9.18),
            city!("Cologne", "CGN", 50.94, 6.96),
            city!("Dusseldorf", "DUS", 51.23, 6.77),
            city!("Rotterdam", "RTM", 51.92, 4.48),
            city!("Antwerp", "ANR", 51.22, 4.40),
            city!("Luxembourg", "LUX", 49.61, 6.13),
            city!("Strasbourg", "SXB", 48.57, 7.75),
            city!("Leipzig", "LEJ", 51.34, 12.37),
            city!("Venice", "VCE", 45.44, 12.32),
            city!("Bologna", "BLQ", 44.49, 11.34),
            // --- Japan ---
            city!("Tokyo", "TYO", 35.68, 139.69),
            city!("Osaka", "OSA", 34.69, 135.50),
            city!("Nagoya", "NGO", 35.18, 136.91),
            city!("Sapporo", "CTS", 43.06, 141.35),
            city!("Fukuoka", "FUK", 33.59, 130.40),
            city!("Kyoto", "UKY", 35.01, 135.77),
            city!("Yokohama", "YOK", 35.44, 139.64),
            city!("Kobe", "UKB", 34.69, 135.20),
            city!("Sendai", "SDJ", 38.27, 140.87),
            city!("Hiroshima", "HIJ", 34.39, 132.46),
            city!("Kawasaki", "KWS", 35.53, 139.70),
            city!("Saitama", "STM", 35.86, 139.65),
            // --- Africa ---
            city!("Cairo", "CAI", 30.04, 31.24),
            city!("Lagos", "LOS", 6.52, 3.38),
            city!("Johannesburg", "JNB", -26.20, 28.05),
            city!("Cape Town", "CPT", -33.92, 18.42),
            city!("Nairobi", "NBO", -1.29, 36.82),
            city!("Casablanca", "CMN", 33.57, -7.59),
            city!("Accra", "ACC", 5.60, -0.19),
            city!("Tunis", "TUN", 36.81, 10.18),
            city!("Algiers", "ALG", 36.75, 3.06),
            city!("Addis Ababa", "ADD", 9.02, 38.75),
            city!("Dakar", "DKR", 14.72, -17.47),
            city!("Abidjan", "ABJ", 5.36, -4.01),
            // --- South America ---
            city!("Sao Paulo", "SAO", -23.55, -46.63),
            city!("Buenos Aires", "BUE", -34.60, -58.38),
            city!("Rio de Janeiro", "RIO", -22.91, -43.17),
            city!("Lima", "LIM", -12.05, -77.04),
            city!("Bogota", "BOG", 4.71, -74.07),
            city!("Santiago", "SCL", -33.45, -70.67),
            city!("Caracas", "CCS", 10.49, -66.88),
            city!("Quito", "UIO", -0.18, -78.47),
            city!("Montevideo", "MVD", -34.90, -56.16),
            city!("Porto Alegre", "POA", -30.03, -51.23),
            // --- Mexico & Central America ---
            city!("Mexico City", "MEX", 19.43, -99.13),
            city!("Guadalajara", "GDL", 20.67, -103.35),
            city!("Monterrey", "MTY", 25.69, -100.32),
            city!("Guatemala City", "GUA", 14.63, -90.51),
            city!("San Salvador", "SAL", 13.69, -89.22),
            city!("Panama City", "PTY", 8.98, -79.52),
            city!("San Jose CR", "SJO", 9.93, -84.08),
            city!("Havana", "HAV", 23.11, -82.37),
            // --- Australia ---
            city!("Sydney", "SYD", -33.87, 151.21),
            city!("Melbourne", "MEL", -37.81, 144.96),
            city!("Brisbane", "BNE", -27.47, 153.03),
            city!("Perth", "PER", -31.95, 115.86),
            city!("Adelaide", "ADL", -34.93, 138.60),
            city!("Canberra", "CBR", -35.28, 149.13),
        ];
        Gazetteer::from_cities(cities)
    }

    /// Builds a gazetteer from an explicit city list (later entries with
    /// duplicate codes are dropped).
    pub(crate) fn from_cities(cities: Vec<City>) -> Self {
        let mut g = Gazetteer {
            cities: Vec::with_capacity(cities.len()),
            by_code: HashMap::new(),
            buckets: HashMap::new(),
        };
        for c in cities {
            g.push(c);
        }
        g
    }

    fn push(&mut self, city: City) -> bool {
        let code = city.code.to_ascii_uppercase();
        if self.by_code.contains_key(&code) {
            return false;
        }
        let idx = self.cities.len() as u32;
        self.by_code.insert(code, idx);
        self.buckets
            .entry(bucket_of(&city.location))
            .or_default()
            .push(idx);
        self.cities.push(city);
        true
    }

    /// Densifies the gazetteer with synthetic towns: one per raster cell
    /// whose population is at least `min_cell_pop`, placed at the cell
    /// centre. Synthetic codes are generated (`ZAAAA`, `ZAAAB`, ...) and
    /// never collide with the curated core. Stops silently if the
    /// 456,976-code synthetic space fills up.
    ///
    /// `min_cell_pop` is an absolute per-cell threshold: scale it with
    /// the raster's cell area (a 30-arcmin cell holds 4× the people of a
    /// 15-arcmin one at the same density).
    pub fn extend_from_population(&mut self, grid: &PopulationGrid, min_cell_pop: f64) -> usize {
        const CAPACITY: u32 = 26 * 26 * 26 * 26;
        let mut added = 0usize;
        let mut counter = 0u32;
        for cell in grid.grid().cells() {
            let pop = grid.cells()[grid.grid().flat_index(cell)];
            if pop < min_cell_pop {
                continue;
            }
            let center = grid.grid().cell_center(cell);
            if !grid.region().contains(&center) {
                continue;
            }
            // Synthetic code: 'Z' + 4 base-26 digits (the curated core
            // has no Z-initial codes, so no collisions with it).
            loop {
                if counter >= CAPACITY {
                    return added;
                }
                let code = format!(
                    "Z{}{}{}{}",
                    (b'A' + ((counter / 17_576) % 26) as u8) as char,
                    (b'A' + ((counter / 676) % 26) as u8) as char,
                    (b'A' + ((counter / 26) % 26) as u8) as char,
                    (b'A' + (counter % 26) as u8) as char
                );
                counter += 1;
                let city = City {
                    name: format!("town-{code}"),
                    code,
                    location: center,
                };
                if self.push(city) {
                    added += 1;
                    break;
                }
            }
        }
        added
    }

    /// All cities.
    pub fn cities(&self) -> &[City] {
        &self.cities
    }

    /// Number of cities.
    pub fn len(&self) -> usize {
        self.cities.len()
    }

    /// Whether the gazetteer is empty.
    pub fn is_empty(&self) -> bool {
        self.cities.is_empty()
    }

    /// The gazetteer city nearest to `p` with its distance in miles.
    pub fn nearest(&self, p: &GeoPoint) -> Option<(&City, f64)> {
        self.nearest_idx(p)
            .map(|(i, d)| (&self.cities[i as usize], d))
    }

    /// [`Gazetteer::nearest`] with an optional memoized answer: a
    /// `Some` hint (a prior [`Gazetteer::nearest_idx`] result for `p`
    /// against *this* gazetteer) is served without searching, `None`
    /// falls back to the full expanding-ring scan. The mapping hot
    /// paths call this with per-router hints so co-located interfaces
    /// pay for one search, not one each.
    pub fn nearest_hinted(&self, p: &GeoPoint, hint: Option<(u32, f64)>) -> Option<(&City, f64)> {
        match hint {
            Some((i, d)) => Some((&self.cities[i as usize], d)),
            None => self.nearest(p),
        }
    }

    /// Index (into [`Gazetteer::cities`]) and distance in miles of the
    /// single nearest city — the allocation-free core of
    /// [`Gazetteer::nearest`], shaped for the query snapshot's hot
    /// lookup path: one best candidate is tracked through the expanding
    /// ring scan, no candidate vector is built. Ties break toward the
    /// lower index.
    // analyze: hot-path-root
    pub fn nearest_idx(&self, p: &GeoPoint) -> Option<(u32, f64)> {
        if self.cities.is_empty() {
            return None;
        }
        let (pr, pc) = bucket_of(p);
        let mut best: Option<(u32, f64)> = None;
        for ring in 0i16..=181 {
            for dr in -ring..=ring {
                for dc in -ring..=ring {
                    if dr.abs() != ring && dc.abs() != ring {
                        continue; // boundary only; interior already done
                    }
                    let Some(bucket) = self.buckets.get(&(pr + dr, wrap_col(pc + dc))) else {
                        continue;
                    };
                    for &i in bucket {
                        let d = haversine_miles(p, &self.cities[i as usize].location);
                        let better = match best {
                            None => true,
                            Some((bi, bd)) => match d.total_cmp(&bd) {
                                std::cmp::Ordering::Less => true,
                                std::cmp::Ordering::Equal => i < bi,
                                std::cmp::Ordering::Greater => false,
                            },
                        };
                        if better {
                            best = Some((i, d));
                        }
                    }
                }
            }
            if let Some((_, bd)) = best {
                // Same termination bound as nearest_k: a city in an
                // unscanned bucket is more than `ring` degrees away.
                if bd <= ring_bound_miles(ring) {
                    return best;
                }
            }
        }
        best
    }

    /// The `k`-th nearest city (0 = nearest).
    pub fn kth_nearest(&self, p: &GeoPoint, k: usize) -> Option<&City> {
        self.nearest_k(p, k + 1)
            .get(k)
            .map(|&(i, _)| &self.cities[i as usize])
    }

    /// The `k` nearest cities as (index, distance), closest first, via
    /// expanding-ring bucket search. Each ring scans only its boundary
    /// buckets; the search stops once the k-th best hit provably beats
    /// anything an unscanned bucket could hold.
    fn nearest_k(&self, p: &GeoPoint, k: usize) -> Vec<(u32, f64)> {
        if self.cities.is_empty() || k == 0 {
            return Vec::new();
        }
        let (pr, pc) = bucket_of(p);
        let mut best: Vec<(u32, f64)> = Vec::new();
        for ring in 0i16..=181 {
            for dr in -ring..=ring {
                for dc in -ring..=ring {
                    if dr.abs() != ring && dc.abs() != ring {
                        continue; // boundary only; interior already done
                    }
                    if let Some(bucket) = self.buckets.get(&(pr + dr, wrap_col(pc + dc))) {
                        for &i in bucket {
                            let d = haversine_miles(p, &self.cities[i as usize].location);
                            best.push((i, d));
                        }
                    }
                }
            }
            if best.len() >= k {
                sort_dedup_candidates(&mut best);
                if best.len() >= k && best[k - 1].1 <= ring_bound_miles(ring) {
                    best.truncate(k);
                    return best;
                }
            }
        }
        sort_dedup_candidates(&mut best);
        best.truncate(k);
        best
    }

    /// Looks up a city by its code (case-insensitive).
    pub fn by_code(&self, code: &str) -> Option<&City> {
        self.by_code
            .get(&code.to_ascii_uppercase())
            .map(|&i| &self.cities[i as usize])
    }
}

/// 1°×1° bucket key. Column 180 (a point at exactly +180° longitude)
/// wraps to -180: probe columns are normalized into [-180, 179] by
/// [`wrap_col`], so a city stored under column 180 would be invisible
/// to every query — the antimeridian bug this normalization fixes.
fn bucket_of(p: &GeoPoint) -> (i16, i16) {
    (p.lat().floor() as i16, wrap_col(p.lon().floor() as i16))
}

/// Normalizes a (possibly ring-offset) bucket column into [-180, 179],
/// wrapping across the date line.
fn wrap_col(mut col: i16) -> i16 {
    if col < -180 {
        col += 360;
    } else if col >= 180 {
        col -= 360;
    }
    col
}

/// The expanding-ring termination bound: a city in a bucket the ring
/// has not scanned differs by more than `ring` bucket indices, i.e. by
/// more than `ring` degrees of latitude or longitude. The tightest mile
/// bound is the longitude one at high latitude; 0.25 covers |lat| ≤ 75.5°.
fn ring_bound_miles(ring: i16) -> f64 {
    69.0 * f64::from(ring) * 0.25
}

/// Sorts candidates by (distance, index) and drops duplicate indices:
/// once the ring radius exceeds 180 columns the date-line wrap makes
/// two `dc` offsets land on the same bucket, so a boundary scan can
/// visit one bucket twice — without the dedup, `nearest_k` could hand
/// back the same city in two result slots.
fn sort_dedup_candidates(best: &mut Vec<(u32, f64)>) {
    best.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("finite") // lint: allow(unwrap): haversine of valid coordinates is finite
            .then_with(|| a.0.cmp(&b.0))
    });
    best.dedup_by_key(|e| e.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_is_reasonably_sized() {
        let g = Gazetteer::builtin();
        assert!(g.len() >= 100, "only {} cities", g.len());
    }

    #[test]
    fn codes_are_unique() {
        let g = Gazetteer::builtin();
        let mut codes: Vec<_> = g.cities().iter().map(|c| c.code.clone()).collect();
        codes.sort_unstable();
        let before = codes.len();
        codes.dedup();
        assert_eq!(before, codes.len(), "duplicate codes");
    }

    #[test]
    fn nearest_boston_suburb_is_boston() {
        let g = Gazetteer::builtin();
        let cambridge = GeoPoint::new(42.37, -71.11).unwrap();
        let (c, d) = g.nearest(&cambridge).unwrap();
        assert_eq!(c.code, "BOS");
        assert!(d < 10.0);
    }

    #[test]
    fn nearest_handles_europe_and_japan() {
        let g = Gazetteer::builtin();
        let versailles = GeoPoint::new(48.80, 2.13).unwrap();
        assert_eq!(g.nearest(&versailles).unwrap().0.code, "PAR");
        let chiba = GeoPoint::new(35.61, 140.11).unwrap();
        let near_tokyo = g.nearest(&chiba).unwrap().0.code.clone();
        assert!(near_tokyo == "TYO" || near_tokyo == "KWS", "{near_tokyo}");
    }

    #[test]
    fn by_code_roundtrip() {
        let g = Gazetteer::builtin();
        for c in g.cities() {
            assert_eq!(g.by_code(&c.code).unwrap().name, c.name);
        }
        assert!(g.by_code("XXX").is_none());
        assert!(g.by_code("nyc").is_some());
    }

    #[test]
    fn kth_nearest_ordering() {
        let g = Gazetteer::builtin();
        let p = GeoPoint::new(40.0, -75.0).unwrap();
        let first = g.kth_nearest(&p, 0).unwrap();
        let second = g.kth_nearest(&p, 1).unwrap();
        assert_ne!(first.code, second.code);
        let d1 = geotopo_geo::haversine_miles(&first.location, &p);
        let d2 = geotopo_geo::haversine_miles(&second.location, &p);
        assert!(d1 <= d2);
        assert!(g.kth_nearest(&p, 10_000).is_none());
    }

    #[test]
    fn city_coordinates_are_valid() {
        for c in Gazetteer::builtin().cities() {
            assert!((-90.0..=90.0).contains(&c.location.lat()));
        }
    }

    #[test]
    fn antimeridian_query_finds_city_across_date_line() {
        let g = Gazetteer::from_cities(vec![
            city!("West of line", "WST", 0.0, 179.5),
            city!("Far away", "FAR", 50.0, 0.0),
        ]);
        // Just east of the date line: the nearest city sits ~50 miles
        // away on the *other* side of ±180°, not a third of the globe
        // away at Greenwich.
        let p = GeoPoint::new(0.0, -179.8).unwrap();
        let (c, d) = g.nearest(&p).unwrap();
        assert_eq!(c.code, "WST");
        assert!(d < 100.0, "{d} miles");
    }

    #[test]
    fn city_at_exactly_180_longitude_is_reachable() {
        // Pre-fix, bucket_of stored this city under column 180, which
        // the probe normalization can never address: the city existed
        // but no query could find it.
        let g = Gazetteer::from_cities(vec![city!("Date line", "DTL", 10.0, 180.0)]);
        for lon in [179.0, -179.0, 180.0] {
            let p = GeoPoint::new(10.0, lon).unwrap();
            let (c, _) = g
                .nearest(&p)
                .unwrap_or_else(|| panic!("no city from lon {lon}"));
            assert_eq!(c.code, "DTL");
        }
    }

    #[test]
    fn worldwide_ring_wrap_returns_no_duplicates() {
        // Query on the far side of the globe from a two-city gazetteer:
        // the expanding ring wraps all 360 columns, where the same
        // bucket used to be scanned twice per ring and nearest_k(p, 2)
        // returned one city in both slots.
        let g = Gazetteer::from_cities(vec![
            city!("A", "AAA", 0.0, 10.0),
            city!("B", "BBB", 0.3, 10.2),
        ]);
        let p = GeoPoint::new(0.0, -170.0).unwrap();
        let pair = g.nearest_k(&p, 2);
        assert_eq!(pair.len(), 2, "second city lost");
        assert_ne!(pair[0].0, pair[1].0, "duplicate city in nearest_k");
    }

    #[test]
    fn nearest_idx_memo_is_bit_identical_across_antimeridian_and_poles() {
        // The mapping stages and the query snapshot's freeze memo serve
        // `nearest_hinted` with a cached `nearest_idx` answer instead of
        // re-searching. That cache is only sound if the memoized (city,
        // distance) pair is *bit*-identical to what the unmemoized scan
        // returns — including at the antimeridian and pole geometries
        // whose bucket addressing was fixed in an earlier revision.
        let g = Gazetteer::from_cities(vec![
            city!("West of line", "WST", 0.0, 179.5),
            city!("Date line", "DTL", 10.0, 180.0),
            city!("Near north pole", "NPL", 89.6, -45.0),
            city!("Near south pole", "SPL", -89.4, 120.0),
            city!("Far away", "FAR", 50.0, 0.0),
        ]);
        let probes = [
            (0.0, -179.8),  // just east of the date line, city to the west
            (10.0, 179.0),  // city stored at exactly 180° longitude
            (10.0, -179.0), // same city, approached from the east
            (10.0, 180.0),  // probe itself at 180°
            (90.0, 0.0),    // north pole: all longitudes coincide
            (89.9, 135.0),  // near-pole probe far from the city's lon
            (-90.0, 0.0),   // south pole
            (-89.8, -60.0), // near south pole, opposite longitude
        ];
        for (lat, lon) in probes {
            let p = GeoPoint::new(lat, lon).unwrap();
            let (city, d) = g.nearest(&p).unwrap();
            let memo = g.nearest_idx(&p);
            let (hinted, hd) = g.nearest_hinted(&p, memo).unwrap();
            assert_eq!(
                city.code, hinted.code,
                "memoized city diverged at ({lat}, {lon})"
            );
            assert_eq!(
                d.to_bits(),
                hd.to_bits(),
                "memoized distance not bit-identical at ({lat}, {lon}): {d} vs {hd}"
            );
            // A `None` hint must fall back to the exact same search.
            let (fallback, fd) = g.nearest_hinted(&p, None).unwrap();
            assert_eq!(city.code, fallback.code);
            assert_eq!(d.to_bits(), fd.to_bits());
        }
    }

    #[test]
    fn nearest_idx_agrees_with_nearest_k() {
        let g = Gazetteer::builtin();
        for (lat, lon) in [
            (42.37, -71.11),
            (0.0, -170.0),
            (-33.0, 151.0),
            (10.0, 180.0),
            (48.80, 2.13),
        ] {
            let p = GeoPoint::new(lat, lon).unwrap();
            let (i, d) = g.nearest_idx(&p).unwrap();
            let k = g.nearest_k(&p, 1)[0];
            assert_eq!(i, k.0, "index diverged at ({lat}, {lon})");
            assert!((d - k.1).abs() < 1e-9);
        }
    }
}
