//! Topology generators.
//!
//! - [`ground_truth`]: the synthetic geographic Internet that every
//!   experiment in the reproduction measures (the paper's real-world
//!   counterpart is the Internet itself).
//! - [`waxman()`]: the Waxman model \[38\] — uniform random placement,
//!   exponentially distance-decaying connection probability.
//! - [`erdos_renyi`]: the Erdős–Rényi random graph \[10\].
//! - [`barabasi_albert`]: preferential attachment \[2\].
//! - [`transit_stub`]: a GT-ITM-style two-level hierarchy \[41\].
//! - [`geogen()`]: the geography-aware next-generation generator the paper
//!   envisions — population-driven placement, mixed distance-sensitive /
//!   distance-independent link formation, AS labels and latencies.

pub mod ba;
pub mod brite;
pub mod er;
pub mod geogen;
pub mod ground_truth;
pub mod hier;
pub mod waxman;

pub use ba::{barabasi_albert, BarabasiAlbertConfig};
pub use brite::{brite, BriteConfig, Placement};
pub use er::{erdos_renyi, ErdosRenyiConfig};
pub use geogen::{geogen, GeoGenConfig, GeoGenOutput};
pub use ground_truth::{GroundTruth, GroundTruthConfig, RegionProfile};
pub use hier::{transit_stub, TransitStubConfig};
pub use waxman::{waxman, WaxmanConfig};

use geotopo_geo::{GeoPoint, Region};
use rand::Rng;

/// Draws a point uniformly at random inside a region (by angle — fine for
/// the mid-latitude study regions).
pub(crate) fn uniform_in_region<R: Rng + ?Sized>(rng: &mut R, region: &Region) -> GeoPoint {
    let lat = rng.random_range(region.south..region.north);
    let off = rng.random_range(0.0..region.lon_span());
    let mut lon = region.west + off;
    if lon > 180.0 {
        lon -= 360.0;
    }
    GeoPoint::new_unchecked(lat, lon)
}

/// One standard-normal draw (Box–Muller, cosine branch).
pub(crate) fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Jitters a point by an isotropic Gaussian of `sigma_deg` degrees,
/// clamped into `region`.
pub(crate) fn jitter_in_region<R: Rng + ?Sized>(
    rng: &mut R,
    p: &GeoPoint,
    sigma_deg: f64,
    region: &Region,
) -> GeoPoint {
    let lat = p.lat() + std_normal(rng) * sigma_deg;
    let lon = p.lon() + std_normal(rng) * sigma_deg;
    region.clamp(&GeoPoint::new_unchecked(lat.clamp(-90.0, 90.0), lon))
}
