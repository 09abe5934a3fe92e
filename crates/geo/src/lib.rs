//! Geodesy primitives for the `geotopo` workspace.
//!
//! This crate supplies every geometric operation the paper's analysis
//! pipeline needs:
//!
//! - [`GeoPoint`]: a validated latitude/longitude pair (degrees).
//! - [`haversine_miles`]/[`haversine_km`]: great-circle distances, the
//!   distance measure used throughout the paper ("separated by great-circle
//!   distance d").
//! - [`AlbersProjection`]: the Albers equal-area conic projection the paper
//!   uses to compute convex hulls of AS interface sets (Section VI-B).
//! - [`convex_hull`] / [`polygon_area`]: planar monotone-chain hulls and
//!   shoelace areas over projected points.
//! - [`PatchGrid`]: the 75-arcmin × 75-arcmin patch grid of Section IV-B.
//! - [`Region`]: latitude/longitude bounding boxes (Tables II, III, IV).
//! - [`box_counting_dimension`]: fractal dimension via box counting,
//!   confirming the ~1.5 dimension reported by Yook et al. (Section II).
//! - [`SpatialIndex`]: the 1° grid-bucket index behind every radius and
//!   nearest-point query — ground truth's metro peering and the
//!   gazetteer's nearest-city search.
//!
//! All angles are degrees at API boundaries; radians are internal only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxcount;
pub mod coords;
pub mod distance;
pub mod grid;
pub mod hull;
pub mod projection;
pub mod region;
pub mod spatial;

pub use boxcount::{box_counting_dimension, BoxCountResult};
pub use coords::GeoPoint;
pub use distance::{haversine_km, haversine_miles, EARTH_RADIUS_KM, EARTH_RADIUS_MILES};
pub use grid::{PatchCell, PatchGrid};
pub use hull::{convex_hull, polygon_area, PlanarPoint};
pub use projection::AlbersProjection;
pub use region::{Region, RegionSet};
pub use spatial::SpatialIndex;
