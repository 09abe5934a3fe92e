//! Planar convex hulls and polygon areas.
//!
//! Section VI-B measures "the convex hull of each AS's interface set"
//! after projecting to the plane. We use Andrew's monotone chain (O(n log n))
//! and the shoelace formula for area.

use serde::{Deserialize, Serialize};

/// A point in the projected plane (statute miles).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanarPoint {
    /// Easting in miles.
    pub x: f64,
    /// Northing in miles.
    pub y: f64,
}

impl PlanarPoint {
    /// Constructs a planar point.
    pub fn new(x: f64, y: f64) -> Self {
        PlanarPoint { x, y }
    }

    /// Euclidean distance to another planar point.
    pub fn dist(&self, other: &PlanarPoint) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Twice the signed area of triangle (o, a, b); positive if counter-clockwise.
fn cross(o: &PlanarPoint, a: &PlanarPoint, b: &PlanarPoint) -> f64 {
    (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
}

/// Computes the convex hull of a point set via Andrew's monotone chain.
///
/// Returns hull vertices in counter-clockwise order without repeating the
/// first vertex. Degenerate inputs are handled: fewer than 3 distinct
/// points (or all collinear points) return the extreme points found, so the
/// result may have 0, 1 or 2 vertices — callers treat those as zero-area
/// hulls, exactly as the paper does ("around 80% of ASes ... have either
/// one or two locations (and thus zero area)").
pub fn convex_hull(points: &[PlanarPoint]) -> Vec<PlanarPoint> {
    let mut pts: Vec<PlanarPoint> = points.to_vec();
    pts.sort_by(|a, b| {
        a.x.partial_cmp(&b.x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.y.partial_cmp(&b.y).unwrap_or(std::cmp::Ordering::Equal))
    });
    #[allow(clippy::float_cmp)]
    pts.dedup_by(|a, b| a.x == b.x && a.y == b.y);
    let n = pts.len();
    if n <= 2 {
        return pts;
    }

    let mut hull: Vec<PlanarPoint> = Vec::with_capacity(2 * n);
    // Lower hull.
    for p in &pts {
        while hull.len() >= 2 && cross(&hull[hull.len() - 2], &hull[hull.len() - 1], p) <= 0.0 {
            hull.pop();
        }
        hull.push(*p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for p in pts.iter().rev() {
        while hull.len() >= lower_len
            && cross(&hull[hull.len() - 2], &hull[hull.len() - 1], p) <= 0.0
        {
            hull.pop();
        }
        hull.push(*p);
    }
    hull.pop(); // last point equals the first
    if hull.len() <= 2 {
        // All input points collinear: report the two extremes.
        hull.truncate(2);
    }
    hull
}

/// Area of a simple polygon given its vertices in order (shoelace formula).
///
/// Polygons with fewer than 3 vertices have zero area. The result is the
/// absolute area, in the square of the coordinate unit (square miles for
/// Albers-projected points).
pub fn polygon_area(vertices: &[PlanarPoint]) -> f64 {
    if vertices.len() < 3 {
        return 0.0;
    }
    let mut twice_area = 0.0;
    for i in 0..vertices.len() {
        let a = &vertices[i];
        let b = &vertices[(i + 1) % vertices.len()];
        twice_area += a.x * b.y - b.x * a.y;
    }
    twice_area.abs() / 2.0
}

/// Convenience: area of the convex hull of a point set, in squared units.
pub fn hull_area(points: &[PlanarPoint]) -> f64 {
    polygon_area(&convex_hull(points))
}

#[cfg(test)]
mod tests {
    // Tests assert exact expected values; bitwise float equality is the point.
    #![allow(clippy::float_cmp)]

    use super::*;

    fn pt(x: f64, y: f64) -> PlanarPoint {
        PlanarPoint::new(x, y)
    }

    #[test]
    fn empty_and_small_inputs() {
        assert!(convex_hull(&[]).is_empty());
        assert_eq!(convex_hull(&[pt(1.0, 2.0)]).len(), 1);
        assert_eq!(convex_hull(&[pt(1.0, 2.0), pt(3.0, 4.0)]).len(), 2);
        assert_eq!(hull_area(&[pt(1.0, 2.0), pt(3.0, 4.0)]), 0.0);
    }

    #[test]
    fn duplicate_points_collapse() {
        let pts = vec![pt(0.0, 0.0), pt(0.0, 0.0), pt(0.0, 0.0)];
        assert_eq!(convex_hull(&pts).len(), 1);
        assert_eq!(hull_area(&pts), 0.0);
    }

    #[test]
    fn collinear_points_zero_area() {
        let pts: Vec<_> = (0..10).map(|i| pt(i as f64, 2.0 * i as f64)).collect();
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 2, "{hull:?}");
        assert_eq!(polygon_area(&hull), 0.0);
    }

    #[test]
    fn unit_square() {
        let pts = vec![
            pt(0.0, 0.0),
            pt(1.0, 0.0),
            pt(1.0, 1.0),
            pt(0.0, 1.0),
            pt(0.5, 0.5),
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        assert!((polygon_area(&hull) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interior_points_excluded() {
        let mut pts = vec![pt(0.0, 0.0), pt(4.0, 0.0), pt(4.0, 4.0), pt(0.0, 4.0)];
        for i in 1..4 {
            for j in 1..4 {
                pts.push(pt(i as f64, j as f64));
            }
        }
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        assert!((hull_area(&pts) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn hull_is_counter_clockwise() {
        let pts = vec![pt(0.0, 0.0), pt(2.0, 0.0), pt(1.0, 2.0)];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 3);
        let mut signed = 0.0;
        for i in 0..hull.len() {
            let a = &hull[i];
            let b = &hull[(i + 1) % hull.len()];
            signed += a.x * b.y - b.x * a.y;
        }
        assert!(signed > 0.0, "hull not CCW: {hull:?}");
    }

    #[test]
    fn triangle_area() {
        let pts = vec![pt(0.0, 0.0), pt(4.0, 0.0), pt(0.0, 3.0)];
        assert!((hull_area(&pts) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn planar_distance() {
        assert!((pt(0.0, 0.0).dist(&pt(3.0, 4.0)) - 5.0).abs() < 1e-12);
    }
}
