//! Fractal dimension of the mapped node set.
//!
//! Section II: "That paper [Yook, Jeong, Barabási] demonstrated the
//! similar fractal dimension (~1.5) of routers, ASes, and population
//! density; our work, not shown in this paper, confirms this result for
//! our datasets as well (via the box-counting method)."

use crate::pipeline::GeoDataset;
use geotopo_geo::{box_counting_dimension, boxcount::default_scales, BoxCountResult, Region};
use serde::{Deserialize, Serialize};

/// Fractal dimension result per region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FractalRow {
    /// Region name.
    pub region: String,
    /// Box-counting result over the mapped node set.
    pub nodes: Option<BoxCountResult>,
}

/// Box-counting dimension of the dataset's node locations within each
/// region.
pub fn fractal_dimensions(dataset: &GeoDataset, regions: &[Region]) -> Vec<FractalRow> {
    regions
        .iter()
        .map(|region| {
            let pts: Vec<_> = dataset
                .nodes
                .iter()
                .map(|n| n.location)
                .filter(|p| region.contains(p))
                .collect();
            FractalRow {
                region: region.name.clone(),
                nodes: box_counting_dimension(region, &pts, &default_scales()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::GeoNode;
    use geotopo_bgp::AsId;
    use geotopo_geo::{GeoPoint, RegionSet};
    use geotopo_measure::NodeKind;

    #[test]
    fn clustered_nodes_have_fractional_dimension() {
        // A clustered point set: several dense blobs.
        let mut nodes = Vec::new();
        let centers = [
            (40.0, -100.0),
            (34.0, -118.0),
            (41.0, -74.0),
            (47.0, -122.0),
        ];
        let mut i = 0u32;
        for &(clat, clon) in &centers {
            for a in 0..12 {
                for b in 0..12 {
                    nodes.push(GeoNode {
                        ip: std::net::Ipv4Addr::from(i),
                        location: GeoPoint::new(clat + a as f64 * 0.08, clon + b as f64 * 0.08)
                            .unwrap(),
                        asn: AsId(1),
                    });
                    i += 1;
                }
            }
        }
        let d = GeoDataset {
            kind: NodeKind::Interface,
            nodes,
            links: vec![],
            stats: Default::default(),
        };
        let rows = fractal_dimensions(&d, &[RegionSet::us()]);
        let res = rows[0].nodes.as_ref().unwrap();
        assert!(
            res.dimension > 0.2 && res.dimension < 1.9,
            "dimension {}",
            res.dimension
        );
    }

    #[test]
    fn empty_region_has_no_result() {
        let d = GeoDataset {
            kind: NodeKind::Interface,
            nodes: vec![],
            links: vec![],
            stats: Default::default(),
        };
        let rows = fractal_dimensions(&d, &[RegionSet::japan()]);
        assert!(rows[0].nodes.is_none());
    }
}
