//! AS business relationships and valley-free path validation.
//!
//! The paper's motivation for AS labels is "to simulate interdomain
//! routing". Interdomain routing is shaped by business relationships:
//! customer–provider and peer–peer edges, with the *valley-free* rule
//! (Gao 2001): a path may climb customer→provider edges, cross at most
//! one peer edge at the top, then descend provider→customer — money
//! never flows uphill twice.
//!
//! Relationships are inferred with the classic size heuristic the
//! paper's reference \[36\] leans on (degree/size determines role): on an
//! AS-graph edge, the much larger AS is the provider; similar sizes
//! peer.

use crate::prefix::AsId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Relationship of an AS-graph edge, read from the first AS's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relationship {
    /// The first AS is a customer of the second (money flows 1 → 2).
    CustomerToProvider,
    /// The first AS is the provider of the second.
    ProviderToCustomer,
    /// Settlement-free peers.
    PeerToPeer,
}

impl Relationship {
    /// The same edge read from the other side.
    pub fn reversed(self) -> Relationship {
        match self {
            Relationship::CustomerToProvider => Relationship::ProviderToCustomer,
            Relationship::ProviderToCustomer => Relationship::CustomerToProvider,
            Relationship::PeerToPeer => Relationship::PeerToPeer,
        }
    }
}

/// A relationship-annotated AS graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AsRelations {
    edges: HashMap<(AsId, AsId), Relationship>,
}

impl AsRelations {
    /// Infers relationships from AS sizes: on each adjacency, the AS at
    /// least `provider_ratio` times larger is the provider; otherwise
    /// the edge is a peering.
    pub fn infer(
        sizes: &HashMap<AsId, usize>,
        adjacencies: impl IntoIterator<Item = (AsId, AsId)>,
        provider_ratio: f64,
    ) -> Self {
        let mut edges = HashMap::new();
        for (a, b) in adjacencies {
            if a == b {
                continue;
            }
            let sa = sizes.get(&a).copied().unwrap_or(1).max(1) as f64;
            let sb = sizes.get(&b).copied().unwrap_or(1).max(1) as f64;
            let rel = if sa >= provider_ratio * sb {
                Relationship::ProviderToCustomer
            } else if sb >= provider_ratio * sa {
                Relationship::CustomerToProvider
            } else {
                Relationship::PeerToPeer
            };
            edges.insert(key(a, b), if a < b { rel } else { rel.reversed() });
        }
        AsRelations { edges }
    }

    /// The relationship of edge (from, to), read from `from`'s side.
    pub fn get(&self, from: AsId, to: AsId) -> Option<Relationship> {
        let rel = self.edges.get(&key(from, to))?;
        Some(if from < to { *rel } else { rel.reversed() })
    }

    /// Number of annotated edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Validates the valley-free property of an AS path: zero or more
    /// customer→provider steps, at most one peer step, then zero or more
    /// provider→customer steps. Consecutive identical ASes are treated
    /// as one hop. Unknown edges invalidate the path.
    pub fn is_valley_free(&self, path: &[AsId]) -> bool {
        #[derive(PartialEq, Clone, Copy, PartialOrd)]
        enum Phase {
            Up,
            Peak,
            Down,
        }
        let mut phase = Phase::Up;
        let mut prev: Option<AsId> = None;
        for &asn in path {
            let Some(p) = prev else {
                prev = Some(asn);
                continue;
            };
            if p == asn {
                continue;
            }
            let Some(rel) = self.get(p, asn) else {
                return false;
            };
            phase = match (phase, rel) {
                (Phase::Up, Relationship::CustomerToProvider) => Phase::Up,
                (Phase::Up, Relationship::PeerToPeer) => Phase::Peak,
                (Phase::Up | Phase::Peak | Phase::Down, Relationship::ProviderToCustomer) => {
                    Phase::Down
                }
                _ => return false,
            };
            prev = Some(asn);
        }
        true
    }
}

fn key(a: AsId, b: AsId) -> (AsId, AsId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_graph() -> AsRelations {
        // AS1 huge (tier-1), AS2 and AS3 mid (peers of each other,
        // customers of AS1), AS4 small (customer of AS2).
        let mut sizes = HashMap::new();
        sizes.insert(AsId(1), 1000);
        sizes.insert(AsId(2), 100);
        sizes.insert(AsId(3), 90);
        sizes.insert(AsId(4), 5);
        AsRelations::infer(
            &sizes,
            [
                (AsId(1), AsId(2)),
                (AsId(1), AsId(3)),
                (AsId(2), AsId(3)),
                (AsId(2), AsId(4)),
            ],
            3.0,
        )
    }

    #[test]
    fn inference_by_size() {
        let g = rel_graph();
        assert_eq!(
            g.get(AsId(1), AsId(2)),
            Some(Relationship::ProviderToCustomer)
        );
        assert_eq!(
            g.get(AsId(2), AsId(1)),
            Some(Relationship::CustomerToProvider)
        );
        assert_eq!(g.get(AsId(2), AsId(3)), Some(Relationship::PeerToPeer));
        assert_eq!(g.get(AsId(3), AsId(2)), Some(Relationship::PeerToPeer));
        assert_eq!(
            g.get(AsId(2), AsId(4)),
            Some(Relationship::ProviderToCustomer)
        );
        assert_eq!(g.get(AsId(1), AsId(4)), None);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn valid_valley_free_paths() {
        let g = rel_graph();
        // Up, down: 4 → 2 → 1 is pure uphill.
        assert!(g.is_valley_free(&[AsId(4), AsId(2), AsId(1)]));
        // Up to provider, down to sibling: 4 → 2 → 3? 2-3 is a peer
        // step, allowed as the single peak crossing.
        assert!(g.is_valley_free(&[AsId(4), AsId(2), AsId(3)]));
        // Up, peak, down: 4 → 2 → 3 then 3 → ? 3 has no customers;
        // full mountain: 4 → 2 → 1 → 3 (up, up, down).
        assert!(g.is_valley_free(&[AsId(4), AsId(2), AsId(1), AsId(3)]));
        // Trivial paths.
        assert!(g.is_valley_free(&[AsId(2)]));
        assert!(g.is_valley_free(&[]));
    }

    #[test]
    fn valleys_rejected() {
        let g = rel_graph();
        // Down then up: 1 → 2 → 1? repeated AS collapses... use
        // 1 → 2 then 2 → 1: phase Down then C2P = valley.
        assert!(!g.is_valley_free(&[AsId(1), AsId(2), AsId(1)]));
        // Down then peer: 1 → 2 (down) then 2 → 3 (peer) is invalid.
        assert!(!g.is_valley_free(&[AsId(1), AsId(2), AsId(3)]));
        // Two peer crossings: 2 → 3 (peer) then 3 → 2 (peer).
        assert!(!g.is_valley_free(&[AsId(2), AsId(3), AsId(2)]));
    }

    #[test]
    fn unknown_edge_invalidates() {
        let g = rel_graph();
        assert!(!g.is_valley_free(&[AsId(1), AsId(4)]));
    }

    #[test]
    fn repeated_as_hops_collapse() {
        let g = rel_graph();
        // Intra-AS router hops show up as repeated AS labels.
        assert!(g.is_valley_free(&[AsId(4), AsId(4), AsId(2), AsId(2), AsId(1)]));
    }
}
