//! Simulated topology measurement.
//!
//! The paper's two datasets come from two very different collectors, and
//! the differences matter for every downstream number:
//!
//! - **Skitter** (Section III-A): ~19 monitors worldwide send hop-limited
//!   probes to large destination lists. It observes *interfaces* (it
//!   cannot tell which interfaces share a router), its view is biased
//!   toward the union of shortest-path trees, and destination-list
//!   entries (mostly end hosts) are discarded before analysis.
//! - **Mercator**: a *single* source exploring a heuristically chosen
//!   address space, using loose source routing to find lateral links,
//!   and UDP-probe alias resolution to collapse interfaces into
//!   *routers* — imperfectly ("this technique suffers from numerous
//!   limitations").
//!
//! This crate reproduces both collection processes over a
//! [`geotopo_topology::generate::GroundTruth`] world:
//!
//! - [`routing`]: policy-aware shortest paths (interdomain hops cost
//!   extra, modelling BGP path inflation).
//! - [`probe`]: TTL-style forward-path tracing that records the
//!   *incoming interface* of each responding hop, one walk under a fault
//!   session, and the destination list both collectors trace to.
//! - [`skitter`] / [`mercator`]: the two collectors, one entry point
//!   each ([`Skitter::collect_with_faults_exec`],
//!   [`Mercator::collect_with_faults`]); a fault-free run passes
//!   [`FaultConfig::none`].
//! - [`dataset`]: the measured-graph representation both emit, built
//!   through a [`dataset::DatasetBuilder`] whose IP index and link set are
//!   dropped before the collector returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod faults;
pub mod mercator;
pub mod probe;
pub mod routing;
pub mod skitter;

pub use dataset::{AnomalyStats, MeasureInvariant, MeasuredDataset, MonitorRecord, NodeKind};
pub use faults::{FaultConfig, FaultPlan, FaultSession, FaultStats, ProbeFate, StageFailure};

/// Deterministic per-router RNG used by alias resolution (success is a
/// property of the router, stable across probes).
pub(crate) fn alias_rng(seed: u64, router: u32) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    let mut z = seed
        .wrapping_add(u64::from(router).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xA076_1D64_78BD_642F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    rand::rngs::StdRng::seed_from_u64(z ^ (z >> 31))
}
pub use mercator::{Mercator, MercatorConfig, MercatorOutput};
pub use probe::{TraceBuf, TracerouteSim};
pub use routing::{RoutingOracle, RoutingScratch, RoutingStats, WalkUp};
pub use skitter::{Skitter, SkitterConfig, SkitterOutput, DEST_CHUNK};
