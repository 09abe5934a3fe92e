//! Router-level Internet topology model and generators.
//!
//! The paper studies *router-level* maps: routers with geographic
//! locations, interfaces with IP addresses, links between interfaces, and
//! an AS label per router. This crate supplies:
//!
//! - [`graph`]: the [`Topology`] data structure (routers, interfaces,
//!   links, adjacency) with validated construction.
//! - [`metrics`]: degree distributions, connectivity, link-length
//!   profiles.
//! - [`latency`]: geographic latency labelling (the paper's motivating
//!   application for geography-aware generation).
//! - [`generate`]: topology generators —
//!   [`generate::GroundTruthConfig`] builds the synthetic Internet every
//!   experiment measures; [`generate::waxman()`], [`generate::erdos_renyi`],
//!   [`generate::barabasi_albert`] and [`generate::transit_stub`] are the
//!   baseline models the paper discusses (Section II); and
//!   [`generate::geogen()`] is the *geography-aware next-generation
//!   generator* the paper envisions in its conclusion — router graphs
//!   annotated with link latencies, AS identifiers and locations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod graph;
pub mod latency;
pub mod metrics;

pub use graph::{
    AdjEntry, Interface, InterfaceId, Link, LinkId, Router, RouterId, Topology, TopologyBuilder,
    TopologyError, TopologyInvariant,
};
