//! The paper's analysis pipeline.
//!
//! This crate is the reproduction's primary contribution: it turns the
//! substrates (synthetic Internet, measurement simulators, geolocation
//! services, BGP tables) into every table and figure of *On the
//! Geographic Location of Internet Resources*.
//!
//! - [`pipeline`]: end-to-end dataset production — generate the world,
//!   collect with Skitter and Mercator, geolocate with IxMapper and
//!   EdgeScape, originate ASes via RouteViews LPM (Table I's four
//!   processed datasets).
//! - [`engine`]: the stage-graph execution engine behind the pipeline —
//!   typed stages, fingerprint-keyed artifact reuse, and a deterministic
//!   multi-threaded scheduler with per-stage [`engine::StageReport`]s.
//! - [`section4`]: routers and population (Tables III & IV, Figure 2).
//! - [`section5`]: links and distance (Figures 4–6, Table V).
//! - [`section6`]: autonomous systems (Figures 7–10, Table VI).
//! - [`fractal`]: box-counting dimension of the mapped node set
//!   (Section II's ~1.5 confirmation).
//! - [`ascii_map`]: Figure 1's dot maps, rendered as ASCII density.
//! - [`query`]: bulk hitlist serving over the pipeline's frozen
//!   [`geotopo_query::QuerySnapshot`] (`PipelineOutput::query`),
//!   threaded through the engine's deterministic pool.
//! - [`report`]: text tables, figure data series, JSON export.
//! - [`experiments`]: the experiment registry — one entry per table and
//!   figure, runnable individually or as the full paper.
//! - [`telemetry`]: the deterministic metrics registry threaded through
//!   the engine and stages (`PipelineOutput::metrics`, `--metrics-out`).
//! - [`vfs`]: the filesystem seam every disk touch goes through —
//!   [`vfs::RealVfs`] in production, the seeded [`vfs::ChaosVfs`] fault
//!   injector in the crash-consistency suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii_map;
pub mod engine;
pub mod experiments;
pub mod fractal;
pub mod gnuplot;
pub mod io;
pub mod pipeline;
pub mod query;
pub mod report;
pub mod section4;
pub mod section5;
pub mod section6;
pub mod telemetry;
pub mod vfs;

pub use pipeline::{
    Collector, GeoDataset, GeoInvariant, GeoNode, MapperKind, NearestHints, Pipeline,
    PipelineConfig, PipelineOutput, ProcessedDataset, ValidationMode,
};
