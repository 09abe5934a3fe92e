//! Synthetic gridded population — the workspace's substitute for the
//! CIESIN "Gridded Population of the World" dataset the paper uses
//! (Section IV, reference \[6\]).
//!
//! The paper tallies population inside 75-arcmin patches and regresses
//! router counts against it. What that analysis needs from the population
//! data is its *statistical structure*: a heavy-tailed spatial density in
//! which a few urban cells hold most of the people (real population
//! follows Zipf's law across cities and is fractal in space). The
//! [`synth`] module generates exactly that: Zipf-ranked cities spread by
//! Gaussian kernels over a rural background, calibrated to per-region
//! totals from the paper's Table III.
//!
//! - [`PopulationGrid`]: a raster of persons per cell over a region, with
//!   weighted point sampling and aggregation onto analysis patch grids.
//! - [`synth::SyntheticPopulation`]: the generator.
//! - [`world`]: the paper's economic-region model (Table III constants:
//!   population and Nua online-user counts per region).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod synth;
pub mod world;

pub use grid::{PointSampler, PopulationGrid};
pub use synth::SyntheticPopulation;
pub use world::{EconomicProfile, WorldModel};
