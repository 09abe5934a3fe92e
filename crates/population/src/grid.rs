//! Population rasters.

use geotopo_geo::{GeoPoint, PatchGrid, Region};
use geotopo_stats::AliasTable;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A raster of population (persons) over a region.
///
/// Internally this is a [`PatchGrid`] (equal-angle cells) with one `f64`
/// per cell. The native resolution is finer than the 75-arcmin analysis
/// patches (default 15 arcmin) so that aggregation onto the analysis grid
/// retains sub-patch structure for point sampling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationGrid {
    grid: PatchGrid,
    /// Persons per cell, row-major.
    cells: Vec<f64>,
}

/// Error from population-grid operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PopulationError {
    /// Cell vector length does not match the grid.
    SizeMismatch {
        /// Cells expected by the grid.
        expected: usize,
        /// Cells provided.
        got: usize,
    },
    /// A cell value was negative or non-finite.
    BadCellValue(usize),
    /// The grid is empty of population (cannot sample points).
    NoPopulation,
    /// A synthesis configuration is degenerate (invalid grid geometry
    /// or distribution parameters).
    BadConfig(&'static str),
}

impl std::fmt::Display for PopulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PopulationError::SizeMismatch { expected, got } => {
                write!(f, "cell vector has {got} entries, grid needs {expected}")
            }
            PopulationError::BadCellValue(i) => write!(f, "cell {i} is negative or non-finite"),
            PopulationError::NoPopulation => write!(f, "grid holds zero total population"),
            PopulationError::BadConfig(what) => {
                write!(f, "degenerate synthesis configuration: {what}")
            }
        }
    }
}

impl std::error::Error for PopulationError {}

impl PopulationGrid {
    /// Wraps a cell vector over a grid.
    ///
    /// # Errors
    ///
    /// Fails if the vector length mismatches or any value is invalid.
    pub fn new(grid: PatchGrid, cells: Vec<f64>) -> Result<Self, PopulationError> {
        if cells.len() != grid.len() {
            return Err(PopulationError::SizeMismatch {
                expected: grid.len(),
                got: cells.len(),
            });
        }
        for (i, &v) in cells.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(PopulationError::BadCellValue(i));
            }
        }
        Ok(PopulationGrid { grid, cells })
    }

    /// The underlying grid.
    pub fn grid(&self) -> &PatchGrid {
        &self.grid
    }

    /// The region covered.
    pub fn region(&self) -> &Region {
        self.grid.region()
    }

    /// Per-cell populations, row-major.
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// Approximate heap footprint in bytes (the raster cells; the patch
    /// geometry is a few scalars). Feeds the engine's resident-artifact
    /// accounting.
    pub fn mem_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<f64>()
    }

    /// Total population.
    pub fn total(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// Total population of cells whose centre lies inside `region`.
    ///
    /// The synthetic city draw makes the realized population of any
    /// sub-box of this grid seed-dependent, so analyses over sub-regions
    /// (e.g. the Table IV homogeneity split) must measure the realized
    /// split here rather than assume a nominal one.
    pub fn total_within(&self, region: &Region) -> f64 {
        self.grid
            .cells()
            .filter(|&cell| region.contains(&self.grid.cell_center(cell)))
            .map(|cell| self.cells[self.grid.flat_index(cell)])
            .sum()
    }

    /// Population of the cell containing `p` (0 outside the region).
    pub fn population_at(&self, p: &GeoPoint) -> f64 {
        match self.grid.cell_of(p) {
            Some(cell) => self.cells[self.grid.flat_index(cell)],
            None => 0.0,
        }
    }

    /// Rescales all cells so the total equals `target`.
    ///
    /// # Errors
    ///
    /// Fails with [`PopulationError::NoPopulation`] if the grid is empty.
    pub fn rescale_to(&mut self, target: f64) -> Result<(), PopulationError> {
        let total = self.total();
        if total <= 0.0 {
            return Err(PopulationError::NoPopulation);
        }
        let k = target / total;
        for c in &mut self.cells {
            *c *= k;
        }
        Ok(())
    }

    /// Aggregates this raster onto a coarser analysis grid (e.g. the
    /// paper's 75-arcmin patches), assigning each native cell's population
    /// to the analysis patch containing its centre. Returns per-patch
    /// populations, row-major over `analysis`.
    pub fn tally_onto(&self, analysis: &PatchGrid) -> Vec<f64> {
        let mut out = vec![0.0; analysis.len()];
        for cell in self.grid.cells() {
            let v = self.cells[self.grid.flat_index(cell)];
            if v > 0.0 {
                if let Some(target) = analysis.cell_of(&self.grid.cell_center(cell)) {
                    out[analysis.flat_index(target)] += v;
                }
            }
        }
        out
    }

    /// Builds a weighted point sampler: draws locations with probability
    /// proportional to cell population (raised to `exponent`), uniformly
    /// jittered within the chosen cell.
    ///
    /// `exponent > 1` implements the paper's superlinear infrastructure
    /// placement (router density ∝ population density^α, Section IV-B).
    ///
    /// # Errors
    ///
    /// Fails with [`PopulationError::NoPopulation`] if all weights vanish.
    pub fn point_sampler(&self, exponent: f64) -> Result<PointSampler, PopulationError> {
        let weights: Vec<f64> = self.cells.iter().map(|&p| p.powf(exponent)).collect();
        let table = AliasTable::new(&weights).ok_or(PopulationError::NoPopulation)?;
        Ok(PointSampler {
            grid: self.grid.clone(),
            table,
        })
    }
}

/// Draws geographic points with probability proportional to (powered)
/// cell population. Created by [`PopulationGrid::point_sampler`].
///
/// Owns the (small) grid geometry plus the alias table, **not** the
/// population raster: callers that stream per-region generation can drop
/// each `PopulationGrid` as soon as its sampler is built, bounding peak
/// memory to one resident raster at a time.
#[derive(Debug, Clone)]
pub struct PointSampler {
    grid: PatchGrid,
    table: AliasTable,
}

impl PointSampler {
    /// Draws one location.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> GeoPoint {
        let flat = self.table.sample(rng);
        let grid = &self.grid;
        let cell = geotopo_geo::PatchCell {
            row: flat / grid.cols(),
            col: flat % grid.cols(),
        };
        let center = grid.cell_center(cell);
        let half = grid.cell_deg() / 2.0;
        let lat = (center.lat() + rng.random_range(-half..half)).clamp(-90.0, 90.0);
        let lon = center.lon() + rng.random_range(-half..half);
        // Edge cells may overhang the region boundary; clamp back inside
        // so every sampled point is attributable to the region.
        self.grid.region().clamp(&GeoPoint::new_unchecked(lat, lon))
    }
}

#[cfg(test)]
mod tests {
    // Tests assert exact expected values; bitwise float equality is the point.
    #![allow(clippy::float_cmp)]

    use super::*;
    use geotopo_geo::RegionSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_grid(per_cell: f64) -> PopulationGrid {
        let grid = PatchGrid::new(RegionSet::japan(), 150.0).unwrap();
        let n = grid.len();
        PopulationGrid::new(grid, vec![per_cell; n]).unwrap()
    }

    #[test]
    fn total_within_partitions_the_region() {
        let pop = uniform_grid(10.0);
        let japan = RegionSet::japan();
        let mid = (japan.north + japan.south) / 2.0;
        let north = Region::named("N", japan.north, mid, japan.west, japan.east);
        let south = Region::named("S", mid, japan.south, japan.west, japan.east);
        let n = pop.total_within(&north);
        let s = pop.total_within(&south);
        assert!(n > 0.0 && s > 0.0);
        assert!((n + s - pop.total()).abs() < 1e-6 * pop.total());
        // Disjoint box picks up nothing.
        let elsewhere = Region::named("X", 10.0, 0.0, 0.0, 10.0);
        assert_eq!(pop.total_within(&elsewhere), 0.0);
    }

    #[test]
    fn construction_validates_length() {
        let grid = PatchGrid::new(RegionSet::japan(), 150.0).unwrap();
        let err = PopulationGrid::new(grid.clone(), vec![1.0; grid.len() + 1]).unwrap_err();
        assert!(matches!(err, PopulationError::SizeMismatch { .. }));
    }

    #[test]
    fn construction_validates_values() {
        let grid = PatchGrid::new(RegionSet::japan(), 150.0).unwrap();
        let mut cells = vec![1.0; grid.len()];
        cells[3] = -2.0;
        assert_eq!(
            PopulationGrid::new(grid, cells).unwrap_err(),
            PopulationError::BadCellValue(3)
        );
    }

    #[test]
    fn total_and_rescale() {
        let mut pg = uniform_grid(10.0);
        let n = pg.cells().len() as f64;
        assert!((pg.total() - 10.0 * n).abs() < 1e-9);
        pg.rescale_to(1_000_000.0).unwrap();
        assert!((pg.total() - 1_000_000.0).abs() < 1e-3);
    }

    #[test]
    fn rescale_empty_fails() {
        let mut pg = uniform_grid(0.0);
        assert_eq!(
            pg.rescale_to(5.0).unwrap_err(),
            PopulationError::NoPopulation
        );
    }

    #[test]
    fn population_at_inside_and_outside() {
        let pg = uniform_grid(7.0);
        let inside = GeoPoint::new(35.0, 139.0).unwrap();
        let outside = GeoPoint::new(0.0, 0.0).unwrap();
        assert_eq!(pg.population_at(&inside), 7.0);
        assert_eq!(pg.population_at(&outside), 0.0);
    }

    #[test]
    fn tally_onto_conserves_population() {
        let pg = uniform_grid(3.0);
        let analysis = PatchGrid::paper_grid(RegionSet::japan()).unwrap();
        let tallied = pg.tally_onto(&analysis);
        let total: f64 = tallied.iter().sum();
        // Native cell centres may fall just outside the coarse grid only
        // if grids disagree on the region — same region here, so exact.
        assert!(
            (total - pg.total()).abs() < 1e-6,
            "{total} vs {}",
            pg.total()
        );
    }

    #[test]
    fn sampler_respects_weights() {
        // Two-cell manual grid: all population in one cell.
        let grid = PatchGrid::new(RegionSet::japan(), 900.0).unwrap();
        let n = grid.len();
        assert!(n >= 2);
        let mut cells = vec![0.0; n];
        cells[0] = 100.0;
        let pg = PopulationGrid::new(grid, cells).unwrap();
        let sampler = pg.point_sampler(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let p = sampler.sample(&mut rng);
            // Cell 0 is the SW corner cell (row 0, col 0).
            let cell = pg.grid().cell_of(&p).expect("sampled point in region");
            assert_eq!(pg.grid().flat_index(cell), 0, "point {p}");
        }
    }

    #[test]
    fn sampler_superlinear_exponent_sharpens() {
        // Cell A has 4x the population of cell B. With exponent 2 the
        // sampling odds should be ~16:1 rather than 4:1.
        let grid = PatchGrid::new(RegionSet::japan(), 900.0).unwrap();
        let n = grid.len();
        let mut cells = vec![0.0; n];
        cells[0] = 40.0;
        cells[1] = 10.0;
        let pg = PopulationGrid::new(grid, cells).unwrap();
        let sampler = pg.point_sampler(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut in_a = 0;
        let trials = 20_000;
        for _ in 0..trials {
            let p = sampler.sample(&mut rng);
            let idx = pg.grid().flat_index(pg.grid().cell_of(&p).unwrap());
            if idx == 0 {
                in_a += 1;
            }
        }
        let frac = in_a as f64 / trials as f64;
        assert!((frac - 16.0 / 17.0).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn sampler_fails_on_empty() {
        let pg = uniform_grid(0.0);
        assert!(pg.point_sampler(1.0).is_err());
    }

    #[test]
    fn sampled_points_stay_in_region() {
        let pg = uniform_grid(1.0);
        let sampler = pg.point_sampler(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let p = sampler.sample(&mut rng);
            assert!(pg.region().contains(&p), "escaped: {p}");
        }
    }
}
