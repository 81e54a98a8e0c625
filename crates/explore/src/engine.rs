//! The exploration engine: shards a [`Grid`] across a scoped-thread
//! worker pool and streams classified results into a [`ResultSet`].

use std::collections::HashMap;

use optpower::sweep::SweepOutcome;
use optpower::{
    CoarseGrid, ModelError, OperatingPoint, OptimizerConfig, PowerModel, TimingConstraint,
};
use optpower_tech::Linearization;

use crate::grid::{Grid, GridPoint};
use crate::pool::{par_map_indexed, Workers};
use crate::result::{EvalRecord, ResultSet};

/// Configuration of one exploration run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExploreConfig {
    /// Worker-count policy.
    pub workers: Workers,
    /// Search window handed to every per-point optimiser call.
    pub optimizer: OptimizerConfig,
}

impl ExploreConfig {
    /// An explicit worker count with the default optimiser window.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: Workers::Fixed(workers),
            ..Self::default()
        }
    }
}

/// Memoised per-technology calibration shared by every worker, for
/// one optimiser window.
///
/// Building a [`PowerModel`] refits the Eq. 7 linearisation — a
/// 701-sample least-squares fit that depends *only* on the
/// technology's `α` — and each optimisation's coarse pass evaluates
/// `Vdd^{1/α}` at every sample of the window, which depends only on
/// `α` and the window. A grid with `T` technologies, `A`
/// architectures and `F` frequencies would redo both `T·A·F` times;
/// the cache fits and tabulates once per distinct `α` up front (the
/// fit beside the window's [`CoarseGrid`]) and shares them. Because
/// both are pure functions of `α` and the window, every optimum is
/// bit-identical to an individually built model's
/// [`PowerModel::optimize_with`] (asserted by the engine equivalence
/// tests).
#[derive(Debug, Clone, Default)]
pub struct CalibrationCache {
    optimizer: OptimizerConfig,
    by_alpha: HashMap<u64, Calibration>,
}

/// What the cache holds for one `α`.
#[derive(Debug, Clone)]
struct Calibration {
    linearization: Result<Linearization, ModelError>,
    coarse: Result<CoarseGrid, ModelError>,
}

impl CalibrationCache {
    /// Pre-fits the linearisation and tabulates `optimizer`'s coarse
    /// grid for every distinct `α` in the grid's technology axis.
    pub fn for_grid(grid: &Grid, optimizer: OptimizerConfig) -> Self {
        let mut by_alpha = HashMap::new();
        for tech in grid.technologies() {
            let alpha = tech.alpha();
            by_alpha
                .entry(alpha.to_bits())
                .or_insert_with(|| Calibration {
                    linearization: Linearization::fit_paper_range(alpha)
                        .map_err(ModelError::Numeric),
                    coarse: CoarseGrid::new(alpha, optimizer),
                });
        }
        Self {
            optimizer,
            by_alpha,
        }
    }

    /// Number of distinct `α` values cached.
    pub fn len(&self) -> usize {
        self.by_alpha.len()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.by_alpha.is_empty()
    }

    /// The cached fit for `alpha`, falling back to fitting on the spot
    /// for values the grid axis did not cover.
    fn linearization(&self, alpha: f64) -> Result<Linearization, ModelError> {
        match self.by_alpha.get(&alpha.to_bits()) {
            Some(cached) => cached.linearization.clone(),
            None => Linearization::fit_paper_range(alpha).map_err(ModelError::Numeric),
        }
    }

    /// Optimises `model` over the cached window on the shared grid of
    /// its `α`, falling back to [`PowerModel::optimize_with`] (a grid
    /// built on the spot) for values the grid axis did not cover.
    fn optimize(&self, model: &PowerModel) -> Result<OperatingPoint, ModelError> {
        match self.by_alpha.get(&model.constraint().alpha().to_bits()) {
            Some(cached) => model.optimize_on(cached.coarse.as_ref().map_err(Clone::clone)?),
            None => model.optimize_with(self.optimizer),
        }
    }
}

/// Evaluates one grid point with the shared calibration cache —
/// exactly the computation of `optpower::sweep::sample_at`, with the
/// linearisation fit and the coarse grid served from the cache instead
/// of rebuilt.
fn evaluate_point(point: &GridPoint<'_>, cache: &CalibrationCache) -> EvalRecord {
    let constraint =
        TimingConstraint::from_technology(point.tech, point.arch.logical_depth(), point.frequency);
    let result = cache.linearization(constraint.alpha()).and_then(|lin| {
        cache.optimize(&PowerModel::with_linearization(
            *point.tech,
            point.arch.clone(),
            point.frequency,
            constraint,
            lin,
        )?)
    });
    EvalRecord {
        tech: point.tech.name(),
        arch: point.arch.name().to_string(),
        frequency: point.frequency,
        outcome: SweepOutcome::classify(result, &cache.optimizer),
    }
}

/// Explores the whole grid in parallel and collects the results in
/// grid order.
///
/// Work is sharded point-by-point across the worker pool (stealing, so
/// expensive interior optimisations and cheap pinned points balance
/// out), each technology's calibration and coarse grid are served
/// from a [`CalibrationCache`], and the output is independent of the
/// worker count — bit-identical to a serial evaluation of the same
/// grid.
pub fn explore(grid: &Grid, config: &ExploreConfig) -> ResultSet {
    let cache = CalibrationCache::for_grid(grid, config.optimizer);
    let workers = config.workers.resolve(grid.len());
    let records = par_map_indexed(grid.len(), workers, |i| {
        evaluate_point(&grid.point(i), &cache)
    });
    ResultSet::new(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower::sweep::sample_at;
    use optpower::ArchParams;
    use optpower_tech::{Flavor, Technology};
    use optpower_units::{Farads, Hertz};

    fn small_grid() -> Grid {
        let arch = |name: &str, cells, act, ld| {
            ArchParams::builder(name)
                .cells(cells)
                .activity(act)
                .logical_depth(ld)
                .cap_per_cell(Farads::new(60e-15))
                .build()
                .unwrap()
        };
        Grid::builder()
            .technologies([
                Technology::stm_cmos09(Flavor::LowLeakage),
                Technology::stm_cmos09(Flavor::HighSpeed),
            ])
            .architectures([arch("w", 729, 0.2976, 17.0), arch("r", 608, 0.5056, 61.0)])
            .frequencies([Hertz::new(1e6), Hertz::new(31.25e6), Hertz::new(200e6)])
            .build()
            .unwrap()
    }

    #[test]
    fn engine_matches_serial_sample_at_bitwise() {
        let grid = small_grid();
        let rs = explore(&grid, &ExploreConfig::with_workers(3));
        assert_eq!(rs.len(), grid.len());
        for (record, point) in rs.records().iter().zip(grid.points()) {
            let serial = sample_at(*point.tech, point.arch, point.frequency);
            assert_eq!(record.frequency, serial.frequency);
            assert_eq!(record.outcome, serial.outcome, "at index {}", point.index);
            assert_eq!(record.tech, point.tech.name());
            assert_eq!(record.arch, point.arch.name());
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let grid = small_grid();
        let reference = explore(&grid, &ExploreConfig::with_workers(1));
        for workers in [2, 5, 16] {
            let rs = explore(&grid, &ExploreConfig::with_workers(workers));
            assert_eq!(rs, reference, "workers = {workers}");
        }
    }

    #[test]
    fn cache_holds_one_fit_per_distinct_alpha() {
        let grid = small_grid();
        let cache = CalibrationCache::for_grid(&grid, OptimizerConfig::default());
        let mut alphas: Vec<u64> = grid
            .technologies()
            .iter()
            .map(|t| t.alpha().to_bits())
            .collect();
        alphas.sort_unstable();
        alphas.dedup();
        assert_eq!(cache.len(), alphas.len());
        assert!(!cache.is_empty());
        // Cache misses still produce the right fit.
        let lin = cache.linearization(1.5).unwrap();
        assert_eq!(lin, Linearization::fit_paper_range(1.5).unwrap());
        // Each cached coarse grid is the window's grid for its alpha.
        for tech in grid.technologies() {
            let cached = &cache.by_alpha[&tech.alpha().to_bits()];
            let fresh = CoarseGrid::new(tech.alpha(), OptimizerConfig::default()).unwrap();
            assert_eq!(cached.coarse.as_ref().unwrap(), &fresh);
        }
    }

    #[test]
    fn custom_optimizer_window_is_respected() {
        let grid = small_grid();
        let mut config = ExploreConfig::with_workers(2);
        // A window so narrow every optimum pins at a wall.
        config.optimizer.vdd_min = optpower_units::Volts::new(1.30);
        config.optimizer.vdd_max = optpower_units::Volts::new(1.44);
        let rs = explore(&grid, &config);
        assert_eq!(rs.summary().closed, 0);
        assert_eq!(rs.summary().boundary_pinned, grid.len());
    }
}
