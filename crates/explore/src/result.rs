//! Structured results of a design-space exploration: per-point
//! records, summary statistics, per-architecture optima and a Pareto
//! front. The `optpower-workload` artifacts export the records as JSON
//! and CSV.

use optpower::sweep::SweepOutcome;
use optpower::OperatingPoint;
use optpower_units::Hertz;

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Technology name.
    pub tech: &'static str,
    /// Architecture name.
    pub arch: String,
    /// Evaluated frequency.
    pub frequency: Hertz,
    /// What the optimiser did at this point.
    pub outcome: SweepOutcome,
}

impl EvalRecord {
    /// The interior optimum, if timing closed.
    pub fn optimum(&self) -> Option<OperatingPoint> {
        self.outcome.closed()
    }

    /// Machine-readable status tag (`closed`, `boundary_pinned`,
    /// `failed`) used by the CSV/JSON exports — delegates to the
    /// shared [`SweepOutcome::status`] definition.
    pub fn status(&self) -> &'static str {
        self.outcome.status()
    }
}

/// Aggregate statistics over a [`ResultSet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Total evaluated points.
    pub points: usize,
    /// Points whose timing closed with an interior optimum.
    pub closed: usize,
    /// Points pinned at the optimiser's search boundary.
    pub boundary_pinned: usize,
    /// Points where model building or optimisation failed.
    pub failed: usize,
    /// Cheapest optimal total power among closed points, in watts.
    pub min_ptot: Option<f64>,
    /// Most expensive optimal total power among closed points, in watts.
    pub max_ptot: Option<f64>,
    /// Mean optimal total power among closed points, in watts.
    pub mean_ptot: Option<f64>,
}

/// The cheapest closed point of one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchOptimum {
    /// Architecture name.
    pub arch: String,
    /// Technology of the winning point.
    pub tech: &'static str,
    /// Frequency of the winning point.
    pub frequency: Hertz,
    /// The winning operating point.
    pub point: OperatingPoint,
}

/// The results of evaluating a design-space grid, in grid order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    records: Vec<EvalRecord>,
}

impl ResultSet {
    /// Wraps evaluated records (kept in the caller's order).
    pub fn new(records: Vec<EvalRecord>) -> Self {
        Self { records }
    }

    /// All records, in grid order.
    pub fn records(&self) -> &[EvalRecord] {
        &self.records
    }

    /// Concatenates result sets in the given order, each set keeping
    /// its internal grid order — the worker-count-invariant merge rule
    /// distributed executions compose per-shard sweeps with. Because a
    /// sweep's record order is a pure function of its grid, splitting
    /// a grid into contiguous slices, evaluating the slices anywhere,
    /// and `concat`ing them back in slice order is bit-identical to
    /// evaluating the whole grid in one process.
    pub fn concat(sets: impl IntoIterator<Item = ResultSet>) -> ResultSet {
        ResultSet::new(sets.into_iter().flat_map(|s| s.records).collect())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no points were evaluated.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records whose timing closed, with their optima.
    pub fn closed(&self) -> impl Iterator<Item = (&EvalRecord, OperatingPoint)> + '_ {
        self.records
            .iter()
            .filter_map(|r| r.optimum().map(|o| (r, o)))
    }

    /// Aggregate statistics over every record.
    pub fn summary(&self) -> Summary {
        let mut s = Summary {
            points: self.records.len(),
            closed: 0,
            boundary_pinned: 0,
            failed: 0,
            min_ptot: None,
            max_ptot: None,
            mean_ptot: None,
        };
        let mut sum = 0.0;
        for r in &self.records {
            match &r.outcome {
                SweepOutcome::Closed(opt) => {
                    s.closed += 1;
                    let p = opt.ptot().value();
                    sum += p;
                    s.min_ptot = Some(s.min_ptot.map_or(p, |m: f64| m.min(p)));
                    s.max_ptot = Some(s.max_ptot.map_or(p, |m: f64| m.max(p)));
                }
                SweepOutcome::BoundaryPinned(_) => s.boundary_pinned += 1,
                SweepOutcome::Failed(_) => s.failed += 1,
            }
        }
        if s.closed > 0 {
            s.mean_ptot = Some(sum / s.closed as f64);
        }
        s
    }

    /// The cheapest closed point of each architecture, in first-seen
    /// (grid) order. Architectures that never close timing are absent.
    pub fn best_per_architecture(&self) -> Vec<ArchOptimum> {
        let mut order: Vec<ArchOptimum> = Vec::new();
        for (r, opt) in self.closed() {
            match order.iter_mut().find(|b| b.arch == r.arch) {
                Some(best) => {
                    if opt.ptot().value() < best.point.ptot().value() {
                        best.tech = r.tech;
                        best.frequency = r.frequency;
                        best.point = opt;
                    }
                }
                None => order.push(ArchOptimum {
                    arch: r.arch.clone(),
                    tech: r.tech,
                    frequency: r.frequency,
                    point: opt,
                }),
            }
        }
        order
    }

    /// The Pareto front over (throughput ↑, optimal total power ↓)
    /// among closed points, sorted by ascending frequency.
    ///
    /// A point is on the front iff no other closed point delivers at
    /// least its frequency for at most its power (with one of the two
    /// strictly better). Frequency ties keep only the cheapest point;
    /// exact `(f, Ptot)` duplicates keep the first in grid order.
    pub fn pareto_front(&self) -> Vec<&EvalRecord> {
        let mut closed: Vec<(usize, f64, f64)> = self
            .records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.optimum()
                    .map(|o| (i, r.frequency.value(), o.ptot().value()))
            })
            .collect();
        // Fastest first; within a frequency, cheapest first, then grid
        // order for exact duplicates.
        closed.sort_by(|a, b| {
            b.1.total_cmp(&a.1)
                .then(a.2.total_cmp(&b.2))
                .then(a.0.cmp(&b.0))
        });
        let mut front: Vec<&EvalRecord> = Vec::new();
        let mut best_ptot = f64::INFINITY;
        let mut last_freq = f64::NAN;
        for (i, f, p) in closed {
            if p < best_ptot && f != last_freq {
                front.push(&self.records[i]);
                best_ptot = p;
                last_freq = f;
            }
        }
        front.reverse();
        front
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower::sweep::sample_at;
    use optpower::ArchParams;
    use optpower_tech::{Flavor, Technology};
    use optpower_units::Farads;

    fn record(arch: &str, f_hz: f64) -> EvalRecord {
        let a = ArchParams::builder(arch)
            .cells(729)
            .activity(0.2976)
            .logical_depth(17.0)
            .cap_per_cell(Farads::new(70e-15))
            .build()
            .unwrap();
        let tech = Technology::stm_cmos09(Flavor::LowLeakage);
        let s = sample_at(tech, &a, Hertz::new(f_hz));
        EvalRecord {
            tech: tech.name(),
            arch: arch.to_string(),
            frequency: s.frequency,
            outcome: s.outcome,
        }
    }

    fn sample_set() -> ResultSet {
        ResultSet::new(vec![
            record("wallace", 1e6),
            record("wallace", 10e6),
            record("wallace", 100e6),
            record("rca", 5e6),
            record("wallace", 50e9), // boundary-pinned: cannot close
        ])
    }

    #[test]
    fn summary_counts_every_status() {
        let rs = sample_set();
        let s = rs.summary();
        assert_eq!(s.points, 5);
        assert_eq!(s.closed, 4);
        assert_eq!(s.boundary_pinned, 1);
        assert_eq!(s.failed, 0);
        let (min, max, mean) = (
            s.min_ptot.unwrap(),
            s.max_ptot.unwrap(),
            s.mean_ptot.unwrap(),
        );
        assert!(min > 0.0 && min <= mean && mean <= max);
    }

    #[test]
    fn best_per_architecture_picks_cheapest_point() {
        let rs = sample_set();
        let best = rs.best_per_architecture();
        assert_eq!(best.len(), 2);
        // Grid order: wallace first.
        assert_eq!(best[0].arch, "wallace");
        assert_eq!(best[1].arch, "rca");
        // Cheapest wallace point is the lowest frequency.
        assert_eq!(best[0].frequency, Hertz::new(1e6));
    }

    #[test]
    fn pareto_front_is_monotone() {
        let rs = sample_set();
        let front = rs.pareto_front();
        assert!(!front.is_empty());
        // Ascending frequency implies ascending power along the front.
        for pair in front.windows(2) {
            assert!(pair[0].frequency < pair[1].frequency);
            assert!(
                pair[0].optimum().unwrap().ptot().value()
                    < pair[1].optimum().unwrap().ptot().value()
            );
        }
        // The fastest closed point always survives.
        assert_eq!(front.last().unwrap().frequency, Hertz::new(100e6));
        // Every front member is closed.
        for r in &front {
            assert_eq!(r.status(), "closed");
        }
    }

    #[test]
    fn pareto_front_drops_dominated_points() {
        // rca at 5 MHz burns more power than wallace at 10 MHz (same
        // tech, worse arch): rca must be dominated.
        let rs = sample_set();
        let p_rca = rs.records()[3].optimum().unwrap().ptot().value();
        let p_wal10 = rs.records()[1].optimum().unwrap().ptot().value();
        if p_wal10 < p_rca {
            assert!(rs.pareto_front().iter().all(|r| r.arch != "rca"));
        }
    }

    #[test]
    fn concat_of_contiguous_slices_is_identity() {
        let whole = sample_set();
        let records = whole.records().to_vec();
        let (left, right) = records.split_at(2);
        let glued = ResultSet::concat([
            ResultSet::new(left.to_vec()),
            ResultSet::new(right.to_vec()),
            ResultSet::default(),
        ]);
        assert_eq!(glued.records(), whole.records());
    }

    #[test]
    fn empty_result_set() {
        let rs = ResultSet::default();
        assert!(rs.is_empty());
        let s = rs.summary();
        assert_eq!((s.points, s.closed), (0, 0));
        assert_eq!(s.min_ptot, None);
        assert!(rs.pareto_front().is_empty());
        assert!(rs.best_per_architecture().is_empty());
    }
}
