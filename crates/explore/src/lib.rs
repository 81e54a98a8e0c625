#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod engine;
pub mod grid;
pub mod pool;
pub mod result;

pub use activity::{measure_timed_activity_pooled, TimedPoolConfig};
pub use engine::{explore, CalibrationCache, ExploreConfig};
pub use grid::{Grid, GridBuilder, GridError, GridPoint};
pub use pool::{available_workers, par_map, par_map_indexed, Workers};
pub use result::{ArchOptimum, EvalRecord, ResultSet, Summary};
