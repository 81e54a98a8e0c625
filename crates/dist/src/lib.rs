#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod worker;

pub use coordinator::{Cluster, DistError, DistRun, DistStats, DEFAULT_SHARD_TIMEOUT_MS};
pub use worker::{serve, spawn, WorkerHandle, HEARTBEAT_MS};
