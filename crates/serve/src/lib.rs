#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod server;

pub use client::{request, HttpReply};
pub use metrics::{Metrics, METRICS_SCHEMA};
pub use queue::{JobQueue, JobState, JobStore, PushError};
pub use server::{start, Config, Drainer, ServerHandle};
