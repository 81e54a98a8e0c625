#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod columns;
pub mod error;
pub mod json;
pub mod merge;
pub mod runtime;
pub mod shard;
pub mod spec;
pub mod store;
pub mod wire;

pub use artifact::{
    Artifact, CacheStatus, DistMeta, ExportListing, FlavorRow, LintSummary, Payload, PruneDeltaRow,
    RowCacheStats, RunMeta, StaRow, ARTIFACT_SCHEMA,
};
pub use error::{SpecError, WorkloadError};
pub use json::{Json, JsonError};
pub use runtime::Runtime;
pub use spec::{
    engine_from_name, engine_name, fnv1a_64, AbInitioSpec, ActivitySpec, GlitchSweepSpec, JobSpec,
    LintSpec, PruneDeltaSpec, StaSpec, JOB_KINDS, JOB_SCHEMA,
};
pub use store::Store;
pub use wire::{
    intern_error_code, reason_phrase, status_json, ErrorBody, ShardFrame, ShardResult, SubmitMode,
    WireFormat, ERROR_SCHEMA, SHARD_SCHEMA, STATUS_SCHEMA,
};
