//! The unified workload error: every job kind — model solving,
//! simulation, netlist generation, spec parsing, artifact IO — fails
//! with one [`WorkloadError`], so callers (the `optpower` command
//! line, the job service, the shard cluster) handle exactly one error
//! surface.

use core::fmt;

use optpower::ModelError;
use optpower_netlist::NetlistError;
use optpower_report::AbInitioError;
use optpower_sim::SimError;

/// A malformed or invalid job specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What was wrong.
    pub message: String,
}

impl SpecError {
    /// A spec error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid job spec: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// Any failure of declaring, executing or persisting a workload.
#[derive(Debug)]
pub enum WorkloadError {
    /// Power-model building, calibration or optimisation failed.
    Model(ModelError),
    /// The ab-initio flow failed (carries the failing architecture
    /// for simulation errors).
    AbInitio(AbInitioError),
    /// A simulation engine rejected or aborted a netlist.
    Sim(SimError),
    /// Netlist generation or validation failed.
    Netlist(NetlistError),
    /// The lint gate found error-severity diagnostics: the netlist
    /// would simulate to meaningless numbers.
    Lint {
        /// Name of the rejected netlist.
        netlist: String,
        /// The full lint report (error and warning diagnostics).
        report: optpower_sta::LintReport,
    },
    /// The job specification was malformed or invalid.
    Spec(SpecError),
    /// Reading a spec or writing an artifact failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying IO error.
        source: std::io::Error,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Model(e) => write!(f, "model failure: {e}"),
            Self::AbInitio(e) => write!(f, "ab-initio flow failure: {e}"),
            Self::Sim(e) => write!(f, "simulation failure: {e}"),
            Self::Netlist(e) => write!(f, "netlist failure: {e}"),
            Self::Lint { netlist, report } => {
                write!(
                    f,
                    "lint rejected netlist '{netlist}' ({} error(s)):",
                    report.error_count()
                )?;
                for d in report
                    .diagnostics()
                    .iter()
                    .filter(|d| d.rule.severity() == optpower_sta::Severity::Error)
                {
                    write!(f, " [{} {}] {};", d.rule.id(), d.rule.name(), d.message)?;
                }
                Ok(())
            }
            Self::Spec(e) => write!(f, "{e}"),
            Self::Io { path, source } => write!(f, "io failure at {path}: {source}"),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Model(e) => Some(e),
            Self::AbInitio(e) => Some(e),
            Self::Sim(e) => Some(e),
            Self::Netlist(e) => Some(e),
            Self::Lint { .. } => None,
            Self::Spec(e) => Some(e),
            Self::Io { source, .. } => Some(source),
        }
    }
}

impl From<ModelError> for WorkloadError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

impl From<AbInitioError> for WorkloadError {
    /// A lint refusal inside characterization surfaces as
    /// [`WorkloadError::Lint`], the same typed error (and wire code)
    /// as every other lint gate.
    fn from(e: AbInitioError) -> Self {
        match e {
            AbInitioError::Lint { netlist, report } => Self::Lint { netlist, report },
            e => Self::AbInitio(e),
        }
    }
}

impl From<SimError> for WorkloadError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

impl From<NetlistError> for WorkloadError {
    fn from(e: NetlistError) -> Self {
        Self::Netlist(e)
    }
}

impl From<SpecError> for WorkloadError {
    fn from(e: SpecError) -> Self {
        Self::Spec(e)
    }
}

impl WorkloadError {
    /// Wraps an IO error with the path it occurred at.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        Self::Io {
            path: path.into(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_and_sources_are_wired() {
        let cases: Vec<WorkloadError> = vec![
            ModelError::InvalidFrequency { hertz: 0.0 }.into(),
            SpecError::new("bad field").into(),
            WorkloadError::io("/tmp/x", std::io::Error::other("boom")),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_some());
        }
    }
}
