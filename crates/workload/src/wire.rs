//! The frozen v1 wire surface shared by every front-end: output
//! format negotiation, the machine-readable error body, and the
//! HTTP-independent job request/response pair.
//!
//! This module is deliberately transport-free — nothing here knows
//! about sockets or HTTP framing. The `optpower` CLI and the
//! `optpower serve` job service both build on these types, so a spec
//! that fails with `invalid_spec` on the command line fails with the
//! same machine-readable code (and the same derived exit/status) over
//! the wire. Freezing the mapping in `crates/workload` is what makes
//! the contract in `crates/serve/README.md` stable: the serve crate
//! adds transport-level codes (`queue_full`, `draining`, …) but never
//! re-maps a workload failure.

use std::io::{self, Read};

use crate::artifact::{Artifact, CacheStatus, RowCacheStats};
use crate::error::{SpecError, WorkloadError};
use crate::json::Json;
use crate::spec::JobSpec;

/// Schema tag of the machine-readable error body.
pub const ERROR_SCHEMA: &str = "optpower-error/v1";

/// Schema tag of the job status document (async submissions).
pub const STATUS_SCHEMA: &str = "optpower-job-status/v1";

/// The three renderings every artifact supports, as a negotiable wire
/// format. The CLI selects one with `--json` / `--csv` flags; the
/// server selects one from the `Accept` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// The legacy console rendering ([`Artifact::render_text`]).
    Text,
    /// The full JSON envelope ([`Artifact::to_json`]).
    #[default]
    Json,
    /// The primary table as CSV ([`Artifact::to_csv`]).
    Csv,
}

impl WireFormat {
    /// The short name (`text` / `json` / `csv`).
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Text => "text",
            WireFormat::Json => "json",
            WireFormat::Csv => "csv",
        }
    }

    /// The format by short name, as accepted by `--format`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "text" => Some(WireFormat::Text),
            "json" => Some(WireFormat::Json),
            "csv" => Some(WireFormat::Csv),
            _ => None,
        }
    }

    /// The `Content-Type` this format is served with.
    pub fn content_type(self) -> &'static str {
        match self {
            WireFormat::Text => "text/plain; charset=utf-8",
            WireFormat::Json => "application/json",
            WireFormat::Csv => "text/csv",
        }
    }

    /// Content negotiation over an `Accept` header value: the first
    /// listed media type we can produce wins (explicit order, not
    /// q-values, decides). An empty or absent header means JSON; a
    /// header listing only unsupported types is `None` (HTTP 406).
    pub fn from_accept(header: &str) -> Option<Self> {
        let mut listed_any = false;
        for part in header.split(',') {
            let media = part
                .split(';')
                .next()
                .unwrap_or("")
                .trim()
                .to_ascii_lowercase();
            if media.is_empty() {
                continue;
            }
            listed_any = true;
            match media.as_str() {
                "application/json" | "application/*" | "*/*" => return Some(WireFormat::Json),
                "text/csv" => return Some(WireFormat::Csv),
                "text/plain" | "text/*" => return Some(WireFormat::Text),
                _ => {}
            }
        }
        if listed_any {
            None
        } else {
            Some(WireFormat::Json)
        }
    }

    /// Renders an artifact in this format.
    pub fn render(self, artifact: &Artifact) -> String {
        match self {
            WireFormat::Text => artifact.render_text(),
            WireFormat::Json => artifact.to_json(),
            WireFormat::Csv => artifact.to_csv(),
        }
    }
}

/// The machine-readable error surface: an HTTP-shaped status, a
/// stable snake_case code, and the human message. Every front-end
/// derives its failure signalling from this one struct — the server
/// sends it as the `optpower-error/v1` JSON body, the CLI derives its
/// exit code from the status class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// HTTP-shaped status (400/404/422/429/5xx…).
    pub status: u16,
    /// Stable machine-readable code (`invalid_spec`, `queue_full`, …).
    pub code: &'static str,
    /// The human-readable message.
    pub message: String,
}

impl ErrorBody {
    /// An error body from parts.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            code,
            message: message.into(),
        }
    }

    /// The frozen [`WorkloadError`] → wire mapping. Spec problems are
    /// the client's fault (400); jobs that parsed but cannot execute
    /// are unprocessable (422, with a per-family code); IO is the
    /// host's fault (500).
    pub fn of(err: &WorkloadError) -> Self {
        let (status, code) = match err {
            WorkloadError::Spec(_) => (400, "invalid_spec"),
            WorkloadError::Lint { .. } => (422, "lint_rejected"),
            WorkloadError::Model(_) => (422, "model_failed"),
            WorkloadError::AbInitio(_) => (422, "ab_initio_failed"),
            WorkloadError::Sim(_) => (422, "simulation_failed"),
            WorkloadError::Netlist(_) => (422, "netlist_failed"),
            WorkloadError::Io { .. } => (500, "io_failed"),
        };
        Self::new(status, code, err.to_string())
    }

    /// The `optpower-error/v1` JSON document.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema", Json::str(ERROR_SCHEMA)),
            ("status", Json::UInt(u64::from(self.status))),
            ("code", Json::str(self.code)),
            ("error", Json::str(self.message.clone())),
        ])
        .to_string()
    }

    /// The process exit code a CLI front-end maps this error to:
    /// 2 for client-side errors (4xx), 3 for jobs that parsed but
    /// failed to execute (422 specifically), 4 for host-side failures
    /// (5xx). Success is 0; exit 1 is left to panics.
    pub fn exit_code(&self) -> u8 {
        match self.status {
            422 => 3,
            400..=499 => 2,
            _ => 4,
        }
    }
}

/// The canonical reason phrase for the status codes the v1 wire API
/// uses (a plain `Error` for anything off-contract).
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        406 => "Not Acceptable",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

/// Whether a submission waits for the artifact or returns immediately
/// with the job key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubmitMode {
    /// Hold the request open until the artifact (or error) is ready.
    #[default]
    Sync,
    /// Accept, return the canonical key, let the client poll.
    Async,
}

/// The `optpower-job-status/v1` document: the canonical key plus the
/// job's lifecycle state (`queued` / `running` / `done` / `failed`).
pub fn status_json(key: &str, state: &str) -> String {
    Json::obj([
        ("schema", Json::str(STATUS_SCHEMA)),
        ("key", Json::str(key)),
        ("state", Json::str(state)),
    ])
    .to_string()
}

/// Schema tag of the coordinator ↔ worker shard protocol.
pub const SHARD_SCHEMA: &str = "optpower-shard/v1";

/// Hard cap on one shard frame's JSON body. A malformed or hostile
/// length prefix must not become a multi-gigabyte allocation.
const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// The most a frame read reserves before its body arrives. Smaller
/// frames read into one allocation; a larger one grows its buffer only
/// as its bytes are received, so an untrusted prefix cannot size an
/// allocation up front.
const FRAME_READ_RESERVE: u32 = 64 * 1024;

/// The closed error-code vocabulary a shard `error` frame may carry:
/// the frozen [`ErrorBody::of`] table plus the transport codes the
/// serve/dist layers add. Codes stay `&'static str` end to end, so a
/// code read off the wire is interned back through this table
/// (anything outside the contract becomes `"unknown_error"` rather
/// than a fabricated static).
pub fn intern_error_code(code: &str) -> &'static str {
    const CODES: &[&str] = &[
        "invalid_spec",
        "lint_rejected",
        "model_failed",
        "ab_initio_failed",
        "simulation_failed",
        "netlist_failed",
        "io_failed",
        "bad_request",
        "unknown_job",
        "unknown_path",
        "method_not_allowed",
        "not_acceptable",
        "payload_too_large",
        "queue_full",
        "draining",
        "timeout",
        "worker_failed",
    ];
    CODES
        .iter()
        .find(|&&c| c == code)
        .copied()
        .unwrap_or("unknown_error")
}

/// One worker's completed shard: the three deterministic renderings
/// (which is all bit-identity needs — `payload_json` is meta-free by
/// construction) plus the per-shard meta counters the coordinator
/// aggregates into its own envelope and `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// The shard spec's [`JobSpec::canonical_key`].
    pub shard: String,
    /// [`Artifact::payload_json`] of the shard artifact.
    pub payload_json: String,
    /// [`Artifact::to_csv`] of the shard artifact.
    pub csv: String,
    /// [`Artifact::render_text`] of the shard artifact.
    pub text: String,
    /// Worker-side wall clock of the shard, in milliseconds.
    pub wall_ms: f64,
    /// Whether the worker's artifact cache answered.
    pub cache: Option<CacheStatus>,
    /// The worker's row-cache counters for this shard, when attached.
    pub row_cache: Option<RowCacheStats>,
}

/// One `optpower-shard/v1` protocol frame. The codec is deliberately
/// transport-free: [`ShardFrame::write_to`] / [`ShardFrame::read_from`]
/// speak length-prefixed JSON over any byte stream (`crates/dist` puts
/// TCP under it; the fault tests use in-memory pipes).
///
/// Wire layout per frame: a 4-byte big-endian byte length, then that
/// many bytes of one JSON document tagged `"schema":"optpower-shard/v1"`
/// and `"frame":"hello"|"assign"|"heartbeat"|"result"|"error"`.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardFrame {
    /// Connection opener (worker → coordinator on accept): who is
    /// speaking, so the coordinator can reject a non-worker endpoint
    /// before assigning anything.
    Hello {
        /// Self-description of the sender (bind address or label).
        host: String,
    },
    /// Coordinator → worker: run one shard spec.
    Assign {
        /// The shard spec's canonical key (shard identity everywhere:
        /// assignment hashing, caching, result correlation).
        shard: String,
        /// The shard spec itself.
        spec: JobSpec,
    },
    /// Worker → coordinator: the shard is still executing. Sent on a
    /// steady cadence so a silent socket means a dead worker, not a
    /// slow shard.
    Heartbeat {
        /// The executing shard's canonical key.
        shard: String,
    },
    /// Worker → coordinator: the shard completed.
    Result(Box<ShardResult>),
    /// Worker → coordinator: the shard failed deterministically (the
    /// job itself is at fault, so the coordinator must not retry it).
    Error {
        /// The failed shard's canonical key.
        shard: String,
        /// The frozen machine-readable failure.
        error: ErrorBody,
    },
}

impl ShardFrame {
    /// The frame's JSON document value.
    pub fn to_json_value(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("schema".to_string(), Json::str(SHARD_SCHEMA)),
            ("frame".to_string(), Json::str(self.name())),
        ];
        let mut push = |k: &str, v: Json| pairs.push((k.to_string(), v));
        match self {
            ShardFrame::Hello { host } => push("host", Json::str(host)),
            ShardFrame::Assign { shard, spec } => {
                push("shard", Json::str(shard));
                push("spec", spec.to_json_value());
            }
            ShardFrame::Heartbeat { shard } => push("shard", Json::str(shard)),
            ShardFrame::Result(r) => {
                push("shard", Json::str(&r.shard));
                push("payload_json", Json::str(&r.payload_json));
                push("csv", Json::str(&r.csv));
                push("text", Json::str(&r.text));
                push("wall_ms", Json::num(r.wall_ms));
                push(
                    "cache",
                    match r.cache {
                        Some(status) => Json::str(status.label()),
                        None => Json::Null,
                    },
                );
                push(
                    "row_cache",
                    match r.row_cache {
                        Some(rc) => Json::obj([
                            ("hits", Json::UInt(rc.hits)),
                            ("misses", Json::UInt(rc.misses)),
                        ]),
                        None => Json::Null,
                    },
                );
            }
            ShardFrame::Error { shard, error } => {
                push("shard", Json::str(shard));
                push(
                    "error",
                    Json::obj([
                        ("status", Json::UInt(u64::from(error.status))),
                        ("code", Json::str(error.code)),
                        ("message", Json::str(error.message.clone())),
                    ]),
                );
            }
        }
        Json::Obj(pairs)
    }

    /// The compact JSON wire form.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// The wire tag of this frame kind.
    pub fn name(&self) -> &'static str {
        match self {
            ShardFrame::Hello { .. } => "hello",
            ShardFrame::Assign { .. } => "assign",
            ShardFrame::Heartbeat { .. } => "heartbeat",
            ShardFrame::Result(_) => "result",
            ShardFrame::Error { .. } => "error",
        }
    }

    /// Parses one frame's JSON document.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] on schema mismatch or malformed fields.
    pub fn from_json(text: &str) -> Result<ShardFrame, WorkloadError> {
        let doc = Json::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SHARD_SCHEMA {
            return Err(SpecError::new(format!(
                "unsupported shard frame schema {schema:?} (expected {SHARD_SCHEMA:?})"
            ))
            .into());
        }
        let frame = doc
            .get("frame")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::new("shard frame needs a string \"frame\" field"))?;
        let shard_field = || -> Result<String, WorkloadError> {
            doc.get("shard")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| SpecError::new("shard frame needs a string \"shard\" field").into())
        };
        Ok(match frame {
            "hello" => ShardFrame::Hello {
                host: doc
                    .get("host")
                    .and_then(Json::as_str)
                    .ok_or_else(|| SpecError::new("hello frame needs a string \"host\""))?
                    .to_string(),
            },
            "assign" => ShardFrame::Assign {
                shard: shard_field()?,
                spec: JobSpec::from_json_value(
                    doc.get("spec")
                        .ok_or_else(|| SpecError::new("assign frame needs a \"spec\" object"))?,
                )?,
            },
            "heartbeat" => ShardFrame::Heartbeat {
                shard: shard_field()?,
            },
            "result" => {
                let string = |key: &str| -> Result<String, WorkloadError> {
                    doc.get(key)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| {
                            SpecError::new(format!("result frame needs a string {key:?}")).into()
                        })
                };
                let cache = match doc.get("cache") {
                    None | Some(Json::Null) => None,
                    Some(v) => match v.as_str() {
                        Some("hit") => Some(CacheStatus::Hit),
                        Some("miss") => Some(CacheStatus::Miss),
                        other => {
                            return Err(SpecError::new(format!(
                                "result frame \"cache\" must be \"hit\", \"miss\" or null, \
                                 not {other:?}"
                            ))
                            .into())
                        }
                    },
                };
                let row_cache = match doc.get("row_cache") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(RowCacheStats {
                        hits: v.get("hits").and_then(Json::as_u64).ok_or_else(|| {
                            SpecError::new("\"row_cache\" needs an unsigned \"hits\"")
                        })?,
                        misses: v.get("misses").and_then(Json::as_u64).ok_or_else(|| {
                            SpecError::new("\"row_cache\" needs an unsigned \"misses\"")
                        })?,
                    }),
                };
                ShardFrame::Result(Box::new(ShardResult {
                    shard: shard_field()?,
                    payload_json: string("payload_json")?,
                    csv: string("csv")?,
                    text: string("text")?,
                    wall_ms: doc.get("wall_ms").and_then(Json::as_f64).ok_or_else(|| {
                        SpecError::new("result frame needs a numeric \"wall_ms\"")
                    })?,
                    cache,
                    row_cache,
                }))
            }
            "error" => {
                let body = doc
                    .get("error")
                    .ok_or_else(|| SpecError::new("error frame needs an \"error\" object"))?;
                let status = body
                    .get("status")
                    .and_then(Json::as_u64)
                    .and_then(|s| u16::try_from(s).ok())
                    .ok_or_else(|| SpecError::new("\"error\" needs a u16 \"status\""))?;
                let code = body
                    .get("code")
                    .and_then(Json::as_str)
                    .ok_or_else(|| SpecError::new("\"error\" needs a string \"code\""))?;
                let message = body
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                ShardFrame::Error {
                    shard: shard_field()?,
                    error: ErrorBody::new(status, intern_error_code(code), message),
                }
            }
            other => {
                return Err(SpecError::new(format!(
                    "unknown shard frame kind {other:?} \
                     (hello | assign | heartbeat | result | error)"
                ))
                .into())
            }
        })
    }

    /// Writes the frame as a 4-byte big-endian length prefix plus the
    /// JSON body.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the underlying writer, or `InvalidData` when
    /// the frame exceeds the 64 MiB cap.
    pub fn write_to(&self, writer: &mut impl io::Write) -> io::Result<()> {
        let body = self.to_json();
        let len = u32::try_from(body.len())
            .ok()
            .filter(|&n| n <= MAX_FRAME_BYTES)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("shard frame of {} bytes exceeds the frame cap", body.len()),
                )
            })?;
        // One contiguous write per frame: splitting the prefix and the
        // body into separate writes invites a Nagle / delayed-ACK
        // stall (~40 ms per frame) on sockets without TCP_NODELAY.
        let mut buf = Vec::with_capacity(4 + body.len());
        buf.extend_from_slice(&len.to_be_bytes());
        buf.extend_from_slice(body.as_bytes());
        writer.write_all(&buf)?;
        writer.flush()
    }

    /// Reads one length-prefixed frame. A clean EOF before the prefix
    /// or inside the body surfaces as `UnexpectedEof` (the peer hung
    /// up); a prefix past the 64 MiB cap, malformed JSON or an
    /// off-contract document is `InvalidData`.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the reader or the decoding steps above.
    pub fn read_from(reader: &mut impl io::Read) -> io::Result<ShardFrame> {
        let mut prefix = [0u8; 4];
        reader.read_exact(&mut prefix)?;
        let len = u32::from_be_bytes(prefix);
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard frame length {len} exceeds the frame cap"),
            ));
        }
        let mut body = Vec::with_capacity(len.min(FRAME_READ_RESERVE) as usize);
        reader.take(u64::from(len)).read_to_end(&mut body)?;
        if body.len() < len as usize {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("shard frame body ended after {} of {len} bytes", body.len()),
            ));
        }
        let text = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "shard frame is not UTF-8"))?;
        ShardFrame::from_json(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SpecError;

    #[test]
    fn accept_negotiation_follows_listed_order() {
        assert_eq!(WireFormat::from_accept(""), Some(WireFormat::Json));
        assert_eq!(
            WireFormat::from_accept("application/json"),
            Some(WireFormat::Json)
        );
        assert_eq!(WireFormat::from_accept("text/csv"), Some(WireFormat::Csv));
        assert_eq!(
            WireFormat::from_accept("text/plain, application/json"),
            Some(WireFormat::Text)
        );
        assert_eq!(
            WireFormat::from_accept("application/xml, text/csv;q=0.5"),
            Some(WireFormat::Csv)
        );
        assert_eq!(WireFormat::from_accept("*/*"), Some(WireFormat::Json));
        assert_eq!(WireFormat::from_accept("image/png"), None);
    }

    #[test]
    fn workload_errors_map_to_frozen_codes() {
        let spec_err: WorkloadError = SpecError::new("bad").into();
        let body = ErrorBody::of(&spec_err);
        assert_eq!((body.status, body.code), (400, "invalid_spec"));
        assert_eq!(body.exit_code(), 2);

        let io_err = WorkloadError::io("/tmp/x", std::io::Error::other("boom"));
        let body = ErrorBody::of(&io_err);
        assert_eq!((body.status, body.code), (500, "io_failed"));
        assert_eq!(body.exit_code(), 4);

        let model_err: WorkloadError = optpower::ModelError::InvalidFrequency { hertz: 0.0 }.into();
        let body = ErrorBody::of(&model_err);
        assert_eq!((body.status, body.code), (422, "model_failed"));
        assert_eq!(body.exit_code(), 3);
    }

    #[test]
    fn a_lint_refusal_inside_characterization_is_lint_rejected() {
        use optpower_mult::{Architecture, MultiplierDesign};
        use optpower_netlist::{CellKind, Library, NetlistBuilder};
        use optpower_report::{characterize_design_with, AbInitioError, CharacterizeConfig};
        use optpower_tech::{Flavor, Technology};
        use optpower_units::Hertz;

        // Every generator is lint-clean, so the gate is reached with a
        // multiplier-shaped netlist (a/b operand buses) whose flop is
        // rewired into a self-loop: no input ever reaches it, so it is
        // an X-source (L004, the one error-severity rule).
        let mut b = NetlistBuilder::new("xloop");
        let a0 = b.add_input("a0");
        let b0 = b.add_input("b0");
        let p0 = b.add_cell(CellKind::And2, &[a0, b0]);
        let q = b.add_cell(CellKind::Dff, &[p0]);
        b.rewire(q, 0, q);
        b.add_output("p0", p0);
        b.add_output("p1", q);
        let design = MultiplierDesign {
            arch: Architecture::Rca,
            width: 1,
            netlist: b.build().expect("a flop loop is structurally valid"),
            cycles_per_item: 1,
            ld_scale: 1.0,
        };
        let err = characterize_design_with(
            &design,
            &Library::cmos13(),
            Technology::stm_cmos09(Flavor::LowLeakage),
            Hertz::new(31.25e6),
            &CharacterizeConfig::new(8, 1),
        )
        .unwrap_err();
        assert!(
            matches!(&err, AbInitioError::Lint { netlist, report }
                if netlist == "xloop" && report.error_count() == 1),
            "{err:?}"
        );
        let body = ErrorBody::of(&WorkloadError::from(err));
        assert_eq!((body.status, body.code), (422, "lint_rejected"));
        assert_eq!(body.exit_code(), 3);
    }

    #[test]
    fn error_body_json_is_schema_tagged() {
        let body = ErrorBody::new(429, "queue_full", "queue is full");
        let json = body.to_json();
        assert_eq!(
            json,
            r#"{"schema":"optpower-error/v1","status":429,"code":"queue_full","error":"queue is full"}"#
        );
        assert_eq!(
            status_json("00ff00ff00ff00ff", "queued"),
            r#"{"schema":"optpower-job-status/v1","key":"00ff00ff00ff00ff","state":"queued"}"#
        );
    }

    #[test]
    fn shard_frames_round_trip_through_the_codec() {
        let spec = JobSpec::default_for("ab_initio").unwrap();
        let frames = [
            ShardFrame::Hello {
                host: "127.0.0.1:7900".to_string(),
            },
            ShardFrame::Assign {
                shard: spec.canonical_key(),
                spec: spec.clone(),
            },
            ShardFrame::Heartbeat {
                shard: spec.canonical_key(),
            },
            ShardFrame::Result(Box::new(ShardResult {
                shard: spec.canonical_key(),
                payload_json: r#"{"schema":"optpower-workload/v1"}"#.to_string(),
                csv: "a,b\n1,2\n".to_string(),
                text: "table".to_string(),
                wall_ms: 12.75,
                cache: Some(CacheStatus::Hit),
                row_cache: Some(RowCacheStats { hits: 3, misses: 1 }),
            })),
            ShardFrame::Result(Box::new(ShardResult {
                shard: "00ff00ff00ff00ff".to_string(),
                payload_json: String::new(),
                csv: String::new(),
                text: String::new(),
                wall_ms: 0.0,
                cache: None,
                row_cache: None,
            })),
            ShardFrame::Error {
                shard: spec.canonical_key(),
                error: ErrorBody::new(422, "model_failed", "no optimum"),
            },
        ];
        // JSON round trip, then the length-prefixed byte stream — all
        // frames in one buffer, read back in order.
        let mut stream = Vec::new();
        for frame in &frames {
            assert_eq!(&ShardFrame::from_json(&frame.to_json()).unwrap(), frame);
            frame.write_to(&mut stream).unwrap();
        }
        let mut reader = stream.as_slice();
        for frame in &frames {
            assert_eq!(&ShardFrame::read_from(&mut reader).unwrap(), frame);
        }
        // Clean EOF at a frame boundary is UnexpectedEof (peer gone).
        let err = ShardFrame::read_from(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn shard_codec_rejects_off_contract_input() {
        for bad in [
            r#"{"schema":"optpower-shard/v2","frame":"hello","host":"h"}"#,
            r#"{"schema":"optpower-shard/v1","frame":"warp"}"#,
            r#"{"schema":"optpower-shard/v1","frame":"assign","shard":"k"}"#,
            r#"{"schema":"optpower-shard/v1","frame":"result","shard":"k"}"#,
            "not json",
        ] {
            assert!(ShardFrame::from_json(bad).is_err(), "{bad}");
        }
        // A hostile length prefix must not allocate; it is InvalidData.
        let mut reader: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        let err = ShardFrame::read_from(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_truncated_frame_body_is_unexpected_eof() {
        // The largest admissible prefix, three body bytes, then EOF.
        let mut stream = MAX_FRAME_BYTES.to_be_bytes().to_vec();
        stream.extend_from_slice(b"{\"s");
        let err = ShardFrame::read_from(&mut stream.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn error_codes_intern_to_the_frozen_vocabulary() {
        assert_eq!(intern_error_code("model_failed"), "model_failed");
        assert_eq!(intern_error_code("queue_full"), "queue_full");
        assert_eq!(intern_error_code("made_up_code"), "unknown_error");
        // The wire round trip of an error frame preserves code + status.
        let frame = ShardFrame::Error {
            shard: "k".to_string(),
            error: ErrorBody::new(429, "queue_full", "busy"),
        };
        let back = ShardFrame::from_json(&frame.to_json()).unwrap();
        assert_eq!(back, frame);
    }
}
