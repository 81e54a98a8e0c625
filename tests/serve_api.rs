//! Acceptance suite of the `optpower serve` job service, driven over
//! real sockets:
//!
//! * **byte identity** — the JSON artifact served over HTTP, with its
//!   `meta` object stripped, is byte-identical to a direct
//!   [`Runtime`] run's `payload_json()`; CSV negotiation matches
//!   `to_csv()` exactly;
//! * **content-addressed cache** — resubmitting the same job (even
//!   respelled: permuted keys, different float spelling) is served
//!   from the cache with `X-Optpower-Cache: hit` and `meta.cache`
//!   set, without taking a queue slot — and still as a hit once the
//!   cache has evicted it, from the job store's finished run;
//! * **backpressure** — a full admission queue answers
//!   `429 queue_full` with `Retry-After`, deterministically (the
//!   server starts with paused executors);
//! * **the frozen error surface** — bad specs, bad paths, bad
//!   methods and bad `Accept` headers map to the documented
//!   status/code pairs;
//! * **graceful shutdown** — `POST /v1/shutdown` drains: admission
//!   flips to `503 draining` and `join()` returns.

use std::time::Duration;

use optpower_explore::Workers;
use optpower_serve::{client, Config};
use optpower_workload::{JobSpec, Json, Runtime};

const TIMEOUT: Duration = Duration::from_secs(30);

fn get(addr: &str, target: &str) -> client::HttpReply {
    client::request(addr, "GET", target, &[], b"", TIMEOUT).expect("GET")
}

fn post(addr: &str, target: &str, accept: &str, body: &str) -> client::HttpReply {
    client::request(
        addr,
        "POST",
        target,
        &[("Accept", accept)],
        body.as_bytes(),
        TIMEOUT,
    )
    .expect("POST")
}

/// Polls `GET /v1/jobs/<key>` until the artifact document appears.
fn poll_until_done(addr: &str, key: &str) -> client::HttpReply {
    for _ in 0..600 {
        let reply = get(addr, &format!("/v1/jobs/{key}"));
        assert_eq!(reply.status, 200, "job {key}: {}", reply.body_text());
        if reply
            .body_text()
            .contains("\"schema\":\"optpower-workload/v1\"")
        {
            return reply;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("job {key} did not reach a terminal state");
}

/// Parses a served JSON artifact, drops the top-level `meta` pair,
/// and re-serializes — the deterministic payload document, byte-
/// stable because the `Json` writer round-trips exactly.
fn strip_meta(body: &str) -> String {
    let Json::Obj(pairs) = Json::parse(body).expect("served artifact parses") else {
        panic!("served artifact is not a JSON object");
    };
    let stripped: Vec<(String, Json)> = pairs.into_iter().filter(|(k, _)| k != "meta").collect();
    Json::Obj(stripped).to_string()
}

/// The `meta.cache` label of a served JSON artifact.
fn meta_cache_of(body: &str) -> Option<String> {
    Json::parse(body)
        .ok()?
        .get("meta")?
        .get("cache")?
        .as_str()
        .map(str::to_string)
}

#[test]
fn serve_api_contract_end_to_end() {
    let handle = optpower_serve::start(Config {
        addr: "127.0.0.1:0".to_string(),
        queue_capacity: 2,
        executors: 2,
        workers: Workers::Fixed(2),
        start_paused: true,
        ..Config::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    assert_eq!(
        get(&addr, "/healthz").body_text(),
        r#"{"ok":true,"state":"running"}"#
    );

    // --- Backpressure, deterministically: executors are paused, so
    // two async submissions fill the queue and the third bounces.
    let queued_a = r#"{"job":"figure1","samples":3}"#;
    let queued_b = r#"{"job":"figure2","samples":3}"#;
    let mut keys = Vec::new();
    for body in [queued_a, queued_b] {
        let reply = post(&addr, "/v1/jobs?mode=async", "application/json", body);
        assert_eq!(reply.status, 202, "{}", reply.body_text());
        let expected_key = JobSpec::from_json(body).unwrap().canonical_key();
        assert_eq!(reply.header("x-optpower-key"), Some(expected_key.as_str()));
        assert!(reply
            .body_text()
            .contains("\"schema\":\"optpower-job-status/v1\""));
        keys.push(expected_key);
    }
    let overflow_body = r#"{"job":"figure2","samples":5}"#;
    let overflow = post(
        &addr,
        "/v1/jobs?mode=async",
        "application/json",
        overflow_body,
    );
    assert_eq!(overflow.status, 429, "{}", overflow.body_text());
    assert_eq!(overflow.header("retry-after"), Some("1"));
    assert!(overflow.body_text().contains("\"code\":\"queue_full\""));
    // The bounced admission was rolled back: the key is not tracked.
    let overflow_key = JobSpec::from_json(overflow_body).unwrap().canonical_key();
    assert_eq!(get(&addr, &format!("/v1/jobs/{overflow_key}")).status, 404);

    let metrics = Json::parse(&get(&addr, "/metrics").body_text()).expect("metrics parse");
    assert_eq!(metrics.get("queue_depth").and_then(Json::as_u64), Some(2));
    assert_eq!(
        metrics.get("rejected_queue_full").and_then(Json::as_u64),
        Some(1)
    );

    // --- Release the executors; both queued jobs complete.
    handle.resume();
    for key in &keys {
        poll_until_done(&addr, key);
    }

    // --- Byte identity of a synchronous Batch submission.
    let batch_wire = r#"{"job":"batch","jobs":[{"job":"table2"},{"job":"figure2","samples":4}]}"#;
    let spec = JobSpec::from_json(batch_wire).unwrap();
    let direct = Runtime::new(Workers::Fixed(2))
        .run(&spec)
        .expect("direct run");

    let served = post(&addr, "/v1/jobs", "application/json", batch_wire);
    assert_eq!(served.status, 200, "{}", served.body_text());
    assert_eq!(served.header("x-optpower-cache"), Some("miss"));
    assert_eq!(
        served.header("x-optpower-key"),
        Some(spec.canonical_key().as_str())
    );
    assert_eq!(served.header("content-type"), Some("application/json"));
    assert_eq!(meta_cache_of(&served.body_text()).as_deref(), Some("miss"));
    assert_eq!(
        strip_meta(&served.body_text()),
        direct.payload_json(),
        "HTTP-served JSON artifact must be byte-identical to direct execution"
    );

    // --- Cache hit on resubmission, in a different wire spelling:
    // keys reordered, float respelled, whitespace added, schema tag
    // included. Canonicalization makes them the same job.
    let respelled = concat!(
        r#"{ "schema": "optpower-job/v1", "jobs": [ {"job":"table2"}, "#,
        r#"{"samples": 4e0, "job": "figure2"} ], "job": "batch" }"#
    );
    let hit = post(&addr, "/v1/jobs", "application/json", respelled);
    assert_eq!(hit.status, 200, "{}", hit.body_text());
    assert_eq!(hit.header("x-optpower-cache"), Some("hit"));
    assert_eq!(meta_cache_of(&hit.body_text()).as_deref(), Some("hit"));
    assert_eq!(strip_meta(&hit.body_text()), direct.payload_json());

    // --- CSV content negotiation (also a cache hit).
    let csv = post(&addr, "/v1/jobs", "text/csv", batch_wire);
    assert_eq!(csv.status, 200);
    assert_eq!(csv.header("content-type"), Some("text/csv"));
    assert_eq!(csv.header("x-optpower-cache"), Some("hit"));
    assert_eq!(csv.body_text(), direct.to_csv());

    // --- Metrics reflect all of the above.
    let metrics = Json::parse(&get(&addr, "/metrics").body_text()).expect("metrics parse");
    let count = |name: &str| metrics.get(name).and_then(Json::as_u64).unwrap_or(0);
    assert!(count("served") >= 5, "served = {}", count("served"));
    assert!(count("cache_hits") >= 2, "hits = {}", count("cache_hits"));
    assert!(count("accepted") >= 3);
    assert_eq!(count("queue_depth"), 0);
    assert!(
        metrics
            .get("wall_ms_by_kind")
            .and_then(|k| k.get("batch"))
            .is_some(),
        "per-kind histogram records the batch"
    );

    // --- Graceful shutdown: drain, refuse, join.
    let shutdown = post(&addr, "/v1/shutdown", "application/json", "");
    assert_eq!(shutdown.status, 200);
    assert_eq!(shutdown.body_text(), r#"{"ok":true,"state":"draining"}"#);
    let refused = post(&addr, "/v1/jobs", "application/json", batch_wire);
    assert_eq!(refused.status, 503, "{}", refused.body_text());
    assert!(refused.body_text().contains("\"code\":\"draining\""));
    handle.join();
}

#[test]
fn serve_error_surface_is_the_frozen_mapping() {
    let handle = optpower_serve::start(Config {
        addr: "127.0.0.1:0".to_string(),
        queue_capacity: 4,
        executors: 1,
        workers: Workers::Fixed(1),
        ..Config::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Unparseable spec → 400 invalid_spec (the workload mapping).
    let reply = post(&addr, "/v1/jobs", "application/json", "{ not json");
    assert_eq!(reply.status, 400, "{}", reply.body_text());
    assert!(reply.body_text().contains("\"code\":\"invalid_spec\""));
    assert!(reply
        .body_text()
        .contains("\"schema\":\"optpower-error/v1\""));

    // A spec that parses but cannot execute carries its runtime
    // mapping back over the sync path.
    let reply = post(
        &addr,
        "/v1/jobs",
        "application/json",
        r#"{"job":"activity_measure","arch":"No Such Multiplier"}"#,
    );
    assert_eq!(reply.status, 400, "{}", reply.body_text());
    assert!(reply.body_text().contains("unknown architecture"));

    // Unsupported Accept → 406; unknown path → 404; wrong method →
    // 405 with Allow; unknown key → 404 unknown_job; bad mode → 400.
    let reply = post(&addr, "/v1/jobs", "image/png", r#"{"job":"table2"}"#);
    assert_eq!(reply.status, 406);
    assert!(reply.body_text().contains("\"code\":\"not_acceptable\""));

    assert_eq!(get(&addr, "/nope").status, 404);

    let reply = client::request(&addr, "DELETE", "/v1/jobs", &[], b"", TIMEOUT).expect("DELETE");
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("allow"), Some("POST"));

    let reply = get(&addr, "/v1/jobs/ffffffffffffffff");
    assert_eq!(reply.status, 404);
    assert!(reply.body_text().contains("\"code\":\"unknown_job\""));

    let reply = post(
        &addr,
        "/v1/jobs?mode=later",
        "application/json",
        r#"{"job":"table2"}"#,
    );
    assert_eq!(reply.status, 400);

    // Values the engines cannot run with (a zero lane split divides by
    // zero, a sub-2-bit pipelined array asserts, a reset design
    // measured with fewer than two warm-up items asserts, four billion
    // lanes abort on allocation) are refused at parse time, so they
    // never reach — and kill — the only executor.
    for bad in [
        r#"{"job":"ab_initio","lanes":0}"#,
        r#"{"job":"glitch_sweep","lanes":0}"#,
        r#"{"job":"sta","lanes":0}"#,
        r#"{"job":"figure34","width":0}"#,
        r#"{"job":"figure34","width":1}"#,
        r#"{"job":"activity_measure","arch":"Sequential","warmup":1}"#,
        r#"{"job":"activity_measure","arch":"Wallace par4","warmup":0}"#,
        r#"{"job":"ab_initio","archs":["RCA"],"items":1,"lanes":4000000000}"#,
        r#"{"job":"glitch_sweep","lanes":4000000000}"#,
        r#"{"job":"sta","lanes":4000000000}"#,
        r#"{"job":"ab_initio","lanes":513}"#,
    ] {
        let reply = post(&addr, "/v1/jobs", "application/json", bad);
        assert_eq!(reply.status, 400, "{bad}: {}", reply.body_text());
        assert!(reply.body_text().contains("\"code\":\"invalid_spec\""));
    }
    let reply = post(
        &addr,
        "/v1/jobs",
        "application/json",
        r#"{"job":"figure2","samples":3}"#,
    );
    assert_eq!(reply.status, 200, "{}", reply.body_text());

    handle.abort();
    handle.join();
}

#[test]
fn store_served_repeats_are_cache_hits() {
    // One artifact slot: B evicts A, so the repeat of A is answered
    // from the job store's finished run. Nothing executes for it, so
    // it is a hit on the wire, in `meta` and on `/metrics`.
    let handle = optpower_serve::start(Config {
        addr: "127.0.0.1:0".to_string(),
        executors: 1,
        workers: Workers::Fixed(1),
        cache_capacity: 1,
        ..Config::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();
    let a = r#"{"job":"figure2","samples":3}"#;
    let b = r#"{"job":"figure2","samples":4}"#;

    let first = post(&addr, "/v1/jobs", "application/json", a);
    assert_eq!(first.header("x-optpower-cache"), Some("miss"));
    let other = post(&addr, "/v1/jobs", "application/json", b);
    assert_eq!(other.header("x-optpower-cache"), Some("miss"));
    let repeat = post(&addr, "/v1/jobs", "application/json", a);
    assert_eq!(repeat.status, 200, "{}", repeat.body_text());
    assert_eq!(repeat.header("x-optpower-cache"), Some("hit"));
    assert_eq!(meta_cache_of(&repeat.body_text()).as_deref(), Some("hit"));
    assert_eq!(
        strip_meta(&repeat.body_text()),
        strip_meta(&first.body_text())
    );

    let metrics = Json::parse(&get(&addr, "/metrics").body_text()).expect("metrics parse");
    let count = |name: &str| metrics.get(name).and_then(Json::as_u64);
    assert_eq!(count("cache_hits"), Some(1));
    assert_eq!(count("cache_misses"), Some(2));

    handle.abort();
    handle.join();
}
