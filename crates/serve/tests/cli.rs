//! The `optpower` command line, driven as a process: a kind name is
//! `run` on that kind's default spec, and every bad invocation exits 2
//! before any work starts. Nothing here needs a live server or worker.

use std::io::Write;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_optpower");

/// The kinds whose jobs solve the analytic model only (no simulation),
/// so each run takes milliseconds.
const ANALYTIC_KINDS: &[&str] = &[
    "table1_sweep",
    "table2",
    "table3",
    "table4",
    "scaling_study",
    "sensitivity",
    "figure1",
    "figure2",
    "pareto",
];

fn spawn(args: &[&str], stdin: &str, output: fn() -> Stdio) -> std::process::Child {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(output())
        .stderr(output())
        .spawn()
        .expect("spawn optpower");
    // A verb that exits before reading stdin closes the pipe; that is
    // not a failure of the test.
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes());
    child
}

/// Stdout of a successful invocation.
fn stdout(args: &[&str], stdin: &str) -> Vec<u8> {
    let out = spawn(args, stdin, Stdio::piped)
        .wait_with_output()
        .expect("wait for optpower");
    assert!(
        out.status.success(),
        "optpower {args:?} failed with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The exit code of an invocation. A verb that ignored a bad argument
/// might serve forever, so the process is killed after a deadline.
fn exit_code(args: &[&str], stdin: &str) -> i32 {
    let mut child = spawn(args, stdin, Stdio::null);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("wait for optpower") {
            return status.code().expect("optpower exited by signal");
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("optpower {args:?} still running after 60 s");
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_kind_name_runs_the_kinds_default_spec() {
    for &kind in ANALYTIC_KINDS {
        let spec = String::from_utf8(stdout(&["spec", kind], "")).expect("UTF-8 spec");
        let kebab = kind.replace('_', "-");
        for format in [None, Some("--csv")] {
            let run = stdout(
                &["run", "-"].into_iter().chain(format).collect::<Vec<_>>(),
                &spec,
            );
            assert!(!run.is_empty(), "{kind} {format:?} printed nothing");
            for name in [kind, kebab.as_str()] {
                let direct = stdout(&[name].into_iter().chain(format).collect::<Vec<_>>(), "");
                assert!(
                    direct == run,
                    "`optpower {name} {format:?}` differs from `run` on its default spec"
                );
            }
        }
    }
}

#[test]
fn an_unreadable_spec_is_a_client_error() {
    let missing = concat!(env!("CARGO_TARGET_TMPDIR"), "/no-such-spec.json");
    for args in [
        vec!["run", missing],
        vec!["run", missing, "--hosts", "127.0.0.1:9"],
        vec!["submit", missing],
    ] {
        assert_eq!(exit_code(&args, ""), 2, "optpower {args:?}");
    }
}

#[test]
fn every_verb_refuses_an_unknown_argument() {
    // The spec on stdin is valid, so a verb that ignored the stray
    // argument would run it and exit 0 (or, for `--hosts`, fail to
    // reach the discard port and exit 4).
    let spec = r#"{"job":"table2"}"#;
    for args in [
        vec!["run", "-", "--bogus"],
        vec!["run", "-", "stray"],
        vec!["table2", "--bogus"],
        vec!["table2", "stray"],
        vec!["ab-initio", "--bogus"],
        vec!["run", "-", "--hosts", "127.0.0.1:9", "--bogus"],
        vec!["table2", "--hosts", "127.0.0.1:9", "--bogus"],
        vec![
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--drain-on-stdin-eof",
            "--bogus",
        ],
        vec!["worker", "--addr", "127.0.0.1:0", "--bogus"],
        vec!["submit", "-", "--bogus"],
        vec!["list", "--bogus"],
        vec!["spec", "table2", "--bogus"],
    ] {
        assert_eq!(exit_code(&args, spec), 2, "optpower {args:?}");
    }
}

#[test]
fn unknown_commands_and_out_of_range_specs_are_client_errors() {
    assert_eq!(exit_code(&["bogus"], ""), 2);
    assert_eq!(exit_code(&["spec", "bogus"], ""), 2);
    assert_eq!(
        exit_code(&["run", "-"], r#"{"job":"ab_initio","lanes":0}"#),
        2
    );
    // Flags of the other `run` mode are refused, not ignored.
    assert_eq!(
        exit_code(&["run", "-", "--shards", "2"], r#"{"job":"table2"}"#),
        2
    );
    assert_eq!(
        exit_code(
            &["run", "-", "--hosts", "127.0.0.1:9", "--cache", "4"],
            r#"{"job":"table2"}"#
        ),
        2
    );
}

#[test]
fn a_job_that_parses_but_fails_exits_3() {
    // Width 2 at one item counts no transition: a 422 `ab_initio_failed`.
    assert_eq!(
        exit_code(&["run", "-"], r#"{"job":"figure34","width":2,"items":1}"#),
        3
    );
}
