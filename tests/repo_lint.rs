//! Repo self-lint: the same "is this even worth building" spirit as
//! the netlist lint, applied to the workspace itself. Every workspace
//! crate must carry the safety/doc lint headers, so a new crate can't
//! silently opt out.

use std::path::Path;

/// Crate roots under `dir`, as `(crate name, lib.rs contents)`.
fn lib_sources(dir: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&root).unwrap_or_else(|e| panic!("{}: {e}", root.display())) {
        let path = entry.unwrap().path().join("src/lib.rs");
        if let Ok(text) = std::fs::read_to_string(&path) {
            out.push((path.display().to_string(), text));
        }
    }
    assert!(!out.is_empty(), "no crates found under {dir}");
    out.sort();
    out
}

/// Every first-party crate forbids `unsafe` and warns on missing docs.
#[test]
fn workspace_crates_carry_the_lint_headers() {
    for (path, text) in lib_sources("crates") {
        assert!(
            text.contains("#![forbid(unsafe_code)]"),
            "{path} is missing #![forbid(unsafe_code)]"
        );
        assert!(
            text.contains("#![warn(missing_docs)]"),
            "{path} is missing #![warn(missing_docs)]"
        );
    }
}

/// The dependency shims forbid `unsafe` too (they deliberately skip
/// `missing_docs`: they mirror external crates' APIs, not ours).
#[test]
fn shims_forbid_unsafe() {
    for (path, text) in lib_sources("shims") {
        assert!(
            text.contains("#![forbid(unsafe_code)]"),
            "{path} is missing #![forbid(unsafe_code)]"
        );
    }
}

/// The dead-logic invariant, enforced on the checked-in goldens: no
/// golden may record an L001 (unreachable-cell) or L002 (floating-net)
/// diagnostic against a Wallace-family netlist. The only goldens
/// allowed to mention those rules at all are the deliberately dirty
/// lint fixtures (`dirty_lint.*`, whose design is named `dirty`).
/// The scan reads only the top level: `names/wallace4_raw_lint.txt`
/// lints the raw, pre-prune Wallace tree on purpose, to pin the names
/// its diagnostics print.
/// If this fires after a golden refresh, a generator regressed into
/// emitting dead partial-product logic.
#[test]
fn goldens_carry_no_wallace_dead_logic() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        if !(text.contains("L001") || text.contains("L002")) {
            continue;
        }
        let lower = text.to_lowercase();
        assert!(
            !lower.contains("wallace"),
            "{} records an L001/L002 diagnostic in a Wallace-family context; \
             the generators must prune dead cones at source",
            path.display()
        );
    }
}
