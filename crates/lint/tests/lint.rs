//! End-to-end tests for `banshee_tidy`: every check fires on the known-bad
//! fixture tree at the expected file:line, the clean fixture tree passes,
//! and — the point of the whole exercise — the real workspace is clean.

use banshee_lint::diag::CheckId;
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace two levels up")
        .to_path_buf()
}

/// (check, path, line) triples for a run, sorted.
fn findings(root: &Path, only: &[CheckId]) -> Vec<(String, String, usize)> {
    let report = banshee_lint::run(root, only).expect("scan fixture tree");
    report
        .diagnostics
        .iter()
        .map(|d| (d.check.name().to_string(), d.path.clone(), d.line))
        .collect()
}

fn triple(check: &str, path: &str, line: usize) -> (String, String, usize) {
    (check.to_string(), path.to_string(), line)
}

#[test]
fn bad_tree_fires_every_check_at_the_expected_lines() {
    let got = findings(&fixture_root("bad"), &[]);
    let want = vec![
        // .github/workflows/ci.yml forgot the golden results fixture.
        triple("governance", ".github/workflows/ci.yml", 0),
        // persist.rs: SNAPSHOT_FORMAT bumped without a `Format 9:` doc line.
        triple("governance", "crates/common/src/persist.rs", 3),
        // persist.rs: `save` frames two sections with the same label.
        triple("governance", "crates/common/src/persist.rs", 13),
        // config.rs: MODEL_REVISION = 3 with no `3.` history entry.
        triple("governance", "crates/sim/src/config.rs", 12),
        // lib.rs: std HashMap import in sim-critical code.
        triple("std-hash", "crates/sim/src/lib.rs", 2),
        // lib.rs: Instant::now outside the allowlist.
        triple("wall-clock", "crates/sim/src/lib.rs", 10),
        // lib.rs: allow(std-hash) marker with no justification.
        triple("std-hash", "crates/sim/src/lib.rs", 13),
        // the committed fixture pins revision 2, the constant says 3.
        triple(
            "governance",
            "crates/sim/tests/fixtures/cache_key_material.txt",
            1,
        ),
    ];
    assert_eq!(got, want, "bad-tree findings diverged");
}

#[test]
fn only_filter_restricts_the_run() {
    let got = findings(&fixture_root("bad"), &[CheckId::WallClock]);
    assert_eq!(got, vec![triple("wall-clock", "crates/sim/src/lib.rs", 10)]);
}

#[test]
fn clean_tree_is_clean() {
    let got = findings(&fixture_root("clean"), &[]);
    assert!(got.is_empty(), "clean fixture tree should pass: {got:?}");
}

#[test]
fn real_workspace_is_clean() {
    let report = banshee_lint::run(&workspace_root(), &[]).expect("scan workspace");
    assert!(
        report.files_scanned > 50,
        "workspace walk looks wrong: only {} files",
        report.files_scanned
    );
    let msgs: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.is_clean(),
        "the real tree must stay tidy-clean:\n{}",
        msgs.join("\n")
    );
}

#[test]
fn cli_exit_codes_and_json() {
    let bin = env!("CARGO_BIN_EXE_banshee_tidy");

    let bad = std::process::Command::new(bin)
        .args(["--root"])
        .arg(fixture_root("bad"))
        .args(["--json", "-"])
        .output()
        .expect("run banshee_tidy");
    assert_eq!(bad.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("\"diagnostic_count\": 8"), "{stdout}");
    assert!(
        stdout.contains("crates/sim/src/lib.rs:2: [std-hash]"),
        "{stdout}"
    );

    let clean = std::process::Command::new(bin)
        .args(["--root"])
        .arg(fixture_root("clean"))
        .output()
        .expect("run banshee_tidy");
    assert_eq!(clean.status.code(), Some(0), "clean tree must exit 0");

    let usage = std::process::Command::new(bin)
        .args(["--only", "not-a-check"])
        .output()
        .expect("run banshee_tidy");
    assert_eq!(usage.status.code(), Some(2), "bad usage must exit 2");
}
