//! End-to-end test of the `cargo xtask check` binary: the seeded
//! violation fixture under `tests/fixtures/violations` must produce a
//! non-zero exit, a `file:line: [RULE]` diagnostic for every rule in the
//! catalog, and `--rule` filtering must isolate a single rule.

use std::path::PathBuf;
use std::process::Command;

const ALL_RULES: &[&str] = &[
    "GT-LINT-001",
    "GT-LINT-002",
    "GT-LINT-003",
    "GT-LINT-004",
    "GT-LINT-006",
    "GT-LINT-008",
    "GT-LINT-011",
    "GT-LINT-012",
];

/// Retired or merged IDs: never reported, never reused.
const RETIRED: &[&str] = &["GT-LINT-005", "GT-LINT-007", "GT-LINT-009", "GT-LINT-010"];

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations")
}

fn run_check(extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("check")
        .arg("--root")
        .arg(fixture_root())
        .args(extra)
        .output()
        .expect("spawn xtask");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

#[test]
fn seeded_fixture_trips_every_rule_with_file_line_diagnostics() {
    let (code, stdout) = run_check(&[]);
    assert_eq!(code, 1, "violations must exit 1; output:\n{stdout}");
    for rule in ALL_RULES {
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "missing {rule} in output:\n{stdout}"
        );
    }
    for rule in RETIRED {
        assert!(!stdout.contains(rule), "retired {rule} reported:\n{stdout}");
    }
    assert!(
        stdout.ends_with("2 crates, 2 files, 8 rules — 11 finding(s)\n"),
        "summary line wrong:\n{stdout}"
    );
    // Diagnostics carry a real file:line location.
    assert!(
        stdout.contains("crates/bad-geo/src/lib.rs:7: [GT-LINT-001]"),
        "thread_rng site not located:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/bad-geo/Cargo.toml:10: [GT-LINT-006]"),
        "layering edge not located at its manifest line:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/core/src/engine/faulty.rs:5: [GT-LINT-003]"),
        "supervised-path unwrap not located:\n{stdout}"
    );
}

#[test]
fn rule_filter_isolates_one_rule() {
    let (code, stdout) = run_check(&["--rule", "GT-LINT-004"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("[GT-LINT-004]"));
    for rule in ALL_RULES.iter().filter(|r| **r != "GT-LINT-004") {
        assert!(
            !stdout.contains(&format!("[{rule}]")),
            "{rule} leaked past the filter:\n{stdout}"
        );
    }
}

#[test]
fn unknown_rule_is_a_usage_error() {
    let (code, _) = run_check(&["--rule", "GT-LINT-999"]);
    assert_eq!(code, 2);
}

#[test]
fn list_prints_catalog_and_exits_zero() {
    let (code, stdout) = run_check(&["--list"]);
    assert_eq!(code, 0);
    let listed: Vec<&str> = stdout.lines().filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(listed, ALL_RULES, "--list catalog:\n{stdout}");
}

#[test]
fn flags_of_other_commands_are_usage_errors() {
    // `check` takes `--all`, not `analyze`'s `--explain`; a missing
    // option value is a usage error too.
    assert_eq!(run_check(&["--explain", "GT-AN-001"]).0, 2);
    assert_eq!(run_check(&["--rule"]).0, 2);
    assert_eq!(run_check(&["--bogus"]).0, 2);
}

#[test]
fn real_workspace_is_clean() {
    // The repo itself must pass its own lint pass (CI gates on this).
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("check")
        .arg("--root")
        .arg(repo_root)
        .output()
        .expect("spawn xtask");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "repo lint pass not clean:\n{stdout}"
    );
}
