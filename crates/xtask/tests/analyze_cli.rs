//! End-to-end test of `cargo xtask analyze`: the seeded fixture under
//! `tests/fixtures/analyze` must trip all three GT-AN rules with exact
//! `file:line: [RULE]` diagnostics, output must be byte-identical
//! across runs, `--rule` must filter, `--explain` must document, and
//! the real workspace must come back clean.

use std::path::PathBuf;
use std::process::Command;

const ALL_RULES: &[&str] = &["GT-AN-001", "GT-AN-002", "GT-AN-003"];

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/analyze")
}

fn run_analyze(extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("analyze")
        .arg("--root")
        .arg(fixture_root())
        .args(extra)
        .output()
        .expect("spawn xtask");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

#[test]
fn seeded_fixture_trips_every_rule_at_exact_locations() {
    let (code, stdout) = run_analyze(&[]);
    assert_eq!(code, 1, "violations must exit 1; output:\n{stdout}");
    // One anchor per rule, with the exact file:line the seed plants.
    assert!(
        stdout.contains(
            "crates/measure/src/lib.rs:17: [GT-AN-001] `.unwrap()` reachable \
             from supervised root via DemoStage::run -> risky_helper"
        ),
        "panic-reach diagnostic missing or moved:\n{stdout}"
    );
    assert!(
        stdout.contains(
            "crates/measure/src/lib.rs:26: [GT-AN-002] `.collect()` allocates \
             on hot path via lookup -> collect_hits"
        ),
        "hot-alloc diagnostic missing or moved:\n{stdout}"
    );
    // The fixture's upward `use geotopo_core` is GT-LINT-006's to
    // report, from the manifest; the analyzer leaves layering alone.
    assert!(
        !stdout.contains("crates/geo/src/lib.rs:4:"),
        "source import reported as a layering finding:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/geo/src/lib.rs:10: [GT-AN-003] pub item `orphan_api`"),
        "dead-pub diagnostic missing or moved:\n{stdout}"
    );
    assert!(
        stdout.ends_with("3 crates, 3 files, 3 rules — 5 finding(s)\n"),
        "summary line wrong:\n{stdout}"
    );
}

#[test]
fn findings_are_sorted_by_file_then_line() {
    let (_, stdout) = run_analyze(&[]);
    let locs: Vec<(String, usize)> = stdout
        .lines()
        .filter(|l| l.contains(": [GT-AN-"))
        .map(|l| {
            let mut parts = l.splitn(3, ':');
            let file = parts.next().expect("file").to_string();
            let line = parts.next().expect("line").parse().expect("line number");
            (file, line)
        })
        .collect();
    assert_eq!(locs.len(), 5, "expected 5 findings:\n{stdout}");
    let mut sorted = locs.clone();
    sorted.sort();
    assert_eq!(locs, sorted, "diagnostics not sorted:\n{stdout}");
}

#[test]
fn output_is_byte_identical_across_runs() {
    let (code1, first) = run_analyze(&[]);
    let (code2, second) = run_analyze(&[]);
    assert_eq!(code1, code2);
    assert_eq!(first, second, "analyze output differs between runs");
}

#[test]
fn rule_filter_isolates_one_rule() {
    let (code, stdout) = run_analyze(&["--rule", "GT-AN-002"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("[GT-AN-002]"));
    for rule in ALL_RULES.iter().filter(|r| **r != "GT-AN-002") {
        assert!(
            !stdout.contains(&format!("[{rule}]")),
            "{rule} leaked past the filter:\n{stdout}"
        );
    }
}

#[test]
fn unknown_rule_is_a_usage_error() {
    let (code, _) = run_analyze(&["--rule", "GT-AN-999"]);
    assert_eq!(code, 2);
}

#[test]
fn explain_documents_each_rule_and_exits_zero() {
    for rule in ALL_RULES {
        let (code, stdout) = run_analyze(&["--explain", rule]);
        assert_eq!(code, 0, "--explain {rule} failed:\n{stdout}");
        assert!(
            stdout.contains(rule),
            "--explain {rule} does not name the rule:\n{stdout}"
        );
    }
    let (code, _) = run_analyze(&["--explain", "GT-AN-999"]);
    assert_eq!(code, 2, "unknown --explain id must be a usage error");
}

#[test]
fn flags_of_other_commands_are_usage_errors() {
    // `analyze` takes `--explain`, not `check`'s `--all`.
    assert_eq!(run_analyze(&["--all"]).0, 2);
    assert_eq!(run_analyze(&["--explain"]).0, 2);
}

#[test]
fn list_prints_catalog_and_exits_zero() {
    let (code, stdout) = run_analyze(&["--list"]);
    assert_eq!(code, 0);
    for rule in ALL_RULES {
        assert!(
            stdout.contains(rule),
            "{rule} missing from --list:\n{stdout}"
        );
    }
}

#[test]
fn real_workspace_is_clean() {
    // The repo itself must pass its own analyzer (CI gates on this).
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("analyze")
        .arg("--root")
        .arg(repo_root)
        .output()
        .expect("spawn xtask");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "repo analyzer pass not clean:\n{stdout}"
    );
}
