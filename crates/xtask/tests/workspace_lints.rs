//! The toolchain lints that took over retired GT-LINT rules live in the
//! root manifest: rustc's `missing_debug_implementations` replaced
//! GT-LINT-005, clippy's `todo`, `dbg_macro` and `unimplemented` replaced
//! GT-LINT-007, and clippy's `unwrap_used` backs GT-LINT-003. CI builds
//! with `-D warnings`, so each must stay at warn or deny and every
//! manifest must inherit the table — deleting one line would otherwise
//! silently drop a check.

use std::path::PathBuf;
use xtask::workspace::WorkspaceSrc;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

/// `(key, value)` pairs of the manifest table headed `header`.
fn table<'a>(manifest: &'a str, header: &str) -> Vec<(&'a str, &'a str)> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim(), v.trim().trim_matches('"')))
        .collect()
}

#[test]
fn replacement_lints_stay_at_warn_or_deny() {
    let manifest = std::fs::read_to_string(repo_root().join("Cargo.toml")).expect("root manifest");
    let mut levels = table(&manifest, "[workspace.lints.rust]");
    levels.extend(table(&manifest, "[workspace.lints.clippy]"));
    for lint in [
        "missing_debug_implementations",
        "unwrap_used",
        "todo",
        "dbg_macro",
        "unimplemented",
    ] {
        let level = levels.iter().find(|(k, _)| *k == lint).map(|(_, v)| *v);
        assert!(
            matches!(level, Some("warn" | "deny" | "forbid")),
            "[workspace.lints] must keep `{lint}` at warn or deny, found {level:?}"
        );
    }
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    let ws = WorkspaceSrc::load(&repo_root()).expect("load workspace");
    assert!(
        ws.crates.iter().any(|c| c.name == "geotopo"),
        "root package missing"
    );
    for c in &ws.crates {
        assert!(
            table(&c.manifest, "[lints]").contains(&("workspace", "true")),
            "{} lacks `[lints] workspace = true`",
            c.manifest_path.display()
        );
    }
}
