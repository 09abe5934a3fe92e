//! Workspace discovery: enumerates the crates under a repository root
//! and loads their library sources into [`SourceFile`]s.
//!
//! Lint rules see only the `src/` trees ([`CrateSrc::files`]) —
//! integration tests, benches and examples are out of scope for library
//! lint rules. Those extra trees *are* loaded separately
//! ([`CrateSrc::ref_files`]) so the analyzer's dead-`pub` rule
//! (GT-AN-003) can count references from tests and benches before
//! calling a public item unused. The `vendor/` stand-ins for external
//! crates are deliberately not scanned: they mirror third-party APIs,
//! not this project's code.

use crate::source::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One crate's manifest and library sources.
#[derive(Debug)]
pub struct CrateSrc {
    /// Package name from `Cargo.toml` (`geotopo-geo`, ...).
    pub name: String,
    /// Crate directory relative to the workspace root.
    pub dir: PathBuf,
    /// Raw `Cargo.toml` text.
    pub manifest: String,
    /// Manifest path relative to the workspace root (for diagnostics).
    pub manifest_path: PathBuf,
    /// Parsed `src/**/*.rs` files, paths relative to the workspace root.
    pub files: Vec<SourceFile>,
    /// Parsed `tests/`, `benches/` and `examples/` files — reference
    /// material for the analyzer, never linted.
    pub ref_files: Vec<SourceFile>,
}

/// All crates discovered under a workspace root.
#[derive(Debug)]
pub struct WorkspaceSrc {
    /// Member crates, sorted by name.
    pub crates: Vec<CrateSrc>,
}

impl WorkspaceSrc {
    /// Loads every crate under `root/crates/*` plus the root package.
    ///
    /// # Errors
    ///
    /// Fails if a manifest or source file cannot be read.
    pub fn load(root: &Path) -> io::Result<Self> {
        let mut crates = Vec::new();
        if root.join("Cargo.toml").exists() && root.join("src").exists() {
            if let Some(c) = load_crate(root, Path::new(""))? {
                crates.push(c);
            }
        }
        let crates_dir = root.join("crates");
        if crates_dir.exists() {
            let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            for dir in dirs {
                let rel = dir.strip_prefix(root).unwrap_or(&dir).to_path_buf();
                if let Some(c) = load_crate(root, &rel)? {
                    crates.push(c);
                }
            }
        }
        crates.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(WorkspaceSrc { crates })
    }

    /// Total number of scanned source files.
    pub fn num_files(&self) -> usize {
        self.crates.iter().map(|c| c.files.len()).sum()
    }
}

/// Loads one crate rooted at `root/rel` (None if it has no manifest).
fn load_crate(root: &Path, rel: &Path) -> io::Result<Option<CrateSrc>> {
    let dir = root.join(rel);
    let manifest_path = dir.join("Cargo.toml");
    if !manifest_path.exists() {
        return Ok(None);
    }
    let manifest = fs::read_to_string(&manifest_path)?;
    let name = package_name(&manifest).unwrap_or_else(|| "<unnamed>".to_string());
    let load_tree = |sub: &str| -> io::Result<Vec<SourceFile>> {
        let tree = dir.join(sub);
        let mut files = Vec::new();
        if tree.exists() {
            let mut paths = Vec::new();
            collect_rs(&tree, &mut paths)?;
            paths.sort();
            for p in paths {
                let raw = fs::read_to_string(&p)?;
                let rel_path = p.strip_prefix(root).unwrap_or(&p).to_path_buf();
                files.push(SourceFile::parse(rel_path, raw));
            }
        }
        Ok(files)
    };
    let files = load_tree("src")?;
    let mut ref_files = load_tree("tests")?;
    ref_files.extend(load_tree("benches")?);
    ref_files.extend(load_tree("examples")?);
    Ok(Some(CrateSrc {
        name,
        dir: rel.to_path_buf(),
        manifest,
        manifest_path: rel.join("Cargo.toml"),
        files,
        ref_files,
    }))
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts `name = "..."` from a manifest's `[package]` section.
pub fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses() {
        let m = "[workspace]\nx = 1\n[package]\nversion = \"0.1\"\nname = \"geotopo-geo\"\n";
        assert_eq!(package_name(m).as_deref(), Some("geotopo-geo"));
        assert_eq!(package_name("[dependencies]\nname = \"no\"\n"), None);
    }
}
