//! The lint rule catalog.
//!
//! Every rule implements [`Rule`]: the banned-token entries of
//! [`banned::BANNED`], the float-equality rule and the manifest layering
//! rule. Rules see the whole [`WorkspaceSrc`] so crate-scoped and
//! cross-crate rules use the same interface. IDs are stable
//! (`GT-LINT-001`...), never reused, and documented in `DESIGN.md`;
//! diagnostics print as `file:line: [ID] message` so editors and CI logs
//! can jump to the site.

pub mod banned;
pub mod float_eq;
pub mod layering;

use crate::source::SourceFile;
use crate::workspace::{CrateSrc, WorkspaceSrc};
use std::fmt;
use std::path::PathBuf;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule ID (`GT-LINT-00x`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A source-level lint rule.
pub trait Rule {
    /// Stable rule identifier (`GT-LINT-00x`).
    fn id(&self) -> &'static str;
    /// One-line description for `xtask check --list`.
    fn describe(&self) -> &'static str;
    /// Runs the rule over the workspace.
    fn check(&self, ws: &WorkspaceSrc) -> Vec<Finding>;
}

/// All rules, in ID order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    let mut rules: Vec<Box<dyn Rule>> =
        vec![Box::new(float_eq::FloatEq), Box::new(layering::Layering)];
    rules.extend(banned::BANNED.iter().map(|b| Box::new(*b) as Box<dyn Rule>));
    rules.sort_by_key(|r| r.id());
    rules
}

/// Runs `rules` over `ws`, returning findings sorted by file/line/rule.
pub fn run(rules: &[Box<dyn Rule>], ws: &WorkspaceSrc) -> Vec<Finding> {
    let mut findings: Vec<Finding> = rules.iter().flat_map(|r| r.check(ws)).collect();
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// The token-level scan every source rule shares: for each file `covers`
/// accepts, calls `hit` at every code token outside test regions and
/// reports the message it returns, at most once per line, unless a
/// `key` marker waives that line.
fn scan(
    ws: &WorkspaceSrc,
    rule: &'static str,
    key: Option<&str>,
    covers: impl Fn(&CrateSrc, &SourceFile) -> bool,
    hit: impl Fn(&SourceFile, usize) -> Option<String>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for krate in &ws.crates {
        for file in krate.files.iter().filter(|f| covers(krate, f)) {
            let mut last_line = 0;
            for i in file.code_tokens() {
                let line = file.tree.tokens[i].line;
                if line == last_line {
                    continue;
                }
                let Some(message) = hit(file, i) else {
                    continue;
                };
                last_line = line;
                if !key.is_some_and(|k| file.is_allowed(line, k)) {
                    out.push(Finding {
                        file: file.path.clone(),
                        line,
                        rule,
                        message,
                    });
                }
            }
        }
    }
    out
}

/// Test helper: wraps inline snippets into a single-crate workspace.
#[cfg(test)]
pub fn ws_of(crate_name: &str, files: &[(&str, &str)]) -> WorkspaceSrc {
    WorkspaceSrc {
        crates: vec![CrateSrc {
            name: crate_name.to_string(),
            dir: PathBuf::from("crates/x"),
            manifest: format!("[package]\nname = \"{crate_name}\"\n"),
            manifest_path: PathBuf::from("crates/x/Cargo.toml"),
            files: files
                .iter()
                .map(|(p, s)| SourceFile::from_str(p, s))
                .collect(),
            ref_files: Vec::new(),
        }],
    }
}
