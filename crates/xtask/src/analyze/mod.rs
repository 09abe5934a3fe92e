//! The semantic analyzer catalog (`cargo xtask analyze`).
//!
//! Where the `GT-LINT` rules in [`crate::rules`] match token runs one
//! file at a time, the `GT-AN` rules here see the workspace [`Model`]:
//! item trees, a call graph, and the crate-level use-graph. That buys
//! *reachability* — "no panic transitively callable from a supervised
//! stage" instead of "no `.unwrap()` under this path prefix" — at the
//! price of name-resolution-lite imprecision, which the model keeps on
//! the conservative side (see [`crate::graph`]).
//!
//! Diagnostics share the [`Finding`] shape and sorting with the lint
//! pass, so `xtask check --all` can interleave both catalogs in one
//! deterministic stream. Every rule carries a long-form `--explain`
//! text documenting its contract and its allow markers.

pub mod hot_alloc;
pub mod hygiene;
pub mod panic_reach;

use crate::graph::Model;
use crate::rules::Finding;
use crate::workspace::WorkspaceSrc;

/// A workspace-model analyzer rule.
pub trait AnalyzeRule {
    /// Stable rule identifier (`GT-AN-00x`).
    fn id(&self) -> &'static str;
    /// One-line description for `xtask analyze --list`.
    fn describe(&self) -> &'static str;
    /// Long-form documentation for `xtask analyze --explain ID`.
    fn explain(&self) -> &'static str;
    /// Runs the rule over the workspace model.
    fn check(&self, model: &Model<'_>) -> Vec<Finding>;
}

/// All analyzer rules, in ID order.
pub fn all_analyzers() -> Vec<Box<dyn AnalyzeRule>> {
    vec![
        Box::new(panic_reach::PanicReach),
        Box::new(hot_alloc::HotAlloc),
        Box::new(hygiene::CrossCrateHygiene),
    ]
}

/// Builds the model once and runs `analyzers` over it, returning
/// findings sorted by file/line/rule (same order as the lint pass).
pub fn run(analyzers: &[Box<dyn AnalyzeRule>], ws: &WorkspaceSrc) -> Vec<Finding> {
    let model = Model::build(ws);
    let mut findings: Vec<Finding> = analyzers.iter().flat_map(|r| r.check(&model)).collect();
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}
