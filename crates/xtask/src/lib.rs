//! Project automation for the geotopo workspace.
//!
//! Three tasks exist: `cargo xtask check`, a source-level lint pass
//! enforcing project-specific invariants that `rustc` and `clippy`
//! cannot see — determinism (no OS entropy, no wall clock), panic-freedom
//! in the substrate crates, float-comparison hygiene in the numeric
//! kernels, containment of threads, heaps and raw filesystem writes, and
//! the sanctioned crate-layering DAG; `cargo xtask analyze`, the
//! call-graph analyzer ([`analyze`]); and `cargo xtask bench`, the perf
//! gates. Lint rules are catalogued in [`rules`] with stable `GT-LINT-00x`
//! IDs; the catalog is documented in `DESIGN.md`.
//!
//! The crate is deliberately dependency-free (no geotopo crates, no
//! third-party parsers): it must build and run even when the pipeline
//! itself is broken, and the vendored offline environment has no `syn`.
//! Source scanning is one small hand-rolled lexer in [`lexer`]; [`source`]
//! finds `#[cfg(test)]` regions and allow markers on its tokens, and
//! every rule matches tokens, so comments and strings never trip one.

pub mod analyze;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;
