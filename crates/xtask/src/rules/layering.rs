//! GT-LINT-006: crate dependency edges must respect the sanctioned
//! layering.
//!
//! The workspace is a strict DAG of layers; a crate may depend only on
//! geotopo crates in *strictly lower* layers. This keeps the substrate
//! (geo/stats/bgp) reusable and stops experiment plumbing from leaking
//! downward:
//!
//! | layer | crates |
//! |-------|--------|
//! | 0     | `geotopo-geo`, `geotopo-stats`, `geotopo-bgp` |
//! | 1     | `geotopo-population` |
//! | 2     | `geotopo-topology`, `geotopo-geomap` |
//! | 3     | `geotopo-measure`, `geotopo-query` |
//! | 4     | `geotopo-core` |
//! | 5     | `geotopo-bench` |
//! | top   | `geotopo` (root package) |
//!
//! The rule reads the declared edges: every `[dependencies]` and
//! `[target.<cfg>.dependencies]` entry, in either the key form or the
//! `[dependencies.<crate>]` table form. That is every edge there is — a
//! `geotopo_*` path in library code compiles only if the manifest
//! declares the crate. Dev-dependencies are exempt: tests may reach
//! anywhere.
//!
//! `xtask` sits outside the pipeline entirely and may depend on no
//! geotopo crate (it must stay buildable even when the pipeline is
//! broken — that is the point of a lint runner).
//!
//! Findings point at the offending `Cargo.toml` line. There is no allow
//! marker for this rule — a new edge means the layer table (and
//! `DESIGN.md`) must be updated deliberately.

use super::{Finding, Rule};
use crate::workspace::WorkspaceSrc;

/// See module docs.
#[derive(Debug)]
pub struct Layering;

/// Layer assignment; `u32::MAX` marks the top-level binary package which
/// may depend on everything.
const LAYERS: &[(&str, u32)] = &[
    ("geotopo-geo", 0),
    ("geotopo-stats", 0),
    ("geotopo-bgp", 0),
    ("geotopo-population", 1),
    ("geotopo-topology", 2),
    ("geotopo-geomap", 2),
    ("geotopo-measure", 3),
    ("geotopo-query", 3),
    ("geotopo-core", 4),
    ("geotopo-bench", 5),
    ("geotopo", u32::MAX),
];

/// The layer of a crate name, or None if it is not in the table.
fn layer_of(name: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|(_, l)| *l)
}

impl Rule for Layering {
    fn id(&self) -> &'static str {
        "GT-LINT-006"
    }

    fn describe(&self) -> &'static str {
        "crate dependencies must point strictly down the sanctioned layer DAG"
    }

    fn check(&self, ws: &WorkspaceSrc) -> Vec<Finding> {
        let mut out = Vec::new();
        for krate in &ws.crates {
            let layer = layer_of(&krate.name);
            for (line, dep) in geotopo_dependencies(&krate.manifest) {
                let dep_layer = layer_of(&dep).unwrap_or(u32::MAX);
                let message = if krate.name == "xtask" {
                    format!(
                        "xtask depends on `{dep}`; the lint runner must have no geotopo \
                         dependencies so it builds even when the pipeline is broken"
                    )
                } else if let Some(layer) = layer {
                    if dep_layer < layer {
                        continue;
                    }
                    format!(
                        "`{}` (layer {layer}) may not depend on `{dep}` (layer \
                         {dep_layer}); edges must point strictly down the DAG",
                        krate.name
                    )
                } else {
                    // Unknown crate: every geotopo edge is unsanctioned
                    // until the crate is added to the layer map.
                    format!(
                        "crate `{}` is not in the sanctioned layer map but depends on \
                         `{dep}`; add it to the map in xtask's layering rule and DESIGN.md",
                        krate.name
                    )
                };
                out.push(Finding {
                    file: krate.manifest_path.clone(),
                    line,
                    rule: self.id(),
                    message,
                });
            }
        }
        out
    }
}

/// Lists the `geotopo-*` (and root `geotopo`) dependencies a manifest
/// declares for non-test builds, with 1-based line numbers: keys of
/// `[dependencies]` and `[target.<cfg>.dependencies]`, and the crate
/// named by a `[dependencies.<crate>]` or
/// `[target.<cfg>.dependencies.<crate>]` header.
fn geotopo_dependencies(manifest: &str) -> Vec<(usize, String)> {
    let is_geotopo = |k: &str| k == "geotopo" || k.starts_with("geotopo-");
    let mut out = Vec::new();
    let mut in_deps = false;
    for (i, line) in manifest.lines().enumerate() {
        let t = line.trim();
        if let Some(header) = t.strip_prefix('[') {
            let header = header.rsplit_once(']').map_or(header, |(h, _)| h);
            let keys = dotted_keys(header);
            let table = match keys.as_slice() {
                ["dependencies", rest @ ..] | ["target", _, "dependencies", rest @ ..] => {
                    Some(rest)
                }
                _ => None,
            };
            in_deps = table.is_some_and(|rest| rest.is_empty());
            if let Some([name]) = table {
                if is_geotopo(name) {
                    out.push((i + 1, name.to_string()));
                }
            }
            continue;
        }
        if !in_deps || t.is_empty() || t.starts_with('#') {
            continue;
        }
        let key = t
            .split(['=', '.'])
            .next()
            .unwrap_or("")
            .trim()
            .trim_matches('"');
        if is_geotopo(key) {
            out.push((i + 1, key.to_string()));
        }
    }
    out
}

/// Splits a TOML dotted key (`target.'cfg(unix)'.dependencies`) into its
/// parts, unquoted; dots inside quotes do not split.
fn dotted_keys(key: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut quote = None;
    for (i, c) in key.char_indices() {
        match (quote, c) {
            (None, '"' | '\'') => quote = Some(c),
            (Some(q), _) if c == q => quote = None,
            (None, '.') => {
                parts.push(&key[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&key[start..]);
    parts
        .into_iter()
        .map(|p| p.trim().trim_matches(['"', '\'']))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::CrateSrc;
    use std::path::PathBuf;

    fn check(crates: &[(&str, &str)]) -> Vec<Finding> {
        let crates = crates
            .iter()
            .map(|(name, manifest)| CrateSrc {
                name: name.to_string(),
                dir: PathBuf::from(format!("crates/{name}")),
                manifest: manifest.to_string(),
                manifest_path: PathBuf::from(format!("crates/{name}/Cargo.toml")),
                files: Vec::new(),
                ref_files: Vec::new(),
            })
            .collect();
        Layering.check(&WorkspaceSrc { crates })
    }

    #[test]
    fn table_lookup() {
        assert_eq!(layer_of("geotopo-geo"), Some(0));
        assert_eq!(layer_of("geotopo-core"), Some(4));
        assert_eq!(layer_of("geotopo"), Some(u32::MAX));
        assert_eq!(layer_of("serde"), None);
    }

    #[test]
    fn substrate_below_pipeline() {
        for name in ["geotopo-geo", "geotopo-stats", "geotopo-bgp"] {
            assert!(layer_of(name) < layer_of("geotopo-measure"));
        }
        assert!(layer_of("geotopo-measure") < layer_of("geotopo-core"));
    }

    #[test]
    fn downward_edges_pass() {
        let m = "[package]\nname = \"geotopo-topology\"\n[dependencies]\ngeotopo-geo.workspace = true\ngeotopo-population.workspace = true\n";
        assert!(check(&[("geotopo-topology", m)]).is_empty());
    }

    #[test]
    fn upward_edge_flagged_at_manifest_line() {
        let m =
            "[package]\nname = \"geotopo-geo\"\n[dependencies]\ngeotopo-core.workspace = true\n";
        let f = check(&[("geotopo-geo", m)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "GT-LINT-006");
        assert_eq!(f[0].line, 4);
        assert!(f[0].file.ends_with("Cargo.toml"));
    }

    #[test]
    fn same_layer_edge_flagged() {
        let m = "[package]\nname = \"geotopo-geomap\"\n[dependencies]\ngeotopo-topology.workspace = true\n";
        assert_eq!(check(&[("geotopo-geomap", m)]).len(), 1);
    }

    #[test]
    fn xtask_must_stay_dependency_free() {
        let m = "[package]\nname = \"xtask\"\n[dependencies]\ngeotopo-geo.workspace = true\n";
        let f = check(&[("xtask", m)]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("lint runner"));
    }

    #[test]
    fn dev_dependencies_exempt_and_unknown_crate_flagged() {
        let dev = "[package]\nname = \"geotopo-geo\"\n[dev-dependencies]\ngeotopo-core.workspace = true\n";
        let unknown = "[package]\nname = \"geotopo-newcrate\"\n[dependencies]\ngeotopo-geo.workspace = true\n";
        let f = check(&[("geotopo-geo", dev), ("geotopo-newcrate", unknown)]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not in the sanctioned layer map"));
    }

    #[test]
    fn dependency_table_header_is_an_edge() {
        let m = "[package]\nname = \"geotopo-geo\"\n\n[dependencies.geotopo-core]\npath = \"../core\"\n";
        let f = check(&[("geotopo-geo", m)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn target_dependencies_are_edges() {
        let m = "[package]\nname = \"geotopo-geo\"\n\n[target.'cfg(unix)'.dependencies]\ngeotopo-core = { path = \"../core\" }\n\n[target.'cfg(target_os = \"linux\")'.dependencies.geotopo-measure]\npath = \"../measure\"\n";
        let f = check(&[("geotopo-geo", m)]);
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![5, 7], "{f:?}");
    }

    #[test]
    fn dependencies_found_with_lines() {
        let m = "[package]\nname = \"x\"\n\n[dependencies]\ngeotopo-geo.workspace = true\nserde.workspace = true\ngeotopo-stats = { path = \"../stats\" }\n\n[dev-dependencies]\ngeotopo-core.workspace = true\n";
        let deps = geotopo_dependencies(m);
        assert_eq!(
            deps,
            vec![
                (5, "geotopo-geo".to_string()),
                (7, "geotopo-stats".to_string())
            ]
        );
    }

    #[test]
    fn commented_dependencies_ignored() {
        let m = "[workspace.dependencies]\ngeotopo-core = { path = \"crates/core\" }\n[dependencies]\n# geotopo-core.workspace = true\n";
        assert!(geotopo_dependencies(m).is_empty());
    }
}
