//! GT-AN-003: no dead workspace-`pub`.
//!
//! A `pub` item that no other crate, no test, no bench and no other file
//! of its own crate ever names is surface area without users — either
//! shrink it to `pub(crate)` or mark it `// analyze: allow(dead-pub)`
//! with the reason it must stay public (e.g. downstream-facing API
//! documented in the README).
//!
//! Layering is GT-LINT-006's alone: a `geotopo_*` path in library code
//! compiles only if the manifest declares the crate, so the manifest
//! edges that rule checks are every edge the source can have.

use super::AnalyzeRule;
use crate::graph::{public_items, Model};
use crate::lexer::TokenKind;
use crate::rules::Finding;
use std::collections::{HashMap, HashSet};

/// See module docs.
#[derive(Debug)]
pub struct CrossCrateHygiene;

impl AnalyzeRule for CrossCrateHygiene {
    fn id(&self) -> &'static str {
        "GT-AN-003"
    }

    fn describe(&self) -> &'static str {
        "no workspace-pub item left unreferenced outside its defining file"
    }

    fn explain(&self) -> &'static str {
        "GT-AN-003 cross-crate hygiene: dead workspace-pub\n\
         \n\
         A `pub` item (fn, struct, enum, trait, const, static, type alias)\n\
         that is never named outside its own defining file — not in\n\
         another crate, not in any test/bench/example, not in a test region,\n\
         not elsewhere in its own crate — is unused public surface. Fix by\n\
         shrinking visibility, deleting the item, or marking the definition\n\
         line `// analyze: allow(dead-pub)` with the reason it must stay\n\
         public. The `xtask` crate itself and `main` are exempt (its library\n\
         surface exists for its own bin and tests).\n\
         \n\
         Crate layering is GT-LINT-006's: it checks the manifests, which\n\
         declare every crate a `geotopo_*` path can name."
    }

    fn check(&self, model: &Model<'_>) -> Vec<Finding> {
        let ws = model.workspace();
        // Per-file ident occurrence map over src files, and a global set
        // of idents in reference trees (tests/benches/examples).
        let mut occ: HashMap<String, Vec<usize>> = HashMap::new();
        for (idx, &(ci, fi)) in model.files.iter().enumerate() {
            let sf = &ws.crates[ci].files[fi];
            let mut seen: HashSet<&str> = HashSet::new();
            for t in &sf.tree.tokens {
                if t.kind == TokenKind::Ident {
                    seen.insert(t.text(&sf.raw));
                }
            }
            for s in seen {
                occ.entry(s.to_string()).or_default().push(idx);
            }
        }
        let mut ref_idents: HashSet<String> = HashSet::new();
        for c in &ws.crates {
            for sf in &c.ref_files {
                for t in &sf.tree.tokens {
                    if t.kind == TokenKind::Ident {
                        ref_idents.insert(t.text(&sf.raw).to_string());
                    }
                }
            }
        }
        let mut out = Vec::new();
        for (file_idx, name, line) in public_items(model) {
            let (ci, _) = model.files[file_idx];
            let krate = &ws.crates[ci].name;
            if krate == "xtask" || name == "main" {
                continue;
            }
            let sf = model.file(file_idx);
            if sf.is_allowed(line, "dead-pub") {
                continue;
            }
            // Referenced from any *other* src file?
            let elsewhere = occ
                .get(&name)
                .is_some_and(|files| files.iter().any(|&fidx| fidx != file_idx));
            if elsewhere || ref_idents.contains(&name) {
                continue;
            }
            // Referenced from this file's own test regions?
            let in_own_tests = sf.tree.tokens.iter().any(|t| {
                t.kind == TokenKind::Ident && sf.is_test_line(t.line) && t.text(&sf.raw) == name
            });
            if in_own_tests {
                continue;
            }
            out.push(Finding {
                file: sf.path.clone(),
                line,
                rule: self.id(),
                message: format!(
                    "pub item `{name}` is never referenced outside its defining file; \
                     shrink its visibility or mark it `// analyze: allow(dead-pub)` \
                     with the reason it must stay public"
                ),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Model;
    use crate::source::SourceFile;
    use crate::workspace::{CrateSrc, WorkspaceSrc};
    use std::path::PathBuf;

    fn krate(name: &str, files: &[(&str, &str)], refs: &[(&str, &str)]) -> CrateSrc {
        CrateSrc {
            name: name.to_string(),
            dir: PathBuf::from(format!("crates/{name}")),
            manifest: format!("[package]\nname = \"{name}\"\n"),
            manifest_path: PathBuf::from(format!("crates/{name}/Cargo.toml")),
            files: files
                .iter()
                .map(|(p, s)| SourceFile::from_str(p, s))
                .collect(),
            ref_files: refs
                .iter()
                .map(|(p, s)| SourceFile::from_str(p, s))
                .collect(),
        }
    }

    #[test]
    fn dead_pub_flagged_and_allowable() {
        let ws = WorkspaceSrc {
            crates: vec![krate(
                "geotopo-geo",
                &[(
                    "crates/geo/src/lib.rs",
                    "pub fn unused_api() {}\n// analyze: allow(dead-pub): documented external surface\npub fn waved() {}\npub fn used() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { crate::used(); }\n}\n",
                )],
                &[],
            )],
        };
        let model = Model::build(&ws);
        let f = CrossCrateHygiene.check(&model);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("unused_api"));
    }

    #[test]
    fn reference_from_other_crate_or_tests_counts() {
        let ws = WorkspaceSrc {
            crates: vec![
                krate(
                    "geotopo-geo",
                    &[(
                        "crates/geo/src/lib.rs",
                        "pub fn api() {}\npub fn bench_only() {}\n",
                    )],
                    &[],
                ),
                krate(
                    "geotopo-measure",
                    &[(
                        "crates/measure/src/lib.rs",
                        "use geotopo_geo::api;\nfn f() { api(); }\n",
                    )],
                    &[(
                        "crates/measure/benches/b.rs",
                        "fn b() { geotopo_geo::bench_only(); }\n",
                    )],
                ),
            ],
        };
        let model = Model::build(&ws);
        assert!(CrossCrateHygiene.check(&model).is_empty());
    }
}
