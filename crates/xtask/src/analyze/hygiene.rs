//! GT-AN-003: no dead workspace-`pub`.
//!
//! A `pub` item that no other crate, no test, no bench and no other file
//! of its own crate ever names is surface area without users — either
//! shrink it to `pub(crate)` or mark it `// analyze: allow(dead-pub)`
//! with the reason it must stay public (e.g. downstream-facing API
//! documented in the README). A `pub` type that a used `pub` item of
//! its file names in its signature or fields is used as well: callers
//! reach a returned record through the fn that returns it.
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
         not elsewhere in its own crate — is unused public surface. A `pub`\n\
         type named in the signature or fields of a used `pub` item of the\n\
         same file counts as used (to a fixed point). Fix by\n\
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
        // An item is used when something outside its defining file (or
        // its own tests) names it, or a marker waives it.
        let items = public_items(model);
        let mut used: Vec<bool> = items
            .iter()
            .map(|item| {
                let (ci, _) = model.files[item.file];
                let sf = model.file(item.file);
                let name = &item.name;
                ws.crates[ci].name == "xtask"
                    || name == "main"
                    || sf.is_allowed(item.line, "dead-pub")
                    || occ
                        .get(name)
                        .is_some_and(|files| files.iter().any(|&f| f != item.file))
                    || ref_idents.contains(name)
                    || sf.tree.tokens.iter().any(|t| {
                        t.kind == TokenKind::Ident
                            && sf.is_test_line(t.line)
                            && t.text(&sf.raw) == name
                    })
            })
            .collect();
        // A type a used item of the same file names in its signature or
        // fields is used too — callers reach it through that item
        // without naming it — and so on through the types it names.
        let mut work: Vec<usize> = (0..items.len()).filter(|&i| used[i]).collect();
        while let Some(i) = work.pop() {
            let item = &items[i];
            let sf = model.file(item.file);
            let named: HashSet<&str> = sf.tree.tokens[item.signature.clone()]
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text(&sf.raw))
                .collect();
            for (j, ty) in items.iter().enumerate() {
                if !used[j]
                    && ty.is_type
                    && ty.file == item.file
                    && named.contains(ty.name.as_str())
                {
                    used[j] = true;
                    work.push(j);
                }
            }
        }
        items
            .iter()
            .zip(used)
            .filter(|(_, used)| !used)
            .map(|(item, _)| Finding {
                file: model.file(item.file).path.clone(),
                line: item.line,
                rule: self.id(),
                message: format!(
                    "pub item `{}` is never referenced outside its defining file; \
                     shrink its visibility or mark it `// analyze: allow(dead-pub)` \
                     with the reason it must stay public",
                    item.name
                ),
            })
            .collect()
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
    fn types_reached_through_used_signatures_are_clean() {
        // `Stats` is only returned by the used `stats`, and `Row` only
        // sits in a field of `Stats`: both reach callers without being
        // named. `Orphan` appears in no used signature.
        let ws = WorkspaceSrc {
            crates: vec![
                krate(
                    "geotopo-geo",
                    &[(
                        "crates/geo/src/lib.rs",
                        "pub struct Row { pub n: u32 }
pub struct Stats {
    pub rows: Vec<Row>,
}
pub struct Orphan;
pub fn stats() -> Stats { Stats { rows: Vec::new() } }
",
                    )],
                    &[],
                ),
                krate(
                    "geotopo-measure",
                    &[(
                        "crates/measure/src/lib.rs",
                        "fn f() { let s = geotopo_geo::stats(); }
",
                    )],
                    &[],
                ),
            ],
        };
        let model = Model::build(&ws);
        let f = CrossCrateHygiene.check(&model);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("`Orphan`"));
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
