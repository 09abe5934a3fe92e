//! The banned-token rules: GT-LINT-001, -002, -003, -008, -011 and -012.
//!
//! Each rule is one [`Banned`] entry: the token sequences it bans, the
//! files it covers, the allow-marker key that waives a site, and what to
//! do instead. A pattern is written as Rust source and lexed by the same
//! lexer as the file it is matched against, so it matches a run of code
//! tokens wherever they sit — never a mention in a comment or a string,
//! and never inside a `#[cfg(test)]` region, which every rule skips.

use super::{scan, Finding, Rule};
use crate::lexer::lex;
use crate::workspace::WorkspaceSrc;
use std::path::Path;

/// One banned-token rule.
#[derive(Debug, Clone, Copy)]
pub struct Banned {
    /// Stable rule ID.
    pub id: &'static str,
    /// One-line description for `--list`.
    pub describe: &'static str,
    /// Banned token sequences, as Rust source (`"thread::spawn("`).
    pub patterns: &'static [&'static str],
    /// Which library files the rule covers.
    pub scope: Scope,
    /// Allow-marker key that waives a site; None when nothing may.
    pub key: Option<&'static str>,
    /// Why the pattern is banned and what to use instead.
    pub why: &'static str,
}

/// The library files a [`Banned`] rule covers. Path prefixes match whole
/// components of the workspace-relative path, so a file or a directory
/// can be named.
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Every crate.
    All,
    /// Every crate but the harnesses (`geotopo-bench`, `xtask`), which
    /// never feed pipeline output, and not under these path prefixes —
    /// the pattern's sanctioned homes.
    AllBut(&'static [&'static str]),
    /// Only these crates, plus the files under these path prefixes.
    Only(&'static [&'static str], &'static [&'static str]),
}

impl Scope {
    fn covers(&self, krate: &str, path: &Path) -> bool {
        match self {
            Scope::All => true,
            Scope::AllBut(homes) => {
                !["geotopo-bench", "xtask"].contains(&krate)
                    && !homes.iter().any(|h| path.starts_with(h))
            }
            Scope::Only(crates, paths) => {
                crates.contains(&krate) || paths.iter().any(|p| path.starts_with(p))
            }
        }
    }
}

/// The catalog's banned-token rules, in ID order.
pub const BANNED: [Banned; 6] = [
    Banned {
        id: "GT-LINT-001",
        describe: "no OS-entropy RNG construction (thread_rng/from_entropy/OsRng) in library code",
        patterns: &["thread_rng(", "from_entropy(", "rand::rng()", "OsRng"],
        scope: Scope::All,
        key: Some("nondeterminism"),
        why: "draws OS entropy; seed explicitly via `SeedableRng::seed_from_u64`",
    },
    Banned {
        id: "GT-LINT-002",
        describe: "no wall-clock reads (SystemTime/Instant/UNIX_EPOCH) outside core's telemetry.rs",
        patterns: &["SystemTime::now(", "Instant::now(", "UNIX_EPOCH"],
        scope: Scope::AllBut(&["crates/core/src/telemetry.rs"]),
        key: None,
        why: "makes output time-dependent; time through \
              `geotopo_core::telemetry::Stopwatch`, the one sanctioned clock",
    },
    Banned {
        id: "GT-LINT-003",
        describe: "no unwrap()/expect() in library code of geo/bgp/topology/measure/geomap \
                   and core's engine",
        patterns: &[".unwrap()", ".expect("],
        scope: Scope::Only(
            &[
                "geotopo-geo",
                "geotopo-bgp",
                "geotopo-topology",
                "geotopo-measure",
                "geotopo-geomap",
            ],
            &["crates/core/src/engine"],
        ),
        key: Some("unwrap"),
        why: "can abort the pipeline or a supervised stage; return a Result or justify \
              the invariant that makes it unreachable",
    },
    Banned {
        id: "GT-LINT-008",
        describe: "no raw thread creation outside geotopo-core's engine",
        patterns: &["thread::spawn(", "thread::scope(", "thread::Builder::new("],
        scope: Scope::AllBut(&["crates/core/src/engine"]),
        key: Some("thread"),
        why: "bypasses the stage-graph scheduler; route concurrency through \
              geotopo-core's engine",
    },
    Banned {
        id: "GT-LINT-011",
        describe: "no std BinaryHeap outside the routing reference solver",
        patterns: &["BinaryHeap"],
        scope: Scope::AllBut(&["crates/measure/src/routing/reference.rs"]),
        key: Some("binary_heap"),
        why: "outside the routing reference solver; use the bucket queue (hot path) \
              or an ordered set (cold path)",
    },
    Banned {
        id: "GT-LINT-012",
        describe: "filesystem mutation only through the Vfs seam (io.rs / vfs.rs)",
        patterns: &["std::fs::write(", "File::create(", "fs::rename("],
        scope: Scope::AllBut(&["crates/core/src/io.rs", "crates/core/src/vfs.rs"]),
        key: Some("raw_fs"),
        why: "bypasses the Vfs seam; route the write through `vfs.rs`/`io.rs` so \
              chaos injection and crash recovery cover it",
    },
];

impl Rule for Banned {
    fn id(&self) -> &'static str {
        self.id
    }

    fn describe(&self) -> &'static str {
        self.describe
    }

    fn check(&self, ws: &WorkspaceSrc) -> Vec<Finding> {
        let patterns: Vec<(&str, Vec<&str>)> = self
            .patterns
            .iter()
            .map(|p| {
                let toks = lex(p).iter().map(|t| t.text(p)).collect();
                (p.trim_end_matches('('), toks)
            })
            .collect();
        let waiver = match self.key {
            Some(k) => format!(" (or `// lint: allow({k}): <why>`)"),
            None => String::new(),
        };
        scan(
            ws,
            self.id,
            self.key,
            |krate, file| self.scope.covers(&krate.name, &file.path),
            |file, i| {
                let toks = &file.tree.tokens[i..];
                let (shown, _) = patterns.iter().find(|(_, pat)| {
                    pat.len() <= toks.len()
                        && pat.iter().zip(toks).all(|(p, t)| t.text(&file.raw) == *p)
                })?;
                Some(format!("`{shown}` {}{waiver}", self.why))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ws_of;

    /// A crate and file every entry covers.
    fn home(b: &Banned) -> (&'static str, &'static str) {
        match b.scope {
            Scope::Only(crates, _) => (crates[0], "crates/x/src/lib.rs"),
            _ => ("geotopo-core", "crates/core/src/lib.rs"),
        }
    }

    fn lines(b: &Banned, krate: &str, path: &str, src: &str) -> Vec<usize> {
        b.check(&ws_of(krate, &[(path, src)]))
            .iter()
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn each_pattern_is_found_in_code_only_and_waived_by_its_key() {
        for b in &BANNED {
            let (krate, path) = home(b);
            for pat in b.patterns {
                let src = format!(
                    "fn f() {{\n    let s = \"{pat}\";\n    let r = r#\"{pat}\"#;\n    \
                     // {pat}\n    /* outer /* {pat} */ still {pat} */\n    {pat}\n}}\n\
                     #[cfg(test)]\nmod tests {{\n    fn t() {{ {pat} }}\n}}\n"
                );
                assert_eq!(lines(b, krate, path, &src), vec![6], "{} `{pat}`", b.id);
                if let Some(key) = b.key {
                    let waived = format!("fn f() {{\n    {pat} // lint: allow({key}): why\n}}\n");
                    assert!(
                        lines(b, krate, path, &waived).is_empty(),
                        "{} `{pat}`",
                        b.id
                    );
                }
            }
        }
    }

    #[test]
    fn wall_clock_reads_take_no_waiver() {
        // Timing goes through the Stopwatch, so GT-LINT-002 honours no
        // marker on the line or the item above, the retired `wall_clock`
        // and `timing` keys included.
        let Some(b) = BANNED.iter().find(|b| b.id == "GT-LINT-002") else {
            panic!("no entry GT-LINT-002");
        };
        for pat in b.patterns {
            for key in ["wall_clock", "timing"] {
                let src = format!(
                    "// lint: allow({key}): why\nfn f() {{\n    \
                     {pat} // lint: allow({key}): why\n}}\n"
                );
                assert_eq!(
                    lines(b, "geotopo-core", "crates/core/src/report.rs", &src),
                    vec![3],
                    "`{pat}` under `{key}`"
                );
            }
        }
    }

    #[test]
    fn scopes_exempt_harnesses_and_sanctioned_homes() {
        let cases = [
            ("GT-LINT-001", "crates/xtask/src/main.rs", true),
            ("GT-LINT-002", "crates/bench/src/lib.rs", false),
            ("GT-LINT-002", "crates/core/src/telemetry.rs", false),
            ("GT-LINT-002", "crates/core/src/engine/mod.rs", true),
            ("GT-LINT-003", "crates/core/src/engine/store.rs", true),
            ("GT-LINT-003", "crates/core/src/pipeline.rs", false),
            ("GT-LINT-003", "crates/stats/src/lib.rs", false),
            ("GT-LINT-008", "crates/core/src/engine/scheduler.rs", false),
            (
                "GT-LINT-011",
                "crates/measure/src/routing/reference.rs",
                false,
            ),
            ("GT-LINT-012", "crates/core/src/io.rs", false),
            ("GT-LINT-012", "crates/core/src/vfs.rs", false),
            ("GT-LINT-012", "crates/xtask/src/main.rs", false),
        ];
        for (id, path, flagged) in cases {
            let Some(b) = BANNED.iter().find(|b| b.id == id) else {
                panic!("no entry {id}");
            };
            let krate = match path.split('/').nth(1) {
                Some("xtask") => "xtask".to_string(),
                dir => format!("geotopo-{}", dir.unwrap_or_default()),
            };
            let src = format!("fn f() {{\n    {}\n}}\n", b.patterns[0]);
            let found = !lines(b, &krate, path, &src).is_empty();
            assert_eq!(found, flagged, "{id} {path}");
        }
    }

    #[test]
    fn near_misses_pass() {
        let src =
            "fn f() {\n    x.unwrap_or(0); y.unwrap_or_else(|| 1); z.expect_err(\"e\");\n    \
                   my_thread_rng(); let _: BinaryHeapLike; std::fs::read_to_string(p);\n}\n";
        for b in &BANNED {
            let (krate, path) = home(b);
            assert!(lines(b, krate, path, src).is_empty(), "{}", b.id);
        }
    }

    #[test]
    fn one_finding_per_line_names_the_first_match() {
        let b = &BANNED[2];
        let f = b.check(&ws_of(
            "geotopo-bgp",
            &[("crates/x/src/lib.rs", "a.expect(\"x\").unwrap();\n")],
        ));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.starts_with("`.expect`"), "{}", f[0].message);
    }
}
