//! Source-file model for the lint pass and the analyzer.
//!
//! Rules never see raw text: they see a [`SourceFile`] whose item tree
//! carries the file's [`crate::lexer`] tokens. Comments produce no
//! tokens and a string literal is one token, which kills the classic
//! grep-lint false positives — `.unwrap()` in a doc comment,
//! `"thread_rng"` inside a string — without needing a full parser.
//!
//! The model also records:
//! - **test regions**: brace-matched spans of `#[cfg(test)]` modules and
//!   `#[test]` functions, so rules can skip test-only code;
//! - **allow markers**: `// lint: allow(key)` and `// analyze: allow(key)`
//!   comments, matched per line (same line or the line directly above a
//!   violation) — or, when the marker sits on an item header (`fn`/`mod`
//!   line, or directly above it past attributes and doc comments), the
//!   item's whole span;
//! - **analyzer markers**: `// analyze: hot-path-root` registers the
//!   function it is attached to as a GT-AN-002 allocation-freedom root;
//! - the **item tree** from [`crate::items`], parsed once here and shared
//!   by the lint rules and the analyzer.

use crate::items::{Item, ItemKind, ItemTree};
use crate::lexer::{closing, Token};
use std::collections::HashSet;
use std::path::PathBuf;

/// A parsed source file ready for rule checks.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path as reported in diagnostics (workspace-relative).
    pub path: PathBuf,
    /// Raw file contents.
    pub raw: String,
    /// Half-open line ranges (1-based) covered by test-only code.
    pub test_regions: Vec<(usize, usize)>,
    /// `(line, key)` pairs from `// lint: allow(key)` / `// analyze:
    /// allow(key)` markers.
    pub allows: HashSet<(usize, String)>,
    /// Inclusive line ranges covered by item-scoped allow markers: a
    /// marker attached to a `fn`/`mod` header waives `key` for the whole
    /// item span.
    pub allow_regions: Vec<(usize, usize, String)>,
    /// Tokens and item tree, parsed once and shared with the analyzer.
    pub tree: ItemTree,
    /// Header lines of fns registered via `// analyze: hot-path-root`.
    pub hot_path_roots: Vec<usize>,
    /// Header lines of fns flagged `// analyze: strict-indexing`, where
    /// GT-AN-001 also reports `x[i]` indexing as a panic site.
    pub strict_indexing: Vec<usize>,
}

impl SourceFile {
    /// Parses `raw` into the token/line-indexed model.
    pub fn parse(path: PathBuf, raw: String) -> Self {
        let tree = ItemTree::parse(&raw);
        let test_regions = find_test_regions(&raw, &tree.tokens);
        let allows = find_allow_markers(&raw);
        let root_marks = find_marker_lines(&raw, "analyze: hot-path-root");
        let strict_marks = find_marker_lines(&raw, "analyze: strict-indexing");
        let (allow_regions, hot_path_roots, strict_indexing) =
            attach_item_markers(&tree, &allows, &root_marks, &strict_marks);
        SourceFile {
            path,
            raw,
            test_regions,
            allows,
            allow_regions,
            tree,
            hot_path_roots,
            strict_indexing,
        }
    }

    /// Test helper: parse an inline snippet under a synthetic path.
    pub fn from_str(name: &str, raw: &str) -> Self {
        Self::parse(PathBuf::from(name), raw.to_string())
    }

    /// Whether a 1-based line falls inside test-only code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| line >= start && line < end)
    }

    /// Whether a violation on `line` is waived by an allow marker for
    /// `key`: on the same line, the line directly above, or inside an
    /// item whose header carries an item-scoped marker.
    pub fn is_allowed(&self, line: usize, key: &str) -> bool {
        self.allows.contains(&(line, key.to_string()))
            || (line > 1 && self.allows.contains(&(line - 1, key.to_string())))
            || self
                .allow_regions
                .iter()
                .any(|(start, end, k)| k == key && line >= *start && line <= *end)
    }

    /// Indices into `tree.tokens` of the tokens outside test regions.
    pub fn code_tokens(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tree.tokens.len()).filter(|&i| !self.is_test_line(self.tree.tokens[i].line))
    }
}

/// Finds test-only line regions: an item under a `#[test]` or
/// `#[cfg(test)]`-style attribute, from the attribute to the item's
/// closing brace.
fn find_test_regions(src: &str, toks: &[Token]) -> Vec<(usize, usize)> {
    let is_attr =
        |j: usize| toks[j].is_punct(b'#') && toks.get(j + 1).is_some_and(|t| t.is_punct(b'['));
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !is_attr(i) {
            i += 1;
            continue;
        }
        let Some(close) = closing(toks, i + 1) else {
            break;
        };
        if !is_test_attr(src, &toks[i + 2..close]) {
            i = close + 1;
            continue;
        }
        // Skip any further attributes, then find the item's block; a `;`
        // first means a bodiless item (`mod x;`).
        let mut j = close + 1;
        while j < toks.len() && is_attr(j) {
            match closing(toks, j + 1) {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        let open = toks[j..]
            .iter()
            .position(|t| t.is_punct(b'{') || t.is_punct(b';'))
            .map(|k| j + k)
            .filter(|&k| toks[k].is_punct(b'{'));
        match open.and_then(|o| closing(toks, o)) {
            Some(end) => {
                regions.push((toks[i].line, toks[end].line + 1));
                i = end + 1;
            }
            None => i = close + 1,
        }
    }
    regions
}

/// Whether the tokens inside `#[...]` make the item test-only: `test`,
/// a path ending in `::test`, or a `cfg(...)` naming `test` as one of
/// its arguments (`cfg(test)`, `cfg(all(test, ...))`, ...).
fn is_test_attr(src: &str, inner: &[Token]) -> bool {
    let text = |k: usize| inner.get(k).map_or("", |t| t.text(src));
    let n = inner.len();
    if n > 0 && text(n - 1) == "test" && (n == 1 || text(n - 2) == ":") {
        return true;
    }
    text(0) == "cfg"
        && (1..n).any(|k| {
            text(k) == "test"
                && matches!(text(k - 1), "(" | ",")
                && matches!(text(k + 1), ")" | ",")
        })
}

/// Collects `// lint: allow(key)` and `// analyze: allow(key)` markers
/// from raw text, keyed by line. The two spellings share one namespace:
/// analyzer keys (`panic`, `alloc`, `dead-pub`) don't collide with lint
/// keys, and a single `is_allowed` lookup serves both passes.
fn find_allow_markers(raw: &str) -> HashSet<(usize, String)> {
    let mut out = HashSet::new();
    for (i, line) in raw.lines().enumerate() {
        let Some(content) = comment_text(line) else {
            continue;
        };
        for prefix in ["lint: allow(", "analyze: allow("] {
            let Some(rest) = content.strip_prefix(prefix) else {
                continue;
            };
            if let Some(end) = rest.find(')') {
                out.insert((i + 1, rest[..end].trim().to_string()));
            }
        }
    }
    out
}

/// Lines whose comment content is exactly `marker`
/// (`// analyze: hot-path-root`).
fn find_marker_lines(raw: &str, marker: &str) -> HashSet<usize> {
    raw.lines()
        .enumerate()
        .filter(|(_, l)| comment_text(l).is_some_and(|c| c.trim_end() == marker))
        .map(|(i, _)| i + 1)
        .collect()
}

/// The content of a line comment whose `//` sits at the start of the
/// line or after whitespace, with the `//`/`///`/`//!` sigil and leading
/// spaces stripped. A `//` glued to other text (a marker *mentioned*
/// inside a string literal or doc prose, e.g. `` `// analyze: ...` `` in
/// xtask's own sources) does not count — only real comments carry
/// markers.
fn comment_text(line: &str) -> Option<&str> {
    let mut search = 0;
    while let Some(rel) = line[search..].find("//") {
        let pos = search + rel;
        let before = &line[..pos];
        if before.trim().is_empty() || before.ends_with([' ', '\t']) {
            let content = line[pos..].trim_start_matches(['/', '!']).trim_start();
            return Some(content);
        }
        search = pos + 2;
    }
    None
}

/// Output of [`attach_item_markers`]: widened `(start, end, key)` allow
/// regions, hot-path-root fn header lines, strict-indexing fn header
/// lines.
type ItemMarkers = (Vec<(usize, usize, String)>, Vec<usize>, Vec<usize>);

/// Attaches line markers to items, producing item-scoped allow regions
/// and the hot-path root set.
///
/// A marker *attaches* to an item when it sits on the item's header line
/// or on a line above it separated only by attributes, doc comments, or
/// blank lines — lines where no token starts, or whose first token opens
/// an attribute. Attached `allow(key)` markers on `fn`/`mod` headers
/// widen to the item's whole span; attached `hot-path-root` markers
/// register the fn as a GT-AN-002 root.
fn attach_item_markers(
    tree: &ItemTree,
    allows: &HashSet<(usize, String)>,
    root_marks: &HashSet<usize>,
    strict_marks: &HashSet<usize>,
) -> ItemMarkers {
    let toks = &tree.tokens;
    let passable = |line_no: usize| {
        let first = toks.partition_point(|t| t.line < line_no);
        match toks.get(first) {
            Some(t) if t.line == line_no => {
                t.is_punct(b'#')
                    && toks
                        .get(first + 1)
                        .is_some_and(|n| n.is_punct(b'[') || n.is_punct(b'!'))
            }
            _ => true,
        }
    };
    let allow_keys_at = |line_no: usize| -> Vec<&String> {
        allows
            .iter()
            .filter(|(l, _)| *l == line_no)
            .map(|(_, k)| k)
            .collect()
    };
    let mut regions = Vec::new();
    let mut roots = Vec::new();
    let mut strict = Vec::new();
    let mut visit = |item: &Item| {
        let scoped = matches!(item.kind, ItemKind::Fn | ItemKind::Mod);
        if !scoped {
            return;
        }
        // Candidate marker lines: the header itself, then upward while
        // lines stay attribute-or-blank (capped to keep this linear in
        // practice).
        let mut candidates = vec![item.line];
        let mut l = item.line;
        while l > 1 && item.line - l < 64 && passable(l - 1) {
            l -= 1;
            candidates.push(l);
        }
        for &c in &candidates {
            for key in allow_keys_at(c) {
                regions.push((item.line, item.end_line, key.clone()));
            }
            if item.kind == ItemKind::Fn && root_marks.contains(&c) {
                roots.push(item.line);
            }
            if item.kind == ItemKind::Fn && strict_marks.contains(&c) {
                strict.push(item.line);
            }
        }
    };
    tree.walk(&mut visit);
    regions.sort();
    regions.dedup();
    roots.sort_unstable();
    roots.dedup();
    strict.sort_unstable();
    strict.dedup();
    (regions, roots, strict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_cfg_test_module_region() {
        let f = SourceFile::from_str(
            "x.rs",
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn post() {}\n",
        );
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn finds_test_fn_region() {
        let f = SourceFile::from_str(
            "x.rs",
            "#[test]\nfn check() {\n    boom();\n}\nfn lib() {}\n",
        );
        assert!(f.is_test_line(3));
        assert!(!f.is_test_line(5));
    }

    #[test]
    fn cfg_all_test_counts_as_test() {
        let f = SourceFile::from_str(
            "x.rs",
            "#[cfg(all(test, feature = \"slow\"))]\nmod tests {\n    fn t() {}\n}\n",
        );
        assert!(f.is_test_line(3));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = SourceFile::from_str(
            "x.rs",
            "#[cfg(feature = \"x\")]\nmod m {\n    fn f() {}\n}\n",
        );
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn attributes_between_test_and_item_are_skipped() {
        let f = SourceFile::from_str("x.rs", "#[test]\n#[ignore]\nfn slow() {\n    body();\n}\n");
        assert!(f.is_test_line(4));
    }

    #[test]
    fn item_scoped_allow_covers_whole_fn_span() {
        let f = SourceFile::from_str(
            "x.rs",
            "// lint: allow(unwrap)\nfn covered() {\n    a.unwrap();\n    b.unwrap();\n}\nfn bare() {\n    c.unwrap();\n}\n",
        );
        assert!(f.is_allowed(3, "unwrap"));
        assert!(f.is_allowed(4, "unwrap"));
        assert!(!f.is_allowed(7, "unwrap"));
    }

    #[test]
    fn item_scoped_allow_skips_attributes_and_docs() {
        let f = SourceFile::from_str(
            "x.rs",
            "// analyze: allow(panic)\n#[inline]\n/// Docs.\nfn covered() {\n    panic!();\n}\n",
        );
        assert!(f.is_allowed(5, "panic"));
    }

    #[test]
    fn marker_inside_body_stays_per_line() {
        let f = SourceFile::from_str(
            "x.rs",
            "fn f() {\n    let a = x.unwrap(); // lint: allow(unwrap)\n    let b = y.unwrap();\n}\n",
        );
        assert!(f.is_allowed(2, "unwrap"));
        assert!(!f.is_allowed(4, "unwrap"));
    }

    #[test]
    fn mod_scoped_allow_covers_children() {
        let f = SourceFile::from_str(
            "x.rs",
            "// lint: allow(float_eq)\nmod approx {\n    fn close() {\n        if a == 1.0 {}\n    }\n}\n",
        );
        assert!(f.is_allowed(4, "float_eq"));
    }

    #[test]
    fn hot_path_root_marker_registers_fn_header() {
        let f = SourceFile::from_str(
            "x.rs",
            "// analyze: hot-path-root\npub fn lookup(&self) {}\nfn plain() {}\nfn tail(&self) {} // analyze: hot-path-root\n",
        );
        assert_eq!(f.hot_path_roots, vec![2, 4]);
    }

    #[test]
    fn analyze_allow_spelling_is_recognized() {
        let f = SourceFile::from_str("x.rs", "let a = x.unwrap(); // analyze: allow(panic)\n");
        assert!(f.is_allowed(1, "panic"));
        assert!(!f.is_allowed(1, "unwrap"));
    }

    #[test]
    fn allow_markers_match_same_and_previous_line() {
        let f = SourceFile::from_str(
            "x.rs",
            "let a = x.unwrap(); // lint: allow(unwrap)\n// lint: allow(float_eq)\nif a == 1.0 {}\nlet b = y.unwrap();\n",
        );
        assert!(f.is_allowed(1, "unwrap"));
        assert!(f.is_allowed(3, "float_eq"));
        assert!(!f.is_allowed(4, "unwrap"));
        assert!(!f.is_allowed(1, "float_eq"));
    }
}
