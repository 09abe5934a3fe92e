//! Workspace-level semantic model: every function in the workspace, a
//! name-resolution-lite call graph between them, and the crate-level
//! `use`-graph.
//!
//! Resolution is deliberately conservative in both directions at once:
//! a call site that cannot be resolved to a workspace function produces
//! *no* edge (std calls, vendored crates), and an ambiguous method name
//! fans out to every workspace method with a `self` receiver and that
//! name. Rules built on the graph (panic reachability, hot-path
//! allocation) therefore over-approximate reachability slightly — the
//! safe direction for an invariant checker — while staying free of
//! false edges into code we don't own.
//!
//! Everything is index-based and sorted at build time: the model is a
//! pure function of file *contents*, not of discovery order, which is
//! what makes `cargo xtask analyze` byte-identical across runs.

use crate::items::{Item, ItemKind, ItemTree, Vis};
use crate::lexer::{adjacent, Token, TokenKind};
use crate::source::SourceFile;
use crate::workspace::WorkspaceSrc;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;

/// How a call site was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(...)` — plain path call.
    Bare,
    /// `x.method(...)`; `on_self` when the receiver token is `self`.
    Method {
        /// Whether the receiver is literally `self`.
        on_self: bool,
    },
    /// `Type::assoc(...)` or `module::free(...)` — last qualifier kept.
    Qualified(String),
}

/// One extracted call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name (`unwrap`, `new`, `trace_into`, ...).
    pub name: String,
    /// Shape of the call.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: usize,
}

/// One macro invocation inside a function body (`vec!`, `panic!`, ...).
#[derive(Debug, Clone)]
pub struct MacroUse {
    /// Macro name without the `!`.
    pub name: String,
    /// 1-based source line.
    pub line: usize,
}

/// One function in the workspace model.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Owning crate name (`geotopo-measure`, ...).
    pub krate: String,
    /// Visibility as written on the fn.
    pub vis: Vis,
    /// Index into [`Model::files`].
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Enclosing impl's self type, if any.
    pub self_ty: Option<String>,
    /// Enclosing impl's trait (or enclosing trait), if any.
    pub trait_name: Option<String>,
    /// Whether the fn takes a `self` receiver.
    pub has_self: bool,
    /// Header line (1-based).
    pub line: usize,
    /// Last line of the item.
    pub end_line: usize,
    /// Whether the fn lives in test-only code.
    pub is_test: bool,
    /// Calls extracted from the body.
    pub calls: Vec<CallSite>,
    /// Macro invocations extracted from the body.
    pub macros: Vec<MacroUse>,
    /// Lines with `x[i]`-style indexing in the body.
    pub index_lines: Vec<usize>,
    /// Token range of the body in the owning file, braces included.
    pub body: Option<(usize, usize)>,
}

impl FnNode {
    /// `Type::name` or plain `name`, for diagnostics.
    pub fn qual_name(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace model: files, functions, call graph.
pub struct Model<'ws> {
    /// Flat file list as `(crate index, file index)` into the workspace.
    pub files: Vec<(usize, usize)>,
    /// All functions, sorted by (file, header line).
    pub fns: Vec<FnNode>,
    /// Call-graph adjacency: `edges[f]` are callee indices, sorted.
    pub edges: Vec<Vec<u32>>,
    ws: &'ws WorkspaceSrc,
}

impl std::fmt::Debug for Model<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("files", &self.files.len())
            .field("fns", &self.fns.len())
            .finish_non_exhaustive()
    }
}

impl<'ws> Model<'ws> {
    /// Builds the model from loaded workspace sources.
    pub fn build(ws: &'ws WorkspaceSrc) -> Self {
        // Flat, deterministically ordered file list. Crates are sorted
        // by name at load; files are sorted by path within each crate —
        // but sort again by path so the model never depends on it.
        let mut files: Vec<(usize, usize)> = Vec::new();
        for (ci, c) in ws.crates.iter().enumerate() {
            for fi in 0..c.files.len() {
                files.push((ci, fi));
            }
        }
        files.sort_by(|a, b| {
            let pa = &ws.crates[a.0].files[a.1].path;
            let pb = &ws.crates[b.0].files[b.1].path;
            pa.cmp(pb)
        });

        // Collect every fn (with its impl context) from every file.
        let mut fns: Vec<FnNode> = Vec::new();
        for (idx, &(ci, fi)) in files.iter().enumerate() {
            let c = &ws.crates[ci];
            let sf = &c.files[fi];
            collect_fns(&c.name, idx, sf, &mut fns);
        }
        fns.sort_by_key(|f| (f.file, f.line));

        let edges = resolve_edges(&fns, &collect_use_edges(ws));

        Model {
            files,
            fns,
            edges,
            ws,
        }
    }

    /// The workspace the model was built from.
    pub fn workspace(&self) -> &'ws WorkspaceSrc {
        self.ws
    }

    /// The source file behind flat file index `idx`.
    pub fn file(&self, idx: usize) -> &'ws SourceFile {
        let (ci, fi) = self.files[idx];
        &self.ws.crates[ci].files[fi]
    }

    /// Diagnostic path of flat file index `idx`.
    pub fn path(&self, idx: usize) -> &'ws PathBuf {
        &self.file(idx).path
    }

    /// Fn index at an exact (file, header line), if any.
    pub fn fn_at(&self, file: usize, line: usize) -> Option<u32> {
        self.fns
            .iter()
            .position(|f| f.file == file && f.line == line)
            .map(|i| i as u32)
    }

    /// BFS over the call graph from `roots`. Returns a parent array:
    /// `parents[f] == Some(p)` when `f` is reachable (roots point at
    /// themselves). Test-only fns are never traversed: ambiguous method
    /// resolution may fan out into test helpers, and production roots
    /// cannot actually reach them. Deterministic: roots are visited in
    /// sorted order.
    pub fn reachable(&self, roots: &[u32]) -> Vec<Option<u32>> {
        let mut parents: Vec<Option<u32>> = vec![None; self.fns.len()];
        let mut queue: VecDeque<u32> = VecDeque::new();
        let mut sorted: Vec<u32> = roots.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &r in &sorted {
            if (r as usize) < parents.len()
                && parents[r as usize].is_none()
                && !self.fns[r as usize].is_test
            {
                parents[r as usize] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &callee in &self.edges[f as usize] {
                if parents[callee as usize].is_none() && !self.fns[callee as usize].is_test {
                    parents[callee as usize] = Some(f);
                    queue.push_back(callee);
                }
            }
        }
        parents
    }

    /// Witness call path `root -> ... -> f` as `A::a -> B::b`, read off
    /// the parent array from [`Model::reachable`].
    pub fn witness_path(&self, parents: &[Option<u32>], f: u32) -> String {
        let mut chain = vec![f];
        let mut cur = f;
        while let Some(p) = parents[cur as usize] {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&i| self.fns[i as usize].qual_name())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Walks a file's item tree collecting fns with bodies (and trait
/// context), extracting call/macro/indexing sites from each body.
fn collect_fns(krate: &str, file_idx: usize, sf: &SourceFile, out: &mut Vec<FnNode>) {
    let tree: &ItemTree = &sf.tree;
    let mut visit = |item: &Item| {
        if item.kind != ItemKind::Fn {
            return;
        }
        let is_test = sf.is_test_line(item.line) || item.attrs.iter().any(|a| a == "test");
        let (calls, macros, index_lines) = match item.body {
            Some((start, end)) => extract_sites(&sf.raw, &tree.tokens[start..end]),
            None => (Vec::new(), Vec::new(), Vec::new()),
        };
        out.push(FnNode {
            krate: krate.to_string(),
            vis: item.vis,
            file: file_idx,
            name: item.name.clone(),
            self_ty: item.self_ty.clone(),
            trait_name: item.trait_name.clone(),
            has_self: item.has_self,
            line: item.line,
            end_line: item.end_line,
            is_test,
            calls,
            macros,
            index_lines,
            body: item.body,
        });
    };
    tree.walk(&mut visit);
}

/// Rust keywords that look like call heads but aren't.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "let"
            | "else"
            | "fn"
            | "move"
            | "in"
            | "as"
            | "ref"
            | "mut"
            | "impl"
            | "where"
            | "unsafe"
            | "async"
            | "await"
            | "dyn"
            | "break"
            | "continue"
            | "struct"
            | "enum"
            | "const"
            | "static"
            | "use"
            | "pub"
            | "crate"
            | "super"
            | "mod"
            | "trait"
            | "type"
    )
}

/// Extracts call sites, macro uses, and indexing lines from one body's
/// token slice.
fn extract_sites(src: &str, toks: &[Token]) -> (Vec<CallSite>, Vec<MacroUse>, Vec<usize>) {
    let mut calls = Vec::new();
    let mut macros = Vec::new();
    let mut index_lines = Vec::new();
    let text = |t: &Token| t.text(src);
    let is_colon2 = |a: &Token, b: &Token| a.is_punct(b':') && b.is_punct(b':') && adjacent(a, b);
    for i in 0..toks.len() {
        let t = &toks[i];
        // Indexing: value token directly followed by `[`.
        if let Some(n) = toks.get(i + 1) {
            if n.is_punct(b'[')
                && matches!(
                    t.kind,
                    TokenKind::Ident | TokenKind::Punct(b')') | TokenKind::Punct(b']')
                )
                && !matches!(text(t), s if t.kind == TokenKind::Ident && is_keyword(s))
            {
                index_lines.push(n.line);
            }
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = text(t);
        if is_keyword(name) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        // Macro invocation: `name!` (`panic!(...)`, `vec![...]`).
        if next.is_punct(b'!') && adjacent(t, next) {
            macros.push(MacroUse {
                name: name.to_string(),
                line: t.line,
            });
            continue;
        }
        // Call head: `name(` directly, or `name::<T>(` turbofish.
        let is_call = if next.is_punct(b'(') {
            true
        } else if i + 3 < toks.len() && is_colon2(next, &toks[i + 2]) && toks[i + 3].is_punct(b'<')
        {
            // Walk the turbofish to its `>` and require `(` after.
            let mut depth = 0i32;
            let mut j = i + 3;
            let mut ok = false;
            while j < toks.len() {
                match toks[j].kind {
                    TokenKind::Punct(b'<') => depth += 1,
                    TokenKind::Punct(b'>') => {
                        depth -= 1;
                        if depth == 0 {
                            ok = toks.get(j + 1).is_some_and(|t| t.is_punct(b'('));
                            break;
                        }
                    }
                    TokenKind::Punct(b';') | TokenKind::Punct(b'{') => break,
                    _ => {}
                }
                j += 1;
            }
            ok
        } else {
            false
        };
        if !is_call {
            continue;
        }
        // Shape from the preceding tokens.
        let kind = if i >= 1 && toks[i - 1].is_punct(b'.') {
            let on_self = i >= 2
                && toks[i - 2].kind == TokenKind::Ident
                && text(&toks[i - 2]) == "self"
                && (i < 3 || !toks[i - 3].is_punct(b'.'));
            CallKind::Method { on_self }
        } else if i >= 2 && is_colon2(&toks[i - 2], &toks[i - 1]) {
            // Qualifier before `::` — ident, or `>` closing generics.
            match toks.get(i.wrapping_sub(3)) {
                Some(q) if q.kind == TokenKind::Ident => CallKind::Qualified(text(q).to_string()),
                Some(q) if q.is_punct(b'>') => {
                    // `Vec::<u8>::new` — walk back to the matching `<`,
                    // then take the ident before its `::`.
                    let mut depth = 0i32;
                    let mut j = i - 3;
                    let mut qual = None;
                    loop {
                        match toks[j].kind {
                            TokenKind::Punct(b'>') => depth += 1,
                            TokenKind::Punct(b'<') => {
                                depth -= 1;
                                if depth == 0 {
                                    if j >= 3
                                        && is_colon2(&toks[j - 2], &toks[j - 1])
                                        && toks[j - 3].kind == TokenKind::Ident
                                    {
                                        qual = Some(text(&toks[j - 3]).to_string());
                                    } else if j >= 1 && toks[j - 1].kind == TokenKind::Ident {
                                        qual = Some(text(&toks[j - 1]).to_string());
                                    }
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if j == 0 {
                            break;
                        }
                        j -= 1;
                    }
                    match qual {
                        Some(q) => CallKind::Qualified(q),
                        None => CallKind::Bare,
                    }
                }
                _ => CallKind::Bare,
            }
        } else {
            CallKind::Bare
        };
        calls.push(CallSite {
            name: name.to_string(),
            kind,
            line: t.line,
        });
    }
    (calls, macros, index_lines)
}

/// Resolves every call site to workspace fn indices, building the
/// adjacency lists.
///
/// By-name candidates are filtered by *crate visibility*: a callee is
/// viable only when it lives in the caller's own crate or in a crate
/// the caller's crate actually imports (per the use-graph). Without
/// this, ubiquitous std method names (`.map(..)`, `.get(..)`) would
/// resolve to any same-named workspace method — e.g. an `Option::map`
/// inside `bgp` fanning out to a geomap method `map` that `bgp` cannot
/// even name.
fn resolve_edges(fns: &[FnNode], imports: &HashMap<&str, HashSet<&str>>) -> Vec<Vec<u32>> {
    // Index maps. Values are pushed in fn order, so they are sorted.
    let mut methods_by_name: HashMap<&str, Vec<u32>> = HashMap::new();
    let mut assoc_by_type_fn: HashMap<(&str, &str), Vec<u32>> = HashMap::new();
    let mut free_by_name: HashMap<&str, Vec<u32>> = HashMap::new();
    let mut free_by_crate_name: HashMap<(&str, &str), Vec<u32>> = HashMap::new();
    let mut by_file_name: HashMap<(usize, &str), Vec<u32>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        let i = i as u32;
        if f.has_self {
            methods_by_name.entry(&f.name).or_default().push(i);
        }
        if let Some(ty) = &f.self_ty {
            assoc_by_type_fn
                .entry((ty.as_str(), &f.name))
                .or_default()
                .push(i);
        } else {
            free_by_name.entry(&f.name).or_default().push(i);
            free_by_crate_name
                .entry((f.krate.as_str(), &f.name))
                .or_default()
                .push(i);
        }
        by_file_name.entry((f.file, &f.name)).or_default().push(i);
    }

    let empty: Vec<u32> = Vec::new();
    let mut edges: Vec<Vec<u32>> = Vec::with_capacity(fns.len());
    for f in fns {
        let mut out: Vec<u32> = Vec::new();
        for call in &f.calls {
            let targets: &Vec<u32> = match &call.kind {
                CallKind::Method { on_self: true } => {
                    // `self.m(...)`: methods of the same self type first.
                    match &f.self_ty {
                        Some(ty) => assoc_by_type_fn
                            .get(&(ty.as_str(), call.name.as_str()))
                            .unwrap_or_else(|| {
                                methods_by_name.get(call.name.as_str()).unwrap_or(&empty)
                            }),
                        None => methods_by_name.get(call.name.as_str()).unwrap_or(&empty),
                    }
                }
                CallKind::Method { on_self: false } => {
                    // Any workspace method with this name; if none, the
                    // call targets std/vendored code — no edge.
                    methods_by_name.get(call.name.as_str()).unwrap_or(&empty)
                }
                CallKind::Qualified(q) => {
                    let is_type_like = q.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                    if q == "Self" {
                        match &f.self_ty {
                            Some(ty) => assoc_by_type_fn
                                .get(&(ty.as_str(), call.name.as_str()))
                                .unwrap_or(&empty),
                            None => &empty,
                        }
                    } else if is_type_like {
                        assoc_by_type_fn
                            .get(&(q.as_str(), call.name.as_str()))
                            .unwrap_or(&empty)
                    } else {
                        // `module::free(...)`: free fns with that name
                        // anywhere in the workspace (module names are
                        // not tracked — conservative fan-out).
                        free_by_name.get(call.name.as_str()).unwrap_or(&empty)
                    }
                }
                CallKind::Bare => {
                    // Same file, then same crate, then any free fn.
                    if let Some(v) = by_file_name.get(&(f.file, call.name.as_str())) {
                        v
                    } else if let Some(v) =
                        free_by_crate_name.get(&(f.krate.as_str(), call.name.as_str()))
                    {
                        v
                    } else {
                        free_by_name.get(call.name.as_str()).unwrap_or(&empty)
                    }
                }
            };
            let visible = |&i: &u32| {
                let t = &fns[i as usize];
                t.krate == f.krate
                    || imports
                        .get(f.krate.as_str())
                        .is_some_and(|s| s.contains(t.krate.as_str()))
            };
            out.extend(targets.iter().filter(|i| visible(i)));
        }
        out.sort_unstable();
        out.dedup();
        edges.push(out);
    }
    edges
}

/// Scans every file for `geotopo_*` idents in non-test code, producing
/// the crate-level use-graph: importer crate to the crates it names.
fn collect_use_edges(ws: &WorkspaceSrc) -> HashMap<&str, HashSet<&str>> {
    // Only idents that name an actual workspace crate count as import
    // edges: a fn or variable that happens to start with `geotopo_`
    // is not an edge.
    let crate_names: HashSet<&str> = ws.crates.iter().map(|c| c.name.as_str()).collect();
    let mut out: HashMap<&str, HashSet<&str>> = HashMap::new();
    for c in &ws.crates {
        for sf in &c.files {
            for t in sf.tree.tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
                let s = t.text(&sf.raw);
                let target = if s == "geotopo" {
                    s.to_string()
                } else if let Some(rest) = s.strip_prefix("geotopo_") {
                    format!("geotopo-{}", rest.replace('_', "-"))
                } else {
                    continue;
                };
                if let Some(&to) = crate_names.get(target.as_str()) {
                    if to != c.name && !sf.is_test_line(t.line) {
                        out.entry(c.name.as_str()).or_default().insert(to);
                    }
                }
            }
        }
    }
    out
}

/// All `pub` items (workspace surface) per file, for the dead-`pub`
/// half of GT-AN-003. Returns `(file index, name, line)` tuples.
pub fn public_items(model: &Model<'_>) -> Vec<(usize, String, usize)> {
    let mut out = Vec::new();
    for (idx, &(ci, fi)) in model.files.iter().enumerate() {
        let sf = &model.workspace().crates[ci].files[fi];
        let mut visit = |item: &Item| {
            if item.vis != Vis::Pub || sf.is_test_line(item.line) {
                return;
            }
            let named = matches!(
                item.kind,
                ItemKind::Fn
                    | ItemKind::Struct
                    | ItemKind::Enum
                    | ItemKind::Trait
                    | ItemKind::Const
                    | ItemKind::Static
                    | ItemKind::TypeAlias
            );
            if named && !item.name.is_empty() {
                out.push((idx, item.name.clone(), item.line));
            }
        };
        sf.tree.walk(&mut visit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::CrateSrc;
    use std::path::PathBuf;

    fn ws(crates: &[(&str, &[(&str, &str)])]) -> WorkspaceSrc {
        WorkspaceSrc {
            crates: crates
                .iter()
                .map(|(name, files)| CrateSrc {
                    name: name.to_string(),
                    dir: PathBuf::from(format!("crates/{name}")),
                    manifest: format!("[package]\nname = \"{name}\"\n"),
                    manifest_path: PathBuf::from(format!("crates/{name}/Cargo.toml")),
                    files: files
                        .iter()
                        .map(|(p, s)| SourceFile::from_str(p, s))
                        .collect(),
                    ref_files: Vec::new(),
                })
                .collect(),
        }
    }

    fn find_fn(m: &Model<'_>, name: &str) -> u32 {
        m.fns.iter().position(|f| f.name == name).unwrap() as u32
    }

    #[test]
    fn bare_calls_resolve_same_file_first() {
        let w = ws(&[(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "fn top() { helper(); }\nfn helper() {}\n",
            )],
        )]);
        let m = Model::build(&w);
        let top = find_fn(&m, "top");
        let helper = find_fn(&m, "helper");
        assert_eq!(m.edges[top as usize], vec![helper]);
    }

    #[test]
    fn self_method_calls_resolve_within_impl() {
        let w = ws(&[(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "struct S;\nimpl S {\n    fn outer(&self) { self.inner(); }\n    fn inner(&self) {}\n}\n",
            )],
        )]);
        let m = Model::build(&w);
        let outer = find_fn(&m, "outer");
        let inner = find_fn(&m, "inner");
        assert_eq!(m.edges[outer as usize], vec![inner]);
    }

    #[test]
    fn qualified_assoc_calls_resolve_by_type() {
        let w = ws(&[(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "struct S;\nimpl S {\n    fn make() -> S { S }\n}\nfn top() { let _ = S::make(); }\n",
            )],
        )]);
        let m = Model::build(&w);
        let top = find_fn(&m, "top");
        let make = find_fn(&m, "make");
        assert_eq!(m.edges[top as usize], vec![make]);
    }

    #[test]
    fn unresolved_std_calls_produce_no_edges() {
        let w = ws(&[(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "fn top() { let v: Vec<u32> = Vec::new(); let _ = v.len(); }\n",
            )],
        )]);
        let m = Model::build(&w);
        let top = find_fn(&m, "top");
        assert!(m.edges[top as usize].is_empty());
    }

    #[test]
    fn reachability_is_transitive_with_witness() {
        let w = ws(&[(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn unrelated() {}\n",
            )],
        )]);
        let m = Model::build(&w);
        let (a, c) = (find_fn(&m, "a"), find_fn(&m, "c"));
        let parents = m.reachable(&[a]);
        assert!(parents[c as usize].is_some());
        assert!(parents[find_fn(&m, "unrelated") as usize].is_none());
        assert_eq!(m.witness_path(&parents, c), "a -> b -> c");
    }

    #[test]
    fn macro_uses_and_indexing_are_recorded() {
        let w = ws(&[(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "fn f(v: &[u32]) -> u32 {\n    let x = vec![1];\n    panic!(\"no\");\n    v[0] + x[0]\n}\n",
            )],
        )]);
        let m = Model::build(&w);
        let f = &m.fns[find_fn(&m, "f") as usize];
        let macro_names: Vec<&str> = f.macros.iter().map(|m| m.name.as_str()).collect();
        assert!(macro_names.contains(&"vec"));
        assert!(macro_names.contains(&"panic"));
        assert_eq!(f.index_lines, vec![4, 4]);
    }

    #[test]
    fn use_edges_map_idents_to_crate_names() {
        let w = ws(&[
            (
                "geotopo-geo",
                &[("crates/geo/src/lib.rs", "pub fn p() {}\n")][..],
            ),
            (
                "geotopo-measure",
                &[(
                    "crates/measure/src/lib.rs",
                    "use geotopo_geo::p;\nfn f() { p(); }\n",
                )][..],
            ),
        ]);
        let edges = collect_use_edges(&w);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges["geotopo-measure"], HashSet::from(["geotopo-geo"]));
    }

    #[test]
    fn test_fns_are_flagged() {
        let w = ws(&[(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n",
            )],
        )]);
        let m = Model::build(&w);
        assert!(!m.fns[find_fn(&m, "lib") as usize].is_test);
        assert!(m.fns[find_fn(&m, "t") as usize].is_test);
    }

    #[test]
    fn public_items_lists_pub_surface_only() {
        let w = ws(&[(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "pub fn api() {}\nfn private() {}\npub(crate) fn scoped() {}\npub struct Thing;\n",
            )],
        )]);
        let m = Model::build(&w);
        let items = public_items(&m);
        let names: Vec<&str> = items.iter().map(|(_, n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["api", "Thing"]);
    }
}
