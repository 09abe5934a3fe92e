//! Per-file item trees: modules, functions, impls, traits, and uses
//! parsed from the token stream of [`crate::lexer`].
//!
//! This is "name-resolution lite": enough structure for the analyzer's
//! graphs — who defines what, under which module path, with which self
//! type — without pretending to be rustc. Unknown constructs are
//! skipped gracefully (a balanced-delimiter skip), so the parser never
//! fails on valid Rust; at worst it under-reports items, which every
//! rule treats as "no finding" rather than an error.

use crate::lexer::{adjacent, closing, lex, Token, TokenKind};

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { ... }` or `mod name;`
    Mod,
    /// `fn name(...) { ... }` (free, assoc, or trait-default).
    Fn,
    /// `impl Type { ... }` or `impl Trait for Type { ... }`.
    Impl,
    /// `trait Name { ... }`.
    Trait,
    /// `struct Name ...`
    Struct,
    /// `enum Name { ... }`
    Enum,
    /// `use path::to::thing;`
    Use,
    /// `const NAME: ... = ...;`
    Const,
    /// `static NAME: ... = ...;`
    Static,
    /// `type Name = ...;`
    TypeAlias,
    /// `macro_rules! name { ... }`
    MacroDef,
}

/// Item visibility, as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// `pub`
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in ...)`
    Restricted,
    /// No `pub` at all.
    Private,
}

/// One parsed item with its source span and children.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item class.
    pub kind: ItemKind,
    /// Declared name. Impls get their self type's name; uses get the
    /// full path text.
    pub name: String,
    /// Visibility as written.
    pub vis: Vis,
    /// 1-based line of the item keyword (`fn`, `mod`, ...).
    pub line: usize,
    /// 1-based line of the item's last token (close brace or `;`).
    pub end_line: usize,
    /// Token index range `[start, end)` of the `{ ... }` body in the
    /// file's token stream, braces included. None for `;`-terminated
    /// items and bodiless trait methods.
    pub body: Option<(usize, usize)>,
    /// For fns: whether the first parameter is a `self` receiver.
    pub has_self: bool,
    /// For impls: the trait name if `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// For fns inside an impl: the impl's self type (filled by the
    /// parser when descending); for impls, same as `name`.
    pub self_ty: Option<String>,
    /// Attribute names seen on the item (`test`, `cfg`, `inline`, ...).
    pub attrs: Vec<String>,
    /// Nested items (mod/impl/trait children).
    pub children: Vec<Item>,
}

impl Item {
    /// Depth-first iteration over this item and all descendants.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Item)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// A parsed file: its tokens plus the top-level item list.
#[derive(Debug, Clone, Default)]
pub struct ItemTree {
    /// All tokens of the file, in order.
    pub tokens: Vec<Token>,
    /// Top-level items.
    pub items: Vec<Item>,
}

impl ItemTree {
    /// Lexes and parses a source file.
    pub fn parse(src: &str) -> Self {
        let tokens = lex(src);
        let items = Parser {
            src,
            toks: &tokens,
            pos: 0,
        }
        .items(usize::MAX);
        ItemTree { tokens, items }
    }

    /// Depth-first iteration over every item in the file.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Item)) {
        for i in &self.items {
            i.walk(f);
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn text(&self, t: &Token) -> &'a str {
        t.text(self.src)
    }

    /// Parses items until `end` (token index) or EOF.
    fn items(&mut self, end: usize) -> Vec<Item> {
        let mut out = Vec::new();
        while self.pos < self.toks.len() && self.pos < end {
            match self.item() {
                Some(item) => out.push(item),
                None => {
                    // Not an item start: skip one balanced chunk.
                    self.skip_one(end);
                }
            }
        }
        out
    }

    /// Skips one token, or a whole balanced `{...}`/`(...)`/`[...]`.
    fn skip_one(&mut self, end: usize) {
        let Some(t) = self.peek() else {
            return;
        };
        match t.kind {
            TokenKind::Punct(b'{') => self.skip_balanced(b'{', b'}', end),
            TokenKind::Punct(b'(') => self.skip_balanced(b'(', b')', end),
            TokenKind::Punct(b'[') => self.skip_balanced(b'[', b']', end),
            _ => self.pos += 1,
        }
    }

    fn skip_balanced(&mut self, open: u8, close: u8, end: usize) {
        let mut depth = 0usize;
        while self.pos < self.toks.len() && self.pos < end {
            let t = &self.toks[self.pos];
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// Collects leading `#[attr]` names, advancing past them.
    fn attrs(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(t) = self.peek() {
            if !t.is_punct(b'#') {
                break;
            }
            // `#[` or `#![` — inner attrs are collected the same way.
            let mut j = self.pos + 1;
            if self.toks.get(j).is_some_and(|t| t.is_punct(b'!')) {
                j += 1;
            }
            if !self.toks.get(j).is_some_and(|t| t.is_punct(b'[')) {
                self.pos += 1;
                continue;
            }
            // First ident inside the brackets names the attribute.
            if let Some(name_tok) = self.toks.get(j + 1) {
                if name_tok.kind == TokenKind::Ident {
                    out.push(self.text(name_tok).to_string());
                }
            }
            self.pos = j;
            self.skip_balanced(b'[', b']', usize::MAX);
        }
        out
    }

    /// Parses `pub` / `pub(...)` if present.
    fn vis(&mut self) -> Vis {
        let Some(t) = self.peek() else {
            return Vis::Private;
        };
        if t.kind != TokenKind::Ident || self.text(t) != "pub" {
            return Vis::Private;
        }
        self.pos += 1;
        if self.peek().is_some_and(|t| t.is_punct(b'(')) {
            self.skip_balanced(b'(', b')', usize::MAX);
            Vis::Restricted
        } else {
            Vis::Pub
        }
    }

    /// Attempts to parse one item at the current position.
    fn item(&mut self) -> Option<Item> {
        let start_pos = self.pos;
        let attrs = self.attrs();
        let vis = self.vis();
        // Qualifiers that may precede an item keyword.
        let mut qual_pos = self.pos;
        while let Some(t) = self.toks.get(qual_pos) {
            let is_qual = t.kind == TokenKind::Ident
                && match self.text(t) {
                    "unsafe" | "async" | "extern" | "default" => true,
                    // `const fn` vs `const NAME`: `const` is a qualifier
                    // only when another qualifier or `fn` follows.
                    "const" => self.toks.get(qual_pos + 1).is_some_and(|n| {
                        n.kind == TokenKind::Ident
                            && matches!(self.text(n), "fn" | "unsafe" | "async" | "extern")
                    }),
                    _ => false,
                };
            if is_qual {
                qual_pos += 1;
                if self
                    .toks
                    .get(qual_pos)
                    .is_some_and(|t| t.kind == TokenKind::Str)
                {
                    qual_pos += 1; // extern "C"
                }
            } else {
                break;
            }
        }
        let kw_tok = self.toks.get(qual_pos)?;
        if kw_tok.kind != TokenKind::Ident {
            self.pos = start_pos;
            return None;
        }
        let kw = self.text(kw_tok);
        let item = match kw {
            "fn" => {
                self.pos = qual_pos + 1;
                self.fn_item(attrs, vis)
            }
            "mod" => {
                self.pos = qual_pos + 1;
                self.mod_item(attrs, vis)
            }
            "impl" => {
                self.pos = qual_pos + 1;
                self.impl_item(attrs, vis)
            }
            "trait" => {
                self.pos = qual_pos + 1;
                self.trait_item(attrs, vis)
            }
            "struct" | "enum" | "union" => {
                let kind = if kw == "enum" {
                    ItemKind::Enum
                } else {
                    ItemKind::Struct
                };
                self.pos = qual_pos + 1;
                self.named_item(kind, attrs, vis)
            }
            "use" => {
                self.pos = qual_pos + 1;
                self.use_item(attrs, vis)
            }
            "const" | "static" if self.pos == qual_pos => {
                // `const NAME: ...` (a `const fn` would have advanced
                // qual_pos past this token).
                let kind = if kw == "const" {
                    ItemKind::Const
                } else {
                    ItemKind::Static
                };
                self.pos = qual_pos + 1;
                self.named_item(kind, attrs, vis)
            }
            "type" => {
                self.pos = qual_pos + 1;
                self.named_item(ItemKind::TypeAlias, attrs, vis)
            }
            "macro_rules" => {
                self.pos = qual_pos + 1;
                // `macro_rules ! name { ... }`
                if self.peek().is_some_and(|t| t.is_punct(b'!')) {
                    self.pos += 1;
                }
                self.named_item(ItemKind::MacroDef, attrs, vis)
            }
            _ => {
                self.pos = start_pos;
                return None;
            }
        };
        match item {
            Some(i) => Some(i),
            None => {
                // Parse failed partway: make progress past the keyword.
                self.pos = self.pos.max(start_pos + 1);
                None
            }
        }
    }

    /// After the `fn` keyword: name, generics, params, body or `;`.
    fn fn_item(&mut self, attrs: Vec<String>, vis: Vis) -> Option<Item> {
        let name_tok = self.peek()?;
        if name_tok.kind != TokenKind::Ident {
            return None;
        }
        let name = self.text(name_tok).to_string();
        let line = name_tok.line;
        self.pos += 1;
        if self.peek().is_some_and(|t| t.is_punct(b'<')) {
            self.skip_generics();
        }
        // Parameter list.
        let mut has_self = false;
        if self.peek().is_some_and(|t| t.is_punct(b'(')) {
            let params_start = self.pos;
            self.skip_balanced(b'(', b')', usize::MAX);
            // `self` appearing before the first `,` at depth 1 marks a
            // receiver (`&self`, `&mut self`, `self`, `mut self`,
            // `self: Rc<Self>`).
            let mut depth = 0usize;
            for t in &self.toks[params_start..self.pos] {
                match t.kind {
                    TokenKind::Punct(b'(') => depth += 1,
                    TokenKind::Punct(b')') => depth = depth.saturating_sub(1),
                    TokenKind::Punct(b',') if depth == 1 => break,
                    TokenKind::Ident if depth == 1 && t.text(self.src) == "self" => {
                        has_self = true;
                    }
                    _ => {}
                }
            }
        }
        // Return type / where clause: scan to `{` or `;` at depth 0,
        // counting angle brackets so `-> Option<{..}>` can't confuse us
        // (closures in const generics are out of scope for this code).
        let (body, end_line) = self.item_tail(line)?;
        Some(Item {
            kind: ItemKind::Fn,
            name,
            vis,
            line,
            end_line,
            body,
            has_self,
            trait_name: None,
            self_ty: None,
            attrs,
            children: Vec::new(),
        })
    }

    /// After `mod`: name then `{ items }` or `;`.
    fn mod_item(&mut self, attrs: Vec<String>, vis: Vis) -> Option<Item> {
        let name_tok = self.peek()?;
        if name_tok.kind != TokenKind::Ident {
            return None;
        }
        let name = self.text(name_tok).to_string();
        let line = name_tok.line;
        self.pos += 1;
        let t = self.peek()?;
        if t.is_punct(b';') {
            let end_line = t.line;
            self.pos += 1;
            return Some(Item {
                kind: ItemKind::Mod,
                name,
                vis,
                line,
                end_line,
                body: None,
                has_self: false,
                trait_name: None,
                self_ty: None,
                attrs,
                children: Vec::new(),
            });
        }
        if !t.is_punct(b'{') {
            return None;
        }
        let open = self.pos;
        let close = closing(self.toks, open)?;
        self.pos = open + 1;
        let children = self.items(close);
        let end_line = self.toks[close].line;
        self.pos = close + 1;
        Some(Item {
            kind: ItemKind::Mod,
            name,
            vis,
            line,
            end_line,
            body: Some((open, close + 1)),
            has_self: false,
            trait_name: None,
            self_ty: None,
            attrs,
            children,
        })
    }

    /// After `impl`: header (generics, trait-for, type), then children.
    fn impl_item(&mut self, attrs: Vec<String>, _vis: Vis) -> Option<Item> {
        let line = self.peek()?.line;
        if self.peek().is_some_and(|t| t.is_punct(b'<')) {
            self.skip_generics();
        }
        // Header idents up to `{`, split on a depth-0 `for`. The last
        // depth-0 path-head ident on each side names the trait / type.
        let mut trait_side: Vec<String> = Vec::new();
        let mut type_side: Vec<String> = Vec::new();
        let mut saw_for = false;
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            if t.is_punct(b'{') && angle <= 0 {
                break;
            }
            if t.is_punct(b';') {
                // `impl Trait for Type;` doesn't exist, but bail safely.
                self.pos += 1;
                return None;
            }
            angle += self.angle_step();
            if t.kind == TokenKind::Ident && angle <= 0 {
                let s = self.text(t);
                if s == "for" {
                    saw_for = true;
                } else if s == "where" {
                    // Type name came before the where clause.
                } else if saw_for {
                    type_side.push(s.to_string());
                } else {
                    trait_side.push(s.to_string());
                }
            }
            self.pos += 1;
        }
        let open = self.pos;
        if !self.toks.get(open).is_some_and(|t| t.is_punct(b'{')) {
            return None;
        }
        let close = closing(self.toks, open)?;
        // `impl Type` → type is the trait_side's last ident, no trait.
        let strip = |v: &[String]| -> Option<String> {
            v.iter()
                .rev()
                .find(|s| !matches!(s.as_str(), "dyn" | "mut" | "const" | "where" | "as" | "in"))
                .cloned()
        };
        let (trait_name, self_ty) = if saw_for {
            (strip(&trait_side), strip(&type_side))
        } else {
            (None, strip(&trait_side))
        };
        self.pos = open + 1;
        let mut children = self.items(close);
        for c in &mut children {
            if c.kind == ItemKind::Fn {
                c.self_ty = self_ty.clone();
                c.trait_name = trait_name.clone();
            }
        }
        let end_line = self.toks[close].line;
        self.pos = close + 1;
        Some(Item {
            kind: ItemKind::Impl,
            name: self_ty.clone().unwrap_or_default(),
            vis: Vis::Private,
            line,
            end_line,
            body: Some((open, close + 1)),
            has_self: false,
            trait_name,
            self_ty,
            attrs,
            children,
        })
    }

    /// After `trait`: name, generics, optional bounds, `{ children }`.
    fn trait_item(&mut self, attrs: Vec<String>, vis: Vis) -> Option<Item> {
        let name_tok = self.peek()?;
        if name_tok.kind != TokenKind::Ident {
            return None;
        }
        let name = self.text(name_tok).to_string();
        let line = name_tok.line;
        self.pos += 1;
        // Scan to the body brace (bounds/generics/where in between).
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            if t.is_punct(b'{') && angle <= 0 {
                break;
            }
            if t.is_punct(b';') {
                self.pos += 1;
                return None;
            }
            angle += self.angle_step();
            self.pos += 1;
        }
        let open = self.pos;
        if !self.toks.get(open).is_some_and(|t| t.is_punct(b'{')) {
            return None;
        }
        let close = closing(self.toks, open)?;
        self.pos = open + 1;
        let mut children = self.items(close);
        for c in &mut children {
            if c.kind == ItemKind::Fn {
                c.trait_name = Some(name.clone());
            }
        }
        let end_line = self.toks[close].line;
        self.pos = close + 1;
        Some(Item {
            kind: ItemKind::Trait,
            name,
            vis,
            line,
            end_line,
            body: Some((open, close + 1)),
            has_self: false,
            trait_name: None,
            self_ty: None,
            attrs,
            children,
        })
    }

    /// Generic named item (`struct X ...`, `const X: ...`, ...): record
    /// the name, then skip to the end of the item.
    fn named_item(&mut self, kind: ItemKind, attrs: Vec<String>, vis: Vis) -> Option<Item> {
        let name_tok = self.peek()?;
        if name_tok.kind != TokenKind::Ident {
            return None;
        }
        let name = self.text(name_tok).to_string();
        let line = name_tok.line;
        self.pos += 1;
        let (body, end_line) = self.item_tail(line)?;
        Some(Item {
            kind,
            name,
            vis,
            line,
            end_line,
            body,
            has_self: false,
            trait_name: None,
            self_ty: None,
            attrs,
            children: Vec::new(),
        })
    }

    /// `use path::to::{a, b};` — name is the whole path text.
    fn use_item(&mut self, attrs: Vec<String>, vis: Vis) -> Option<Item> {
        let line = self.peek()?.line;
        let mut parts = String::new();
        let mut end_line = line;
        while let Some(t) = self.peek() {
            end_line = t.line;
            if t.is_punct(b';') {
                self.pos += 1;
                break;
            }
            if t.is_punct(b'{') {
                self.skip_balanced(b'{', b'}', usize::MAX);
                parts.push('{');
                parts.push('}');
                continue;
            }
            parts.push_str(self.text(t));
            self.pos += 1;
        }
        Some(Item {
            kind: ItemKind::Use,
            name: parts,
            vis,
            line,
            end_line,
            body: None,
            has_self: false,
            trait_name: None,
            self_ty: None,
            attrs,
            children: Vec::new(),
        })
    }

    /// From after an item's name/params: scan to the `{` body or the
    /// terminating `;` at angle-depth 0, honoring `->` arrows. Returns
    /// the body token range (if any) and the item's last line.
    fn item_tail(&mut self, start_line: usize) -> Option<(Option<(usize, usize)>, usize)> {
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            match t.kind {
                TokenKind::Punct(b'{') if angle <= 0 => {
                    let open = self.pos;
                    let close = closing(self.toks, open)?;
                    self.pos = close + 1;
                    // `struct X { .. }` has no trailing `;`, but
                    // `const X: T = S { .. };` does — consume it.
                    if self.peek().is_some_and(|t| t.is_punct(b';')) {
                        self.pos += 1;
                    }
                    return Some((Some((open, close + 1)), self.toks[close].line));
                }
                TokenKind::Punct(b';') if angle <= 0 => {
                    let end_line = t.line;
                    self.pos += 1;
                    return Some((None, end_line));
                }
                TokenKind::Punct(b'(') => self.skip_balanced(b'(', b')', usize::MAX),
                TokenKind::Punct(b'[') => self.skip_balanced(b'[', b']', usize::MAX),
                _ => {
                    angle += self.angle_step();
                    self.pos += 1;
                }
            }
        }
        // EOF without body or `;` (truncated input): treat as bodiless.
        Some((None, start_line))
    }

    /// Skips a `<...>` generics list (angle counting, `->`-aware).
    fn skip_generics(&mut self) {
        let mut angle = 0i32;
        while self.peek().is_some() {
            let step = self.angle_step();
            angle += step;
            self.pos += 1;
            if step < 0 && angle == 0 {
                return;
            }
        }
    }

    /// The angle-depth step of the current token: `+1` at `<`, `-1` at
    /// a `>` that does not end a `->` arrow (a fn-pointer type's arrow
    /// closes no angle), `0` otherwise.
    fn angle_step(&self) -> i32 {
        let Some(t) = self.peek() else {
            return 0;
        };
        let arrow = || {
            self.pos > 0 && {
                let prev = &self.toks[self.pos - 1];
                prev.is_punct(b'-') && adjacent(prev, t)
            }
        };
        match t.kind {
            TokenKind::Punct(b'<') => 1,
            TokenKind::Punct(b'>') if !arrow() => -1,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ItemTree {
        ItemTree::parse(src)
    }

    #[test]
    fn parses_free_fn_with_span() {
        let t = parse("pub fn add(a: u32, b: u32) -> u32 {\n    a + b\n}\n");
        assert_eq!(t.items.len(), 1);
        let f = &t.items[0];
        assert_eq!(f.kind, ItemKind::Fn);
        assert_eq!(f.name, "add");
        assert_eq!(f.vis, Vis::Pub);
        assert_eq!((f.line, f.end_line), (1, 3));
        assert!(f.body.is_some());
        assert!(!f.has_self);
    }

    #[test]
    fn parses_impl_with_methods_and_self_ty() {
        let t = parse(
            "struct S;\nimpl S {\n    pub fn new() -> Self { S }\n    fn go(&mut self) {}\n}\n",
        );
        let imp = &t.items[1];
        assert_eq!(imp.kind, ItemKind::Impl);
        assert_eq!(imp.name, "S");
        assert_eq!(imp.children.len(), 2);
        assert_eq!(imp.children[0].name, "new");
        assert!(!imp.children[0].has_self);
        assert_eq!(imp.children[0].self_ty.as_deref(), Some("S"));
        assert!(imp.children[1].has_self);
    }

    #[test]
    fn trait_impl_records_trait_name() {
        let t = parse("impl Stage for PopGridStage {\n    fn run(&self) {}\n}\n");
        let imp = &t.items[0];
        assert_eq!(imp.trait_name.as_deref(), Some("Stage"));
        assert_eq!(imp.self_ty.as_deref(), Some("PopGridStage"));
        let run = &imp.children[0];
        assert_eq!(run.trait_name.as_deref(), Some("Stage"));
        assert_eq!(run.self_ty.as_deref(), Some("PopGridStage"));
    }

    #[test]
    fn generic_impl_headers_resolve_last_path_head() {
        let t = parse("impl<'a, T: Clone> Iterator for Wrapper<'a, T> {\n    fn next(&mut self) -> Option<T> { None }\n}\n");
        let imp = &t.items[0];
        assert_eq!(imp.trait_name.as_deref(), Some("Iterator"));
        assert_eq!(imp.self_ty.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn nested_mods_nest_items() {
        let t = parse(
            "mod outer {\n    mod inner {\n        fn deep() {}\n    }\n    fn shallow() {}\n}\n",
        );
        let outer = &t.items[0];
        assert_eq!(outer.kind, ItemKind::Mod);
        assert_eq!(outer.children.len(), 2);
        let inner = &outer.children[0];
        assert_eq!(inner.children[0].name, "deep");
        assert_eq!(outer.children[1].name, "shallow");
    }

    #[test]
    fn attrs_are_collected() {
        let t = parse("#[test]\n#[ignore]\nfn check() {}\n");
        assert_eq!(t.items[0].attrs, vec!["test", "ignore"]);
    }

    #[test]
    fn uses_capture_path() {
        let t = parse("use geotopo_geo::point::{GeoPoint, Distance};\npub use crate::x;\n");
        assert_eq!(t.items[0].kind, ItemKind::Use);
        assert!(t.items[0].name.starts_with("geotopo_geo::point::"));
        assert_eq!(t.items[1].vis, Vis::Pub);
    }

    #[test]
    fn trait_default_methods_have_bodies_decls_do_not() {
        let t = parse("trait T {\n    fn must(&self);\n    fn has(&self) -> u32 { 0 }\n}\n");
        let tr = &t.items[0];
        assert_eq!(tr.kind, ItemKind::Trait);
        assert!(tr.children[0].body.is_none());
        assert!(tr.children[1].body.is_some());
    }

    #[test]
    fn const_fn_is_a_fn_plain_const_is_const() {
        let t = parse("const LIMIT: usize = 4;\npub const fn cap() -> usize { LIMIT }\n");
        assert_eq!(t.items[0].kind, ItemKind::Const);
        assert_eq!(t.items[0].name, "LIMIT");
        assert_eq!(t.items[1].kind, ItemKind::Fn);
        assert_eq!(t.items[1].name, "cap");
    }

    #[test]
    fn fn_returning_fn_pointer_does_not_break_arrows() {
        let t = parse("fn mk() -> fn(u32) -> u32 { double }\nfn double(x: u32) -> u32 { x * 2 }\n");
        assert_eq!(t.items.len(), 2);
        assert_eq!(t.items[0].name, "mk");
        assert_eq!(t.items[1].name, "double");
    }

    #[test]
    fn where_clauses_and_angle_types_do_not_confuse_tail() {
        let t = parse(
            "fn f<T>(x: T) -> Vec<T>\nwhere\n    T: Clone + PartialOrd<T>,\n{\n    vec![x]\n}\n",
        );
        assert_eq!(t.items.len(), 1);
        assert_eq!(t.items[0].name, "f");
        assert!(t.items[0].body.is_some());
    }

    #[test]
    fn statics_types_macros_parse() {
        let t = parse("static N: u32 = 1;\ntype Alias = Vec<u32>;\nmacro_rules! m { () => {}; }\n");
        assert_eq!(t.items[0].kind, ItemKind::Static);
        assert_eq!(t.items[1].kind, ItemKind::TypeAlias);
        assert_eq!(t.items[2].kind, ItemKind::MacroDef);
        assert_eq!(t.items[2].name, "m");
    }

    #[test]
    fn walk_visits_all() {
        let t = parse("mod m {\n    impl S {\n        fn a() {}\n    }\n}\nfn b() {}\n");
        let mut names = Vec::new();
        t.walk(&mut |i| names.push(i.name.clone()));
        assert!(names.contains(&"a".to_string()));
        assert!(names.contains(&"b".to_string()));
    }

    #[test]
    fn garbage_does_not_hang_or_panic() {
        let t = parse("!!! ]]] }}} fn ok() {} ((( {{{");
        assert!(t.items.iter().any(|i| i.name == "ok"));
    }
}
