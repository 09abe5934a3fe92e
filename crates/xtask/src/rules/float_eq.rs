//! GT-LINT-004: no bare float equality in numeric kernels.
//!
//! In `geotopo-stats` and `geotopo-geo` — the crates whose arithmetic
//! everything else builds on — `x == y` between floats is almost always a
//! latent bug (rounding turns it into a coin flip). Comparisons should go
//! through an epsilon helper or an explicit total order. The rule flags
//! `==`/`!=` where an operand is visibly a float: a float literal
//! (`1.0`), an `f64::`/`f32::` associated constant, or a `as f64` cast.
//! An operand is the run of tokens on the operator's line up to the
//! nearest `;`, `{`, `,`, `&`, `|` or the enclosing bracket.
//!
//! Deliberate exact comparisons (e.g. checking a value survived a
//! round-trip unchanged, or sentinel equality) carry
//! `// lint: allow(float_eq): <why>`.

use super::{scan, Finding, Rule};
use crate::lexer::{adjacent, Token, TokenKind};
use crate::workspace::WorkspaceSrc;

/// See module docs.
#[derive(Debug)]
pub struct FloatEq;

const SCOPED_CRATES: &[&str] = &["geotopo-stats", "geotopo-geo"];

impl Rule for FloatEq {
    fn id(&self) -> &'static str {
        "GT-LINT-004"
    }

    fn describe(&self) -> &'static str {
        "no bare f64/f32 == comparisons in stats/geo library code"
    }

    fn check(&self, ws: &WorkspaceSrc) -> Vec<Finding> {
        scan(
            ws,
            self.id(),
            Some("float_eq"),
            |krate, _| SCOPED_CRATES.contains(&krate.name.as_str()),
            |file, i| {
                float_eq_at(&file.raw, &file.tree.tokens, i).then(|| {
                    "bare float equality; compare with an epsilon or justify with \
                     `// lint: allow(float_eq): <why>`"
                        .to_string()
                })
            },
        )
    }
}

/// Whether `toks[i]` starts an `==`/`!=` with a visibly-float operand.
fn float_eq_at(src: &str, toks: &[Token], i: usize) -> bool {
    let glued = |a: usize, b: usize| adjacent(&toks[a], &toks[b]);
    let punct_at = |j: usize, set: &[u8]| toks.get(j).is_some_and(|t| punct_in(t, set));
    let is_op = punct_at(i, b"=!") && punct_at(i + 1, b"=") && glued(i, i + 1);
    // Not part of `<==`-like or `===`-like runs.
    if !is_op
        || (i > 0 && punct_at(i - 1, b"<>=!") && glued(i - 1, i))
        || (punct_at(i + 2, b"=") && glued(i + 1, i + 2))
    {
        return false;
    }
    let line = toks[i].line;
    let left = toks[..i]
        .iter()
        .rev()
        .take_while(|t| t.line == line && !punct_in(t, b";{(,&|"))
        .count();
    let right = toks[i + 2..]
        .iter()
        .take_while(|t| t.line == line && !punct_in(t, b";{),&|"))
        .count();
    is_float(src, &toks[i - left..i]) || is_float(src, &toks[i + 2..i + 2 + right])
}

fn punct_in(t: &Token, set: &[u8]) -> bool {
    set.iter().any(|&b| t.is_punct(b))
}

/// Whether an operand's tokens contain a float literal (`1.0`, `2.`,
/// `1e-3`, `3f64`), an `f64::`/`f32::` path or an `as f64`/`as f32`.
fn is_float(src: &str, op: &[Token]) -> bool {
    let text = |k: usize| op.get(k).map_or("", |t| t.text(src));
    let glued = |k: usize| k + 1 < op.len() && adjacent(&op[k], &op[k + 1]);
    (0..op.len()).any(|k| match op[k].kind {
        TokenKind::Ident => match text(k) {
            "f64" | "f32" => text(k + 1) == ":" && glued(k),
            "as" => matches!(text(k + 1), "f64" | "f32"),
            _ => false,
        },
        // A tuple field (`p.0`) is not a literal.
        TokenKind::Number if !(k > 0 && text(k - 1) == "." && glued(k - 1)) => {
            let s = text(k);
            let rest = s.trim_start_matches(|c: char| c.is_ascii_digit() || c == '_');
            if rest.starts_with("f64") || rest.starts_with("f32") {
                return true;
            }
            if let Some(exp) = rest.strip_prefix(['e', 'E']) {
                // `1e5`, or `1e-3` lexed as `1e`, `-`, `3`.
                return exp.starts_with(|c: char| c.is_ascii_digit())
                    || (exp.is_empty()
                        && matches!(text(k + 1), "-" | "+")
                        && glued(k)
                        && op.get(k + 2).is_some_and(|t| t.kind == TokenKind::Number)
                        && glued(k + 1));
            }
            // `1.5` / `2.` — but not `1..` (range) or `1.max(..)`.
            rest.is_empty()
                && text(k + 1) == "."
                && glued(k)
                && (k + 2 == op.len() || (op[k + 2].kind == TokenKind::Number && glued(k + 1)))
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::ws_of;

    fn has_float_eq(src: &str) -> bool {
        let toks = lex(src);
        (0..toks.len()).any(|i| float_eq_at(src, &toks, i))
    }

    #[test]
    fn flags_literal_comparison() {
        let ws = ws_of(
            "geotopo-stats",
            &[("crates/x/src/lib.rs", "fn f(x: f64) -> bool { x == 0.0 }\n")],
        );
        let f = FloatEq.check(&ws);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "GT-LINT-004");
    }

    #[test]
    fn flags_constant_and_ne() {
        assert!(has_float_eq("if x != f64::INFINITY {"));
        assert!(has_float_eq("let b = y as f64 == z;"));
        assert!(has_float_eq("x == 1e-9"));
        assert!(has_float_eq("x == 2E5"));
        assert!(has_float_eq("x == 3f64"));
        assert!(has_float_eq("x == 2."));
        assert!(has_float_eq("if 0.5 == x {"));
    }

    #[test]
    fn integer_and_ordering_comparisons_pass() {
        assert!(!has_float_eq("if n == 0 {"));
        assert!(!has_float_eq("if x <= 1.0 {"));
        assert!(!has_float_eq("if x >= 2.5 {"));
        assert!(!has_float_eq("match x { 1 => 2.0, _ => 3.0 }"));
        assert!(!has_float_eq("for i in 0..1 {}"));
        assert!(!has_float_eq("let y = 1.0_f64.max(x);"));
        assert!(!has_float_eq("if p.0 == q.1 {"));
        assert!(!has_float_eq("if n == 0x1E5 {"));
        assert!(!has_float_eq("if f(1.0) && n == 2 {"));
    }

    #[test]
    fn operands_stop_at_the_line_end() {
        assert!(!has_float_eq("let a = 1.0;\nif n\n    == m {"));
    }

    #[test]
    fn out_of_scope_crates_ignored() {
        let ws = ws_of(
            "geotopo-core",
            &[("crates/x/src/lib.rs", "fn f(x: f64) -> bool { x == 0.0 }\n")],
        );
        assert!(FloatEq.check(&ws).is_empty());
    }

    #[test]
    fn allow_marker_waives() {
        let src = "fn same(x: f64, y: f64) -> bool {\n    // lint: allow(float_eq): exact round-trip check\n    x == y * 1.0\n}\n";
        let ws = ws_of("geotopo-geo", &[("crates/x/src/lib.rs", src)]);
        assert!(FloatEq.check(&ws).is_empty());
    }
}
