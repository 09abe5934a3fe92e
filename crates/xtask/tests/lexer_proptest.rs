//! Property tests for the lexer, the one tokenizer every lint rule and
//! analyzer pass reads. Fragment soups splice idents, literals
//! (terminated and not), comments, and punctuation in random orders; the
//! properties below must hold for every splice.
//!
//! This suite already earned its keep: it caught the lexer dropping the
//! newline in a `"...\`-newline string continuation, which desynced every
//! later line number.

use proptest::prelude::*;
use xtask::lexer::lex;

/// Splice alphabet: each entry is a legal-or-degenerate piece of Rust
/// surface syntax. Unterminated literals and bare sigils are included
/// on purpose — the lexer must stay total on anything a workspace file
/// could contain mid-edit.
const FRAGMENTS: &[&str] = &[
    "fn",
    "pub",
    "ident_0",
    "RoutingOracle",
    "r#type",
    "'static",
    "'a",
    "42",
    "0x1F",
    "1_000u64",
    "\"str lit\"",
    "\"multi\nline\"",
    "\"unterminated",
    "\"esc \\\" quote\"",
    "\"cont \\\n inued\"",
    "r\"raw\"",
    "r#\"raw # lit\"#",
    "b\"bytes\"",
    "'x'",
    "'\\n'",
    "b'\\0'",
    "// line comment\n",
    "/// doc comment\n",
    "/* block */",
    "/* nested /* block */ */",
    "/* unterminated",
    "::",
    "->",
    "=>",
    "{",
    "}",
    "(",
    ")",
    ";",
    ",",
    ".",
    "#[derive(Debug)]",
    "\\",
    "\"",
    "\u{1F300}",
];

/// Separators spliced between fragments; "" glues fragments so token
/// boundaries need not align with fragment boundaries.
const SEPS: &[&str] = &[" ", "\n", ""];

/// Builds a source soup from (fragment, separator) index pairs.
fn splice(pairs: &[(usize, usize)]) -> String {
    let mut src = String::new();
    for &(f, s) in pairs {
        src.push_str(FRAGMENTS[f % FRAGMENTS.len()]);
        src.push_str(SEPS[s % SEPS.len()]);
    }
    src
}

proptest! {
    #[test]
    fn spans_are_ordered_with_exact_lines(
        pairs in prop::collection::vec((0usize..FRAGMENTS.len(), 0usize..SEPS.len()), 0..80)
    ) {
        let src = splice(&pairs);
        let raw = src.as_bytes();
        // Token spans: non-empty, ordered, disjoint, in bounds, on char
        // boundaries, with line numbers matching a recount from scratch.
        let mut prev_end = 0;
        for t in &lex(&src) {
            prop_assert!(t.start < t.end && t.end <= raw.len(), "bad span in {:?}", src);
            prop_assert!(t.start >= prev_end, "overlapping tokens in {:?}", src);
            prev_end = t.end;
            prop_assert!(src.get(t.start..t.end).is_some(), "span splits a char in {:?}", src);
            let line = 1 + raw[..t.start].iter().filter(|&&b| b == b'\n').count();
            prop_assert_eq!(t.line, line, "line drift at {}..{} in {:?}", t.start, t.end, src);
        }
    }

    #[test]
    fn lexer_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let toks = lex(&src);
        let mut prev_end = 0;
        for t in &toks {
            prop_assert!(t.start < t.end && t.end <= src.len());
            prop_assert!(t.start >= prev_end);
            prev_end = t.end;
            prop_assert!(src.get(t.start..t.end).is_some(), "span splits a char in {:?}", src);
        }
    }

    #[test]
    fn block_comment_wrapping_erases_all_tokens(
        pairs in prop::collection::vec((0usize..FRAGMENTS.len(), 0usize..SEPS.len()), 0..40)
    ) {
        let inner = splice(&pairs);
        // Comment nesting ignores string state, so only soups without
        // their own comment delimiters stay fully wrapped.
        prop_assume!(!inner.contains("/*") && !inner.contains("*/"));
        let src = format!("/* {inner} */ after");
        let toks = lex(&src);
        prop_assert_eq!(toks.len(), 1, "leak out of block comment in {:?}", src);
        prop_assert_eq!(toks[0].text(&src), "after");
    }
}
