//! A dependency-free Rust lexer producing spanned tokens.
//!
//! This is the one tokenizer of the crate: the lint rules match token
//! sequences ([`crate::rules`]), and the analyzer's item trees and
//! graphs ([`crate::items`], [`crate::graph`]) are built on the same
//! stream. Comments and whitespace produce no tokens and a string or
//! char literal is one token, so a pattern mentioned in a comment or a
//! string can never match code.
//!
//! The token alphabet is deliberately small: identifiers (keywords are
//! identifiers — the item parser decides), lifetimes, numbers, string
//! and char literals (one token each, raw strings included), and
//! single-byte punctuation. Multi-byte operators (`::`, `->`, `=>`,
//! `>>`) arrive as adjacent single-punct tokens; consumers check span
//! adjacency when it matters.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `RoutingOracle`, `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`) — the quote plus the name.
    Lifetime,
    /// Numeric literal, including suffixes (`42`, `0x1F`, `1u64`).
    Number,
    /// String literal: `"..."`, `r#"..."#`, `b"..."` — one token.
    Str,
    /// Char or byte-char literal: `'x'`, `'\n'`, `b'\0'`.
    Char,
    /// A single punctuation byte.
    Punct(u8),
}

/// One token with its byte span and 1-based line number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: usize,
}

impl Token {
    /// The token's text within its source.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// Whether this token is the given punctuation byte.
    pub fn is_punct(&self, b: u8) -> bool {
        self.kind == TokenKind::Punct(b)
    }
}

/// Whether two tokens are byte-adjacent (no whitespace or comment in
/// between) — how `::`, `->` and friends are recognised.
pub fn adjacent(a: &Token, b: &Token) -> bool {
    a.end == b.start
}

/// Index of the token that closes the `(`, `[` or `{` at `toks[open]`,
/// or None when it is not an opener or stays unclosed.
pub fn closing(toks: &[Token], open: usize) -> Option<usize> {
    let (o, c) = match toks.get(open)?.kind {
        TokenKind::Punct(b'(') => (b'(', b')'),
        TokenKind::Punct(b'[') => (b'[', b']'),
        TokenKind::Punct(b'{') => (b'{', b'}'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Lexes Rust source into tokens, skipping whitespace and comments.
///
/// The lexer never fails: unexpected bytes become punct tokens and an
/// unterminated literal runs to end of input. That makes it safe to run
/// over anything the workspace walker hands it.
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(src.len() / 4);
    let mut i = 0;
    let mut line = 1usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (len, nl) = plain_string_len(&bytes[i..]);
                out.push(Token {
                    kind: TokenKind::Str,
                    start: i,
                    end: i + len,
                    line,
                });
                line += nl;
                i += len;
            }
            b'r' | b'b' => {
                if let Some(open) = raw_string_open(&bytes[i..]) {
                    let hashes = open - if b == b'b' { 3 } else { 2 };
                    let (len, nl) = raw_string_len(&bytes[i..], open, hashes);
                    out.push(Token {
                        kind: TokenKind::Str,
                        start: i,
                        end: i + len,
                        line,
                    });
                    line += nl;
                    i += len;
                } else if b == b'b' && bytes.get(i + 1) == Some(&b'"') {
                    let (len, nl) = plain_string_len(&bytes[i + 1..]);
                    out.push(Token {
                        kind: TokenKind::Str,
                        start: i,
                        end: i + 1 + len,
                        line,
                    });
                    line += nl;
                    i += 1 + len;
                } else if b == b'b' && bytes.get(i + 1) == Some(&b'\'') {
                    match char_literal_len(&bytes[i + 1..]) {
                        Some(len) => {
                            out.push(Token {
                                kind: TokenKind::Char,
                                start: i,
                                end: i + 1 + len,
                                line,
                            });
                            i += 1 + len;
                        }
                        None => {
                            // `b'` not closing as a literal: treat `b` as
                            // an ident start and re-scan the quote.
                            let end = ident_end(bytes, i);
                            out.push(Token {
                                kind: TokenKind::Ident,
                                start: i,
                                end,
                                line,
                            });
                            i = end;
                        }
                    }
                } else {
                    let end = ident_end(bytes, i);
                    out.push(Token {
                        kind: TokenKind::Ident,
                        start: i,
                        end,
                        line,
                    });
                    i = end;
                }
            }
            b'\'' => match char_literal_len(&bytes[i..]) {
                Some(len) => {
                    out.push(Token {
                        kind: TokenKind::Char,
                        start: i,
                        end: i + len,
                        line,
                    });
                    i += len;
                }
                None => {
                    // Lifetime: quote plus the identifier after it.
                    let end = ident_end(bytes, i + 1);
                    out.push(Token {
                        kind: TokenKind::Lifetime,
                        start: i,
                        end: end.max(i + 1),
                        line,
                    });
                    i = end.max(i + 1);
                }
            },
            b'0'..=b'9' => {
                let mut end = i + 1;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                out.push(Token {
                    kind: TokenKind::Number,
                    start: i,
                    end,
                    line,
                });
                i = end;
            }
            _ if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => {
                let end = ident_end(bytes, i);
                out.push(Token {
                    kind: TokenKind::Ident,
                    start: i,
                    end,
                    line,
                });
                i = end;
            }
            _ => {
                out.push(Token {
                    kind: TokenKind::Punct(b),
                    start: i,
                    end: i + 1,
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// End offset of an identifier starting at `i` (at least `i` itself if
/// the byte there cannot start one).
fn ident_end(bytes: &[u8], i: usize) -> usize {
    let mut end = i;
    // Raw identifiers: `r#type`.
    if bytes.get(end) == Some(&b'r') && bytes.get(end + 1) == Some(&b'#') {
        end += 2;
    }
    while end < bytes.len()
        && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_' || bytes[end] >= 0x80)
    {
        end += 1;
    }
    end.max(i)
}

/// Length of a plain `"..."` literal starting at the opening quote, plus
/// the number of newlines inside. Unterminated literals run to EOF.
fn plain_string_len(bytes: &[u8]) -> (usize, usize) {
    let mut i = 1;
    let mut nl = 0;
    while i < bytes.len() {
        match bytes[i] {
            // An escaped newline (line continuation) still ends a source
            // line — count it or every later token's line drifts.
            b'\\' => {
                if bytes.get(i + 1) == Some(&b'\n') {
                    nl += 1;
                }
                i += 2;
            }
            b'\n' => {
                nl += 1;
                i += 1;
            }
            b'"' => return (i + 1, nl),
            _ => i += 1,
        }
    }
    (bytes.len(), nl)
}

/// Length of a raw-string opener (`r"`, `r#"`, `br##"`, ...) at the
/// start of `bytes`, or None.
fn raw_string_open(bytes: &[u8]) -> Option<usize> {
    let mut i = 0;
    if bytes.first() == Some(&b'b') {
        i += 1;
    }
    if bytes.get(i) != Some(&b'r') {
        return None;
    }
    i += 1;
    while bytes.get(i) == Some(&b'#') {
        i += 1;
    }
    if bytes.get(i) == Some(&b'"') {
        Some(i + 1)
    } else {
        None
    }
}

/// Total length of a raw string whose opener has length `open` and
/// `hashes` hash marks, plus newline count. Unterminated runs to EOF.
fn raw_string_len(bytes: &[u8], open: usize, hashes: usize) -> (usize, usize) {
    let mut i = open;
    let mut nl = 0;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            nl += 1;
            i += 1;
        } else if bytes[i] == b'"'
            && bytes.len() > i + hashes
            && bytes[i + 1..=i + hashes].iter().all(|&b| b == b'#')
        {
            return (i + 1 + hashes, nl);
        } else {
            i += 1;
        }
    }
    (bytes.len(), nl)
}

/// Length of a char/byte-char literal at the start of `bytes` (starting
/// at `'`), or None if this is a lifetime.
fn char_literal_len(bytes: &[u8]) -> Option<usize> {
    match bytes.get(1)? {
        b'\\' => {
            let mut i = 2;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'\'' => return Some(i + 1),
                    b'\n' => return None,
                    _ => i += 1,
                }
            }
            None
        }
        b'\'' => None,
        _ => {
            let mut i = 2;
            while i < bytes.len() && i <= 5 {
                if bytes[i] == b'\'' {
                    return Some(i + 1);
                }
                if bytes[i] & 0x80 == 0 {
                    break;
                }
                i += 1;
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<&str> {
        lex(src).iter().map(|t| t.text(src)).collect()
    }

    #[test]
    fn lexes_a_function_header() {
        assert_eq!(
            texts("pub fn f(x: u32) -> bool {}"),
            vec!["pub", "fn", "f", "(", "x", ":", "u32", ")", "-", ">", "bool", "{", "}"]
        );
    }

    #[test]
    fn comments_are_skipped_but_lines_advance() {
        let src = "a // one\n/* two\nthree */ b";
        let toks = lex(src);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn strings_are_single_tokens() {
        let toks = lex(r##"f("a(b)c", r#"x"y"#, b"z")"##);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 3);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(c: char) { let x = 'x'; let n = '\\n'; }";
        let toks = lex(src);
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            1
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Char).count(), 2);
    }

    #[test]
    fn double_colon_is_adjacent_puncts() {
        let toks = lex("a::b");
        assert!(toks[1].is_punct(b':') && toks[2].is_punct(b':'));
        assert!(adjacent(&toks[1], &toks[2]));
        let spaced = lex("a : :b");
        assert!(!adjacent(&spaced[1], &spaced[2]));
    }

    #[test]
    fn numbers_take_suffixes() {
        assert_eq!(texts("1u64 + 0x1F"), vec!["1u64", "+", "0x1F"]);
    }

    #[test]
    fn raw_idents_lex_whole() {
        assert_eq!(texts("r#type x"), vec!["r#type", "x"]);
    }

    #[test]
    fn unterminated_string_runs_to_eof() {
        let toks = lex("let s = \"open");
        assert_eq!(toks.last().map(|t| t.kind), Some(TokenKind::Str));
    }

    #[test]
    fn multiline_string_advances_lines() {
        let toks = lex("\"a\nb\"\nx");
        assert_eq!(toks[1].line, 3);
    }
}
