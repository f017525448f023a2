//! Lexer-grade scanner: comment- and string-aware tokenization of Rust
//! source, plus the region computations (unsafe bodies, `#[cfg(test)]`
//! items) the rules consume.
//!
//! This is deliberately *not* a parser. The workspace is offline and
//! std-only, so no external syntax crates are available; instead the rules
//! are phrased so a faithful token stream is enough. The scanner's one hard
//! job is to never confuse code with comments or string contents — a rule
//! that fires on `"unwrap()"` inside a string literal, or misses an
//! `unsafe` because it sits after a doc comment, is worse than no rule.
//!
//! Handled: line comments, nested block comments, string literals with
//! escapes, raw strings (`r"…"`, `r#"…"#`), byte strings/chars, char
//! literals vs lifetimes, and raw identifiers.

/// One lexical token of the comment/string-stripped source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// Token payload.
    pub kind: TokKind,
}

/// Token payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character.
    Punct(char),
    /// String, char or byte literal (contents dropped on purpose: no rule
    /// may ever match inside a text literal).
    Lit,
    /// Number literal with its raw text (radix prefix, `_` separators and
    /// type suffix intact) — rule R6 checks values against guarded
    /// constants.
    Num(String),
}

/// One comment (line or block) with its text preserved, so rules can look
/// for `SAFETY:` annotations and `lint:allow(...)` directives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub start_line: u32,
    /// 1-based line the comment ends on (same as start for `//` comments).
    pub end_line: u32,
    /// Raw comment text, including the `//` / `/*` markers.
    pub text: String,
}

/// Scanner output: the token stream and the comment list.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Comment/string-stripped tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenize `src`. Never fails: unterminated constructs consume to EOF.
pub fn scan(src: &str) -> Scanned {
    let c: Vec<char> = src.chars().collect();
    let n = c.len();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut out = Scanned::default();

    while i < n {
        let ch = c[i];
        if ch == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if ch.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if ch == '/' && i + 1 < n && c[i + 1] == '/' {
            let start = line;
            let mut text = String::new();
            while i < n && c[i] != '\n' {
                text.push(c[i]);
                i += 1;
            }
            out.comments.push(Comment {
                start_line: start,
                end_line: start,
                text,
            });
            continue;
        }
        // Block comment (nested, per Rust).
        if ch == '/' && i + 1 < n && c[i + 1] == '*' {
            let start = line;
            let mut depth = 1usize;
            let mut text = String::from("/*");
            i += 2;
            while i < n && depth > 0 {
                if c[i] == '/' && i + 1 < n && c[i + 1] == '*' {
                    depth += 1;
                    text.push_str("/*");
                    i += 2;
                    continue;
                }
                if c[i] == '*' && i + 1 < n && c[i + 1] == '/' {
                    depth -= 1;
                    text.push_str("*/");
                    i += 2;
                    continue;
                }
                if c[i] == '\n' {
                    line += 1;
                }
                text.push(c[i]);
                i += 1;
            }
            out.comments.push(Comment {
                start_line: start,
                end_line: line,
                text,
            });
            continue;
        }
        // Plain string literal.
        if ch == '"' {
            let start = line;
            i += 1;
            while i < n {
                if c[i] == '\\' {
                    i += 2;
                    continue;
                }
                if c[i] == '\n' {
                    line += 1;
                }
                if c[i] == '"' {
                    i += 1;
                    break;
                }
                i += 1;
            }
            out.tokens.push(Token {
                line: start,
                kind: TokKind::Lit,
            });
            continue;
        }
        // Raw / byte string prefixes and raw identifiers.
        if ch == 'r' || ch == 'b' {
            if let Some(next) = lex_prefixed(&c, i, &mut line, &mut out.tokens) {
                i = next;
                continue;
            }
            // Fall through: plain identifier starting with r/b.
        }
        // Char literal vs lifetime.
        if ch == '\'' {
            if i + 1 < n && c[i + 1] == '\\' {
                // Escaped char literal: consume to the closing quote.
                let start = line;
                i += 2;
                while i < n && c[i] != '\'' {
                    if c[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i += 1;
                out.tokens.push(Token {
                    line: start,
                    kind: TokKind::Lit,
                });
            } else if i + 2 < n && c[i + 2] == '\'' && c[i + 1] != '\'' {
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Lit,
                });
                i += 3;
            } else {
                // Lifetime: drop the quote, the name lexes as an identifier.
                i += 1;
            }
            continue;
        }
        if ch.is_alphabetic() || ch == '_' {
            let start = line;
            let mut text = String::new();
            while i < n && (c[i].is_alphanumeric() || c[i] == '_') {
                text.push(c[i]);
                i += 1;
            }
            out.tokens.push(Token {
                line: start,
                kind: TokKind::Ident(text),
            });
            continue;
        }
        if ch.is_ascii_digit() {
            let start = line;
            let mut text = String::new();
            while i < n {
                if c[i].is_alphanumeric() || c[i] == '_' {
                    text.push(c[i]);
                    i += 1;
                    continue;
                }
                // Consume a '.' only when a digit follows (float literal,
                // not a method call like `0.add(…)` or tuple access).
                if c[i] == '.' && i + 1 < n && c[i + 1].is_ascii_digit() {
                    text.push('.');
                    i += 1;
                    continue;
                }
                break;
            }
            out.tokens.push(Token {
                line: start,
                kind: TokKind::Num(text),
            });
            continue;
        }
        out.tokens.push(Token {
            line,
            kind: TokKind::Punct(ch),
        });
        i += 1;
    }
    out
}

/// Try to lex `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` or a raw
/// identifier starting at `i`. Returns the position after the construct,
/// or `None` if this is a plain identifier.
fn lex_prefixed(c: &[char], i: usize, line: &mut u32, tokens: &mut Vec<Token>) -> Option<usize> {
    let n = c.len();
    let mut j = i;
    let mut saw_r = false;
    let mut saw_b = false;
    while j < n && (c[j] == 'r' || c[j] == 'b') && j - i < 2 {
        if c[j] == 'r' {
            saw_r = true;
        } else {
            saw_b = true;
        }
        j += 1;
    }
    // Byte char literal: b'x' / b'\n'.
    if saw_b && !saw_r && j < n && c[j] == '\'' {
        let start = *line;
        j += 1;
        if j < n && c[j] == '\\' {
            j += 1;
        }
        while j < n && c[j] != '\'' {
            j += 1;
        }
        tokens.push(Token {
            line: start,
            kind: TokKind::Lit,
        });
        return Some(j + 1);
    }
    let mut hashes = 0usize;
    while j < n && c[j] == '#' {
        hashes += 1;
        j += 1;
    }
    // Raw identifier (`r#ident`): treat the whole thing as an identifier.
    if saw_r && !saw_b && hashes == 1 && j < n && (c[j].is_alphabetic() || c[j] == '_') {
        let start = *line;
        let mut text = String::new();
        while j < n && (c[j].is_alphanumeric() || c[j] == '_') {
            text.push(c[j]);
            j += 1;
        }
        tokens.push(Token {
            line: start,
            kind: TokKind::Ident(text),
        });
        return Some(j);
    }
    if j >= n || c[j] != '"' {
        return None;
    }
    // We are in a string. Raw strings (any `r`) take no escapes and close
    // on `"` + the same number of hashes; byte strings take escapes.
    let start = *line;
    j += 1;
    while j < n {
        if !saw_r && c[j] == '\\' {
            j += 2;
            continue;
        }
        if c[j] == '\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if c[j] == '"' {
            let mut k = j + 1;
            let mut h = 0usize;
            while h < hashes && k < n && c[k] == '#' {
                h += 1;
                k += 1;
            }
            if h == hashes {
                tokens.push(Token {
                    line: start,
                    kind: TokKind::Lit,
                });
                return Some(k);
            }
        }
        j += 1;
    }
    tokens.push(Token {
        line: start,
        kind: TokKind::Lit,
    });
    Some(n)
}

impl Scanned {
    /// Is token `idx` the identifier `name`?
    pub fn is_ident(&self, idx: usize, name: &str) -> bool {
        matches!(self.tokens.get(idx), Some(Token { kind: TokKind::Ident(s), .. }) if s == name)
    }

    /// Is token `idx` the punctuation `p`?
    pub fn is_punct(&self, idx: usize, p: char) -> bool {
        matches!(self.tokens.get(idx), Some(Token { kind: TokKind::Punct(q), .. }) if *q == p)
    }

    /// The identifier text of token `idx`, if it is one.
    pub fn ident(&self, idx: usize) -> Option<&str> {
        match self.tokens.get(idx) {
            Some(Token {
                kind: TokKind::Ident(s),
                ..
            }) => Some(s),
            _ => None,
        }
    }

    /// Index of the `}` matching the `{` at `open` (brace-depth walk).
    pub fn matching_brace(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for (i, t) in self.tokens.iter().enumerate().skip(open) {
            match t.kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Token indices of every `unsafe` keyword (block, fn, impl, trait).
    pub fn unsafe_sites(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| self.is_ident(i, "unsafe"))
            .collect()
    }

    /// Inclusive line ranges of items gated behind `#[cfg(test)]` (or any
    /// `cfg(...)` attribute mentioning `test`, e.g. `cfg(all(test, …))`).
    pub fn cfg_test_regions(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < self.tokens.len() {
            let Some(after_attr) = self.cfg_test_attr_end(i) else {
                i += 1;
                continue;
            };
            // Skip any further attributes before the item itself.
            let mut m = after_attr;
            while self.is_punct(m, '#') {
                match self.skip_attr(m) {
                    Some(next) => m = next,
                    None => break,
                }
            }
            // The item's region runs to the matching brace of its first
            // `{`; items ending in `;` (e.g. `use`) have no region.
            let mut found = false;
            while m < self.tokens.len() {
                match self.tokens[m].kind {
                    TokKind::Punct('{') => {
                        if let Some(close) = self.matching_brace(m) {
                            out.push((self.tokens[i].line, self.tokens[close].line));
                            i = close + 1;
                            found = true;
                        }
                        break;
                    }
                    TokKind::Punct(';') => break,
                    _ => m += 1,
                }
            }
            if !found {
                i = after_attr;
            }
        }
        out
    }

    /// If tokens at `i` start a `#[cfg(…test…)]` attribute, return the
    /// index just past its closing `]`.
    fn cfg_test_attr_end(&self, i: usize) -> Option<usize> {
        if !self.is_punct(i, '#') || !self.is_punct(i + 1, '[') || !self.is_ident(i + 2, "cfg") {
            return None;
        }
        if !self.is_punct(i + 3, '(') {
            return None;
        }
        let mut depth = 1usize;
        let mut k = i + 4;
        let mut has_test = false;
        while k < self.tokens.len() && depth > 0 {
            match &self.tokens[k].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => depth -= 1,
                TokKind::Ident(s) if s == "test" => has_test = true,
                _ => {}
            }
            k += 1;
        }
        if has_test && self.is_punct(k, ']') {
            Some(k + 1)
        } else {
            None
        }
    }

    /// If tokens at `i` start any attribute `#[…]`, return the index just
    /// past its closing `]`.
    fn skip_attr(&self, i: usize) -> Option<usize> {
        let mut j = i + 1;
        if self.is_punct(j, '!') {
            j += 1;
        }
        if !self.is_punct(j, '[') {
            return None;
        }
        let mut depth = 0usize;
        while j < self.tokens.len() {
            match self.tokens[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j + 1);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Does the token stream contain the attribute argument sequence
    /// `name ( arg )` (e.g. `forbid(unsafe_code)`)? Good enough to check
    /// crate-root lint attributes without parsing attribute grammar.
    pub fn has_attr_call(&self, name: &str, arg: &str) -> bool {
        (0..self.tokens.len()).any(|i| {
            self.is_ident(i, name)
                && self.is_punct(i + 1, '(')
                && self.is_ident(i + 2, arg)
                && self.is_punct(i + 3, ')')
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(s: &Scanned) -> Vec<&str> {
        s.tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Ident(i) => Some(i.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let s = scan(
            r##"let x = "unsafe unwrap()"; // unsafe in comment
let y = r#"panic!"#; /* unsafe
   still comment */ let z = 'u';"##,
        );
        assert!(!idents(&s).contains(&"unsafe"));
        assert!(!idents(&s).contains(&"unwrap"));
        assert!(!idents(&s).contains(&"panic"));
        assert_eq!(s.comments.len(), 2);
        assert_eq!(s.comments[1].end_line, 3);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan("fn f<'a>(x: &'a [u8], c: char) -> &'a [u8] { let _q = 'z'; x }");
        // 'a lexes as identifier a; 'z' lexes as a literal.
        assert!(idents(&s).contains(&"a"));
        assert!(!idents(&s).contains(&"z"));
    }

    #[test]
    fn escaped_string_with_quote_does_not_derail() {
        let s = scan(r#"let a = "he said \"unsafe\""; let b = unsafe { 1 };"#);
        assert_eq!(idents(&s).iter().filter(|i| **i == "unsafe").count(), 1);
    }

    #[test]
    fn byte_and_raw_strings() {
        let s = scan(r##"let a = b"unsafe"; let b = br#"unwrap()"#; let c = b'x';"##);
        assert!(!idents(&s).contains(&"unsafe"));
        assert!(!idents(&s).contains(&"unwrap"));
    }

    #[test]
    fn float_literals_keep_method_calls_intact() {
        let s = scan("let a = 1.0f64; let b = p.add(1); let t = x.0;");
        assert!(idents(&s).contains(&"add"));
    }

    #[test]
    fn number_literals_keep_their_text() {
        let s = scan("let a = 256; let b = 0xFF_u32; let c = 1.5; let d = x.0;");
        let nums: Vec<&str> = s
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Num(n) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["256", "0xFF_u32", "1.5", "0"]);
    }

    #[test]
    fn cfg_test_region_covers_test_module() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let s = scan(src);
        assert_eq!(s.cfg_test_regions(), vec![(2, 5)]);
    }

    #[test]
    fn attr_call_detection() {
        let s = scan("#![forbid(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\n");
        assert!(s.has_attr_call("forbid", "unsafe_code"));
        assert!(s.has_attr_call("deny", "unsafe_op_in_unsafe_fn"));
        assert!(!s.has_attr_call("forbid", "missing_docs"));
    }
}
