//! A minimal Rust lexer, sufficient for the token rules and structural
//! passes in [`crate::analyze`].
//!
//! Produces identifiers, punctuation, literals and lifetimes with line
//! and column numbers; comments (line, nested block, doc) are dropped.
//! Literals keep their source text for passes that read string contents
//! (e.g. counter-name mirrors); a literal is never an [`Kind::Ident`] or
//! [`Kind::Punct`] token, so no token rule can match inside text. This
//! is deliberately not a full parser: token patterns plus brace
//! matching are modeled faithfully by a hand lexer without a
//! syntax-tree dependency.

/// What a token is, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (raw identifiers lose their `r#` prefix).
    Ident,
    /// String, raw-string, byte-string, C-string or char literal, with
    /// its source text (quotes and any `r#`/`b`/`c` prefix included).
    Literal,
    /// Numeric literal.
    Number,
    /// `'lifetime` (distinguished from char literals).
    Lifetime,
    /// A single punctuation character (`.` `:` `{` `!` ...).
    Punct,
}

/// One lexed token: kind, text, and the 1-based line and byte column it
/// starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: Kind,
    pub text: String,
    pub line: usize,
    pub col: usize,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl Cursor<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src`, dropping comments and whitespace.
///
/// Unterminated strings/comments end the token stream at end of input
/// rather than erroring: the checks run on code that already compiles,
/// so recovery precision is not worth the complexity.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor { src: src.as_bytes(), pos: 0, line: 1, col: 1 };
    let mut out = Vec::new();
    while let Some(b) = cur.peek(0) {
        let line = cur.line;
        let col = cur.col;
        let start = cur.pos;
        let literal = |cur: &Cursor<'_>| Token {
            kind: Kind::Literal,
            text: src[start..cur.pos].into(),
            line,
            col,
        };
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek(1) == Some(b'/') => {
                while let Some(c) = cur.bump() {
                    if c == b'\n' {
                        break;
                    }
                }
            }
            b'/' if cur.peek(1) == Some(b'*') => skip_block_comment(&mut cur),
            b'r' if cur.peek(1) == Some(b'#') && cur.peek(2).is_some_and(is_ident_start) => {
                // Raw identifier r#ident — strip the prefix.
                cur.bump();
                cur.bump();
                out.push(lex_ident(&mut cur, line, col));
            }
            b'r' | b'b' | b'c' if starts_prefixed_string(&cur) => {
                lex_string_like(&mut cur);
                out.push(literal(&cur));
            }
            _ if is_ident_start(b) => out.push(lex_ident(&mut cur, line, col)),
            b'0'..=b'9' => {
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if is_ident_continue(c)
                        || c == b'.' && cur.peek(1).is_some_and(|d| d.is_ascii_digit())
                    {
                        text.push(cur.bump().unwrap_or(b'0') as char);
                    } else {
                        break;
                    }
                }
                out.push(Token { kind: Kind::Number, text, line, col });
            }
            b'"' => {
                lex_quoted(&mut cur, b'"');
                out.push(literal(&cur));
            }
            b'\'' => {
                if lex_char_or_lifetime(&mut cur) {
                    out.push(literal(&cur));
                } else {
                    out.push(Token { kind: Kind::Lifetime, text: String::new(), line, col });
                }
            }
            _ => {
                cur.bump();
                out.push(Token { kind: Kind::Punct, text: (b as char).to_string(), line, col });
            }
        }
    }
    out
}

fn lex_ident(cur: &mut Cursor<'_>, line: usize, col: usize) -> Token {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            text.push(cur.bump().unwrap_or(b'_') as char);
        } else {
            break;
        }
    }
    Token { kind: Kind::Ident, text, line, col }
}

fn skip_block_comment(cur: &mut Cursor<'_>) {
    cur.bump();
    cur.bump();
    let mut depth = 1usize;
    while depth > 0 {
        if cur.starts_with("/*") {
            cur.bump();
            cur.bump();
            depth += 1;
        } else if cur.starts_with("*/") {
            cur.bump();
            cur.bump();
            depth -= 1;
        } else if cur.bump().is_none() {
            return;
        }
    }
}

/// Is the cursor at a prefixed string literal? Covers raw (`r"`, `r#`),
/// byte (`b"`, `b'`, `br"`, `br#`) and C-string (`c"`, `cr"`, `cr#`)
/// forms. Plain identifiers like `crate` or `broken` do not match
/// because the prefix must be immediately followed by `"`, `'` or `#`.
fn starts_prefixed_string(cur: &Cursor<'_>) -> bool {
    let rest = &cur.src[cur.pos..];
    [&b"r\""[..], b"r#\"", b"r##", b"b\"", b"b'", b"br\"", b"br#", b"c\"", b"cr\"", b"cr#"]
        .iter()
        .any(|p| rest.starts_with(p))
}

/// Consumes a raw/byte/C string (or byte char) starting at `r`/`b`/`c`.
fn lex_string_like(cur: &mut Cursor<'_>) {
    let mut raw = false;
    while let Some(c) = cur.peek(0) {
        if c == b'r' {
            raw = true;
            cur.bump();
        } else if c == b'b' || c == b'c' {
            cur.bump();
        } else {
            break;
        }
    }
    if raw {
        let mut hashes = 0usize;
        while cur.peek(0) == Some(b'#') {
            hashes += 1;
            cur.bump();
        }
        cur.bump(); // opening quote
        let close: String = std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
        while !cur.starts_with(&close) {
            if cur.bump().is_none() {
                return;
            }
        }
        for _ in 0..close.len() {
            cur.bump();
        }
    } else if cur.peek(0) == Some(b'\'') {
        lex_quoted(cur, b'\'');
    } else {
        lex_quoted(cur, b'"');
    }
}

/// Consumes a `"`- or `'`-delimited literal honoring backslash escapes.
fn lex_quoted(cur: &mut Cursor<'_>, quote: u8) {
    cur.bump();
    while let Some(c) = cur.bump() {
        if c == b'\\' {
            cur.bump();
        } else if c == quote {
            return;
        }
    }
}

/// At a `'`: consumes a char literal (true) or lifetime (false).
fn lex_char_or_lifetime(cur: &mut Cursor<'_>) -> bool {
    // 'x' or '\n' is a char; 'ident (no closing quote right after the
    // identifier) is a lifetime. ''' (char of a quote) cannot occur
    // unescaped, so a quote right after the opener means a char too.
    let next = cur.peek(1);
    if next == Some(b'\\') {
        lex_quoted(cur, b'\'');
        return true;
    }
    if next.is_some_and(is_ident_start) {
        // Scan the identifier; a closing quote makes it a char literal
        // like 'a', otherwise it is a lifetime.
        let mut ahead = 2;
        while cur.peek(ahead).is_some_and(is_ident_continue) {
            ahead += 1;
        }
        if cur.peek(ahead) == Some(b'\'') {
            for _ in 0..=ahead {
                cur.bump();
            }
            return true;
        }
        cur.bump(); // the opening quote only: leave the ident to the lexer
        return false;
    }
    // Some other single char like '9' or punctuation.
    lex_quoted(cur, b'\'');
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).into_iter().filter(|t| t.kind == Kind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_never_yield_identifiers() {
        let src = r##"
            // unwrap in a comment
            /* panic! in /* nested */ block */
            let s = "call .unwrap() here";
            let r = r#"panic!("x")"#;
            value.unwrap();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|i| *i == "unwrap").count(), 1);
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = toks.iter().filter(|t| t.kind == Kind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == Kind::Literal).count();
        assert_eq!((lifetimes, chars), (2, 1));
    }

    #[test]
    fn raw_identifiers_lose_the_prefix() {
        assert_eq!(idents("r#type r#fn plain"), vec!["type", "fn", "plain"]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n  c");
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn columns_are_one_based_and_reset_per_line() {
        let toks = lex("ab cd\n  ef('x')");
        let spans: Vec<(usize, usize, &str)> =
            toks.iter().map(|t| (t.line, t.col, t.text.as_str())).collect();
        assert_eq!(
            spans,
            vec![(1, 1, "ab"), (1, 4, "cd"), (2, 3, "ef"), (2, 5, "("), (2, 6, "'x'"), (2, 9, ")")]
        );
    }

    #[test]
    fn multi_hash_raw_strings_terminate_at_matching_hashes() {
        // The inner "# must not close an r##-string.
        let src = r####"let s = r##"one "# two"##; tail"####;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "tail"]);
        let literals = lex(src).into_iter().filter(|t| t.kind == Kind::Literal).count();
        assert_eq!(literals, 1);
    }

    #[test]
    fn byte_chars_honor_escapes() {
        let toks = lex(r"let b = b'\''; done");
        assert_eq!(idents(r"let b = b'\''; done"), vec!["let", "b", "done"]);
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Literal).count(), 1);
    }

    #[test]
    fn c_string_literals_are_single_tokens() {
        // c"…" and cr#"…"# are literals, not a `c` ident plus a string;
        // `crate` must still lex as an identifier.
        let src = r###"let a = c"null\0"; let b = cr#"raw "c" str"#; crate::x"###;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b", "crate", "x"]);
        let literals = lex(src).into_iter().filter(|t| t.kind == Kind::Literal).count();
        assert_eq!(literals, 2);
    }

    #[test]
    fn literals_keep_their_source_text() {
        let src = r#"emit("cache_hit", 'x', b"raw")"#;
        let lits: Vec<String> =
            lex(src).into_iter().filter(|t| t.kind == Kind::Literal).map(|t| t.text).collect();
        assert_eq!(lits, vec!["\"cache_hit\"", "'x'", "b\"raw\""]);
    }

    #[test]
    fn underscore_lifetime_is_a_lifetime() {
        let toks = lex("fn f(x: &'_ str) {}");
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Lifetime).count(), 1);
    }
}
