//! A minimal Rust lexer: just enough structure for token-window lint rules.
//!
//! The environment is offline and `vendor/` carries no `syn`, so spider-lint
//! does not parse Rust — it tokenizes. Comments and string/char literals are
//! kept apart from code (so a hazard pattern quoted in a string or doc
//! comment never fires): a string literal is one opaque `Str` token, and
//! comments are retained on the side for the `// lint: allow(...)` pragma
//! lookup.

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// One punctuation character (`::` is two `:` tokens).
    Punct,
    /// String literal (`"…"`, `r"…"`, `b"…"`, `r#"…"#`); text is the body
    /// without quotes, escapes left as written.
    Str,
    /// Character literal (`'x'`, `'\n'`).
    Char,
    /// Lifetime (`'a`); text is the name without the tick.
    Lifetime,
    /// Numeric literal.
    Num,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for what is stripped).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// One comment (line or block), kept out of the token stream.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Body without the `//` / `/* */` markers.
    pub text: String,
}

/// A tokenized source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order, comments and whitespace removed.
    pub toks: Vec<Tok>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// The token at `i`, if in range.
    pub fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i)
    }

    /// True when token `i` is an identifier with exactly this text.
    pub fn is_ident(&self, i: usize, text: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
    }

    /// True when token `i` is the punctuation character `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
    }
}

/// Tokenizes `src`. Unterminated constructs are closed at end of input
/// rather than reported: the lint runs over code the compiler already
/// accepted, so error recovery is not worth structure.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = b.len();
    macro_rules! bump_lines {
        ($slice:expr) => {
            line += $slice.iter().filter(|&&c| c == b'\n').count() as u32
        };
    }
    while i < n {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && b[j] != b'\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: src[start..j].to_string(),
                });
                i = j;
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1u32;
                let mut j = start;
                while j < n && depth > 0 {
                    if b[j] == b'/' && j + 1 < n && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < n && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        if b[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    line: start_line,
                    text: src[start..end].to_string(),
                });
                i = j;
            }
            b'"' => {
                let (body_end, next) = scan_string(b, i + 1);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: src[i + 1..body_end].to_string(),
                    line,
                });
                bump_lines!(&b[i..next]);
                i = next;
            }
            b'r' | b'b' if is_literal_prefix(b, i) && !prev_is_ident_char(b, i) => {
                let (tok, next) = scan_prefixed_literal(src, b, i, line);
                bump_lines!(&b[i..next]);
                out.toks.push(tok);
                i = next;
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                if i + 1 < n && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_') {
                    let mut j = i + 1;
                    while j < n && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    if j < n && b[j] == b'\'' && j == i + 2 {
                        // 'x' — a one-character char literal.
                        out.toks.push(Tok {
                            kind: TokKind::Char,
                            text: src[i + 1..j].to_string(),
                            line,
                        });
                        i = j + 1;
                    } else {
                        out.toks.push(Tok {
                            kind: TokKind::Lifetime,
                            text: src[i + 1..j].to_string(),
                            line,
                        });
                        i = j;
                    }
                } else {
                    // Escaped or punctuation char literal: scan to the
                    // closing quote, honoring one backslash escape.
                    let mut j = i + 1;
                    if j < n && b[j] == b'\\' {
                        j += 2;
                    } else {
                        j += 1;
                    }
                    while j < n && b[j] != b'\'' {
                        j += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: src[i + 1..j.min(n)].to_string(),
                        line,
                    });
                    i = (j + 1).min(n);
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut j = i + 1;
                while j < n && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < n
                    && (b[j].is_ascii_alphanumeric()
                        || b[j] == b'_'
                        || (b[j] == b'.' && j + 1 < n && b[j + 1].is_ascii_digit()))
                {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            _ => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: src[i..i + 1].to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Scans a plain `"` string body starting at `from` (past the opening
/// quote); returns (body end, index past the closing quote).
fn scan_string(b: &[u8], from: usize) -> (usize, usize) {
    let mut j = from;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return (j, j + 1),
            _ => j += 1,
        }
    }
    (b.len(), b.len())
}

/// True when position `i` starts `r"`, `r#`, `b"`, `b'`, `br"` or `br#`.
fn is_literal_prefix(b: &[u8], i: usize) -> bool {
    let n = b.len();
    match b[i] {
        b'r' => i + 1 < n && (b[i + 1] == b'"' || b[i + 1] == b'#'),
        b'b' => {
            i + 1 < n
                && (b[i + 1] == b'"'
                    || b[i + 1] == b'\''
                    || (b[i + 1] == b'r' && i + 2 < n && (b[i + 2] == b'"' || b[i + 2] == b'#')))
        }
        _ => false,
    }
}

/// True when the byte before `i` can extend an identifier (so `hr"x"` is
/// the identifier `hr` followed by a string, not a raw-string prefix).
fn prev_is_ident_char(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// Scans a raw/byte string or byte char starting at its prefix letter.
fn scan_prefixed_literal(src: &str, b: &[u8], i: usize, line: u32) -> (Tok, usize) {
    let n = b.len();
    let mut j = i;
    while j < n && (b[j] == b'r' || b[j] == b'b') {
        j += 1;
    }
    let raw = src[i..j].contains('r');
    if j < n && b[j] == b'\'' {
        // b'x' byte char.
        let mut k = j + 1;
        if k < n && b[k] == b'\\' {
            k += 2;
        } else {
            k += 1;
        }
        while k < n && b[k] != b'\'' {
            k += 1;
        }
        return (
            Tok {
                kind: TokKind::Char,
                text: src[j + 1..k.min(n)].to_string(),
                line,
            },
            (k + 1).min(n),
        );
    }
    let mut hashes = 0usize;
    while raw && j < n && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || b[j] != b'"' {
        // Not actually a literal (e.g. `r#raw_ident`); emit as ident.
        let mut k = i;
        while k < n && (b[k].is_ascii_alphanumeric() || b[k] == b'_' || b[k] == b'#') {
            k += 1;
        }
        return (
            Tok {
                kind: TokKind::Ident,
                text: src[i..k].to_string(),
                line,
            },
            k.max(i + 1),
        );
    }
    let body_start = j + 1;
    let mut k = body_start;
    if raw {
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        while k < n && !b[k..].starts_with(&closer) {
            k += 1;
        }
        let end = k;
        (
            Tok {
                kind: TokKind::Str,
                text: src[body_start..end].to_string(),
                line,
            },
            (k + closer.len()).min(n),
        )
    } else {
        let (end, next) = scan_string(b, body_start);
        (
            Tok {
                kind: TokKind::Str,
                text: src[body_start..end].to_string(),
                line,
            },
            next,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_puncts_and_lines() {
        let l = lex("let x = a.b();\nfoo!");
        assert_eq!(
            l.toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            vec!["let", "x", "=", "a", ".", "b", "(", ")", ";", "foo", "!"]
        );
        assert_eq!(l.toks[0].line, 1);
        assert_eq!(l.toks[9].line, 2);
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("a // lint: allow(x): y\n/* block\nstill */ b");
        assert_eq!(l.toks.len(), 2);
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].text, " lint: allow(x): y");
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
    }

    #[test]
    fn strings_hide_their_contents_from_the_token_stream() {
        let l = lex(r#"f("a.unwrap() \" inner", r#inner)"#);
        assert!(l.toks.iter().all(|t| t.text != "unwrap"));
        assert_eq!(l.toks[2].kind, TokKind::Str);
        assert_eq!(l.toks[2].text, "a.unwrap() \\\" inner");
    }

    #[test]
    fn raw_and_byte_strings() {
        let l = lex("r#\"raw \" body\"# b\"bytes\" br#\"both\"#");
        let strs: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["raw \" body", "bytes", "both"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, vec!["x", "\\n"]);
    }

    #[test]
    fn numbers_lex_as_one_token() {
        assert_eq!(texts("1_000.5f64 0xFF"), vec!["1_000.5f64", "0xFF"]);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("a /* x /* y */ z */ b");
        assert_eq!(l.toks.len(), 2);
        assert_eq!(l.comments[0].text, " x /* y */ z ");
    }
}
