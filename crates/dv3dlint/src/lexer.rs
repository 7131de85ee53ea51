//! A minimal Rust lexer: just enough fidelity that the rules never mistake
//! string/comment contents for code. Produces a flat token stream (with line
//! numbers) plus the comment list (allow-directives live in comments).
//!
//! Known simplifications, acceptable for a lint that only inspects this
//! workspace: numeric literals are lexed loosely (`1e-3` becomes three
//! tokens) and shebang lines are treated as comments.

/// One lexed token. Literal contents are discarded — no rule looks inside
/// strings or numbers, only at identifiers and punctuation shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `unwrap`, `Error`, …).
    Ident(String),
    /// Single punctuation character (`.`, `(`, `!`, …).
    Punct(char),
    /// Lifetime (`'a`) — kept distinct so `'a` is never read as a char.
    Lifetime,
    /// String / raw-string / byte-string / char literal.
    Str,
    /// Numeric literal (loosely lexed; the text is kept so dataflow can
    /// tell float literals like `0.0` from integers).
    Num(String),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// A comment (line or block), with its text and extent.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on.
    pub end_line: u32,
    /// True when no token precedes the comment on its starting line — the
    /// comment owns the line, so an allow-directive in it targets the next
    /// code line rather than this one.
    pub own_line: bool,
    /// True for doc comments (`///`, `//!`, `/** */`, `/*! */`). Allow
    /// directives are only honoured in plain comments, so documentation
    /// *describing* the directive syntax is never parsed as a directive.
    pub is_doc: bool,
}

/// Lexer output: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Tokenizes `src`. Never fails: unterminated literals simply swallow the
/// rest of the file, which is the least-bad behaviour for a linter.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // line of the most recently emitted token — drives Comment::own_line
    let mut last_tok_line: u32 = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != '\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    text: b[start..j].iter().collect(),
                    line,
                    end_line: line,
                    own_line: last_tok_line != line,
                    is_doc: matches!(b.get(start), Some('/') | Some('!')),
                });
                i = j;
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let start_line = line;
                let own_line = last_tok_line != line;
                let mut depth = 1usize;
                let mut j = i + 2;
                let text_start = j;
                while j < b.len() && depth > 0 {
                    if b[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == '/' && b.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if b[j] == '*' && b.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let text_end = j.saturating_sub(2).max(text_start);
                out.comments.push(Comment {
                    text: b[text_start..text_end].iter().collect(),
                    line: start_line,
                    end_line: line,
                    own_line,
                    is_doc: matches!(b.get(text_start), Some('*') | Some('!')),
                });
                i = j;
            }
            '"' => {
                i = skip_string(&b, i, &mut line);
                out.tokens.push(Token { tok: Tok::Str, line });
                last_tok_line = line;
            }
            'r' | 'b' | 'c' if is_raw_or_byte_string(&b, i) => {
                let tok_line = line;
                i = skip_prefixed_string(&b, i, &mut line);
                out.tokens.push(Token { tok: Tok::Str, line: tok_line });
                last_tok_line = line;
            }
            '\'' => {
                // lifetime or char literal
                if is_char_literal(&b, i) {
                    i = skip_char_literal(&b, i);
                    out.tokens.push(Token { tok: Tok::Str, line });
                } else {
                    i += 1;
                    while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    out.tokens.push(Token { tok: Tok::Lifetime, line });
                }
                last_tok_line = line;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    tok: Tok::Ident(b[start..i].iter().collect()),
                    line,
                });
                last_tok_line = line;
            }
            c if c.is_ascii_digit() => {
                // loose: digits plus ident-ish continuation and dots (0xff,
                // 1_000, 3.14, 12u64); `1e-3` splits, which no rule minds
                let start = i;
                i += 1;
                while i < b.len()
                    && (b[i].is_alphanumeric()
                        || b[i] == '_'
                        || (b[i] == '.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
                {
                    i += 1;
                }
                out.tokens.push(Token { tok: Tok::Num(b[start..i].iter().collect()), line });
                last_tok_line = line;
            }
            c => {
                out.tokens.push(Token { tok: Tok::Punct(c), line });
                last_tok_line = line;
                i += 1;
            }
        }
    }
    out
}

/// True when position `i` starts `r"`, `r#"`, `b"`, `br#"`, `b'`, `c"`, ….
fn is_raw_or_byte_string(b: &[char], i: usize) -> bool {
    let mut j = i;
    // up to two prefix letters (br, rb is not legal but harmless to accept)
    for _ in 0..2 {
        match b.get(j) {
            Some('r' | 'b' | 'c') => j += 1,
            _ => break,
        }
    }
    while b.get(j) == Some(&'#') {
        j += 1;
    }
    matches!(b.get(j), Some('"')) || (b.get(i) == Some(&'b') && b.get(i + 1) == Some(&'\''))
}

/// Skips a plain `"…"` string starting at `i` (the opening quote); returns
/// the index one past the closing quote. Tracks newlines into `line`.
fn skip_string(b: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Skips `r#"…"#` / `b"…"` / `b'x'` style literals starting at the prefix.
fn skip_prefixed_string(b: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i;
    let mut raw = false;
    for _ in 0..2 {
        match b.get(j) {
            Some('r') => {
                raw = true;
                j += 1;
            }
            Some('b' | 'c') => j += 1,
            _ => break,
        }
    }
    let mut hashes = 0usize;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&'\'') {
        // byte char literal b'x'
        return skip_char_literal(b, j);
    }
    if b.get(j) != Some(&'"') {
        return j + 1; // defensive: not actually a string
    }
    j += 1;
    while j < b.len() {
        match b[j] {
            '\n' => {
                *line += 1;
                j += 1;
            }
            '\\' if !raw => j += 2,
            '"' => {
                let mut k = j + 1;
                let mut seen = 0usize;
                while seen < hashes && b.get(k) == Some(&'#') {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return k;
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Distinguishes `'x'` / `'\n'` (char literal) from `'a` (lifetime) at a
/// leading quote.
fn is_char_literal(b: &[char], i: usize) -> bool {
    match b.get(i + 1) {
        Some('\\') => true,
        Some(&c) if c.is_alphanumeric() || c == '_' => {
            // 'a' is a char only if the quote closes right after one ident
            // char; 'abc is a lifetime (lexically)
            b.get(i + 2) == Some(&'\'')
        }
        Some(_) => true, // '(' etc: a char literal like '('
        None => false,
    }
}

/// Skips a char literal starting at the quote; returns one past the close.
fn skip_char_literal(b: &[char], i: usize) -> usize {
    let mut j = i + 1;
    if b.get(j) == Some(&'\\') {
        j += 2;
        // \u{…}
        while j < b.len() && b[j] != '\'' {
            j += 1;
        }
        return j + 1;
    }
    while j < b.len() && b[j] != '\'' {
        j += 1;
    }
    j + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let src = r##"
            // unwrap() in a line comment
            /* unwrap() in a /* nested */ block */
            let s = "unwrap()";
            let r = r#"panic!("x")"#;
            real.unwrap();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "unwrap").count(), 1);
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; x }";
        let lexed = lex(src);
        let lifetimes = lexed.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let chars = lexed.tokens.iter().filter(|t| t.tok == Tok::Str).count();
        assert_eq!(lifetimes, 3);
        assert_eq!(chars, 1);
    }

    #[test]
    fn line_numbers_track_multiline_strings() {
        let src = "let a = \"one\ntwo\";\nb.unwrap();";
        let lexed = lex(src);
        let unwrap = lexed
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("unwrap".into()))
            .expect("unwrap token");
        assert_eq!(unwrap.line, 3);
    }

    #[test]
    fn own_line_flag_distinguishes_trailing_comments() {
        let src = "x(); // trailing\n// own line\ny();";
        let lexed = lex(src);
        assert!(!lexed.comments[0].own_line);
        assert!(lexed.comments[1].own_line);
    }

    #[test]
    fn byte_and_raw_hash_strings() {
        let src = r###"let g = *b"!!not-json"; let r = r##"a "#quote" b"##; t.unwrap();"###;
        let ids = idents(src);
        // the `b`/`r` string prefixes are consumed with their literals; the
        // plain variable named `r` (followed by a space) stays an ident
        assert_eq!(ids, vec!["let", "g", "let", "r", "t", "unwrap"]);
    }
}
