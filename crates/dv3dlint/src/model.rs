//! Structural view of one source file: items with their attributes, test
//! regions (`#[cfg(test)]` modules, `#[test]` functions), crate-root inner
//! attributes, and `dv3dlint: allow(...)` escape-hatch directives.
//!
//! This is not a parser for Rust — it is a brace-matching item scanner over
//! the token stream, which is all the shipped rules need. Function bodies
//! are kept as token ranges and never descended into as items.

use crate::lexer::{lex, Lexed, Tok};
use std::path::PathBuf;

/// Kinds of items the scanner distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Enum,
    Mod,
    /// `impl Type` or `impl Trait for Type`.
    Impl {
        /// Last path segment of the trait, when this is a trait impl.
        trait_name: Option<String>,
        /// Last path segment of the implementing type.
        type_name: String,
    },
    Other,
}

/// One scanned item.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// Item name (`fn`/`mod`/`enum` name; type name for impls; may be
    /// empty for `use`/`static`/other).
    pub name: String,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// Token index of the item keyword (`fn`, `mod`, …) — pass-1 parsing
    /// resumes from here to read signatures.
    pub kw_tok: usize,
    /// Flattened attribute texts, whitespace-free: `cfg(test)`,
    /// `non_exhaustive`, `derive(Debug,Clone)`, …
    pub attrs: Vec<String>,
    pub is_pub: bool,
    /// True when the item lives inside a test region (or is one itself).
    pub in_test: bool,
    /// Token-index range of the `{ … }` body, braces included.
    pub body: Option<(usize, usize)>,
}

/// A parsed `dv3dlint: allow(rule) -- reason` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: String,
    pub reason: String,
    /// The code line the directive suppresses.
    pub target_line: u32,
    /// The line the comment itself is on.
    pub directive_line: u32,
}

/// Structural model of one file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative display path.
    pub path: PathBuf,
    pub lexed: Lexed,
    /// Inner (`#![…]`) attribute texts, flattened.
    pub inner_attrs: Vec<String>,
    /// All items, outer-to-inner, in source order.
    pub items: Vec<Item>,
    pub allows: Vec<Allow>,
    /// Malformed directives: (line, problem).
    pub bad_allows: Vec<(u32, String)>,
}

impl FileModel {
    /// Lexes and scans `src`. `path` is only used for display.
    pub fn parse(path: PathBuf, src: &str) -> FileModel {
        let lexed = lex(src);
        let mut model = FileModel {
            path,
            lexed,
            inner_attrs: Vec::new(),
            items: Vec::new(),
            allows: Vec::new(),
            bad_allows: Vec::new(),
        };
        let end = model.lexed.tokens.len();
        let mut scanner = Scanner { model: &mut model, idx: 0 };
        scanner.items(end, false);
        model.collect_allows();
        model
    }

    /// True when an allow directive for `rule` targets `line`.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| a.rule == rule && a.target_line == line)
    }

    fn collect_allows(&mut self) {
        for c in &self.lexed.comments {
            if c.is_doc {
                continue; // docs may legitimately quote the directive syntax
            }
            let Some(pos) = c.text.find("dv3dlint:") else { continue };
            let rest = c.text[pos + "dv3dlint:".len()..].trim_start();
            let Some(rest) = rest.strip_prefix("allow(") else {
                self.bad_allows
                    .push((c.line, "expected `allow(<rule>) -- <reason>`".into()));
                continue;
            };
            let Some(close) = rest.find(')') else {
                self.bad_allows.push((c.line, "unclosed `allow(`".into()));
                continue;
            };
            let rule = rest[..close].trim().to_string();
            let tail = rest[close + 1..].trim_start();
            let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
            if rule.is_empty() || reason.is_empty() {
                self.bad_allows.push((
                    c.line,
                    "allow directives require a rule and a reason: \
                     `dv3dlint: allow(<rule>) -- <reason>`"
                        .into(),
                ));
                continue;
            }
            let target_line = if c.own_line {
                // directive on its own line suppresses the next code line
                self.lexed
                    .tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > c.end_line)
                    .unwrap_or(c.end_line)
            } else {
                c.line
            };
            self.allows.push(Allow {
                rule,
                reason: reason.to_string(),
                target_line,
                directive_line: c.line,
            });
        }
    }
}

/// The item scanner. Walks tokens linearly, recursing into `mod`/`impl`
/// bodies (item positions) but not into `fn` bodies (expressions).
struct Scanner<'a> {
    model: &'a mut FileModel,
    idx: usize,
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn", "mod", "struct", "enum", "union", "trait", "impl", "type", "use", "static", "const",
    "macro_rules", "macro", "extern",
];

impl Scanner<'_> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.model.lexed.tokens.get(i).map(|t| &t.tok)
    }

    fn line(&self, i: usize) -> u32 {
        self.model.lexed.tokens.get(i).map(|t| t.line).unwrap_or(0)
    }

    /// Scans item positions in `[self.idx, end)`.
    fn items(&mut self, end: usize, in_test: bool) {
        while self.idx < end {
            self.item(end, in_test);
        }
    }

    /// Scans one item (or skips one stray token).
    fn item(&mut self, end: usize, in_test: bool) {
        let mut attrs: Vec<String> = Vec::new();
        // attributes
        loop {
            match (self.tok(self.idx), self.tok(self.idx + 1), self.tok(self.idx + 2)) {
                (Some(Tok::Punct('#')), Some(Tok::Punct('[')), _) => {
                    let text = self.attr_text(self.idx + 1, end);
                    attrs.push(text);
                }
                (Some(Tok::Punct('#')), Some(Tok::Punct('!')), Some(Tok::Punct('['))) => {
                    let text = self.attr_text(self.idx + 2, end);
                    self.model.inner_attrs.push(text);
                }
                _ => break,
            }
        }
        // visibility + qualifiers
        let mut is_pub = false;
        let mut kw: Option<String> = None;
        let mut kw_line = 0u32;
        let mut kw_tok = 0usize;
        while self.idx < end {
            match self.tok(self.idx) {
                Some(Tok::Ident(s)) if s == "pub" => {
                    is_pub = true;
                    self.idx += 1;
                    // pub(crate) / pub(in path)
                    if self.tok(self.idx) == Some(&Tok::Punct('(')) {
                        self.skip_balanced('(', ')', end);
                    }
                }
                Some(Tok::Ident(s))
                    if matches!(s.as_str(), "unsafe" | "async" | "default") =>
                {
                    self.idx += 1;
                }
                Some(Tok::Ident(s)) if s == "extern" && !attrs.is_empty() => {
                    // extern "C" fn — qualifier form only when followed by Str
                    if matches!(self.tok(self.idx + 1), Some(Tok::Str)) {
                        self.idx += 2;
                    } else {
                        kw = Some("extern".into());
                        kw_line = self.line(self.idx);
                        kw_tok = self.idx;
                        self.idx += 1;
                        break;
                    }
                }
                Some(Tok::Ident(s)) if s == "const" => {
                    // `const fn` qualifier vs `const X: T = …` item
                    if matches!(self.tok(self.idx + 1), Some(Tok::Ident(n)) if n == "fn") {
                        self.idx += 1;
                    } else {
                        kw = Some("const".into());
                        kw_line = self.line(self.idx);
                        kw_tok = self.idx;
                        self.idx += 1;
                        break;
                    }
                }
                Some(Tok::Ident(s)) if ITEM_KEYWORDS.contains(&s.as_str()) => {
                    kw = Some(s.clone());
                    kw_line = self.line(self.idx);
                    kw_tok = self.idx;
                    self.idx += 1;
                    break;
                }
                _ => break,
            }
        }
        let Some(kw) = kw else {
            // not an item start (stray token in a malformed region): skip it
            self.idx += 1;
            return;
        };

        // name
        let name = match kw.as_str() {
            "impl" => String::new(), // resolved below
            "macro_rules" => {
                if self.tok(self.idx) == Some(&Tok::Punct('!')) {
                    self.idx += 1;
                }
                self.next_ident()
            }
            _ => self.next_ident(),
        };

        // impl header: `impl<G> Trait for Type` / `impl Type`
        let kind = if kw == "impl" {
            let mut path: Vec<String> = Vec::new();
            let mut trait_name: Option<String> = None;
            let mut depth = (0i32, 0i32); // (), []
            while self.idx < end {
                match self.tok(self.idx) {
                    Some(Tok::Punct('{')) if depth == (0, 0) => break,
                    Some(Tok::Punct(';')) if depth == (0, 0) => break,
                    Some(Tok::Punct('(')) => depth.0 += 1,
                    Some(Tok::Punct(')')) => depth.0 -= 1,
                    Some(Tok::Punct('[')) => depth.1 += 1,
                    Some(Tok::Punct(']')) => depth.1 -= 1,
                    Some(Tok::Ident(s)) if s == "for" && depth == (0, 0) => {
                        trait_name = path.last().cloned();
                        path.clear();
                    }
                    Some(Tok::Ident(s)) if s == "where" && depth == (0, 0) => {}
                    Some(Tok::Ident(s)) => path.push(s.clone()),
                    _ => {}
                }
                self.idx += 1;
            }
            ItemKind::Impl {
                trait_name,
                type_name: path.last().cloned().unwrap_or_default(),
            }
        } else {
            match kw.as_str() {
                "fn" => ItemKind::Fn,
                "enum" => ItemKind::Enum,
                "mod" => ItemKind::Mod,
                _ => ItemKind::Other,
            }
        };

        // body / terminator
        let body = self.find_body(end);

        let is_test_item = in_test
            || attrs.iter().any(|a| {
                a == "test"
                    || a.ends_with("::test")
                    || (a.starts_with("cfg") && a.contains("test"))
            });
        let recurse = matches!(kind, ItemKind::Mod | ItemKind::Impl { .. });
        self.model.items.push(Item {
            kind,
            name,
            line: kw_line,
            kw_tok,
            attrs,
            is_pub,
            in_test: is_test_item,
            body,
        });
        if let (true, Some((open, close))) = (recurse, body) {
            let save = self.idx;
            self.idx = open + 1;
            self.items(close, is_test_item);
            self.idx = save;
        }
    }

    /// Reads `[ … ]` starting at `open_idx`, advancing `self.idx` past the
    /// close; returns the flattened whitespace-free text between brackets.
    fn attr_text(&mut self, open_idx: usize, end: usize) -> String {
        let mut depth = 0i32;
        let mut text = String::new();
        let mut i = open_idx;
        while i < end {
            match self.tok(i) {
                Some(Tok::Punct('[')) => {
                    depth += 1;
                    if depth > 1 {
                        text.push('[');
                    }
                }
                Some(Tok::Punct(']')) => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                    text.push(']');
                }
                Some(Tok::Ident(s)) => {
                    if text.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                        text.push(' ');
                    }
                    text.push_str(s);
                }
                Some(Tok::Punct(c)) => text.push(*c),
                Some(Tok::Str) => text.push('"'),
                Some(Tok::Num(_)) => text.push('0'),
                Some(Tok::Lifetime) => text.push('\''),
                None => break,
            }
            i += 1;
        }
        self.idx = i;
        text
    }

    /// From the current position, finds the item's `{ … }` body (token
    /// range, braces included) or consumes through the terminating `;`.
    /// Leaves `self.idx` one past the item.
    fn find_body(&mut self, end: usize) -> Option<(usize, usize)> {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while self.idx < end {
            match self.tok(self.idx) {
                Some(Tok::Punct('(')) => paren += 1,
                Some(Tok::Punct(')')) => paren -= 1,
                Some(Tok::Punct('[')) => bracket += 1,
                Some(Tok::Punct(']')) => bracket -= 1,
                Some(Tok::Punct(';')) if paren == 0 && bracket == 0 => {
                    self.idx += 1;
                    return None;
                }
                Some(Tok::Punct('{')) if paren == 0 && bracket == 0 => {
                    let open = self.idx;
                    let close = self.match_brace(open, end);
                    self.idx = close + 1;
                    return Some((open, close));
                }
                None => return None,
                _ => {}
            }
            self.idx += 1;
        }
        None
    }

    /// Index of the `}` matching the `{` at `open`.
    fn match_brace(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            match self.tok(i) {
                Some(Tok::Punct('{')) => depth += 1,
                Some(Tok::Punct('}')) => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end.saturating_sub(1)
    }

    /// Skips a balanced `open … close` group if present.
    fn skip_balanced(&mut self, open: char, close: char, end: usize) {
        if self.tok(self.idx) != Some(&Tok::Punct(open)) {
            return;
        }
        let mut depth = 0i32;
        while self.idx < end {
            match self.tok(self.idx) {
                Some(Tok::Punct(c)) if *c == open => depth += 1,
                Some(Tok::Punct(c)) if *c == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.idx += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.idx += 1;
        }
    }

    fn next_ident(&mut self) -> String {
        if let Some(Tok::Ident(s)) = self.tok(self.idx) {
            let s = s.clone();
            self.idx += 1;
            s
        } else {
            String::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileModel {
        FileModel::parse(PathBuf::from("mem.rs"), src)
    }

    /// Names of the items `parse` marks as test code.
    fn test_items(m: &FileModel) -> Vec<&str> {
        m.items.iter().filter(|i| i.in_test).map(|i| i.name.as_str()).collect()
    }

    #[test]
    fn cfg_test_mod_marks_its_items_as_test() {
        let src = "\
pub fn lib_code() { x.unwrap(); }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { y.unwrap(); }
}
";
        assert_eq!(test_items(&parse(src)), ["tests", "t"]);
    }

    #[test]
    fn test_fn_outside_mod_is_a_test_item() {
        let src = "#[test]\nfn standalone() { a.unwrap(); }\nfn real() {}\n";
        assert_eq!(test_items(&parse(src)), ["standalone"]);
    }

    #[test]
    fn items_and_impls_are_scanned() {
        let src = "\
#[non_exhaustive]
#[derive(Debug)]
pub enum FooError { A, B }

impl std::error::Error for FooError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> { None }
}

impl FooError { pub fn helper(&self) {} }
";
        let m = parse(src);
        let e = m.items.iter().find(|i| i.kind == ItemKind::Enum).expect("enum");
        assert_eq!(e.name, "FooError");
        assert!(e.is_pub);
        assert!(e.attrs.iter().any(|a| a == "non_exhaustive"));
        let trait_impl = m
            .items
            .iter()
            .find(|i| matches!(&i.kind, ItemKind::Impl { trait_name: Some(t), .. } if t == "Error"))
            .expect("trait impl");
        assert!(matches!(&trait_impl.kind,
            ItemKind::Impl { type_name, .. } if type_name == "FooError"));
        // the source() fn was scanned inside the impl body
        assert!(m.items.iter().any(|i| i.kind == ItemKind::Fn && i.name == "source"));
        assert!(m.items.iter().any(|i| i.kind == ItemKind::Fn && i.name == "helper"));
    }

    #[test]
    fn inner_attrs_are_collected() {
        let src = "#![forbid(unsafe_code)]\n#![deny(unused_must_use)]\nfn x() {}\n";
        let m = parse(src);
        assert_eq!(m.inner_attrs, vec!["forbid(unsafe_code)", "deny(unused_must_use)"]);
    }

    #[test]
    fn allow_directives_parse_with_reasons() {
        let src = "\
fn f() {
    // dv3dlint: allow(mask_propagation) -- unmasked weights buffer
    x.data();
    y.data(); // dv3dlint: allow(mask_propagation) -- same-line form
    z.data(); // dv3dlint: allow(mask_propagation)
}
";
        let m = parse(src);
        assert!(m.is_allowed("mask_propagation", 3), "own-line targets next code line");
        assert!(m.is_allowed("mask_propagation", 4), "trailing targets its own line");
        assert!(!m.is_allowed("mask_propagation", 5), "reason is mandatory");
        assert_eq!(m.bad_allows.len(), 1);
        assert_eq!(m.bad_allows[0].0, 5);
    }

    #[test]
    fn fn_bodies_are_token_ranges() {
        let src = "fn outer() { let c = |x: u32| x + 1; match c(1) { _ => {} } }";
        let m = parse(src);
        let f = m.items.iter().find(|i| i.kind == ItemKind::Fn).expect("fn");
        let (open, close) = f.body.expect("body");
        assert!(matches!(m.lexed.tokens[open].tok, Tok::Punct('{')));
        assert!(matches!(m.lexed.tokens[close].tok, Tok::Punct('}')));
        assert_eq!(close, m.lexed.tokens.len() - 1);
    }
}
