//! R1 `no_panic`: library code on render/regrid/protocol paths must not
//! be able to panic. Bans `.unwrap()`, `.expect(…)`, `panic!`,
//! `unreachable!`, `todo!` and `unimplemented!` in non-test code of the
//! configured crates, and `expr[…]` indexing in the configured hot-path
//! files. Tests, benches and examples are exempt; invariant-backed sites
//! use `// dv3dlint: allow(no_panic) -- <why the invariant holds>`.

use super::Rule;
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::model::FileModel;
use crate::workspace::{CrateModel, Workspace};

#[derive(Debug)]
pub struct NoPanic;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can directly precede `[` starting an array literal or
/// slice pattern — those brackets are not indexing.
const NON_INDEX_PRECEDERS: &[&str] = &[
    "let", "in", "if", "while", "match", "return", "break", "mut", "ref", "as", "else", "move",
];

impl Rule for NoPanic {
    fn id(&self) -> &'static str {
        "no_panic"
    }

    fn describe(&self) -> &'static str {
        "no unwrap/expect/panic!/unreachable!/todo! (or hot-path indexing) in library code"
    }

    fn check_crate(
        &self,
        krate: &CrateModel,
        _ws: &Workspace,
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        if !cfg.no_panic_enabled || !krate.in_scope(&cfg.no_panic_crates) {
            return;
        }
        for file in &krate.files {
            let hot = cfg
                .indexing_hot_paths
                .iter()
                .any(|h| file.path.as_os_str().to_string_lossy().ends_with(h.as_str()));
            check_file(self.id(), file, hot, out);
        }
    }
}

fn check_file(rule: &'static str, file: &FileModel, hot: bool, out: &mut Vec<Diagnostic>) {
    let toks = &file.lexed.tokens;
    let mut push = |line: u32, message: String| {
        if file.is_test_line(line) {
            return;
        }
        out.push(Diagnostic {
            file: file.path.clone(),
            line,
            rule,
            message,
            hint: Some("return a `Result` (or use `get`/pattern matching) instead".into()),
            suppressed: file.is_allowed(rule, line),
        });
    };
    for i in 0..toks.len() {
        let line = toks[i].line;
        match &toks[i].tok {
            Tok::Ident(name)
                if name == "unwrap"
                    && matches!(toks.get(i.wrapping_sub(1)).map(|t| &t.tok), Some(Tok::Punct('.')))
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                    && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(')'))) =>
            {
                push(
                    line,
                    "`.unwrap()` in library code: propagate with `?`, handle the None/Err \
                     arm, or add `// dv3dlint: allow(no_panic) -- <invariant>`"
                        .into(),
                );
            }
            Tok::Ident(name)
                if name == "expect"
                    && matches!(toks.get(i.wrapping_sub(1)).map(|t| &t.tok), Some(Tok::Punct('.')))
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) =>
            {
                push(
                    line,
                    "`.expect(…)` in library code: propagate with `?` or document the \
                     invariant via `dv3dlint: allow(no_panic)`"
                        .into(),
                );
            }
            // an actual macro invocation, not e.g. a variable named `todo`
            Tok::Ident(name)
                if PANIC_MACROS.contains(&name.as_str())
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')))
                    && !matches!(toks.get(i.wrapping_sub(1)).map(|t| &t.tok), Some(Tok::Punct('.'))) =>
            {
                push(
                    line,
                    format!(
                        "`{name}!` in library code: return a typed error instead \
                         (CdmsError / VtkError / WallError / …)"
                    ),
                );
            }
            Tok::Punct('[') if hot && i > 0 => {
                let indexing = match &toks[i - 1].tok {
                    Tok::Ident(prev) => !NON_INDEX_PRECEDERS.contains(&prev.as_str()),
                    Tok::Punct(')') | Tok::Punct(']') => true,
                    _ => false,
                };
                if indexing {
                    push(
                        line,
                        "indexing in a hot-path file can panic on out-of-bounds: use \
                         `.get(…)` / `.get_mut(…)` and handle the miss"
                            .into(),
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::{cfg, lines, run_on};

    const FIXTURE: &str = r#"
pub fn bad(a: Option<u32>, b: Result<u32, ()>) -> u32 {
    let x = a.unwrap();
    let y = b.expect("always ok");
    if x > y { panic!("boom") }
    match x { 0 => unreachable!(), 1 => todo!(), _ => x }
}

pub fn fine(a: Option<u32>) -> u32 {
    a.unwrap_or(0)
}

pub fn justified(v: &[u32]) -> u32 {
    *v.last().unwrap() // dv3dlint: allow(no_panic) -- caller guarantees non-empty
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
        panic!("fine in tests");
    }
}
"#;

    #[test]
    fn flags_every_panic_construct_outside_tests() {
        let diags = run_on(&NoPanic, "cdms", "crates/cdms/src/x.rs", FIXTURE, &cfg());
        assert_eq!(lines(&diags), vec![3, 4, 5, 6, 6]);
        // the allow-suppressed unwrap is still counted, as suppressed
        assert_eq!(diags.iter().filter(|d| d.suppressed).count(), 1);
    }

    #[test]
    fn out_of_scope_crates_are_skipped() {
        let diags = run_on(&NoPanic, "vendor-thing", "x.rs", FIXTURE, &cfg());
        assert!(diags.is_empty());
    }

    #[test]
    fn unwrap_or_and_named_fields_do_not_match() {
        let src = "fn f(o: Option<u32>) -> u32 { let unwrap = 1; o.unwrap_or(unwrap) }";
        let diags = run_on(&NoPanic, "cdms", "x.rs", src, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn indexing_flagged_only_in_hot_paths() {
        let src = "\
pub fn f(v: &[u32], i: usize) -> u32 {
    let arr = [1, 2, 3];
    let ok = v.get(i);
    v[i] + arr[0] + ok.map_or(0, |x| *x)
}
";
        let mut c = cfg();
        c.indexing_hot_paths = vec!["crates/hyperwall/src/protocol.rs".into()];
        let cold = run_on(&NoPanic, "hyperwall", "crates/hyperwall/src/client.rs", src, &c);
        assert!(cold.is_empty(), "{cold:?}");
        let hot = run_on(&NoPanic, "hyperwall", "crates/hyperwall/src/protocol.rs", src, &c);
        assert_eq!(lines(&hot), vec![4, 4], "v[i] and arr[0], not the literal");
    }
}
