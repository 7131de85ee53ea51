//! R4 `error_hygiene`: every public `enum *Error` must be
//! `#[non_exhaustive]` (so adding a failure mode is not a breaking change
//! across the workspace) and must have a `std::error::Error` impl that
//! implements `source()` (so wrapped causes stay walkable for operators
//! debugging a wall node). Escape hatch: `dv3dlint: allow(error_hygiene)`.

use super::Rule;
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::model::ItemKind;
use crate::workspace::{CrateModel, Workspace};

#[derive(Debug)]
pub struct ErrorHygiene;

impl Rule for ErrorHygiene {
    fn id(&self) -> &'static str {
        "error_hygiene"
    }

    fn describe(&self) -> &'static str {
        "public *Error enums must be #[non_exhaustive] and implement source()"
    }

    fn check_crate(
        &self,
        krate: &CrateModel,
        _ws: &Workspace,
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        if !cfg.error_hygiene_enabled || !krate.in_scope(&cfg.error_hygiene_crates) {
            return;
        }
        // crate-wide pass: the enum and its Error impl may live in
        // different files
        let mut impls_with_source: Vec<String> = Vec::new();
        for file in &krate.files {
            for item in &file.items {
                let ItemKind::Impl { trait_name: Some(t), type_name } = &item.kind else {
                    continue;
                };
                if t != "Error" {
                    continue;
                }
                let Some((open, close)) = item.body else { continue };
                let toks = &file.lexed.tokens;
                let has_source = (open..close).any(|i| {
                    matches!(&toks[i].tok, Tok::Ident(a) if a == "fn")
                        && matches!(toks.get(i + 1).map(|t| &t.tok),
                                    Some(Tok::Ident(b)) if b == "source")
                });
                if has_source {
                    impls_with_source.push(type_name.clone());
                }
            }
        }
        for file in &krate.files {
            for item in &file.items {
                if item.kind != ItemKind::Enum
                    || !item.is_pub
                    || item.in_test
                    || !item.name.ends_with("Error")
                {
                    continue;
                }
                let suppressed = file.is_allowed(self.id(), item.line);
                if !item.attrs.iter().any(|a| a == "non_exhaustive") {
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: item.line,
                        rule: self.id(),
                        message: format!(
                            "public error enum `{}` is not `#[non_exhaustive]` — adding a \
                             failure mode would break every downstream match",
                            item.name
                        ),
                        hint: Some("add `#[non_exhaustive]` above the enum".into()),
                        suppressed,
                    });
                }
                if !impls_with_source.iter().any(|t| t == &item.name) {
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: item.line,
                        rule: self.id(),
                        message: format!(
                            "`{}` has no `std::error::Error` impl with `fn source()` — \
                             wrapped causes are unreachable from the error chain",
                            item.name
                        ),
                        hint: Some(
                            "implement `std::error::Error for …` with `fn source()`".into(),
                        ),
                        suppressed,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::{cfg, lines, run_on};

    const GOOD: &str = r#"
#[derive(Debug)]
#[non_exhaustive]
pub enum GoodError {
    Io(std::io::Error),
    Other(String),
}

impl std::error::Error for GoodError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GoodError::Io(e) => Some(e),
            _ => None,
        }
    }
}
"#;

    const BAD: &str = r#"
#[derive(Debug)]
pub enum NakedError {
    Oops,
}

impl std::error::Error for NakedError {}

enum PrivateError { X }

pub enum NotAnErr { Y }
"#;

    #[test]
    fn compliant_enum_passes() {
        let diags = run_on(&ErrorHygiene, "cdms", "crates/cdms/src/e.rs", GOOD, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn missing_attr_and_source_both_flagged_once_each() {
        let diags = run_on(&ErrorHygiene, "cdms", "crates/cdms/src/e.rs", BAD, &cfg());
        assert_eq!(lines(&diags), vec![3, 3], "{diags:?}");
        assert!(diags[0].message.contains("non_exhaustive"));
        assert!(diags[1].message.contains("source"));
    }

    #[test]
    fn private_and_non_error_enums_ignored() {
        let diags = run_on(&ErrorHygiene, "cdms", "e.rs", BAD, &cfg());
        assert!(diags.iter().all(|d| d.message.contains("NakedError")));
    }
}
