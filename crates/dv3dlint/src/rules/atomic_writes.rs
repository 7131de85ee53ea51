//! R6 `atomic_writes`: in the `cdms` crate, files must reach disk through
//! the crash-safe `storage` module (temp file → fsync → read-back verify →
//! atomic rename). A direct `std::fs::write(…)` or `File::create(…)`
//! outside that module can leave a torn `.ncr` on disk after a crash,
//! which is exactly what the v2 storage hardening exists to prevent. Test
//! code is exempt (tests fabricate corrupt files on purpose). Escape
//! hatch: `// dv3dlint: allow(atomic_writes) -- <why raw I/O is safe here>`.

use super::Rule;
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::workspace::{CrateModel, Workspace};

/// Qualified calls (`qualifier::method`) that bypass atomicity.
const RAW_WRITE_CALLS: &[&str] = &["fs::write", "File::create", "OpenOptions::new"];

#[derive(Debug)]
pub struct AtomicWrites;

impl Rule for AtomicWrites {
    fn id(&self) -> &'static str {
        "atomic_writes"
    }

    fn describe(&self) -> &'static str {
        "cdms writes outside the storage module must go through the atomic writer"
    }

    fn check_crate(
        &self,
        krate: &CrateModel,
        _ws: &Workspace,
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        if !cfg.atomic_writes_enabled || !krate.in_scope(&cfg.atomic_writes_crates) {
            return;
        }
        for file in &krate.files {
            let path = file.path.as_os_str().to_string_lossy().to_string();
            if path.ends_with(&cfg.storage_module) {
                continue; // the raw primitives live here by design
            }
            let toks = &file.lexed.tokens;
            for i in 3..toks.len() {
                // call sites of a path-qualified function: `fs::write(` /
                // `File::create(` — the final segment plus the two segments
                // of `::` before it, so bare locals named `write` don't trip.
                let Tok::Ident(method) = &toks[i].tok else { continue };
                if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
                    continue;
                }
                let (Tok::Punct(':'), Tok::Punct(':'), Tok::Ident(qualifier)) =
                    (&toks[i - 1].tok, &toks[i - 2].tok, &toks[i - 3].tok)
                else {
                    continue;
                };
                let call = format!("{qualifier}::{method}");
                if !RAW_WRITE_CALLS.contains(&call.as_str()) {
                    continue;
                }
                let line = toks[i].line;
                if file.is_test_line(line) {
                    continue;
                }
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line,
                    rule: self.id(),
                    message: format!(
                        "raw `{call}(…)` outside the storage module: route the write \
                         through `storage::write_atomic` so a crash cannot tear the file"
                    ),
                    hint: Some(
                        "call `storage::write_atomic` (tmp file + fsync + rename)".into(),
                    ),
                    suppressed: file.is_allowed(self.id(), line),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::{cfg, lines, run_on};

    const FIXTURE: &str = r#"
use std::fs::File;

pub fn publish(path: &Path, bytes: &[u8]) -> Result<()> {
    std::fs::write(path, bytes)?;
    let f = File::create(path.with_extension("idx"))?;
    drop(f);
    // mentioning fs::write in a comment or doc link is fine
    let data = std::fs::read(path)?; // reads are not a crash hazard
    drop(data);
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        std::fs::write(&path, b"garbage").unwrap();
        let _f = File::create(&path).unwrap();
    }
}
"#;

    #[test]
    fn raw_write_calls_flagged_reads_and_tests_not() {
        let diags = run_on(&AtomicWrites, "cdms", "crates/cdms/src/catalog.rs", FIXTURE, &cfg());
        assert_eq!(lines(&diags), vec![5, 6], "{diags:?}");
    }

    #[test]
    fn storage_module_is_exempt() {
        let diags = run_on(&AtomicWrites, "cdms", "crates/cdms/src/storage.rs", FIXTURE, &cfg());
        assert!(diags.is_empty());
    }

    #[test]
    fn other_crates_are_exempt() {
        let diags =
            run_on(&AtomicWrites, "rvtk", "crates/rvtk/src/render/ppm.rs", FIXTURE, &cfg());
        assert!(diags.is_empty());
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "\
pub fn scratch_note(dir: &Path) -> Result<()> {
    // dv3dlint: allow(atomic_writes) -- advisory sidecar, readers tolerate absence
    std::fs::write(dir.join(\"LAST_SCAN\"), b\"ok\")?;
    Ok(())
}
";
        let diags = run_on(&AtomicWrites, "cdms", "crates/cdms/src/x.rs", src, &cfg());
        assert_eq!(lines(&diags), Vec::<u32>::new());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].suppressed);
    }

    #[test]
    fn unqualified_write_is_not_confused_with_fs_write() {
        let src = "\
pub fn flush(buf: &mut Vec<u8>, w: &mut impl Write) -> Result<()> {
    write(w, buf)?;
    self.write(buf)?;
    Ok(())
}
";
        let diags = run_on(&AtomicWrites, "cdms", "crates/cdms/src/x.rs", src, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }
}
