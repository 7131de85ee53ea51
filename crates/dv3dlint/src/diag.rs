//! Diagnostics: what a rule reports and how it renders.

use std::path::PathBuf;

/// One finding. `suppressed` findings matched an allow directive — they
/// are counted in the report but never fail the run.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: PathBuf,
    /// 1-based line (0 = whole-file / manifest finding).
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
    /// Optional fix hint, rendered after the message.
    pub hint: Option<String>,
    pub suppressed: bool,
}

impl Diagnostic {
    pub fn render(&self) -> String {
        let hint = self
            .hint
            .as_deref()
            .map(|h| format!("\n    hint: {h}"))
            .unwrap_or_default();
        if self.line == 0 {
            format!("{}: [{}] {}{hint}", self.file.display(), self.rule, self.message)
        } else {
            format!(
                "{}:{}: [{}] {}{hint}",
                self.file.display(),
                self.line,
                self.rule,
                self.message
            )
        }
    }
}

/// Sorts by file then line then rule, for stable output.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
    });
}
