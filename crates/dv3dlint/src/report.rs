//! Machine-readable report: `out/dv3dlint_report.json`, rule → violation /
//! allowed counts plus every finding. The shape is deliberately flat and
//! stable. The JSON is hand-emitted (fixed shape, no string content needs
//! escaping beyond the basics).

use crate::engine::RunSummary;
use std::path::Path;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the report JSON.
pub fn render(summary: &RunSummary) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"tool\": \"dv3dlint\",\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", summary.files_scanned));
    s.push_str(&format!("  \"elapsed_ms\": {},\n", summary.elapsed_ms));
    s.push_str(&format!("  \"total_violations\": {},\n", summary.total_violations()));
    s.push_str(&format!("  \"total_allowed\": {},\n", summary.total_allowed()));
    s.push_str("  \"rules\": {\n");
    let n = summary.per_rule.len();
    for (i, c) in summary.per_rule.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {{ \"violations\": {}, \"allowed\": {} }}{}\n",
            esc(c.rule),
            c.violations,
            c.allowed,
            if i + 1 < n { "," } else { "" }
        ));
    }
    s.push_str("  },\n");
    s.push_str("  \"findings\": [\n");
    let m = summary.diagnostics.len();
    for (i, d) in summary.diagnostics.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"suppressed\": {}, \
             \"message\": \"{}\" }}{}\n",
            esc(d.rule),
            esc(&d.file.as_os_str().to_string_lossy()),
            d.line,
            d.suppressed,
            esc(&d.message),
            if i + 1 < m { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Writes the report, creating the parent directory when needed.
pub fn write(summary: &RunSummary, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, render(summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RuleCount;

    #[test]
    fn report_shape_is_stable() {
        let summary = RunSummary {
            diagnostics: Vec::new(),
            per_rule: vec![
                RuleCount { rule: "mask_propagation", violations: 2, allowed: 7 },
                RuleCount { rule: "lock_order", violations: 0, allowed: 1 },
            ],
            files_scanned: 42,
            elapsed_ms: 123,
        };
        let json = render(&summary);
        assert!(json.contains("\"files_scanned\": 42"));
        assert!(json.contains("\"elapsed_ms\": 123"));
        assert!(json.contains("\"total_violations\": 2"));
        assert!(json.contains("\"total_allowed\": 8"));
        assert!(json.contains("\"mask_propagation\": { \"violations\": 2, \"allowed\": 7 },"));
        assert!(json.contains("\"findings\": [\n  ]"));
    }

    #[test]
    fn findings_are_listed_with_flags() {
        let summary = RunSummary {
            diagnostics: vec![crate::diag::Diagnostic {
                file: std::path::PathBuf::from("crates/x/src/a.rs"),
                line: 9,
                rule: "lock_order",
                message: "cycle".into(),
                hint: None,
                suppressed: true,
            }],
            per_rule: vec![RuleCount { rule: "lock_order", violations: 0, allowed: 1 }],
            files_scanned: 1,
            elapsed_ms: 0,
        };
        let json = render(&summary);
        assert!(json.contains("\"rule\": \"lock_order\""));
        assert!(json.contains("\"line\": 9"));
        assert!(json.contains("\"suppressed\": true"));
    }
}
