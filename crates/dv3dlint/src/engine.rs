//! The rule engine: runs every enabled rule over every crate, folds in
//! malformed-directive findings, and produces the per-rule tallies the
//! JSON report and the CLI summary share.

use crate::config::Config;
use crate::diag::{sort, Diagnostic};
use crate::rules;
use crate::workspace::Workspace;

/// Rule id used for malformed `dv3dlint:` directives, and for directives
/// that name no rule — these are always hard errors (a broken escape hatch
/// must not silently suppress, and one that suppresses nothing must say so).
pub const ALLOW_SYNTAX: &str = "allow_syntax";

/// Per-rule tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleCount {
    pub rule: &'static str,
    /// Unsuppressed findings (fail the run).
    pub violations: usize,
    /// Findings suppressed by a reasoned allow directive.
    pub allowed: usize,
}

/// Outcome of one engine run.
#[derive(Debug)]
pub struct RunSummary {
    /// All findings, suppressed included, sorted by file/line/rule.
    pub diagnostics: Vec<Diagnostic>,
    pub per_rule: Vec<RuleCount>,
    pub files_scanned: usize,
    /// Wall-clock of the lint pass (scan + parse + rules), for the CI
    /// budget assertion. Zero until the driver stamps it.
    pub elapsed_ms: u64,
}

impl RunSummary {
    pub fn total_violations(&self) -> usize {
        self.per_rule.iter().map(|c| c.violations).sum()
    }

    pub fn total_allowed(&self) -> usize {
        self.per_rule.iter().map(|c| c.allowed).sum()
    }

    pub fn clean(&self) -> bool {
        self.total_violations() == 0
    }
}

/// Runs all rules over `ws`.
pub fn run(ws: &Workspace, cfg: &Config) -> RunSummary {
    let rules = rules::all();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for rule in &rules {
        for krate in &ws.crates {
            rule.check_crate(krate, ws, cfg, &mut diagnostics);
        }
    }
    for krate in &ws.crates {
        for file in &krate.files {
            let unknown = file.allows.iter().filter(|a| rules.iter().all(|r| r.id() != a.rule));
            let unknown = unknown.map(|a| {
                (a.directive_line, format!("`{}` names no dv3dlint rule: it allows nothing", a.rule))
            });
            for (line, problem) in file.bad_allows.iter().cloned().chain(unknown) {
                diagnostics.push(Diagnostic {
                    file: file.path.clone(),
                    line,
                    rule: ALLOW_SYNTAX,
                    message: problem,
                    hint: Some(
                        "write `// dv3dlint: allow(<rule>) -- <reason>` with a rule from \
                         `--list-rules`; the reason is mandatory"
                            .into(),
                    ),
                    suppressed: false,
                });
            }
        }
    }
    sort(&mut diagnostics);
    let mut per_rule: Vec<RuleCount> = rules
        .iter()
        .map(|r| r.id())
        .chain([ALLOW_SYNTAX])
        .map(|rule| RuleCount { rule, violations: 0, allowed: 0 })
        .collect();
    for d in &diagnostics {
        if let Some(c) = per_rule.iter_mut().find(|c| c.rule == d.rule) {
            if d.suppressed {
                c.allowed += 1;
            } else {
                c.violations += 1;
            }
        }
    }
    RunSummary { diagnostics, per_rule, files_scanned: ws.files_scanned, elapsed_ms: 0 }
}
