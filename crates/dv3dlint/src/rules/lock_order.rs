//! R7 `lock_order`: builds the workspace lock-acquisition graph (an edge
//! `A → B` means lock `B` was — or can be, through calls — acquired while
//! `A` was held) and reports every cycle as a potential deadlock, with the
//! acquisition path for each edge. A self-edge means a non-reentrant lock
//! can be re-acquired while already held, which deadlocks a `std`/
//! `parking_lot` mutex outright.
//!
//! The graph is global, so the rule runs once — anchored to the first
//! scanned crate — and reports diagnostics wherever the edges live.
//! Lock identity is `{crate}::{field}` (last receiver segment), a
//! documented approximation: two distinct locks with the same field name
//! in one crate would alias. See DESIGN.md §15.
//!
//! Escape hatch: `// dv3dlint: allow(lock_order) -- <reason>` on any
//! acquisition site participating in the cycle.

use super::Rule;
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::workspace::{CrateModel, Workspace};

#[derive(Debug)]
pub struct LockOrder;

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        "lock_order"
    }

    fn describe(&self) -> &'static str {
        "the workspace lock-acquisition graph must be acyclic (cycles = potential deadlock)"
    }

    fn check_crate(
        &self,
        krate: &CrateModel,
        ws: &Workspace,
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        if !cfg.lock_order_enabled {
            return;
        }
        // global analysis: run exactly once per engine pass
        if ws.crates.first().map(|c| c.name != krate.name).unwrap_or(true) {
            return;
        }
        let analysis = ws.analysis();
        for cycle in analysis.lock_cycles() {
            let first = match cycle.first() {
                Some(e) => *e,
                None => continue,
            };
            let suppressed = cycle.iter().any(|e| {
                ws.file(&e.file).is_some_and(|f| f.is_allowed(self.id(), e.line))
            });
            let message = if cycle.len() == 1 && first.from == first.to {
                format!(
                    "lock `{}` can be re-acquired while already held — a non-reentrant \
                     mutex deadlocks here ({})",
                    first.from, first.note
                )
            } else {
                let ring: Vec<&str> = cycle
                    .iter()
                    .map(|e| e.from.as_str())
                    .chain(std::iter::once(first.from.as_str()))
                    .collect();
                let paths: Vec<String> = cycle
                    .iter()
                    .enumerate()
                    .map(|(i, e)| format!("path {}: {}", i + 1, e.note))
                    .collect();
                format!(
                    "potential deadlock: lock-order cycle {} — {}",
                    ring.join(" → "),
                    paths.join("; ")
                )
            };
            out.push(Diagnostic {
                file: first.file.clone(),
                line: first.line,
                rule: self.id(),
                message,
                hint: Some(
                    "pick one global acquisition order for these locks (or merge their \
                     critical sections) and restructure the odd path out"
                        .into(),
                ),
                suppressed,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::{cfg, lines, run_on_ws};

    /// The seeded violation from the acceptance criteria: two mutexes
    /// acquired in opposite orders on two paths (one path crossing a
    /// function boundary).
    const CYCLE: &str = "\
pub fn forward(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
    drop(b);
    drop(a);
}
pub fn backward(&self) {
    let b = self.beta.lock();
    self.grab_alpha();
    drop(b);
}
fn grab_alpha(&self) {
    let a = self.alpha.lock();
    drop(a);
}
";

    #[test]
    fn two_mutex_cycle_reports_both_paths() {
        let diags = run_on_ws(&LockOrder, "svc", "crates/svc/src/x.rs", CYCLE, &cfg());
        assert_eq!(lines(&diags).len(), 1, "{diags:?}");
        let d = &diags[0];
        assert!(d.message.contains("svc::alpha") && d.message.contains("svc::beta"));
        assert!(d.message.contains("path 1:") && d.message.contains("path 2:"));
        assert!(d.message.contains("grab_alpha"), "interproc path is named: {}", d.message);
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "\
pub fn one(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
    drop(b);
    drop(a);
}
pub fn two(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
    drop(b);
    drop(a);
}
";
        let diags = run_on_ws(&LockOrder, "svc", "crates/svc/src/x.rs", src, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn reacquisition_is_a_self_cycle() {
        let src = "\
pub fn re(&self) {
    let a = self.alpha.lock();
    let b = self.alpha.lock();
    drop(b);
    drop(a);
}
";
        let diags = run_on_ws(&LockOrder, "svc", "crates/svc/src/x.rs", src, &cfg());
        assert_eq!(lines(&diags).len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("re-acquired"));
    }

    #[test]
    fn allow_on_any_cycle_edge_suppresses() {
        let src = "\
pub fn forward(&self) {
    let a = self.alpha.lock();
    // dv3dlint: allow(lock_order) -- beta is only tried, never waited on here
    let b = self.beta.lock();
    drop(b);
    drop(a);
}
pub fn backward(&self) {
    let b = self.beta.lock();
    let a = self.alpha.lock();
    drop(a);
    drop(b);
}
";
        let diags = run_on_ws(&LockOrder, "svc", "crates/svc/src/x.rs", src, &cfg());
        assert_eq!(lines(&diags), Vec::<u32>::new(), "{diags:?}");
        assert!(diags.iter().any(|d| d.suppressed));
    }
}
