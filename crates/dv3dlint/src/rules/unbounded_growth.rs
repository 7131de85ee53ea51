//! R10 `unbounded_growth`: in the modules that handle network or
//! client-driven input (the wall server, the task-graph and ensemble
//! schedulers), every `push`/`extend`/`insert` into a long-lived collection
//! must sit in a function that shows *some* capacity discipline — a
//! `max_*`/`*_limit`/`cap`/`budget`/`quota`-named bound, a shrink call
//! (`truncate`, `drain`, `evict`, `pop`, …), or a `len()` comparison.
//! Otherwise a chatty or malicious client grows the collection without
//! bound.
//!
//! Deliberately coarse (function granularity, name-based evidence): the
//! goal is "the author thought about the bound", not a proof. Collections
//! built and consumed locally (bound by a `let` in the same function) are
//! exempt — they die with the request.
//!
//! Escape hatch: `// dv3dlint: allow(unbounded_growth) -- <reason>`.

use super::Rule;
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::workspace::{CrateModel, Workspace};

#[derive(Debug)]
pub struct UnboundedGrowth;

impl Rule for UnboundedGrowth {
    fn id(&self) -> &'static str {
        "unbounded_growth"
    }

    fn describe(&self) -> &'static str {
        "collection growth in input-handling modules needs visible capacity discipline"
    }

    fn check_crate(
        &self,
        krate: &CrateModel,
        ws: &Workspace,
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        if !cfg.unbounded_enabled {
            return;
        }
        let analysis = ws.analysis();
        for file in &krate.files {
            let path_str = file.path.as_os_str().to_string_lossy();
            if !cfg.input_modules.iter().any(|m| path_str.ends_with(m.as_str())) {
                continue;
            }
            for i in analysis.fns_in_file(&file.path) {
                let node = &analysis.fns[i];
                if node.facts.has_growth_guard {
                    continue;
                }
                for g in &node.facts.grow_sites {
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: g.line,
                        rule: self.id(),
                        message: format!(
                            "`{}.{}(…)` in input-handling `{}` with no capacity check in \
                             sight — client-driven growth is unbounded",
                            g.recv, g.method, node.name
                        ),
                        hint: Some(
                            "enforce a limit before growing (compare `len()` against a \
                             `max_*` bound, or evict/truncate), then shed or reject"
                                .into(),
                        ),
                        suppressed: file.is_allowed(self.id(), g.line),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::{cfg, lines, run_on_ws};

    const PATH: &str = "crates/hyperwall/src/server.rs";

    #[test]
    fn unguarded_growth_in_input_module_is_caught() {
        let src = "\
pub fn on_subscribe(&mut self, peer: PeerId, topic: String) {
    self.subscriptions.push((peer, topic));
}
";
        let diags = run_on_ws(&UnboundedGrowth, "hyperwall", PATH, src, &cfg());
        assert_eq!(lines(&diags), vec![2], "{diags:?}");
        assert!(diags[0].message.contains("subscriptions"));
    }

    #[test]
    fn len_comparison_counts_as_a_guard() {
        let src = "\
pub fn on_subscribe(&mut self, peer: PeerId, topic: String) -> bool {
    if self.subscriptions.len() >= MAX_SUBS {
        return false;
    }
    self.subscriptions.push((peer, topic));
    true
}
";
        let diags = run_on_ws(&UnboundedGrowth, "hyperwall", PATH, src, &cfg());
        assert_eq!(lines(&diags), Vec::<u32>::new(), "{diags:?}");
    }

    #[test]
    fn eviction_counts_as_a_guard() {
        let src = "\
pub fn record(&mut self, frame: Frame) {
    self.history.push_back(frame);
    while self.history.len() > HISTORY_DEPTH {
        self.history.pop_front();
    }
}
";
        let diags = run_on_ws(&UnboundedGrowth, "hyperwall", PATH, src, &cfg());
        assert_eq!(lines(&diags), Vec::<u32>::new(), "{diags:?}");
    }

    #[test]
    fn local_builders_are_exempt() {
        let src = "\
pub fn render_banner(&self, names: &[String]) -> String {
    let mut parts = Vec::new();
    for n in names.iter() {
        parts.push(n.clone());
    }
    parts.join_all()
}
";
        let diags = run_on_ws(&UnboundedGrowth, "hyperwall", PATH, src, &cfg());
        assert_eq!(lines(&diags), Vec::<u32>::new(), "{diags:?}");
    }

    #[test]
    fn non_input_modules_are_exempt() {
        let src = "\
pub fn cache(&mut self, k: Key, v: Plan) {
    self.plans.insert(k, v);
}
";
        let diags = run_on_ws(
            &UnboundedGrowth,
            "hyperwall",
            "crates/hyperwall/src/render.rs",
            src,
            &cfg(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "\
pub fn on_hello(&mut self, peer: PeerId) {
    // dv3dlint: allow(unbounded_growth) -- peer count is capped upstream by admission control
    self.peers.insert(peer, ());
}
";
        let diags = run_on_ws(&UnboundedGrowth, "hyperwall", PATH, src, &cfg());
        assert_eq!(lines(&diags), Vec::<u32>::new(), "{diags:?}");
        assert!(diags.iter().any(|d| d.suppressed));
    }
}
