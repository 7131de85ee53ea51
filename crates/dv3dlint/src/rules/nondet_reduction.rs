//! R9 `nondet_reduction`: parallel float reductions and hash-order
//! iteration both produce run-to-run nondeterminism, which breaks frame
//! digests, regression baselines, and the checkpoint determinism PR 4
//! promised. Two findings:
//!
//! 1. Float accumulation inside a rayon `par_*` region — an outer float
//!    accumulator mutated from the closure, or `reduce`/`fold`/`sum`
//!    chained directly on the parallel iterator over float data. Summation
//!    order varies with thread scheduling; IEEE addition is not
//!    associative. The sanctioned path is `cdat::reduce` (pairwise, fixed
//!    tree), so files configured as `reduction_modules` are exempt.
//! 2. Iterating a `HashMap`/`HashSet` into an ordered sink (`push`,
//!    `write!`, digest `update`, frame emission): hash order is
//!    randomized per process.
//!
//! Escape hatch: `// dv3dlint: allow(nondet_reduction) -- <reason>`.

use super::Rule;
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::workspace::{CrateModel, Workspace};

#[derive(Debug)]
pub struct NondetReduction;

impl Rule for NondetReduction {
    fn id(&self) -> &'static str {
        "nondet_reduction"
    }

    fn describe(&self) -> &'static str {
        "no float accumulation in par regions outside cdat::reduce; no hash-order → ordered sink"
    }

    fn check_crate(
        &self,
        krate: &CrateModel,
        ws: &Workspace,
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        if !cfg.nondet_enabled || !krate.in_scope(&cfg.concurrency_crates) {
            return;
        }
        let analysis = ws.analysis();
        for file in &krate.files {
            let path_str = file.path.as_os_str().to_string_lossy();
            let exempt_floats = cfg
                .reduction_modules
                .iter()
                .any(|m| path_str.ends_with(m.as_str()));
            for i in analysis.fns_in_file(&file.path) {
                let node = &analysis.fns[i];
                if !exempt_floats {
                    for nf in &node.facts.nondet_floats {
                        out.push(Diagnostic {
                            file: file.path.clone(),
                            line: nf.line,
                            rule: self.id(),
                            message: format!(
                                "float accumulation `{}` inside `{}` region of `{}` — \
                                 summation order depends on thread scheduling",
                                nf.what, nf.par_method, node.name
                            ),
                            hint: Some(
                                "reduce per-chunk into locals and combine with \
                                 `cdat::reduce` (pairwise, deterministic)"
                                    .into(),
                            ),
                            suppressed: file.is_allowed(self.id(), nf.line),
                        });
                    }
                }
                for hi in &node.facts.hash_iters {
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: hi.line,
                        rule: self.id(),
                        message: format!(
                            "iteration over hash-ordered `{}` feeds ordered sink `{}` in \
                             `{}` — output order varies per process",
                            hi.source, hi.sink, node.name
                        ),
                        hint: Some(
                            "collect keys and sort first, or switch the container to \
                             `BTreeMap`/`BTreeSet`"
                                .into(),
                        ),
                        suppressed: file.is_allowed(self.id(), hi.line),
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

    const BAD: &str = "\
pub fn total(&self, chunks: &[Vec<f64>]) -> f64 {
    let mut sum = 0.0;
    chunks.par_iter().for_each(|c| {
        sum += c.len() as f64;
    });
    sum
}
pub fn digest(&self, cells: &HashMap<String, f32>) -> String {
    let mut out = String::new();
    for (k, v) in cells.iter() {
        out.push_str(k);
    }
    out
}
";

    const GOOD: &str = "\
pub fn total(chunks: &[Vec<f64>]) -> f64 {
    let partials: Vec<f64> = chunks
        .par_iter()
        .map(|c| {
            let mut local = 0.0;
            for v in c.iter() { local += v; }
            local
        })
        .collect();
    reduce::pairwise(&partials)
}
pub fn hottest(cells: &HashMap<String, f32>) -> Option<f32> {
    let mut best = None;
    for (_k, v) in cells.iter() {
        best = best.max(Some(*v));
    }
    best
}
";

    #[test]
    fn outer_float_accum_and_hash_to_sink_are_caught() {
        let diags =
            run_on_ws(&NondetReduction, "cdat", "crates/cdat/src/stats.rs", BAD, &cfg());
        let ls = lines(&diags);
        assert!(ls.contains(&4), "captured float accumulator: {diags:?}");
        assert!(ls.contains(&10), "hash iter into push_str: {diags:?}");
    }

    #[test]
    fn chunk_local_accum_and_order_neutral_scan_are_clean() {
        let diags =
            run_on_ws(&NondetReduction, "cdat", "crates/cdat/src/stats.rs", GOOD, &cfg());
        assert_eq!(lines(&diags), Vec::<u32>::new(), "{diags:?}");
    }

    #[test]
    fn par_chained_reduce_is_caught() {
        let src = "\
pub fn mean(vals: &[f32]) -> f32 {
    vals.par_iter().map(|v| v * 0.5).sum()
}
";
        let diags =
            run_on_ws(&NondetReduction, "cdat", "crates/cdat/src/stats.rs", src, &cfg());
        assert_eq!(lines(&diags).len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("sum"));
    }

    #[test]
    fn reduction_modules_are_exempt_from_float_findings() {
        let src = "\
pub fn pairwise(vals: &[f64]) -> f64 {
    let mut acc = 0.0;
    vals.par_iter().for_each(|v| {
        acc += v;
    });
    acc
}
";
        let diags =
            run_on_ws(&NondetReduction, "cdat", "crates/cdat/src/reduce.rs", src, &cfg());
        assert_eq!(lines(&diags), Vec::<u32>::new(), "{diags:?}");
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "\
pub fn log_cells(cells: &HashMap<u32, f32>, out: &mut String) {
    // dv3dlint: allow(nondet_reduction) -- debug dump, order is irrelevant
    for (k, _v) in cells.iter() {
        out.push_str(\"cell\");
    }
}
";
        let diags =
            run_on_ws(&NondetReduction, "dv3d", "crates/dv3d/src/dbg.rs", src, &cfg());
        assert_eq!(lines(&diags), Vec::<u32>::new(), "{diags:?}");
        assert!(diags.iter().any(|d| d.suppressed));
    }
}
