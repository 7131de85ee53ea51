//! `compare <a.jsonl> <b.jsonl>`: per workload and end-to-end metric, is
//! `b` worse than `a` by more than the metric's bound?

use crate::stats;
use crate::{as_f64, load_manifest, manifest_metrics, WORKLOADS};
use serde_json::Value;
use std::path::Path;

/// Values of one end-to-end metric over every untraced run of a workload.
fn values(records: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| matches!(r.get("workload"), Some(Value::Str(w)) if w == workload))
        .filter(|r| matches!(r.get("trace"), Some(Value::Bool(false))))
        .filter_map(|r| as_f64(r.get("result")?.get("metrics")?.get(metric)?.get("value")?))
        .collect()
}

fn load(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// Interquartile range as a share of the median; 0 for a single run.
fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = stats::quartiles(v);
    let m = stats::median(v);
    if v.len() < 2 || m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// Returns `Ok(false)` when some metric is `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let metrics = manifest_metrics(&load_manifest()?, "end_to_end");
    println!(
        "a = {}   b = {}   ratio = b / a (base a)",
        a_path.display(),
        b_path.display()
    );
    println!(
        "{:<13} {:<20} {:>12} {:>4} {:>12} {:>4} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median a", "n", "median b", "n", "ratio", "spread", "bound"
    );
    let mut any_worse = false;
    for workload in WORKLOADS {
        for (metric, unit, better, bound) in &metrics {
            let (va, vb) = (values(&a, workload, metric), values(&b, workload, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let lower = better == "lower";
            let worse_by = if lower {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let all_better = vb
                .iter()
                .all(|y| va.iter().all(|x| if lower { y < x } else { y > x }));
            let wide = spread(&va).max(spread(&vb));
            let verdict = if worse_by > *bound {
                any_worse = true;
                "worse"
            } else if wide > *bound && !all_better {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<13} {metric:<20} {ma:>12.4} {:>4} {mb:>12.4} {:>4} {:>7.4} {wide:>7.4} {bound:>6.3}  {verdict} [{unit}]",
                va.len(),
                vb.len(),
                mb / ma
            );
        }
    }
    Ok(!any_worse)
}
