//! Pass 2b: the workspace-global analysis. Aggregates every function's
//! [`crate::dataflow::FnFacts`] into one [`Analysis`]:
//!
//! - a by-name call graph (resolution prefers same-crate definitions and
//!   skips ubiquitous std method names, trading a documented soundness gap
//!   for a huge cut in false edges);
//! - a *may-block* fixpoint with witness chains, so "calls `perform`,
//!   which reaches `wait`" can be printed, not just asserted;
//! - transitive lock sets per function, and the global lock-acquisition
//!   graph (edges `held → acquired`, both intra-procedural and through
//!   calls), with cycle enumeration for `lock_order`.
//!
//! Test functions are excluded: test helpers block freely by design and
//! would otherwise poison the whole graph.

use crate::dataflow::{self, FnFacts};
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Method names resolved to std/core in practice; calls to these are never
/// routed through the workspace call graph (documented false-negative
/// trade-off — a workspace fn named `get` that blocks would be missed).
const AMBIENT_METHODS: &[&str] = &[
    "new", "default", "clone", "len", "is_empty", "get", "get_mut", "insert", "remove", "push",
    "pop", "extend", "iter", "iter_mut", "into_iter", "next", "write", "read", "flush", "fmt",
    "eq", "cmp", "hash", "drop", "lock", "unwrap", "expect", "contains", "contains_key", "min",
    "max", "map", "and_then", "unwrap_or", "unwrap_or_else", "to_string", "from", "into",
];

/// One function node in the global graph.
#[derive(Debug)]
pub struct FnNode {
    pub krate: String,
    pub file: PathBuf,
    pub name: String,
    pub line: u32,
    pub facts: FnFacts,
}

/// One edge of the lock-acquisition graph: `to` was (or may be) acquired
/// while `from` was held, at `file:line`.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: PathBuf,
    pub line: u32,
    /// Empty for direct nesting; otherwise describes the call path that
    /// reaches the second acquisition.
    pub note: String,
}

/// The built global analysis.
#[derive(Debug)]
pub struct Analysis {
    pub fns: Vec<FnNode>,
    by_name: BTreeMap<String, Vec<usize>>,
    /// `may_block[i]`: witness chain (callee names ending at a blocking
    /// primitive) when function `i` can block; `None` when it cannot.
    pub may_block: Vec<Option<Vec<String>>>,
    /// Deduplicated global lock-acquisition edges.
    pub lock_edges: Vec<LockEdge>,
}

impl Analysis {
    /// Builds the analysis over every scanned crate.
    pub fn build(ws: &Workspace) -> Analysis {
        let mut fns = Vec::new();
        for krate in &ws.crates {
            // hash-typed names are harvested crate-wide: a field declared
            // in one file is iterated from another
            let mut hash_names = BTreeSet::new();
            for file in &krate.files {
                hash_names.extend(dataflow::hash_names_in(file));
            }
            for file in &krate.files {
                for facts in dataflow::analyze_file(file, &krate.name, &hash_names) {
                    if facts.in_test {
                        continue;
                    }
                    fns.push(FnNode {
                        krate: krate.name.clone(),
                        file: file.path.clone(),
                        name: facts.name.clone(),
                        line: facts.line,
                        facts,
                    });
                }
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut analysis = Analysis {
            fns,
            by_name,
            may_block: Vec::new(),
            lock_edges: Vec::new(),
        };
        analysis.compute_may_block();
        analysis.compute_lock_edges();
        analysis
    }

    /// Call-graph resolution: same-crate definitions win; ambient std
    /// method names never resolve.
    pub fn resolve(&self, caller: usize, callee: &str) -> Vec<usize> {
        if AMBIENT_METHODS.contains(&callee) {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(callee) else {
            return Vec::new();
        };
        let caller_crate = &self.fns[caller].krate;
        let same: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&j| j != caller && self.fns[j].krate == *caller_crate)
            .collect();
        if !same.is_empty() {
            return same;
        }
        cands.iter().copied().filter(|&j| j != caller).collect()
    }

    fn compute_may_block(&mut self) {
        let n = self.fns.len();
        let mut may: Vec<Option<Vec<String>>> = (0..n)
            .map(|i| {
                self.fns[i]
                    .facts
                    .blocking
                    .first()
                    .map(|b| vec![b.callee.clone()])
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..n {
                if may[i].is_some() {
                    continue;
                }
                let callees: Vec<String> = self.fns[i]
                    .facts
                    .calls
                    .iter()
                    .map(|c| c.callee.clone())
                    .collect();
                'outer: for callee in callees {
                    for j in self.resolve(i, &callee) {
                        if let Some(chain) = &may[j] {
                            let mut witness = vec![self.fns[j].name.clone()];
                            witness.extend(chain.iter().take(3).cloned());
                            may[i] = Some(witness);
                            changed = true;
                            break 'outer;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.may_block = may;
    }

    fn compute_lock_edges(&mut self) {
        let n = self.fns.len();
        // transitive lock sets: lock name → first acquisition site
        let mut locks: Vec<BTreeMap<String, (PathBuf, u32)>> = (0..n)
            .map(|i| {
                let f = &self.fns[i];
                f.facts
                    .acquisitions
                    .iter()
                    .map(|a| (a.lock.clone(), (f.file.clone(), a.line)))
                    .collect()
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..n {
                let callees: Vec<String> = self.fns[i]
                    .facts
                    .calls
                    .iter()
                    .map(|c| c.callee.clone())
                    .collect();
                for callee in callees {
                    for j in self.resolve(i, &callee) {
                        let add: Vec<(String, (PathBuf, u32))> = locks[j]
                            .iter()
                            .filter(|(k, _)| !locks[i].contains_key(*k))
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect();
                        if !add.is_empty() {
                            locks[i].extend(add);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
        let mut edges = Vec::new();
        let anon = |l: &str| l.contains("<expr@");
        for i in 0..n {
            let f = &self.fns[i];
            // direct nesting
            for acq in &f.facts.acquisitions {
                for h in &acq.held {
                    if anon(&h.lock) || anon(&acq.lock) {
                        continue;
                    }
                    if seen.insert((h.lock.clone(), acq.lock.clone())) {
                        edges.push(LockEdge {
                            from: h.lock.clone(),
                            to: acq.lock.clone(),
                            file: f.file.clone(),
                            line: acq.line,
                            note: format!(
                                "`{}` acquired at {}:{} while `{}` (acquired at line {}) is held",
                                acq.lock,
                                f.file.display(),
                                acq.line,
                                h.lock,
                                h.line
                            ),
                        });
                    }
                }
            }
            // through calls: a call made under a guard reaches functions
            // that acquire more locks
            for cu in &f.facts.calls {
                if cu.held.is_empty() {
                    continue;
                }
                for j in self.resolve(i, &cu.callee) {
                    for (lock, (lfile, lline)) in &locks[j] {
                        if anon(lock) {
                            continue;
                        }
                        for h in &cu.held {
                            if anon(&h.lock) || h.lock == *lock {
                                continue;
                            }
                            if seen.insert((h.lock.clone(), lock.clone())) {
                                edges.push(LockEdge {
                                    from: h.lock.clone(),
                                    to: lock.clone(),
                                    file: f.file.clone(),
                                    line: cu.line,
                                    note: format!(
                                        "call to `{}` at {}:{} (holding `{}`) reaches an \
                                         acquisition of `{}` at {}:{}",
                                        cu.callee,
                                        f.file.display(),
                                        cu.line,
                                        h.lock,
                                        lock,
                                        lfile.display(),
                                        lline
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        self.lock_edges = edges;
    }

    /// Enumerates unique cycles in the lock graph. Each cycle is returned
    /// as the edge list closing it; self-edges (re-acquiring a held,
    /// non-reentrant lock) come back as single-edge cycles.
    pub fn lock_cycles(&self) -> Vec<Vec<&LockEdge>> {
        let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
        for e in &self.lock_edges {
            adj.entry(e.from.as_str()).or_default().push(e);
        }
        let mut cycles: Vec<Vec<&LockEdge>> = Vec::new();
        let mut canon: BTreeSet<Vec<String>> = BTreeSet::new();
        for e in &self.lock_edges {
            if e.from == e.to {
                if canon.insert(vec![e.from.clone()]) {
                    cycles.push(vec![e]);
                }
                continue;
            }
            // shortest path e.to →* e.from closes a cycle through e
            let mut prev: BTreeMap<&str, &LockEdge> = BTreeMap::new();
            let mut queue: Vec<&str> = vec![e.to.as_str()];
            let mut qi = 0usize;
            while qi < queue.len() {
                let node = queue[qi];
                qi += 1;
                if node == e.from {
                    break;
                }
                for next in adj.get(node).into_iter().flatten() {
                    if next.to != e.to && !prev.contains_key(next.to.as_str()) {
                        prev.insert(next.to.as_str(), next);
                        queue.push(next.to.as_str());
                    }
                }
            }
            if !prev.contains_key(e.from.as_str()) {
                continue;
            }
            let mut path: Vec<&LockEdge> = vec![e];
            let mut cur = e.from.as_str();
            let mut back = Vec::new();
            while cur != e.to.as_str() {
                let Some(step) = prev.get(cur) else { break };
                back.push(*step);
                cur = step.from.as_str();
            }
            back.reverse();
            path.extend(back);
            let mut key: Vec<String> = path.iter().map(|p| p.from.clone()).collect();
            key.sort();
            if canon.insert(key) {
                cycles.push(path);
            }
        }
        cycles
    }

    /// Indices of the functions defined in `file`.
    pub fn fns_in_file(&self, file: &std::path::Path) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;
    use crate::workspace::CrateModel;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    fn ws_of(src: &str) -> Workspace {
        let file = FileModel::parse(PathBuf::from("mem.rs"), src);
        Workspace {
            crates: vec![CrateModel {
                name: "t".into(),
                dir: PathBuf::from("."),
                files: vec![file],
                manifest: None,
                root_file: None,
            }],
            root_manifest: None,
            files_scanned: 1,
            analysis: OnceLock::new(),
        }
    }

    #[test]
    fn may_block_propagates_with_witness() {
        let src = "\
fn leaf(&self) { self.slot.recv_timeout(t); }
fn mid(&self) { self.leaf(); }
fn top(&self) { self.mid(); }
fn pure(&self) { self.nothing_here(); }
";
        let ws = ws_of(src);
        let a = Analysis::build(&ws);
        let idx = |n: &str| a.fns.iter().position(|f| f.name == n).expect("fn");
        assert!(a.may_block[idx("leaf")].is_some());
        let top = a.may_block[idx("top")].as_ref().expect("top blocks");
        assert_eq!(top[0], "mid", "witness names the path");
        assert!(a.may_block[idx("pure")].is_none());
    }

    #[test]
    fn cross_function_lock_cycle_is_found() {
        let src = "\
fn ab(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
    drop(b);
    drop(a);
}
fn ba(&self) {
    let b = self.beta.lock();
    self.helper();
    drop(b);
}
fn helper(&self) {
    let a = self.alpha.lock();
    drop(a);
}
";
        let ws = ws_of(src);
        let a = Analysis::build(&ws);
        let cycles = a.lock_cycles();
        assert_eq!(cycles.len(), 1, "edges: {:?}", a.lock_edges);
        let locks: Vec<&str> = cycles[0].iter().map(|e| e.from.as_str()).collect();
        assert!(locks.contains(&"t::alpha") && locks.contains(&"t::beta"));
        // the interprocedural edge carries its call path
        assert!(cycles[0].iter().any(|e| e.note.contains("helper")));
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let src = "\
fn one(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
    drop(b);
    drop(a);
}
fn two(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
    drop(b);
    drop(a);
}
";
        let ws = ws_of(src);
        let a = Analysis::build(&ws);
        assert!(a.lock_cycles().is_empty());
    }

    #[test]
    fn self_edge_is_a_reentrancy_cycle() {
        let src = "\
fn re(&self) {
    let a = self.alpha.lock();
    let b = self.alpha.lock();
    drop(b);
    drop(a);
}
";
        let ws = ws_of(src);
        let a = Analysis::build(&ws);
        let cycles = a.lock_cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 1);
        assert_eq!(cycles[0][0].from, cycles[0][0].to);
    }
}
