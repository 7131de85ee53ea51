//! R8 `guard_across_blocking`: no lock guard may be live across a call
//! that can block — deadline I/O, fsync, channel receives, sleeps, condvar
//! waits — whether the blocking call is direct or reached through the
//! workspace call graph. This is the static form of the plan cache's
//! claim ("the lock is never held during builds") and of the chunk
//! streamer's ("no lock is held across I/O or backoff").
//!
//! The condvar exemption: `cv.wait(guard)` *releases* the guard it is
//! handed for the duration of the wait, so that guard is exempt at the
//! wait site — but any **other** guard still held there is a finding.
//!
//! Escape hatch: `// dv3dlint: allow(guard_across_blocking) -- <reason>`.

use super::Rule;
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::workspace::{CrateModel, Workspace};

#[derive(Debug)]
pub struct GuardAcrossBlocking;

impl Rule for GuardAcrossBlocking {
    fn id(&self) -> &'static str {
        "guard_across_blocking"
    }

    fn describe(&self) -> &'static str {
        "no Mutex/RwLock guard live across blocking calls (deadline I/O, fsync, condvar waits)"
    }

    fn check_crate(
        &self,
        krate: &CrateModel,
        ws: &Workspace,
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        if !cfg.guard_blocking_enabled || !krate.in_scope(&cfg.concurrency_crates) {
            return;
        }
        let analysis = ws.analysis();
        for file in &krate.files {
            for i in analysis.fns_in_file(&file.path) {
                let node = &analysis.fns[i];
                let mut reported: Vec<u32> = Vec::new();
                // direct blocking calls under a guard
                for b in &node.facts.blocking {
                    if b.held.is_empty() {
                        continue;
                    }
                    let held = b
                        .held
                        .iter()
                        .map(|h| format!("`{}` (acquired line {})", h.lock, h.line))
                        .collect::<Vec<_>>()
                        .join(", ");
                    reported.push(b.line);
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: b.line,
                        rule: self.id(),
                        message: format!(
                            "guard {held} held across blocking `{}` in `{}`",
                            b.callee, node.name
                        ),
                        hint: Some(
                            "narrow the critical section: copy what you need out of the \
                             guard, drop it, then block"
                                .into(),
                        ),
                        suppressed: file.is_allowed(self.id(), b.line),
                    });
                }
                // calls under a guard into functions that may block
                for cu in &node.facts.calls {
                    if cu.held.is_empty() || reported.contains(&cu.line) {
                        continue;
                    }
                    let Some(j) = analysis
                        .resolve(i, &cu.callee)
                        .into_iter()
                        .find(|&j| analysis.may_block[j].is_some())
                    else {
                        continue;
                    };
                    let Some(witness) = &analysis.may_block[j] else { continue };
                    let held = cu
                        .held
                        .iter()
                        .map(|h| format!("`{}` (acquired line {})", h.lock, h.line))
                        .collect::<Vec<_>>()
                        .join(", ");
                    let chain = std::iter::once(cu.callee.as_str())
                        .chain(witness.iter().map(String::as_str))
                        .collect::<Vec<_>>()
                        .join(" → ");
                    reported.push(cu.line);
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: cu.line,
                        rule: self.id(),
                        message: format!(
                            "guard {held} held across call to `{}`, which can block \
                             ({chain}) in `{}`",
                            cu.callee, node.name
                        ),
                        hint: Some(
                            "drop the guard before the call, or split the callee so the \
                             blocking part runs lock-free"
                                .into(),
                        ),
                        suppressed: file.is_allowed(self.id(), cu.line),
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

    /// The seeded violations from the acceptance criteria: a guard held
    /// across `read_message_deadline`, and across a condvar wait (on a
    /// *different* lock than the one the wait releases).
    const BAD: &str = "\
pub fn pump(&self, s: &mut TcpStream) -> Result<()> {
    let state = self.state.lock();
    let msg = read_message_deadline(s, DEADLINE, \"frame\")?;
    state.apply(msg);
    Ok(())
}
pub fn gate(&self) {
    let stats = self.stats.lock();
    let mut done = self.done.lock();
    while !*done {
        done = self.cv.wait(done);
    }
    stats.record();
}
";

    const GOOD: &str = "\
pub fn pump(&self, s: &mut TcpStream) -> Result<()> {
    let msg = read_message_deadline(s, DEADLINE, \"frame\")?;
    let state = self.state.lock();
    state.apply(msg);
    Ok(())
}
pub fn gate(&self) {
    let mut done = self.done.lock();
    while !*done {
        done = self.cv.wait(done);
    }
}
";

    #[test]
    fn guard_across_deadline_io_and_condvar_wait_are_caught() {
        let diags = run_on_ws(
            &GuardAcrossBlocking,
            "hyperwall",
            "crates/hyperwall/src/service/x.rs",
            BAD,
            &cfg(),
        );
        let ls = lines(&diags);
        assert!(ls.contains(&3), "read_message_deadline under guard: {diags:?}");
        assert!(ls.contains(&11), "condvar wait with a second guard live: {diags:?}");
    }

    #[test]
    fn released_guards_and_waited_guard_are_clean() {
        let diags = run_on_ws(
            &GuardAcrossBlocking,
            "hyperwall",
            "crates/hyperwall/src/service/x.rs",
            GOOD,
            &cfg(),
        );
        assert_eq!(lines(&diags), Vec::<u32>::new(), "{diags:?}");
    }

    #[test]
    fn interprocedural_blocking_is_traced() {
        let src = "\
fn build(&self) {
    self.slot_wait();
}
fn slot_wait(&self) {
    let mut done = self.done.lock();
    done = self.cv.wait(done);
}
fn bad(&self) {
    let cache = self.cache.lock();
    self.build();
    drop(cache);
}
";
        let diags = run_on_ws(
            &GuardAcrossBlocking,
            "cdat",
            "crates/cdat/src/x.rs",
            src,
            &cfg(),
        );
        assert_eq!(lines(&diags), vec![10], "{diags:?}");
        let d = diags.iter().find(|d| d.line == 10).expect("finding");
        assert!(d.message.contains("build"), "witness chain names the path: {}", d.message);
    }

    /// A workspace fn named `wait` (the plan-cache build slot) must not
    /// re-flag a condvar wait through the call graph: `cv.wait(guard)`
    /// releases the guard it is handed, so the name-resolved call edge
    /// carries no held guard either.
    #[test]
    fn condvar_wait_is_exempt_on_the_call_edge_too() {
        let src = "\
fn wait(&self) {
    let mut done = self.done.lock();
    while !*done {
        done = self.cv.wait(done);
    }
}
fn pump(&self) {
    let mut guard = self.state.lock();
    while guard.pending {
        guard = self.cv.wait(guard);
    }
}
";
        let diags = run_on_ws(
            &GuardAcrossBlocking,
            "cdat",
            "crates/cdat/src/x.rs",
            src,
            &cfg(),
        );
        assert_eq!(lines(&diags), Vec::<u32>::new(), "{diags:?}");
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "\
pub fn flush(&self) {
    let log = self.log.lock();
    // dv3dlint: allow(guard_across_blocking) -- single-threaded shutdown path
    self.file.sync_all();
    drop(log);
}
";
        let diags = run_on_ws(
            &GuardAcrossBlocking,
            "cdms",
            "crates/cdms/src/x.rs",
            src,
            &cfg(),
        );
        assert_eq!(lines(&diags), Vec::<u32>::new(), "{diags:?}");
        assert!(diags.iter().any(|d| d.suppressed));
    }

    #[test]
    fn out_of_scope_crates_are_exempt() {
        let mut c = cfg();
        c.concurrency_crates = vec!["cdat".into()];
        let diags = run_on_ws(
            &GuardAcrossBlocking,
            "somecrate",
            "crates/somecrate/src/x.rs",
            BAD,
            &c,
        );
        assert!(diags.is_empty());
    }
}
