//! Pass 2a: intra-procedural dataflow over the [`crate::parse`] event
//! stream. For each function this produces [`FnFacts`]: which locks it
//! acquires (and what was already held), which blocking calls it makes,
//! every outgoing call edge with the guards live at the call, plus the
//! raw material for the determinism and growth rules. The global pieces
//! (call-graph fixpoints, cycle detection) live in [`crate::callgraph`].
//!
//! Guard tracking is scope-based and deliberately conservative in the
//! safe direction for each rule:
//!
//! - a `let g = m.lock();` (optionally chained through guard-preserving
//!   methods like `unwrap`) binds a guard that lives until `drop(g)` or
//!   the end of its block;
//! - `m.lock().method(…)` creates a temporary guard that lives to the end
//!   of the statement — or to the end of the enclosing `match` when it is
//!   the scrutinee, which is exactly the real-Rust footgun;
//! - guards moved into calls are assumed still live (over-approximation);
//! - a closure body is treated as executing at its definition site.

use crate::lexer::{Tok, Token};
use crate::model::FileModel;
use crate::parse::{self, Call, Event, FnIr};
use std::collections::BTreeSet;

/// A lock that was live at some program point: identity plus where it was
/// acquired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldLock {
    /// `crate::field` identity (last receiver segment, crate-qualified).
    pub lock: String,
    pub line: u32,
}

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct LockAcq {
    pub lock: String,
    pub line: u32,
    /// Locks already held when this one was acquired (order edges).
    pub held: Vec<HeldLock>,
}

/// One blocking call site.
#[derive(Debug, Clone)]
pub struct BlockingUse {
    /// Display name (`recv_timeout`, `thread::sleep`, …).
    pub callee: String,
    pub line: u32,
    /// Guards live across the call, after the condvar-argument exemption.
    pub held: Vec<HeldLock>,
}

/// One outgoing call edge (for the workspace call graph).
#[derive(Debug, Clone)]
pub struct CallUse {
    pub callee: String,
    pub line: u32,
    pub held: Vec<HeldLock>,
}

/// Float accumulation (or unordered reduction) inside a parallel region.
#[derive(Debug, Clone)]
pub struct NondetFloat {
    /// The accumulator variable, or the offending combinator name.
    pub what: String,
    pub line: u32,
    /// The `par_*` entry point that opened the region.
    pub par_method: String,
}

/// Hash-order iteration feeding an ordered sink.
#[derive(Debug, Clone)]
pub struct HashIter {
    /// The iterated binding/field name.
    pub source: String,
    pub line: u32,
    /// The sink that consumed the order (`push`, `writeln`, `collect`, …).
    pub sink: String,
}

/// A collection-growing call site.
#[derive(Debug, Clone)]
pub struct GrowSite {
    /// Display receiver (`outboxes`, `conns`, …).
    pub recv: String,
    pub method: String,
    pub line: u32,
}

/// Everything pass 2a learns about one function.
#[derive(Debug)]
pub struct FnFacts {
    pub name: String,
    pub line: u32,
    pub in_test: bool,
    pub acquisitions: Vec<LockAcq>,
    pub blocking: Vec<BlockingUse>,
    pub calls: Vec<CallUse>,
    pub nondet_floats: Vec<NondetFloat>,
    pub hash_iters: Vec<HashIter>,
    pub grow_sites: Vec<GrowSite>,
    /// True when the function shows any evidence of a capacity bound.
    pub has_growth_guard: bool,
}

/// Names in `file` whose declared type mentions `HashMap`/`HashSet`
/// (struct fields, params, ascribed lets) — hash-ordered sources.
pub fn hash_names_in(file: &FileModel) -> BTreeSet<String> {
    let toks = &file.lexed.tokens;
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let (Some(Tok::Ident(name)), Some(Tok::Punct(':'))) =
            (toks.get(i).map(|t| &t.tok), toks.get(i + 1).map(|t| &t.tok))
        else {
            continue;
        };
        // `name: … HashMap …` up to the next item of punctuation that ends
        // a declaration — a shallow window is plenty for declared types
        for t in &toks[i + 2..(i + 10).min(toks.len())] {
            match &t.tok {
                Tok::Ident(t) if t == "HashMap" || t == "HashSet" => {
                    names.insert(name.clone());
                    break;
                }
                Tok::Punct(',' | ';' | ')' | '}' | '=') => break,
                _ => {}
            }
        }
    }
    names
}

/// Runs pass 2a on every function of `file`.
pub fn analyze_file(
    file: &FileModel,
    krate: &str,
    hash_names: &BTreeSet<String>,
) -> Vec<FnFacts> {
    parse::functions(file)
        .iter()
        .map(|f| analyze_fn(file, f, krate, hash_names))
        .collect()
}

/// A live guard during the walk.
#[derive(Debug)]
struct Guard {
    lock: String,
    line: u32,
    /// Binding name; `None` for statement temporaries.
    var: Option<String>,
    /// Scope depth at acquisition (persistent guards die when their scope
    /// closes).
    depth: u32,
    /// Temporaries die once the walk passes this token index.
    until: Option<usize>,
}

/// Argument-free methods that acquire a guard (`RwLock` read/write
/// included; `io::Read::read(&mut buf)` has arguments and never counts).
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];
/// Free functions whose first argument names the lock and whose return
/// value is its guard (the `std_lock(&self.m)` poison-recovery idiom).
const LOCK_WRAPPERS: &[&str] = &["std_lock"];
/// Chained methods that pass a guard through unchanged
/// (`m.lock().unwrap()` on a std mutex still binds a guard).
const GUARD_PRESERVING: &[&str] = &["unwrap", "expect", "unwrap_or_else"];
/// Condvar waits: the guard handed in is released for the wait and so
/// exempt; any other live guard at the wait site is a finding.
const CONDVAR_WAITS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];
/// Method or `qualifier::method` names that block the calling thread, the
/// seeds of the may-block fixpoint. `join` and `write_all` are
/// deliberately absent: `PathBuf::join` and Vec-backed `write_all` would
/// swamp the signal.
const BLOCKING_CALLS: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "recv",
    "recv_timeout",
    "sleep",
    "sync_all",
    "sync_data",
    "read_message",
    "read_message_deadline",
    "read_message_deadline_sized",
    "read_message_idle",
    "write_message",
    "write_message_deadline",
    "connect",
    "accept",
    "read_exact",
];
/// Methods that copy iteration order into ordered output (frames,
/// digests, reports): `nondet_reduction`'s sinks.
const ORDERED_SINKS: &[&str] =
    &["push", "extend", "push_str", "append", "push_back", "write_fmt", "mix", "update", "absorb"];
/// Chained methods that make iteration order irrelevant.
const ORDER_NEUTRAL: &[&str] = &[
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "count",
    "any",
    "all",
    "sum",
    "product",
    "len",
    "contains",
    "contains_key",
];
/// Collection-growing methods `unbounded_growth` watches.
const GROW_CALLS: &[&str] = &["push", "extend", "append", "push_back", "insert"];
/// Identifier substrings that show a capacity bound in the same function
/// (`max_sessions`, `capacity`, `shed_watermark`, …).
const GROWTH_GUARDS: &[&str] =
    &["max", "cap", "limit", "bound", "budget", "watermark", "quota", "shed"];

const ITER_METHODS: &[&str] = &["iter", "iter_mut", "into_iter", "keys", "values", "drain"];
const SHRINK_METHODS: &[&str] = &[
    "truncate", "retain", "pop", "pop_front", "drain", "remove", "split_off", "evict", "shed",
    "clear",
];

fn analyze_fn(
    file: &FileModel,
    f: &FnIr,
    krate: &str,
    hash_names: &BTreeSet<String>,
) -> FnFacts {
    let toks = &file.lexed.tokens;
    let mut facts = FnFacts {
        name: f.name.clone(),
        line: f.line,
        in_test: f.in_test,
        acquisitions: Vec::new(),
        blocking: Vec::new(),
        calls: Vec::new(),
        nondet_floats: Vec::new(),
        hash_iters: Vec::new(),
        grow_sites: Vec::new(),
        has_growth_guard: growth_guard_evidence(toks, f.body),
    };

    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: u32 = 0;
    // all `let` bindings seen so far: (var, tok-of-init-start, is_float)
    let mut lets: Vec<(String, usize, bool)> = Vec::new();
    let mut local_vars: BTreeSet<String> = BTreeSet::new();
    let mut hash_vars: BTreeSet<String> = hash_names.clone();
    for (p, ty) in &f.params {
        if ty.contains("HashMap") || ty.contains("HashSet") {
            hash_vars.insert(p.clone());
        } else if !ty.is_empty() {
            // a typed non-hash param shadows any same-named hash elsewhere
            hash_vars.remove(p);
        }
    }
    // open parallel regions: (start, end, par method name)
    let mut par_regions: Vec<(usize, usize, String)> = Vec::new();
    // the most recent let whose initializer we may still be inside
    let mut open_let: Option<parse::LetBind> = None;

    for ev in &f.events {
        let at = ev.tok();
        guards.retain(|g| g.until.is_none_or(|u| u >= at));
        match ev {
            Event::Open { .. } => depth += 1,
            Event::Close { .. } => {
                guards.retain(|g| g.var.is_none() || g.depth < depth);
                depth = depth.saturating_sub(1);
            }
            Event::Let(l) => {
                let is_float = l.ty.contains("f32")
                    || l.ty.contains("f64")
                    || range_has_float(toks, l.init);
                for v in &l.vars {
                    lets.push((v.clone(), l.init.0, is_float));
                    local_vars.insert(v.clone());
                }
                if l.ty.contains("HashMap")
                    || l.ty.contains("HashSet")
                    || range_has_ident(toks, l.init, &["HashMap", "HashSet"])
                {
                    for v in &l.vars {
                        hash_vars.insert(v.clone());
                    }
                } else {
                    // a local rebinding to something that is visibly not a
                    // hash container shadows a same-named hash declared
                    // elsewhere in the crate (the names are a crate-wide
                    // union, so this is what keeps e.g. a local `edges`
                    // array from aliasing a `edges: HashMap` in another
                    // file)
                    for v in &l.vars {
                        hash_vars.remove(v);
                    }
                }
                open_let = Some(l.clone());
            }
            Event::OpAssign(a) => {
                if let Some((start, _, par)) = par_regions
                    .iter()
                    .find(|(s, e, _)| a.tok > *s && a.tok < *e)
                    .cloned()
                {
                    // accumulating into a float declared before the
                    // parallel region = order-dependent result
                    let outer_float = lets
                        .iter()
                        .rev()
                        .find(|(v, _, _)| *v == a.var)
                        .is_some_and(|&(_, ltok, fl)| fl && ltok < start);
                    if outer_float {
                        facts.nondet_floats.push(NondetFloat {
                            what: a.var.clone(),
                            line: a.line,
                            par_method: par,
                        });
                    }
                }
            }
            Event::For(fi) => {
                let src = fi.source.last().cloned().unwrap_or_default();
                let iterates_hash = !src.is_empty()
                    && src != "self"
                    && hash_vars.contains(&src)
                    && fi.methods.iter().all(|m| !ORDER_NEUTRAL.contains(&m.as_str()));
                if iterates_hash {
                    if let Some(sink) = sink_in_range(toks, fi.body) {
                        facts.hash_iters.push(HashIter {
                            source: src,
                            line: fi.line,
                            sink,
                        });
                    }
                }
            }
            Event::Call(c) => {
                if c.is_macro {
                    continue;
                }
                // parallel region entry
                if c.method.starts_with("par_") {
                    let end = stmt_end(toks, c.close, f.body.1);
                    par_regions.push((c.tok, end, c.method.clone()));
                    check_par_terminals(toks, c.close, (c.tok, end), &mut facts);
                }
                // guard release
                if c.method == "drop" && c.recv.is_empty() && c.qual.is_empty() {
                    guards.retain(|g| {
                        g.var.as_ref().is_none_or(|v| !c.args.contains(v))
                    });
                    continue;
                }
                // hash iteration via method chain
                if ITER_METHODS.contains(&c.method.as_str()) {
                    let src = c.recv.last().cloned().unwrap_or_default();
                    if !src.is_empty() && src != "()" && hash_vars.contains(&src) {
                        if let Some(sink) = chain_order_sink(toks, c.close) {
                            facts.hash_iters.push(HashIter {
                                source: src,
                                line: c.line,
                                sink,
                            });
                        }
                    }
                }
                // collection growth
                if GROW_CALLS.contains(&c.method.as_str()) && !c.recv.is_empty() {
                    let head = c.recv.first().map(String::as_str).unwrap_or("");
                    let is_local_builder = c.recv.len() == 1
                        && head != "()"
                        && head != "self"
                        && local_vars.contains(head);
                    if !is_local_builder {
                        facts.grow_sites.push(GrowSite {
                            recv: c.recv.join("."),
                            method: c.method.clone(),
                            line: c.line,
                        });
                    }
                }
                // lock acquisition?
                if let Some(lock) = lock_name(c, krate) {
                    let held: Vec<HeldLock> = guards
                        .iter()
                        .map(|g| HeldLock { lock: g.lock.clone(), line: g.line })
                        .collect();
                    facts.acquisitions.push(LockAcq {
                        lock: lock.clone(),
                        line: c.line,
                        held,
                    });
                    let bound = open_let
                        .as_ref()
                        .filter(|l| c.tok >= l.init.0 && c.tok < l.init.1)
                        .filter(|l| chain_reaches(toks, c.close, l.init.1))
                        .and_then(|l| l.vars.first().cloned());
                    if let Some(var) = bound {
                        guards.push(Guard {
                            lock,
                            line: c.line,
                            var: Some(var),
                            depth,
                            until: None,
                        });
                    } else {
                        let mut until = stmt_end(toks, c.close, f.body.1);
                        if let Some(ext) = c.match_extent {
                            until = until.max(ext);
                        }
                        guards.push(Guard {
                            lock,
                            line: c.line,
                            var: None,
                            depth,
                            until: Some(until),
                        });
                    }
                    continue;
                }
                // blocking?
                let qual_name = c
                    .qual
                    .last()
                    .map(|q| format!("{q}::{}", c.method))
                    .unwrap_or_default();
                let blocks = BLOCKING_CALLS.contains(&c.method.as_str())
                    || BLOCKING_CALLS.contains(&qual_name.as_str());
                // The condvar exemption applies to the direct blocking fact
                // AND the call edge: `cv.wait(guard)` releases the guard it
                // is handed, so that guard is not held across whatever the
                // callee name resolves to in the workspace graph either.
                let is_condvar_wait = CONDVAR_WAITS.contains(&c.method.as_str());
                let held: Vec<HeldLock> = guards
                    .iter()
                    .filter(|g| {
                        !(is_condvar_wait
                            && g.var.as_ref().is_some_and(|v| c.args.contains(v)))
                    })
                    .map(|g| HeldLock { lock: g.lock.clone(), line: g.line })
                    .collect();
                if blocks {
                    facts.blocking.push(BlockingUse {
                        callee: if qual_name.is_empty() || !BLOCKING_CALLS.contains(&qual_name.as_str())
                        {
                            c.method.clone()
                        } else {
                            qual_name
                        },
                        line: c.line,
                        held: held.clone(),
                    });
                }
                // call edge (for the global graph)
                facts.calls.push(CallUse {
                    callee: c.method.clone(),
                    line: c.line,
                    held,
                });
            }
        }
        // leaving the initializer closes the open let
        if let Some(l) = &open_let {
            if at >= l.init.1 {
                open_let = None;
            }
        }
    }
    facts
}

/// Lock identity of `c`, when it is an acquisition.
fn lock_name(c: &Call, krate: &str) -> Option<String> {
    if LOCK_METHODS.contains(&c.method.as_str()) && c.args.is_empty() && !c.recv.is_empty() {
        let tail = c
            .recv
            .iter()
            .rev()
            .find(|s| *s != "self")
            .cloned()
            .unwrap_or_else(|| "self".into());
        if tail == "()" {
            // chained off an expression — identity unknown; still a guard,
            // but with a line-unique name so it can't create false cycles
            return Some(format!("{krate}::<expr@{}>", c.line));
        }
        return Some(format!("{krate}::{tail}"));
    }
    if LOCK_WRAPPERS.contains(&c.method.as_str()) && c.recv.is_empty() {
        let tail = c
            .arg0_path
            .iter()
            .rev()
            .find(|s| *s != "self")
            .cloned()
            .unwrap_or_else(|| format!("<expr@{}>", c.line));
        return Some(format!("{krate}::{tail}"));
    }
    None
}

/// True when the method chain starting after `close` runs — through
/// guard-preserving methods and `?` only — to `init_end` (so the whole
/// initializer tail is this chain and the binding receives the guard).
fn chain_reaches(toks: &[Token], close: usize, init_end: usize) -> bool {
    let mut k = close;
    loop {
        let next = k + 1;
        match toks.get(next).map(|t| &t.tok) {
            Some(Tok::Punct('?')) => k = next,
            Some(Tok::Punct('.')) => {
                let (Some(Tok::Ident(m)), Some(Tok::Punct('('))) = (
                    toks.get(next + 1).map(|t| &t.tok),
                    toks.get(next + 2).map(|t| &t.tok),
                ) else {
                    return false;
                };
                if !GUARD_PRESERVING.contains(&m.as_str()) {
                    return false;
                }
                k = match_close_paren(toks, next + 2, init_end + 1);
            }
            _ => return next >= init_end,
        }
    }
}

fn match_close_paren(toks: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end.min(toks.len()) {
        match &toks[i].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    open
}

/// Token index ending the statement whose call closes at `from` (a `)`):
/// the first `;` (or block-opening `{`) at relative bracket depth 0.
/// Scanning starts *after* `from`, so closure bodies inside a chained
/// `.for_each(|x| { … })` stay inside the statement (their `{` sits at
/// paren depth ≥ 1).
fn stmt_end(toks: &[Token], from: usize, fn_close: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from + 1;
    while j < fn_close.min(toks.len()) {
        match &toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct(';') if depth <= 0 => return j,
            Tok::Punct('{') if depth <= 0 => return j,
            Tok::Punct('}') if depth < 0 => return j,
            _ => {}
        }
        j += 1;
    }
    fn_close
}

fn range_has_float(toks: &[Token], range: (usize, usize)) -> bool {
    toks[range.0.min(toks.len())..range.1.min(toks.len())]
        .iter()
        .any(|t| matches!(&t.tok, Tok::Num(n) if n.contains('.')))
}

fn range_has_ident(toks: &[Token], range: (usize, usize), names: &[&str]) -> bool {
    toks[range.0.min(toks.len())..range.1.min(toks.len())]
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(s) if names.contains(&s.as_str())))
}

/// Order-losing combinators (`reduce`, `fold`, float `sum`) chained
/// *directly* on a parallel iterator. Sequential folds inside the worker
/// closure are chunk-local and deterministic; it is the cross-chunk
/// combine order that must go through `cdat::reduce`, so only the par
/// chain itself is walked here.
fn check_par_terminals(toks: &[Token], close: usize, region: (usize, usize), facts: &mut FnFacts) {
    let floats = range_has_float(toks, region) || range_has_ident(toks, region, &["f32", "f64"]);
    if !floats {
        return;
    }
    let mut k = close;
    loop {
        let next = k + 1;
        match toks.get(next).map(|t| &t.tok) {
            Some(Tok::Punct('?')) => k = next,
            Some(Tok::Punct('.')) => {
                let Some(Tok::Ident(m)) = toks.get(next + 1).map(|t| &t.tok) else { return };
                if m == "reduce" || m == "fold" || m == "sum" {
                    facts.nondet_floats.push(NondetFloat {
                        what: m.clone(),
                        line: toks[next + 1].line,
                        par_method: "par chain".into(),
                    });
                    return;
                }
                if m == "for_each" {
                    return; // closure accumulation is handled via OpAssign
                }
                let open = next + 2;
                if matches!(toks.get(open).map(|t| &t.tok), Some(Tok::Punct('('))) {
                    k = match_close_paren(toks, open, toks.len());
                } else if matches!(toks.get(open).map(|t| &t.tok), Some(Tok::Punct(':'))) {
                    // turbofish: `sum::<f64>()` was already matched above;
                    // other turbofished adapters — skip to their call
                    let mut j = open;
                    while j < toks.len() && !matches!(toks[j].tok, Tok::Punct('(')) {
                        j += 1;
                    }
                    k = match_close_paren(toks, j, toks.len());
                } else {
                    k = next + 1;
                }
            }
            _ => return,
        }
    }
}

/// First ordered sink called inside `range` (a loop body), if any.
fn sink_in_range(toks: &[Token], range: (usize, usize)) -> Option<String> {
    let mut j = range.0;
    while j < range.1.min(toks.len()) {
        if let Tok::Ident(m) = &toks[j].tok {
            let called = matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                || (matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('!')))
                    && matches!(toks.get(j + 2).map(|t| &t.tok), Some(Tok::Punct('('))));
            if called
                && (ORDERED_SINKS.contains(&m.as_str())
                    || matches!(m.as_str(), "write" | "writeln" | "format"))
            {
                return Some(m.clone());
            }
        }
        j += 1;
    }
    None
}

/// Walks the method chain after `close`; returns the first order-reading
/// sink, stopping early at order-neutral terminals.
fn chain_order_sink(toks: &[Token], close: usize) -> Option<String> {
    let mut k = close;
    loop {
        let next = k + 1;
        match toks.get(next).map(|t| &t.tok) {
            Some(Tok::Punct('?')) => k = next,
            Some(Tok::Punct('.')) => {
                let Some(Tok::Ident(m)) = toks.get(next + 1).map(|t| &t.tok) else {
                    return None;
                };
                if ORDER_NEUTRAL.contains(&m.as_str()) {
                    return None;
                }
                if m == "collect" {
                    // ordered only when collecting into a sequence
                    for t in &toks[next + 2..(next + 12).min(toks.len())] {
                        match &t.tok {
                            Tok::Ident(t) if t == "Vec" || t == "String" => {
                                return Some("collect".into());
                            }
                            Tok::Ident(t)
                                if t.starts_with("BTree")
                                    || t == "HashMap"
                                    || t == "HashSet" =>
                            {
                                return None;
                            }
                            Tok::Punct('(') => break,
                            _ => {}
                        }
                    }
                    return None;
                }
                if ORDERED_SINKS.contains(&m.as_str()) {
                    return Some(m.clone());
                }
                if m == "for_each" || m == "fold" {
                    // order flows into the closure — sink if the closure
                    // itself writes ordered output
                    let open = next + 2;
                    let end = match_close_paren(toks, open, toks.len());
                    return sink_in_range(toks, (open, end))
                        .map(|s| format!("{m}({s})"));
                }
                // some other adapter (map/filter/cloned/…): keep walking
                let open = next + 2;
                if matches!(toks.get(open).map(|t| &t.tok), Some(Tok::Punct('('))) {
                    k = match_close_paren(toks, open, toks.len());
                } else {
                    k = next + 1;
                }
            }
            _ => return None,
        }
    }
}

/// Any evidence of a capacity bound in the function body.
fn growth_guard_evidence(toks: &[Token], body: (usize, usize)) -> bool {
    let (open, close) = body;
    for j in open..close.min(toks.len()) {
        if let Tok::Ident(s) = &toks[j].tok {
            let lower = s.to_ascii_lowercase();
            if GROWTH_GUARDS.iter().any(|m| lower.contains(m)) {
                return true;
            }
            if SHRINK_METHODS.contains(&s.as_str())
                && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
            {
                return true;
            }
            if s == "len" {
                // `x.len() <|>=…` comparison nearby
                for t in &toks[(j + 1)..(j + 6).min(toks.len())] {
                    if matches!(t.tok, Tok::Punct('<' | '>')) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn facts_of(src: &str) -> Vec<FnFacts> {
        let file = FileModel::parse(PathBuf::from("mem.rs"), src);
        let names = hash_names_in(&file);
        analyze_file(&file, "t", &names)
    }

    #[test]
    fn guard_held_across_blocking_is_seen() {
        let src = "\
fn bad(&self) {
    let rx = self.work_rx.lock();
    let next = rx.recv_timeout(t);
}
fn good(&self) {
    let next = { let rx = self.work_rx.lock(); rx.try_recv() };
    std::thread::sleep(t);
}
";
        let fs = facts_of(src);
        let bad = &fs[0];
        assert_eq!(bad.blocking.len(), 1);
        assert_eq!(bad.blocking[0].held.len(), 1);
        assert_eq!(bad.blocking[0].held[0].lock, "t::work_rx");
        let good = &fs[1];
        let sleep = good.blocking.iter().find(|b| b.callee == "sleep").expect("sleep");
        assert!(sleep.held.is_empty(), "guard died with its block");
    }

    #[test]
    fn condvar_wait_exempts_its_own_guard_only() {
        let src = "\
fn wait(&self) {
    let mut done = self.done.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    while !*done {
        done = self.cv.wait(done).unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}
fn bad(&self) {
    let other = self.state.lock();
    let mut done = self.done.lock();
    done = self.cv.wait(done);
}
";
        let fs = facts_of(src);
        let ok = &fs[0];
        let w = ok.blocking.iter().find(|b| b.callee == "wait").expect("wait");
        assert!(w.held.is_empty(), "the waited guard is released by the wait");
        let bad = &fs[1];
        let w = bad.blocking.iter().find(|b| b.callee == "wait").expect("wait");
        assert_eq!(w.held.len(), 1);
        assert_eq!(w.held[0].lock, "t::state");
    }

    #[test]
    fn nested_acquisition_records_order_edges() {
        let src = "\
fn ab(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
    drop(b);
    drop(a);
}
";
        let fs = facts_of(src);
        let acqs = &fs[0].acquisitions;
        assert_eq!(acqs.len(), 2);
        assert!(acqs[0].held.is_empty());
        assert_eq!(acqs[1].held.len(), 1);
        assert_eq!(acqs[1].held[0].lock, "t::alpha");
    }

    #[test]
    fn transient_guard_lives_to_statement_end_and_match_extent() {
        let src = "\
fn transient(&self) {
    self.mux.lock().submit(job);
    std::thread::sleep(t);
}
fn scrutinee(&self) {
    match self.mux.lock().open(s) {
        Ok(_) => std::thread::sleep(t),
        Err(_) => {}
    }
}
";
        let fs = facts_of(src);
        let sleep = fs[0].blocking.iter().find(|b| b.callee == "sleep").expect("sleep");
        assert!(sleep.held.is_empty(), "temporary dropped at `;`");
        let sleep2 = fs[1].blocking.iter().find(|b| b.callee == "sleep").expect("sleep");
        assert_eq!(sleep2.held.len(), 1, "scrutinee temp lives for the match");
    }

    #[test]
    fn wrapper_locks_and_io_read_are_distinguished() {
        let src = "\
fn wrapped(&self) {
    let mut inflight = std_lock(&self.inflight);
    inflight.remove(&key);
}
fn io(&self, f: &mut File) {
    f.read(&mut buf);
}
";
        let fs = facts_of(src);
        assert_eq!(fs[0].acquisitions.len(), 1);
        assert_eq!(fs[0].acquisitions[0].lock, "t::inflight");
        assert!(fs[1].acquisitions.is_empty(), "read(buf) is I/O, not RwLock");
    }

    #[test]
    fn float_accumulation_in_par_region_is_flagged_only_for_captures() {
        let src = "\
fn bad(xs: &mut [f64]) {
    let mut total = 0.0;
    xs.par_iter_mut().for_each(|x| { total += *x; });
}
fn good(xs: &mut [f64]) {
    xs.par_chunks_mut(8).for_each(|c| {
        let mut acc = 0.0;
        for v in c.iter() { acc += *v; }
    });
}
";
        let fs = facts_of(src);
        assert_eq!(fs[0].nondet_floats.len(), 1);
        assert_eq!(fs[0].nondet_floats[0].what, "total");
        assert!(fs[1].nondet_floats.is_empty(), "chunk-local acc is fine");
    }

    #[test]
    fn hash_iteration_into_ordered_sink() {
        let src = "\
struct S { entries: HashMap<u64, u32> }
fn bad(&self, out: &mut Vec<u64>) {
    for (k, _) in self.entries.iter() {
        out.push(*k);
    }
}
fn neutral(&self) -> Option<u64> {
    self.entries.iter().map(|(k, _)| *k).min()
}
fn chain(&self) -> Vec<u64> {
    self.entries.keys().cloned().collect::<Vec<_>>()
}
";
        let fs = facts_of(src);
        assert_eq!(fs[0].hash_iters.len(), 1);
        assert_eq!(fs[0].hash_iters[0].sink, "push");
        assert!(fs[1].hash_iters.is_empty(), "min() neutralizes order");
        assert_eq!(fs[2].hash_iters.len(), 1);
        assert_eq!(fs[2].hash_iters[0].sink, "collect");
    }

    #[test]
    fn growth_sites_and_guards() {
        let src = "\
fn unbounded(&mut self, x: u32) {
    self.backlog.push(x);
}
fn bounded(&mut self, x: u32) {
    if self.backlog.len() < self.max_backlog {
        self.backlog.push(x);
    }
}
fn local_builder(&self) -> Vec<u32> {
    let mut v = Vec::new();
    v.push(1);
    v
}
";
        let fs = facts_of(src);
        assert_eq!(fs[0].grow_sites.len(), 1);
        assert!(!fs[0].has_growth_guard);
        assert!(fs[1].has_growth_guard);
        assert!(fs[2].grow_sites.is_empty(), "local builders are exempt");
    }
}
