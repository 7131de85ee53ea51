//! `dv3dlint.toml` loading. Ships a hand-rolled parser for the TOML subset
//! the config actually uses — sections, string/bool/integer scalars, and
//! (possibly multi-line) string arrays — so the linter stays dependency-free.
//! The same parser reads the `Cargo.toml` fields the rules care about.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

/// A scalar or string-array value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    List(Vec<String>),
    Bool(bool),
    Int(i64),
    /// Anything else (inline tables, floats, …) — kept verbatim so that
    /// `Cargo.toml` files parse without the linter understanding full TOML.
    Other(String),
}

/// Parsed TOML subset: section name → key → value. Keys before any section
/// header live under the empty section name.
#[derive(Debug, Default)]
pub struct Toml {
    pub sections: BTreeMap<String, BTreeMap<String, Value>>,
}

/// Config / usage errors (exit code 2).
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Toml {
    /// Parses `src`; line-oriented, `#` comments, quoted strings.
    pub fn parse(src: &str) -> Result<Toml, ConfigError> {
        let mut toml = Toml::default();
        let mut section = String::new();
        let mut lines = src.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| ConfigError(format!("line {}: unclosed section", n + 1)))?;
                section = name.trim().trim_matches('"').to_string();
                toml.sections.entry(section.clone()).or_default();
                continue;
            }
            let (key, mut rest) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or_else(|| ConfigError(format!("line {}: expected `key = value`", n + 1)))?;
            // multi-line arrays: keep consuming until the bracket closes
            if rest.starts_with('[') {
                while !array_closed(&rest) {
                    let Some((_, cont)) = lines.next() else {
                        return Err(ConfigError(format!("line {}: unclosed array", n + 1)));
                    };
                    rest.push(' ');
                    rest.push_str(strip_comment(cont).trim());
                }
            }
            let value = parse_value(&rest)
                .ok_or_else(|| ConfigError(format!("line {}: bad value `{rest}`", n + 1)))?;
            toml.sections.entry(section.clone()).or_default().insert(key, value);
        }
        Ok(toml)
    }

    pub fn get(&self, section: &str, key: &str) -> Option<&Value> {
        self.sections.get(section)?.get(key)
    }

    pub fn str_list(&self, section: &str, key: &str) -> Option<Vec<String>> {
        match self.get(section, key)? {
            Value::List(v) => Some(v.clone()),
            Value::Str(s) => Some(vec![s.clone()]),
            _ => None,
        }
    }

    pub fn string(&self, section: &str, key: &str) -> Option<String> {
        match self.get(section, key)? {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        }
    }

    pub fn boolean(&self, section: &str, key: &str) -> Option<bool> {
        match self.get(section, key)? {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Strips a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn array_closed(acc: &str) -> bool {
    let mut in_str = false;
    let mut depth = 0i32;
    for c in acc.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn parse_value(s: &str) -> Option<Value> {
    let s = s.trim();
    if s == "true" {
        return Some(Value::Bool(true));
    }
    if s == "false" {
        return Some(Value::Bool(false));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner.strip_suffix(']')?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(part.trim_matches('"').to_string());
        }
        return Some(Value::List(items));
    }
    if let Some(q) = s.strip_prefix('"') {
        if let Some(body) = q.strip_suffix('"') {
            return Some(Value::Str(body.to_string()));
        }
    }
    if let Ok(i) = s.parse::<i64>() {
        return Some(Value::Int(i));
    }
    // inline tables and other constructs Cargo.toml uses but dv3dlint
    // doesn't interpret
    Some(Value::Other(s.to_string()))
}

/// Splits on commas outside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    parts.push(cur);
    parts
}

/// Per-rule configuration, with defaults matching this workspace so the
/// tool degrades gracefully on a partial config file.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (directory holding `dv3dlint.toml`).
    pub root: PathBuf,
    /// Crate directories scanned by `--workspace`, workspace-relative.
    pub crate_dirs: Vec<String>,
    pub no_panic_enabled: bool,
    /// Package names whose non-test library code must be panic-free.
    pub no_panic_crates: Vec<String>,
    /// Files (workspace-relative) where indexing without `get` is banned.
    pub indexing_hot_paths: Vec<String>,
    pub mask_enabled: bool,
    pub mask_crates: Vec<String>,
    /// Method names that count as raw buffer access.
    pub raw_markers: Vec<String>,
    /// Identifiers that demonstrate mask awareness.
    pub mask_markers: Vec<String>,
    pub deadline_enabled: bool,
    pub deadline_crate: String,
    /// Modules allowed to use raw `read_message`/`write_message` (the
    /// protocol primitives live here by design). Suffix-matched.
    pub protocol_modules: Vec<String>,
    pub banned_calls: Vec<String>,
    pub atomic_writes_enabled: bool,
    /// Crates whose file writes must go through the atomic storage layer.
    pub atomic_writes_crates: Vec<String>,
    /// The one module allowed to call the raw filesystem write primitives.
    pub storage_module: String,
    /// Qualified call names (`qualifier::method`) that bypass atomicity.
    pub raw_write_calls: Vec<String>,
    pub error_hygiene_enabled: bool,
    pub error_hygiene_crates: Vec<String>,
    pub lint_attrs_enabled: bool,
    pub lint_attrs_crates: Vec<String>,
    pub require_forbid: Vec<String>,
    pub require_workspace_lints: bool,
    /// Lints the root manifest must deny (or forbid) workspace-wide.
    pub workspace_denies: Vec<String>,

    // --- v2 dataflow analysis (shared by the four concurrency rules) ---
    /// Crates the dataflow rules report on (the call-graph analysis itself
    /// is always workspace-global so cross-crate edges resolve).
    pub concurrency_crates: Vec<String>,
    /// Guard-producing method names. Only *argument-free* calls count, so
    /// `io::Read::read(&mut buf)` never registers as `RwLock::read()`.
    pub lock_methods: Vec<String>,
    /// Free functions whose first argument names the lock and whose return
    /// value is its guard (the `std_lock(&self.m)` poison-recovery idiom).
    pub lock_wrappers: Vec<String>,
    /// Chained methods that pass a guard through unchanged
    /// (`m.lock().unwrap()` on a std mutex still binds a guard).
    pub guard_preserving: Vec<String>,
    /// Condvar wait methods: the guard passed *as the argument* is released
    /// by the wait and therefore exempt; any other live guard is not.
    pub condvar_waits: Vec<String>,
    /// Method or `qualifier::method` names that block the calling thread.
    pub blocking_calls: Vec<String>,
    pub lock_order_enabled: bool,
    pub guard_blocking_enabled: bool,
    pub nondet_enabled: bool,
    /// Module path suffixes whose parallel reductions are the sanctioned
    /// deterministic ones (`cdat::reduce` splits fixed-shape chunks).
    pub reduction_modules: Vec<String>,
    /// Chained/looped method names that copy iteration order into ordered
    /// output (frames, digests, reports).
    pub ordered_sinks: Vec<String>,
    /// Chained method names that make iteration order irrelevant.
    pub order_neutral: Vec<String>,
    pub unbounded_enabled: bool,
    /// Module path suffixes that receive network or session input.
    pub input_modules: Vec<String>,
    /// Collection-growing method names `unbounded_growth` watches.
    pub grow_calls: Vec<String>,
    /// Identifier substrings that signal a capacity bound in the same
    /// function (`max_sessions`, `capacity`, `shed_watermark`, …).
    pub growth_guards: Vec<String>,
}

fn svec(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

impl Config {
    /// Built-in defaults for this workspace (used when `dv3dlint.toml` is
    /// missing a section, and by unit tests).
    pub fn defaults(root: PathBuf) -> Config {
        Config {
            root,
            crate_dirs: svec(&[
                "crates/cdms",
                "crates/cdat",
                "crates/rvtk",
                "crates/vistrails",
                "crates/core",
                "crates/hyperwall",
                "crates/bench",
                "crates/dv3dlint",
                ".",
            ]),
            no_panic_enabled: true,
            no_panic_crates: svec(&[
                "cdms", "cdat", "rvtk", "vistrails", "dv3d", "hyperwall", "uvcdat", "dv3dlint",
            ]),
            indexing_hot_paths: svec(&["crates/hyperwall/src/protocol.rs"]),
            mask_enabled: true,
            mask_crates: svec(&["cdat"]),
            raw_markers: svec(&["data", "data_mut"]),
            mask_markers: svec(&[
                "iter_valid",
                "get_valid",
                "to_filled",
                "valid_count",
                "valid_fraction",
                "from_filled_data",
            ]),
            deadline_enabled: true,
            deadline_crate: "hyperwall".into(),
            protocol_modules: svec(&["crates/hyperwall/src/protocol.rs"]),
            banned_calls: svec(&["read_message", "write_message"]),
            atomic_writes_enabled: true,
            atomic_writes_crates: svec(&["cdms"]),
            storage_module: "crates/cdms/src/storage.rs".into(),
            raw_write_calls: svec(&["fs::write", "File::create", "OpenOptions::new"]),
            error_hygiene_enabled: true,
            error_hygiene_crates: svec(&[
                "cdms", "cdat", "rvtk", "vistrails", "dv3d", "hyperwall", "uvcdat", "dv3dlint",
            ]),
            lint_attrs_enabled: true,
            lint_attrs_crates: svec(&[
                "cdms",
                "cdat",
                "rvtk",
                "vistrails",
                "dv3d",
                "hyperwall",
                "dv3d-bench",
                "uvcdat",
                "dv3dlint",
            ]),
            require_forbid: svec(&["unsafe_code"]),
            require_workspace_lints: true,
            workspace_denies: svec(&["unused_must_use"]),
            concurrency_crates: svec(&[
                "cdms", "cdat", "rvtk", "vistrails", "dv3d", "hyperwall", "uvcdat", "dv3dlint",
            ]),
            lock_methods: svec(&["lock", "read", "write"]),
            lock_wrappers: svec(&["std_lock"]),
            guard_preserving: svec(&["unwrap", "expect", "unwrap_or_else"]),
            condvar_waits: svec(&["wait", "wait_timeout", "wait_while", "wait_timeout_while"]),
            blocking_calls: svec(&[
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
                "read_message_idle",
                "write_message",
                "write_message_deadline",
                "connect",
                "accept",
                "read_exact",
            ]),
            lock_order_enabled: true,
            guard_blocking_enabled: true,
            nondet_enabled: true,
            reduction_modules: svec(&["crates/cdat/src/reduce.rs"]),
            ordered_sinks: svec(&[
                "push",
                "extend",
                "push_str",
                "append",
                "push_back",
                "write_fmt",
                "mix",
                "update",
                "absorb",
            ]),
            order_neutral: svec(&[
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
            ]),
            unbounded_enabled: true,
            input_modules: svec(&[
                "crates/hyperwall/src/server.rs",
            ]),
            grow_calls: svec(&["push", "extend", "append", "push_back", "insert"]),
            growth_guards: svec(&[
                "max", "cap", "limit", "bound", "budget", "watermark", "quota", "shed",
            ]),
        }
    }

    /// Loads `dv3dlint.toml` from `root`, overlaying the defaults.
    pub fn load(root: PathBuf) -> Result<Config, ConfigError> {
        let path = root.join("dv3dlint.toml");
        let mut cfg = Config::defaults(root);
        let Ok(src) = std::fs::read_to_string(&path) else {
            return Ok(cfg); // defaults cover a missing config file
        };
        let t = Toml::parse(&src)
            .map_err(|e| ConfigError(format!("{}: {}", path.display(), e.0)))?;
        if let Some(v) = t.str_list("workspace", "crates") {
            cfg.crate_dirs = v;
        }
        let enabled = |s: &str| t.boolean(s, "enabled");
        if let Some(b) = enabled("rules.no_panic") {
            cfg.no_panic_enabled = b;
        }
        if let Some(v) = t.str_list("rules.no_panic", "crates") {
            cfg.no_panic_crates = v;
        }
        if let Some(v) = t.str_list("rules.no_panic", "indexing_hot_paths") {
            cfg.indexing_hot_paths = v;
        }
        if let Some(b) = enabled("rules.mask_propagation") {
            cfg.mask_enabled = b;
        }
        if let Some(v) = t.str_list("rules.mask_propagation", "crates") {
            cfg.mask_crates = v;
        }
        if let Some(v) = t.str_list("rules.mask_propagation", "raw_markers") {
            cfg.raw_markers = v;
        }
        if let Some(v) = t.str_list("rules.mask_propagation", "mask_markers") {
            cfg.mask_markers = v;
        }
        if let Some(b) = enabled("rules.deadline_io") {
            cfg.deadline_enabled = b;
        }
        if let Some(s) = t.string("rules.deadline_io", "crate") {
            cfg.deadline_crate = s;
        }
        // singular key kept for back-compat with older config files
        if let Some(s) = t.string("rules.deadline_io", "protocol_module") {
            cfg.protocol_modules = vec![s];
        }
        if let Some(v) = t.str_list("rules.deadline_io", "protocol_modules") {
            cfg.protocol_modules = v;
        }
        if let Some(v) = t.str_list("rules.deadline_io", "banned_calls") {
            cfg.banned_calls = v;
        }
        if let Some(b) = enabled("rules.atomic_writes") {
            cfg.atomic_writes_enabled = b;
        }
        if let Some(v) = t.str_list("rules.atomic_writes", "crates") {
            cfg.atomic_writes_crates = v;
        }
        if let Some(s) = t.string("rules.atomic_writes", "storage_module") {
            cfg.storage_module = s;
        }
        if let Some(v) = t.str_list("rules.atomic_writes", "raw_write_calls") {
            cfg.raw_write_calls = v;
        }
        if let Some(b) = enabled("rules.error_hygiene") {
            cfg.error_hygiene_enabled = b;
        }
        if let Some(v) = t.str_list("rules.error_hygiene", "crates") {
            cfg.error_hygiene_crates = v;
        }
        if let Some(b) = enabled("rules.lint_attrs") {
            cfg.lint_attrs_enabled = b;
        }
        if let Some(v) = t.str_list("rules.lint_attrs", "crates") {
            cfg.lint_attrs_crates = v;
        }
        if let Some(v) = t.str_list("rules.lint_attrs", "require_forbid") {
            cfg.require_forbid = v;
        }
        if let Some(b) = t.boolean("rules.lint_attrs", "require_workspace_lints") {
            cfg.require_workspace_lints = b;
        }
        if let Some(v) = t.str_list("rules.lint_attrs", "workspace_denies") {
            cfg.workspace_denies = v;
        }
        // shared dataflow-analysis knobs
        if let Some(v) = t.str_list("analysis", "crates") {
            cfg.concurrency_crates = v;
        }
        if let Some(v) = t.str_list("analysis", "lock_methods") {
            cfg.lock_methods = v;
        }
        if let Some(v) = t.str_list("analysis", "lock_wrappers") {
            cfg.lock_wrappers = v;
        }
        if let Some(v) = t.str_list("analysis", "guard_preserving") {
            cfg.guard_preserving = v;
        }
        if let Some(v) = t.str_list("analysis", "condvar_waits") {
            cfg.condvar_waits = v;
        }
        if let Some(v) = t.str_list("analysis", "blocking_calls") {
            cfg.blocking_calls = v;
        }
        if let Some(b) = enabled("rules.lock_order") {
            cfg.lock_order_enabled = b;
        }
        if let Some(b) = enabled("rules.guard_across_blocking") {
            cfg.guard_blocking_enabled = b;
        }
        if let Some(b) = enabled("rules.nondet_reduction") {
            cfg.nondet_enabled = b;
        }
        if let Some(v) = t.str_list("rules.nondet_reduction", "reduction_modules") {
            cfg.reduction_modules = v;
        }
        if let Some(v) = t.str_list("rules.nondet_reduction", "ordered_sinks") {
            cfg.ordered_sinks = v;
        }
        if let Some(v) = t.str_list("rules.nondet_reduction", "order_neutral") {
            cfg.order_neutral = v;
        }
        if let Some(b) = enabled("rules.unbounded_growth") {
            cfg.unbounded_enabled = b;
        }
        if let Some(v) = t.str_list("rules.unbounded_growth", "input_modules") {
            cfg.input_modules = v;
        }
        if let Some(v) = t.str_list("rules.unbounded_growth", "grow_calls") {
            cfg.grow_calls = v;
        }
        if let Some(v) = t.str_list("rules.unbounded_growth", "growth_guards") {
            cfg.growth_guards = v;
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_arrays() {
        let src = r#"
# top comment
[workspace]
crates = ["crates/a", "crates/b"]  # trailing comment

[rules.no_panic]
enabled = true
crates = [
  "cdms",
  "cdat",   # multi-line
]
limit = 42
name = "x # not a comment"
"#;
        let t = Toml::parse(src).expect("parse");
        assert_eq!(
            t.str_list("workspace", "crates"),
            Some(vec!["crates/a".into(), "crates/b".into()])
        );
        assert_eq!(t.boolean("rules.no_panic", "enabled"), Some(true));
        assert_eq!(
            t.str_list("rules.no_panic", "crates"),
            Some(vec!["cdms".into(), "cdat".into()])
        );
        assert_eq!(t.get("rules.no_panic", "limit"), Some(&Value::Int(42)));
        assert_eq!(
            t.string("rules.no_panic", "name").as_deref(),
            Some("x # not a comment")
        );
    }

    #[test]
    fn bad_syntax_is_an_error() {
        assert!(Toml::parse("[unclosed").is_err());
        assert!(Toml::parse("key value").is_err());
        assert!(Toml::parse("key = [\"a\"").is_err());
    }

    #[test]
    fn defaults_cover_all_rules() {
        let cfg = Config::defaults(PathBuf::from("."));
        assert!(cfg.no_panic_enabled);
        assert!(cfg.no_panic_crates.contains(&"cdat".to_string()));
        assert_eq!(cfg.deadline_crate, "hyperwall");
        assert!(cfg.require_forbid.contains(&"unsafe_code".to_string()));
    }
}
