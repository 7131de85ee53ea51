//! `dv3dlint.toml` loading. Ships a hand-rolled parser for the TOML subset
//! the config actually uses — sections, string/bool/integer scalars, and
//! (possibly multi-line) string arrays — so the linter stays dependency-free.
//! The same parser reads the `Cargo.toml` fields the rules care about.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

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

/// Which crates and files each rule covers, and whether it runs. What a
/// rule looks for (the call, marker and lint names) is fixed in the rule
/// itself. The defaults match this workspace; a run with no
/// `dv3dlint.toml` (ad-hoc paths outside the repo) uses them as they are.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (directory holding `dv3dlint.toml`).
    pub root: PathBuf,
    /// Crate directories scanned by `--workspace`, workspace-relative.
    pub crate_dirs: Vec<String>,
    pub mask_enabled: bool,
    pub mask_crates: Vec<String>,
    pub error_hygiene_enabled: bool,
    pub error_hygiene_crates: Vec<String>,
    pub lint_attrs_enabled: bool,
    pub lint_attrs_crates: Vec<String>,
    /// Crates the dataflow rules report on (the call-graph analysis itself
    /// is always workspace-global so cross-crate edges resolve).
    pub concurrency_crates: Vec<String>,
    pub lock_order_enabled: bool,
    pub guard_blocking_enabled: bool,
    pub nondet_enabled: bool,
    /// Module path suffixes whose parallel reductions are the sanctioned
    /// deterministic ones (`cdat::reduce` splits fixed-shape chunks).
    pub reduction_modules: Vec<String>,
    pub unbounded_enabled: bool,
    /// Module path suffixes that receive network or session input.
    pub input_modules: Vec<String>,
}

fn svec(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

impl Config {
    /// Built-in scope for this workspace (used for keys `dv3dlint.toml`
    /// leaves out, for ad-hoc runs without one, and by unit tests).
    pub fn defaults(root: PathBuf) -> Config {
        let library_crates =
            svec(&["cdms", "cdat", "rvtk", "vistrails", "dv3d", "hyperwall", "uvcdat", "dv3dlint"]);
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
            mask_enabled: true,
            mask_crates: svec(&["cdat"]),
            error_hygiene_enabled: true,
            error_hygiene_crates: library_crates.clone(),
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
            concurrency_crates: library_crates,
            lock_order_enabled: true,
            guard_blocking_enabled: true,
            nondet_enabled: true,
            reduction_modules: svec(&["crates/cdat/src/reduce.rs"]),
            unbounded_enabled: true,
            input_modules: svec(&["crates/hyperwall/src/server.rs"]),
        }
    }

    /// Loads the `dv3dlint.toml` at `path` over the defaults; the
    /// workspace root is the file's directory. A file that cannot be read
    /// is an error, not a silent fall-back to the defaults, and so is a
    /// section or key this function does not read, or a key it reads that
    /// holds the wrong type (a misspelt `enabled`, or `enabled = "false"`,
    /// would otherwise leave its rule on without a word).
    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))?;
        let t = Toml::parse(&src)
            .map_err(|e| ConfigError(format!("{}: {}", path.display(), e.0)))?;
        let root = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let mut cfg = Config::defaults(root);
        let mut o = Overlay { toml: &t, read: Vec::new(), mistyped: None };
        o.list("workspace", "crates", &mut cfg.crate_dirs);
        o.enabled("rules.mask_propagation", &mut cfg.mask_enabled);
        o.list("rules.mask_propagation", "crates", &mut cfg.mask_crates);
        o.enabled("rules.error_hygiene", &mut cfg.error_hygiene_enabled);
        o.list("rules.error_hygiene", "crates", &mut cfg.error_hygiene_crates);
        o.enabled("rules.lint_attrs", &mut cfg.lint_attrs_enabled);
        o.list("rules.lint_attrs", "crates", &mut cfg.lint_attrs_crates);
        o.list("analysis", "crates", &mut cfg.concurrency_crates);
        o.enabled("rules.lock_order", &mut cfg.lock_order_enabled);
        o.enabled("rules.guard_across_blocking", &mut cfg.guard_blocking_enabled);
        o.enabled("rules.nondet_reduction", &mut cfg.nondet_enabled);
        o.list("rules.nondet_reduction", "reduction_modules", &mut cfg.reduction_modules);
        o.enabled("rules.unbounded_growth", &mut cfg.unbounded_enabled);
        o.list("rules.unbounded_growth", "input_modules", &mut cfg.input_modules);
        match o.mistyped.take().or_else(|| o.unknown()) {
            Some(what) => Err(ConfigError(format!("{what} in {}", path.display()))),
            None => Ok(cfg),
        }
    }
}

/// Copies a parsed `dv3dlint.toml` onto a [`Config`], remembering every
/// key it reads: whatever the file holds beyond those is unknown. The
/// first key it reads that holds the wrong type is kept in `mistyped`.
struct Overlay<'t> {
    toml: &'t Toml,
    read: Vec<(&'static str, &'static str)>,
    mistyped: Option<String>,
}

impl Overlay<'_> {
    fn list(&mut self, section: &'static str, key: &'static str, into: &mut Vec<String>) {
        self.read.push((section, key));
        match self.toml.get(section, key).map(|_| self.toml.str_list(section, key)) {
            None => {}
            Some(Some(v)) => *into = v,
            Some(None) => self.wrong_type(section, key, "a string or a list of strings"),
        }
    }

    fn enabled(&mut self, section: &'static str, into: &mut bool) {
        self.read.push((section, "enabled"));
        match self.toml.get(section, "enabled").map(|_| self.toml.boolean(section, "enabled")) {
            None => {}
            Some(Some(b)) => *into = b,
            Some(None) => self.wrong_type(section, "enabled", "`true` or `false`"),
        }
    }

    fn wrong_type(&mut self, section: &str, key: &str, want: &str) {
        self.mistyped
            .get_or_insert_with(|| format!("key `{key}` in `[{section}]` must be {want}"));
    }

    /// The file's first section or key that no call above read.
    fn unknown(&self) -> Option<String> {
        for (section, keys) in &self.toml.sections {
            if !section.is_empty() && !self.read.iter().any(|(s, _)| s == section) {
                return Some(format!("unknown section `[{section}]`"));
            }
            if let Some(key) = keys.keys().find(|k| !self.read.contains(&(section, k))) {
                return Some(format!("unknown key `{key}` in `[{section}]`"));
            }
        }
        None
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

[rules.error_hygiene]
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
        assert_eq!(t.boolean("rules.error_hygiene", "enabled"), Some(true));
        assert_eq!(
            t.str_list("rules.error_hygiene", "crates"),
            Some(vec!["cdms".into(), "cdat".into()])
        );
        assert_eq!(t.get("rules.error_hygiene", "limit"), Some(&Value::Int(42)));
        assert_eq!(
            t.string("rules.error_hygiene", "name").as_deref(),
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
    fn a_known_key_of_the_wrong_type_is_refused() {
        let dir = std::env::temp_dir().join(format!("dv3dlint-config-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        for (name, toml, expected) in [
            (
                "string_enabled.toml",
                "[rules.lock_order]\nenabled = \"false\"\n",
                "key `enabled` in `[rules.lock_order]` must be `true` or `false`",
            ),
            (
                "numeric_crates.toml",
                "[rules.error_hygiene]\ncrates = 3\n",
                "key `crates` in `[rules.error_hygiene]` must be a string or a list of strings",
            ),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, toml).expect("write config");
            let err = Config::load(&path).expect_err(name).to_string();
            assert!(err.contains(expected), "{name}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn defaults_cover_all_rules() {
        let cfg = Config::defaults(PathBuf::from("."));
        assert!(cfg.mask_enabled);
        assert!(cfg.error_hygiene_crates.contains(&"cdat".to_string()));
        assert_eq!(cfg.mask_crates, vec!["cdat".to_string()]);
        assert!(crate::rules::lint_attrs::REQUIRE_FORBID.contains(&"unsafe_code"));
    }
}
