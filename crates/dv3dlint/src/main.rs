//! The `dv3dlint` CLI.
//!
//! ```text
//! dv3dlint --workspace                 # lint every configured crate
//! dv3dlint path/to/file.rs dir/       # lint explicit paths (all rules, ad hoc)
//! dv3dlint --list-rules                # the seven rules, one a line
//!
//! Flags:
//!   --config <path>    the dv3dlint.toml to read (default: search upward from
//!                      cwd; none found = the built-in scope)
//!   --json <path>      write the JSON report here (default on --workspace:
//!                      <root>/out/dv3dlint_report.json)
//!   --budget-ms <n>    fail (exit 2) if the lint pass exceeds n ms wall-clock
//!   --quiet            suppress per-finding output, keep the summary
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/config error (including
//! an unreadable `--config`, a section or key in it that dv3dlint does not
//! read, and a blown `--budget-ms`).

#![forbid(unsafe_code)]
// R1 (DESIGN.md §10): library code returns an error where it could panic;
// a site whose invariant rules the panic out says why in an `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

use dv3dlint::config::Config;
use dv3dlint::{engine, report, workspace};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workspace: bool,
    config: Option<PathBuf>,
    json: Option<PathBuf>,
    budget_ms: Option<u64>,
    quiet: bool,
    list_rules: bool,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        config: None,
        json: None,
        budget_ms: None,
        quiet: false,
        list_rules: false,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--config" => {
                args.config =
                    Some(PathBuf::from(it.next().ok_or("--config needs a path")?));
            }
            "--json" => {
                args.json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?));
            }
            "--budget-ms" => {
                let v = it.next().ok_or("--budget-ms needs a number")?;
                args.budget_ms =
                    Some(v.parse().map_err(|_| format!("--budget-ms: bad number `{v}`"))?);
            }
            "--quiet" | "-q" => args.quiet = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err("usage: dv3dlint --workspace | <paths…> \
                            [--config <toml>] [--json <path>] [--budget-ms <n>] [--quiet]"
                    .into());
            }
            p if !p.starts_with('-') => args.paths.push(PathBuf::from(p)),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// The `dv3dlint.toml` nearest the current directory, searching upward.
fn find_config() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("dv3dlint.toml");
        if candidate.is_file() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.list_rules {
        for rule in dv3dlint::rules::all() {
            println!("{:<22} {}", rule.id(), rule.describe());
        }
        return Ok(true);
    }
    let cfg = match args.config.or_else(find_config) {
        Some(path) => Config::load(&path).map_err(|e| e.to_string())?,
        None => Config::defaults(PathBuf::from(".")),
    };

    let started = Instant::now();
    let ws = if args.workspace {
        workspace::load_workspace(&cfg).map_err(|e| e.to_string())?
    } else if !args.paths.is_empty() {
        workspace::load_paths(&args.paths).map_err(|e| e.to_string())?
    } else {
        return Err("nothing to lint: pass --workspace or explicit paths (try --help)".into());
    };

    let mut summary = engine::run(&ws, &cfg);
    summary.elapsed_ms = started.elapsed().as_millis() as u64;

    if !args.quiet {
        for d in summary.diagnostics.iter().filter(|d| !d.suppressed) {
            eprintln!("{}", d.render());
        }
    }
    let counts: Vec<String> = summary
        .per_rule
        .iter()
        .filter(|c| c.violations + c.allowed > 0)
        .map(|c| format!("{}: {} ({} allowed)", c.rule, c.violations, c.allowed))
        .collect();
    eprintln!(
        "dv3dlint: {} file(s) in {} ms, {} violation(s), {} allowed{}{}",
        summary.files_scanned,
        summary.elapsed_ms,
        summary.total_violations(),
        summary.total_allowed(),
        if counts.is_empty() { "" } else { " — " },
        counts.join(", ")
    );

    let report_path = match args.json {
        Some(p) => Some(p),
        None if args.workspace => Some(cfg.root.join("out/dv3dlint_report.json")),
        None => None,
    };
    if let Some(path) = report_path {
        report::write(&summary, &path)
            .map_err(|e| format!("cannot write report {}: {e}", path.display()))?;
        if !args.quiet {
            eprintln!("dv3dlint: report written to {}", path.display());
        }
    }

    if let Some(budget) = args.budget_ms {
        if summary.elapsed_ms > budget {
            return Err(format!(
                "lint pass took {} ms, over the --budget-ms {budget}",
                summary.elapsed_ms
            ));
        }
    }
    Ok(summary.clean())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("dv3dlint: {msg}");
            ExitCode::from(2)
        }
    }
}
