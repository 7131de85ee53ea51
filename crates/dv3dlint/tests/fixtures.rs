//! Fixture-workspace tests for the two-pass dataflow rules (R7–R10).
//!
//! `tests/fixtures/` holds a miniature lint workspace: `bad/` seeds one
//! known violation per analyzer capability (lock-order cycle across two
//! mutexes with one interprocedural path, guard across deadline I/O,
//! guard across a condvar wait, captured-float parallel accumulation,
//! hash-order iteration into an ordered sink, unguarded growth in an
//! input module) and `good/` carries the corrected counterparts, which
//! must stay silent. `golden.json` pins the full JSON report byte-for-
//! byte (minus the timing fields), so any drift in rule behaviour, finding
//! order, message wording, or report shape fails here first.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dv3dlint-fx-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the binary over the fixture workspace with the report redirected
/// into `out`. Returns (exit code, stderr).
fn run_fixture_lint(out: &Path) -> (i32, String) {
    let cfg = fixtures_dir().join("dv3dlint.toml");
    let args: Vec<String> = vec![
        "--workspace".into(),
        "--config".into(),
        cfg.to_string_lossy().into_owned(),
        "--json".into(),
        out.join("report.json").to_string_lossy().into_owned(),
        "--quiet".into(),
    ];
    let o = Command::new(env!("CARGO_BIN_EXE_dv3dlint"))
        .args(&args)
        .current_dir(fixtures_dir())
        .output()
        .expect("spawn dv3dlint");
    (o.status.code().unwrap_or(-1), String::from_utf8_lossy(&o.stderr).into_owned())
}

/// The report minus the wall-clock-dependent line.
fn normalize(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("\"elapsed_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn seeded_fixture_findings_match_golden_json() {
    let out = scratch_dir("golden");
    let (code, err) = run_fixture_lint(&out);
    assert_eq!(code, 1, "seeded violations must exit 1:\n{err}");

    let report =
        std::fs::read_to_string(out.join("report.json")).expect("report written");
    let golden =
        std::fs::read_to_string(fixtures_dir().join("golden.json")).expect("golden.json");
    assert_eq!(
        normalize(&report),
        golden.trim_end().replace("\r\n", "\n"),
        "fixture findings drifted from golden.json — if the change is \
         intentional, regenerate the golden from the new report"
    );

    // the acceptance-criteria seeds, by name
    assert!(report.contains("\"file\": \"bad/src/lib.rs\", \"line\": 17"), "lock cycle");
    assert!(report.contains("grab_alpha"), "cycle message names the interprocedural path");
    assert!(report.contains("\"line\": 37"), "guard across read_message_deadline");
    assert!(report.contains("\"line\": 47"), "guard across condvar wait");
    assert!(report.contains("\"line\": 57"), "captured float accumulator");
    assert!(report.contains("\"line\": 65"), "hash iteration into ordered sink");
    assert!(report.contains("\"file\": \"bad/src/intake.rs\", \"line\": 10"), "growth");
    // the corrected crate stays silent
    assert!(!report.contains("good/src"), "good/ must produce no findings:\n{report}");

    std::fs::remove_dir_all(&out).ok();
}
