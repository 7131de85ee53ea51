//! End-to-end benchmark of the `.ncr` → stream → DAG → translate → render →
//! wall pipeline. Drives only public functions of the library crates and
//! times them from outside. See `README.md` beside this crate.

mod analysis;
mod compare;
mod input;
mod single_cell;
mod stats;
mod trace;
mod wall;

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 5] = [
    "scrub_seq",
    "scrub_jump",
    "drag_iso",
    "analysis_dag",
    "wall_drag",
];

/// What one `run` was asked to do.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured section; sessions run whole, so the last one
    /// is the one that would cross this.
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts behind the percentiles.
    pub samples: Vec<(&'static str, usize)>,
    pub shape: String,
    pub trace: Option<trace::Tracer>,
}

impl Outcome {
    /// The end-to-end metrics, from the latencies of the timed operations.
    pub fn set_end_to_end(&mut self, setup_s: f64, first_ms: &[f64], step_ms: &[f64]) {
        let frames = (first_ms.len() + step_ms.len()) as f64;
        let busy_s = (stats::sum(first_ms) + stats::sum(step_ms)) / 1e3;
        self.samples = vec![
            ("first_frame_ms_p50", first_ms.len()),
            ("step_ms_p50", step_ms.len()),
        ];
        self.metrics = vec![
            ("setup_s", setup_s),
            ("first_frame_ms_p50", stats::median(first_ms)),
            ("step_ms_p50", stats::median(step_ms)),
            ("frames_per_s", frames / busy_s),
        ];
    }

    /// The per-layer metrics of a traced run: the two whole-run quantities
    /// that could not hold an end-to-end bound, then the layer's own.
    pub fn set_per_layer(&mut self, step_ms: &[f64], layer: Vec<(&'static str, f64)>) {
        self.samples.push(("step_ms_p95", step_ms.len()));
        self.metrics = vec![
            ("step_ms_p95", stats::quantile(step_ms, 0.95)),
            ("peak_rss_mb", peak_rss_mb()),
        ];
        self.metrics.extend(layer);
    }
}

/// Library errors become the run's error text.
pub fn err_text<E: std::fmt::Display>(err: E) -> String {
    err.to_string()
}

/// True while another whole session of average length still fits in the
/// measured section (and until two sessions have run).
pub fn time_for_another(clock: std::time::Instant, sessions: u32, seconds: f64) -> bool {
    let elapsed = clock.elapsed().as_secs_f64();
    sessions < 2 || elapsed + elapsed / f64::from(sessions) <= seconds
}

/// A JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's own directory: where cargo says the manifest is when the
/// binary runs under `cargo run`, else where it was when the binary was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `BENCHMARK.json` at the repository root: the one place that holds each
/// metric's unit, direction and bound.
pub fn load_manifest() -> Result<Value, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, unit, better, bound)` of every metric in one list of the manifest.
pub fn manifest_metrics(manifest: &Value, list: &str) -> Vec<(String, String, String, f64)> {
    let Some(Value::Array(items)) = manifest.get(list) else {
        return Vec::new();
    };
    let text = |v: &Value, k: &str| match v.get(k) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    items
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(as_f64).unwrap_or(0.0);
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn env_block(ctx: &Ctx) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("nproc", Value::UInt(nproc as u64)),
        (
            "rayon_pool",
            Value::UInt(rayon::current_num_threads() as u64),
        ),
        ("profile", Value::Str("release".into())),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::UInt(ctx.seed)),
        ("seconds", Value::Float(ctx.seconds)),
    ])
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "scrub_seq" => single_cell::run(single_cell::Kind::ScrubSeq, ctx),
        "scrub_jump" => single_cell::run(single_cell::Kind::ScrubJump, ctx),
        "drag_iso" => single_cell::run(single_cell::Kind::DragIso, ctx),
        "analysis_dag" => analysis::run(ctx),
        "wall_drag" => wall::run(ctx),
        other => Err(format!("unknown workload '{other}' (one of {WORKLOADS:?})")),
    }
}

/// Runs one workload, prints its metrics, appends the record to `out_file`
/// and ends with the one-line JSON result.
fn run_one(name: &str, ctx: &Ctx, out_file: &Path) -> Result<bool, String> {
    let manifest = load_manifest()?;
    let list = if ctx.trace { "per_layer" } else { "end_to_end" };
    let declared = manifest_metrics(&manifest, list);
    let mut outcome = run_workload(name, ctx)?;

    // Every declared metric is reported by every workload; a layer the
    // workload never enters reads 0. A measured metric the manifest does
    // not declare, or a missing end-to-end one, is a bug in this driver.
    for (measured, _) in &outcome.metrics {
        if !declared.iter().any(|(n, ..)| n == measured) {
            return Err(format!(
                "metric '{measured}' is not declared in BENCHMARK.json {list}"
            ));
        }
    }
    let mut metrics = Vec::new();
    println!(
        "workload {name}  seed {}  trace {}  [{}]",
        ctx.seed, ctx.trace as u8, outcome.shape
    );
    for (metric, unit, ..) in &declared {
        let value = match outcome.metrics.iter().find(|(n, _)| n == metric) {
            Some((_, v)) => *v,
            None if ctx.trace => 0.0,
            None => return Err(format!("workload {name} did not measure '{metric}'")),
        };
        let n = outcome
            .samples
            .iter()
            .find(|(s, _)| s == metric)
            .map(|(_, n)| format!("  (n={n})"));
        println!(
            "  {metric:<34} {value:>16.4} {unit}{}",
            n.unwrap_or_default()
        );
        metrics.push((
            metric.clone(),
            obj(vec![
                ("value", Value::Float(value)),
                ("unit", Value::Str(unit.clone())),
            ]),
        ));
    }
    let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  ops_attempted {}  ops_failed {}  failed_ops_ratio {ratio}",
        outcome.attempted, outcome.failed
    );
    for (what, n) in &outcome.samples {
        if !declared.iter().any(|(m, ..)| m == what) {
            println!("  samples: {what} n={n}");
        }
    }
    for f in outcome.failures.iter().take(10) {
        println!("  FAILED: {f}");
    }
    if let Some(tr) = outcome.trace.take() {
        let path = ctx.out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "self time by span ({} spans, written to {}):",
            tr.spans.len(),
            path.display()
        );
        print!("{}", tr.self_time_table());
    }

    let correct = outcome.failed == 0;
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(outcome.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    let record = obj(vec![
        ("workload", Value::Str(name.into())),
        ("trace", Value::Bool(ctx.trace)),
        ("shape", Value::Str(outcome.shape.clone())),
        ("env", env_block(ctx)),
        (
            "samples",
            Value::Object(
                outcome
                    .samples
                    .iter()
                    .map(|(k, n)| (k.to_string(), Value::UInt(*n as u64)))
                    .collect(),
            ),
        ),
        ("result", result.clone()),
    ]);
    let line = serde_json::to_string(&record).map_err(|e| e.to_string())? + "\n";
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_file)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("{}: {e}", out_file.display()))?;
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

const USAGE: &str = "usage:
  dv3d-benchmark run --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--out <file>]
  dv3d-benchmark run --all [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--out <file>]
  dv3d-benchmark compare <a.jsonl> <b.jsonl>
workloads: scrub_seq scrub_jump drag_iso analysis_dag wall_drag";

fn run_command(args: &[String]) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure an unoptimised build: run with --release".into());
    }
    let mut workload = None;
    let mut all = false;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 15.0,
        trace: false,
        out_dir: bench_dir().join("out"),
    };
    let mut out_file = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{what} wants a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--all" => all = true,
            "--seed" => ctx.seed = value("--seed")?.parse().map_err(|_| "--seed wants a u64")?,
            "--seconds" => {
                ctx.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds wants a number")?;
            }
            "--out" => out_file = Some(PathBuf::from(value("--out")?)),
            "--trace" => {
                // bare `--trace` means on; `--trace 0|1` is the driver's form
                ctx.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    let out_file = out_file.unwrap_or_else(|| ctx.out_dir.join("results.jsonl"));
    if !all {
        let name = workload.ok_or(format!("--workload or --all is required\n{USAGE}"))?;
        return run_one(&name, &ctx, &out_file);
    }
    // one process per workload, so peak_rss_mb is per workload
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", name, "--seed", &ctx.seed.to_string()])
            .args([
                "--seconds",
                &ctx.seconds.to_string(),
                "--trace",
                if ctx.trace { "1" } else { "0" },
            ])
            .arg("--out")
            .arg(&out_file)
            .status()
            .map_err(|e| e.to_string())?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => {
            compare::run(Path::new(&args[1]), Path::new(&args[2]))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
