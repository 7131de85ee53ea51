//! `analysis_dag`: the §III.G analysis workflow — twelve streamed windows,
//! each regridded conservatively to 1° and reduced by a fused pipeline, on
//! the event-driven task-graph executor.

use crate::input;
use crate::stats;
use crate::trace::Tracer;
use crate::{err_text as e, time_for_another, Ctx, Outcome};
use cdat::pipeline::AnalysisStep;
use cdat::plan_cache;
use cdat::regrid_plan::RegridMethod;
use cdat::taskgraph::{TaskGraph, TaskReport};
use cdms::RectGrid;
use std::path::Path;
use std::time::Instant;

const TARGET_GRID: (usize, usize) = (180, 360);
/// Warm runs that follow the cold run of a session.
const WARM_RUNS: usize = 2;
const KINDS: [&str; 3] = ["src", "regrid", "pipe"];

fn build(path: &Path) -> Result<TaskGraph, String> {
    let mut g = TaskGraph::new();
    for w in 0..input::N_WINDOWS {
        let (src, regrid, pipe) = (
            format!("src_{w}"),
            format!("regrid_{w}"),
            format!("pipe_{w}"),
        );
        g.add_streaming_window_source(&src, path, "ta", w, false)
            .map_err(e)?;
        let target = RectGrid::uniform(TARGET_GRID.0, TARGET_GRID.1).map_err(e)?;
        g.add_regrid_task(&regrid, &src, target, RegridMethod::Conservative)
            .map_err(e)?;
        let steps = vec![
            AnalysisStep::Anomaly,
            AnalysisStep::Standardize,
            AnalysisStep::SpatialMean,
        ];
        g.add_pipeline_task(&pipe, &regrid, steps).map_err(e)?;
    }
    Ok(g)
}

/// Busy milliseconds of one run summed per task kind (`src`, `regrid`, `pipe`).
fn busy_by_kind(report: &TaskReport) -> [f64; 3] {
    let mut sums = [0.0; 3];
    for (name, d) in &report.timings {
        if let Some(k) = KINDS.iter().position(|k| name.starts_with(k)) {
            sums[k] += d.as_secs_f64() * 1e3;
        }
    }
    sums
}

/// Run time not explained by the tasks themselves: total minus the larger of
/// the longest source→regrid→pipeline chain and busy time spread evenly over
/// the workers, the two lower bounds on any schedule.
fn dag_overhead_ms(report: &TaskReport) -> f64 {
    let ms = |name: String| {
        report
            .timings
            .get(&name)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    };
    let chain = (0..input::N_WINDOWS)
        .map(|w| KINDS.iter().map(|k| ms(format!("{k}_{w}"))).sum::<f64>())
        .fold(0.0, f64::max);
    let busy: f64 = busy_by_kind(report).iter().sum();
    report.total.as_secs_f64() * 1e3 - chain.max(busy / report.workers as f64)
}

/// Every sink equals the serial oracle's.
fn sinks_match(report: &TaskReport, serial: &TaskReport) -> bool {
    (0..input::N_WINDOWS).all(|w| {
        let name = format!("pipe_{w}");
        match (report.outputs.get(&name), serial.outputs.get(&name)) {
            (Some(a), Some(b)) => a.array == b.array && a.axes == b.axes,
            _ => false,
        }
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let input = input::setup_file(ctx.seed, &ctx.out_dir)?;
    let graph = build(&input.path)?;
    let serial = graph.run_serial().map_err(e)?;

    let mut tr = Tracer::new();
    tr.enabled = ctx.trace;
    let mut out = Outcome::default();
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    let mut busy: [Vec<f64>; 3] = Default::default();
    let mut overhead = Vec::new();
    let mut cache_counts: Option<(u64, u64)> = None;
    let mut workers = 0;
    let clock = Instant::now();
    let mut sessions = 0u32;
    loop {
        tr.session = sessions;
        plan_cache::clear_global();
        let before = plan_cache::global_stats();
        for run in 0..=WARM_RUNS {
            let t0 = Instant::now();
            let root = tr.begin("step");
            let s = tr.begin("cdat.run_parallel");
            let report = graph.run_parallel().map_err(e)?;
            tr.end(s);
            tr.end(root);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            if !sinks_match(&report, &serial) {
                out.failed += 1;
                out.failures.push(format!(
                    "session {sessions} run {run}: outputs differ from run_serial"
                ));
            }
            workers = report.workers;
            if run == 0 {
                cold_ms.push(ms);
            } else {
                warm_ms.push(ms);
                for (k, v) in busy_by_kind(&report).into_iter().enumerate() {
                    busy[k].push(v);
                }
                overhead.push(dag_overhead_ms(&report));
            }
        }
        let after = plan_cache::global_stats();
        let delta = (after.hits - before.hits, after.misses - before.misses);
        if *cache_counts.get_or_insert(delta) != delta {
            out.failed += 1;
            out.failures.push(format!(
                "session {sessions}: plan cache hits/misses {delta:?} changed"
            ));
        }
        sessions += 1;
        if !time_for_another(clock, sessions, ctx.seconds) {
            break;
        }
    }
    let (nt, nlev, nlat, nlon) = input::SHAPE;
    let source_melem = (nt * nlev * nlat * nlon) as f64 / 1e6;
    let regrid_melem = (nt * nlev * TARGET_GRID.0 * TARGET_GRID.1) as f64 / 1e6;
    out.shape = format!(
        "{} x (stream window -> conservative regrid {nlat}x{nlon} -> {}x{} -> anomaly, standardize, \
         spatial mean), {workers} workers, {sessions} sessions x (1 cold + {WARM_RUNS} warm runs)",
        input::N_WINDOWS,
        TARGET_GRID.0,
        TARGET_GRID.1
    );

    let warm_p50 = stats::median(&warm_ms);
    if !ctx.trace {
        // first frame: the first result a user sees, a run that must also
        // build the regrid plan; step: a warm run
        out.set_end_to_end(input.setup_s, &cold_ms, &warm_ms);
        return Ok(out);
    }
    let (hits, misses) = cache_counts.unwrap_or((0, 0));
    let per_s =
        |melem: f64, busy_ms: &[f64]| melem * busy_ms.len() as f64 / (stats::sum(busy_ms) / 1e3);
    out.samples = vec![("cold runs", cold_ms.len())];
    let layer = vec![
        ("cdms.write_ms", input.write_ms),
        ("cdms.write_mb_per_s", input.write_mb_per_s),
        ("cdat.source_ms", stats::median(&busy[0])),
        ("cdat.regrid_ms", stats::median(&busy[1])),
        ("cdat.pipeline_ms", stats::median(&busy[2])),
        ("cdat.dag_overhead_ms", stats::median(&overhead)),
        ("cdat.plan_build_ms", stats::median(&cold_ms) - warm_p50),
        ("cdat.plan_cache_hits", hits as f64),
        ("cdat.plan_cache_misses", misses as f64),
        ("cdat.regrid_melem_per_s", per_s(regrid_melem, &busy[1])),
        ("cdat.pipeline_melem_per_s", per_s(regrid_melem, &busy[2])),
        ("cdat.analysis_melem_per_s", source_melem / (warm_p50 / 1e3)),
        ("trace.unattributed_ratio", tr.unattributed_ratio("step")),
    ];
    out.set_per_layer(&warm_ms, layer);
    out.trace = Some(tr);
    Ok(out)
}
