//! Parallel analysis task graphs — DV3D's "parallel task execution".
//!
//! An analysis recipe is a DAG of named tasks, each a closure from its
//! dependencies' outputs to a new [`Variable`]. The graph runs either
//! serially ([`TaskGraph::run_serial`], the determinism oracle) or on
//! [`vistrails::schedule`], the DAG scheduler the workflow executor runs on
//! too ([`TaskGraph::run_with_pool`] / [`TaskGraph::run_parallel`]), with a
//! task's insertion order as its node index. Outputs are bit-identical to
//! `run_serial` at any worker count. See DESIGN.md §18. A hot-path file
//! that denies `clippy::indexing_slicing`, as the scheduler is: no element
//! access here may panic, so it goes through `.get()` and iterators.

// Hot path: the task graph sits under every batch workload.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use cdms::{CdmsError, Result, Variable};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vistrails::schedule::{self, Topology};
pub use vistrails::schedule::RetryPolicy;

type TaskFn = dyn Fn(&BTreeMap<String, Arc<Variable>>) -> Result<Variable> + Send + Sync;
type Outcome = schedule::Outcome<Arc<Variable>, CdmsError>;

struct Task {
    name: String,
    deps: Vec<String>,
    run: Box<TaskFn>,
}

impl Task {
    /// What the task body is handed: the outputs of its declared
    /// dependencies (task indices `deps`), in declared order, and nothing
    /// else — under both runners, so the serial oracle cannot see more
    /// than the pool does.
    fn inputs<'a>(
        &self,
        deps: &[usize],
        output: impl Fn(usize) -> Option<&'a Arc<Variable>>,
    ) -> BTreeMap<String, Arc<Variable>> {
        self.deps
            .iter()
            .zip(deps)
            .filter_map(|(d, &j)| output(j).map(|v| (d.clone(), Arc::clone(v))))
            .collect()
    }
}

/// A dependency-aware analysis task graph.
#[derive(Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    /// Per-task retry policy applied by both runners (default: fail fast).
    pub retry: RetryPolicy,
}

/// Hard cap on graph size: scheduler state (dependency counts, ready heap,
/// done set) is sized per task, and graphs are often built from
/// user-supplied workflow files.
pub(crate) const MAX_TASKS: usize = 100_000;

/// Execution report: per-task wall time plus the result set.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Completed task outputs by name.
    pub outputs: BTreeMap<String, Arc<Variable>>,
    /// Per-task wall-clock durations (summed over attempts).
    pub timings: BTreeMap<String, Duration>,
    /// Per-task wall time of each individual attempt, in order (length 1
    /// everywhere unless the retry policy re-ran a failing task).
    pub attempt_timings: BTreeMap<String, Vec<Duration>>,
    /// Workers the run was given (1 for `run_serial`).
    pub workers: usize,
    /// Workers the run started (1 for `run_serial`): the scheduler starts
    /// at most as many as the graph's widest depth level.
    pub started: usize,
    /// Total wall time of the run.
    pub total: Duration,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Adds a task with dependencies. Task names must be unique.
    pub fn add_task(
        &mut self,
        name: &str,
        deps: &[&str],
        run: impl Fn(&BTreeMap<String, Arc<Variable>>) -> Result<Variable> + Send + Sync + 'static,
    ) -> Result<()> {
        if self.tasks.iter().any(|t| t.name == name) {
            return Err(CdmsError::Invalid(format!("duplicate task '{name}'")));
        }
        if self.tasks.len() >= MAX_TASKS {
            return Err(CdmsError::Invalid(format!(
                "task graph at capacity ({MAX_TASKS} tasks); refusing to add '{name}'"
            )));
        }
        self.tasks.push(Task {
            name: name.to_string(),
            deps: deps.iter().map(|s| s.to_string()).collect(),
            run: Box::new(run),
        });
        Ok(())
    }

    /// Adds a source task that just provides an existing variable.
    pub(crate) fn add_source(&mut self, name: &str, var: Variable) -> Result<()> {
        let var = Arc::new(var);
        self.add_task(name, &[], move |_| Ok((*var).clone()))
    }

    /// Adds a source task that streams ONE chunk window of `variable` out
    /// of a `.ncr` v3 file — a graph over many windows touches each chunk
    /// with ranged reads instead of ever loading the whole series, so the
    /// graph's working set stays at the streaming cache budget.
    ///
    /// Transient storage errors propagate so the graph's
    /// [`RetryPolicy`] re-runs the node, and when `degrade` is set a
    /// permanently damaged window falls back to the best intact pyramid
    /// level (or a masked slab) instead of failing the graph.
    pub fn add_streaming_window_source(
        &mut self,
        name: &str,
        path: &Path,
        variable: &str,
        window: usize,
        degrade: bool,
    ) -> Result<()> {
        self.add_streaming_window_source_with(
            Arc::new(cdms::storage::LocalDisk),
            name,
            path,
            variable,
            window,
            cdms::StreamOptions::default(),
            degrade,
        )
    }

    /// [`TaskGraph::add_streaming_window_source`] through an explicit
    /// storage backend and stream options (fault injection, cache tuning).
    #[allow(
        clippy::too_many_arguments,
        reason = "`add_streaming_window_source`'s arguments plus the backend and stream options"
    )]
    pub(crate) fn add_streaming_window_source_with(
        &mut self,
        storage: Arc<dyn cdms::Storage>,
        name: &str,
        path: &Path,
        variable: &str,
        window: usize,
        opts: cdms::StreamOptions,
        degrade: bool,
    ) -> Result<()> {
        let path = path.to_path_buf();
        let variable = variable.to_string();
        self.add_task(name, &[], move |_| {
            let sd = cdms::StreamingDataset::open_with(Arc::clone(&storage), &path, opts.clone())?;
            let sv = sd.variable(&variable)?;
            if degrade {
                sv.window_variable_degraded(window)
            } else {
                sv.window_variable(window)
            }
        })
    }

    /// Adds a task that regrids the output of `input` onto `target` with
    /// `method`, planning through the global regrid plan cache — graphs
    /// that regrid many timesteps (or many variables) over the same grid
    /// pair share one sparse weight matrix.
    pub fn add_regrid_task(
        &mut self,
        name: &str,
        input: &str,
        target: cdms::RectGrid,
        method: crate::regrid_plan::RegridMethod,
    ) -> Result<()> {
        let dep = input.to_string();
        self.add_task(name, &[input], move |deps| {
            let var = deps
                .get(&dep)
                .ok_or_else(|| CdmsError::NotFound(format!("dependency '{dep}'")))?;
            crate::regrid::regrid(var, &target, method)
        })
    }

    /// Adds one task that regrids N ensemble-member inputs onto `target`
    /// through [`crate::regrid::regrid_batch`]: the plan cache is
    /// consulted once, then the plan is applied member by member. The
    /// task's output stacks the regridded members along a new leading `member`
    /// axis, in the order of `inputs`.
    pub(crate) fn add_regrid_batch_task(
        &mut self,
        name: &str,
        inputs: &[&str],
        target: cdms::RectGrid,
        method: crate::regrid_plan::RegridMethod,
    ) -> Result<()> {
        let deps: Vec<String> = inputs.iter().map(|s| s.to_string()).collect();
        self.add_task(name, inputs, move |dep_vals| {
            let mut members: Vec<&Variable> = Vec::with_capacity(deps.len());
            for d in &deps {
                members.push(
                    dep_vals
                        .get(d)
                        .map(Arc::as_ref)
                        .ok_or_else(|| CdmsError::NotFound(format!("dependency '{d}'")))?,
                );
            }
            let regridded = crate::regrid::regrid_batch(&members, &target, method)?;
            crate::ensemble::stack(&regridded)
        })
    }

    /// Adds a task that runs a fused analysis pipeline
    /// ([`crate::pipeline::run`]) over the output of `input`: the steps
    /// execute with cross-step fusion (a few streaming passes) instead of
    /// materializing every intermediate variable.
    pub fn add_pipeline_task(
        &mut self,
        name: &str,
        input: &str,
        steps: Vec<crate::pipeline::AnalysisStep>,
    ) -> Result<()> {
        let dep = input.to_string();
        self.add_task(name, &[input], move |deps| {
            let var = deps
                .get(&dep)
                .ok_or_else(|| CdmsError::NotFound(format!("dependency '{dep}'")))?;
            crate::pipeline::run(var, &steps)
        })
    }

    /// Resolves every task's dependencies to task indices, in declared
    /// order, and checks the graph: an unknown dependency or a cycle is an
    /// error.
    fn topology(&self) -> Result<(Vec<Vec<usize>>, Topology)> {
        let index: BTreeMap<&str, usize> =
            self.tasks.iter().enumerate().map(|(i, t)| (t.name.as_str(), i)).collect();
        let resolve = |t: &Task, d: &String| {
            index.get(d.as_str()).copied().ok_or_else(|| {
                CdmsError::NotFound(format!("task '{}' depends on unknown '{d}'", t.name))
            })
        };
        let deps = self.tasks.iter().map(|t| t.deps.iter().map(|d| resolve(t, d)).collect());
        let deps = deps.collect::<Result<Vec<Vec<usize>>>>()?;
        let topo = Topology::new(&deps).map_err(|stuck| {
            let stuck: Vec<&str> =
                stuck.iter().filter_map(|&i| self.tasks.get(i)).map(|t| t.name.as_str()).collect();
            CdmsError::Invalid(format!("cycle among tasks {stuck:?}"))
        })?;
        Ok((deps, topo))
    }

    /// Runs the graph serially: a plain loop over the tasks in the
    /// topology's order (by depth, then insertion), stopping at the first
    /// failure. Each task sees exactly its declared dependencies' outputs,
    /// as on the pool.
    pub fn run_serial(&self) -> Result<TaskReport> {
        let start = Instant::now();
        let (deps, topo) = self.topology()?;
        let mut slots: Vec<Option<Outcome>> = (0..self.tasks.len()).map(|_| None).collect();
        for &i in topo.order() {
            let (Some(t), Some(d)) = (self.tasks.get(i), deps.get(i)) else { continue };
            let output = |j: usize| slots.get(j)?.as_ref()?.1.as_ref().ok();
            let outcome = self.retry.run(|| (t.run)(&t.inputs(d, output)).map(Arc::new));
            let failed = outcome.1.is_err();
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(outcome);
            }
            if failed {
                break;
            }
        }
        self.report(&topo, slots, 1, start)
    }

    /// Runs the graph on the scheduler with as many workers as
    /// `rayon::current_num_threads()` — the caller's `rayon::with_threads`
    /// value, else the process default. Outputs are bit-identical to
    /// [`TaskGraph::run_serial`]; each task sees exactly its declared
    /// dependencies' outputs.
    pub fn run_parallel(&self) -> Result<TaskReport> {
        self.run_with_pool(rayon::current_num_threads())
    }

    /// Runs the graph as one [`schedule::run`] of `threads` workers
    /// (clamped to at least 1, at most the task count; the scheduler starts
    /// no more than the graph's widest depth level), each task under
    /// [`TaskGraph::retry`] exactly as in `run_serial`. Of the failures the
    /// run saw before it drained, the one `run_serial`'s order meets first
    /// is returned; a task that panics ends the run with its panic.
    pub fn run_with_pool(&self, threads: usize) -> Result<TaskReport> {
        let start = Instant::now();
        let (deps, topo) = self.topology()?;
        let workers = threads.clamp(1, self.tasks.len().max(1));
        let slots = schedule::run(&topo, workers, &self.retry, |i, done| {
            let (Some(t), Some(d)) = (self.tasks.get(i), deps.get(i)) else {
                return Err(CdmsError::NotFound(format!("task {i}")));
            };
            (t.run)(&t.inputs(d, |j| done.get(j)?.get())).map(Arc::new)
        });
        self.report(&topo, slots, workers, start)
    }

    /// Books a run's successes in the topology's order, or returns the
    /// first failure in that order.
    fn report(
        &self,
        topo: &Topology,
        mut slots: Vec<Option<Outcome>>,
        workers: usize,
        start: Instant,
    ) -> Result<TaskReport> {
        let (mut outputs, mut timings, mut attempt_timings) =
            (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
        for &i in topo.order() {
            let (Some(t), Some((attempts, out))) =
                (self.tasks.get(i), slots.get_mut(i).and_then(Option::take))
            else {
                continue;
            };
            let out = out.map_err(|e| CdmsError::Invalid(format!("task '{}': {e}", t.name)))?;
            timings.insert(t.name.clone(), attempts.iter().sum());
            attempt_timings.insert(t.name.clone(), attempts);
            outputs.insert(t.name.clone(), out);
        }
        let started = topo.workers(workers);
        let total = start.elapsed();
        Ok(TaskReport { outputs, timings, attempt_timings, workers, started, total })
    }
}

impl std::fmt::Debug for TaskGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.tasks.iter().map(|t| t.name.as_str()).collect();
        f.debug_struct("TaskGraph").field("tasks", &names).finish()
    }
}

#[cfg(test)]
impl TaskGraph {
    /// True when the graph has no tasks.
    pub(crate) fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{averager, climatology};
    use cdms::synth::SynthesisSpec;

    fn analysis_graph(sleep_ms: u64) -> TaskGraph {
        let ds = SynthesisSpec::new(4, 2, 8, 16).build();
        let ta = ds.variable("ta").unwrap().clone();
        let mut g = TaskGraph::new();
        g.add_source("ta", ta).unwrap();
        g.add_task("anom", &["ta"], move |deps| {
            std::thread::sleep(Duration::from_millis(sleep_ms));
            climatology::anomaly(&deps["ta"])
        })
        .unwrap();
        g.add_task("zonal", &["ta"], move |deps| {
            std::thread::sleep(Duration::from_millis(sleep_ms));
            averager::zonal_mean(&deps["ta"])
        })
        .unwrap();
        g.add_task("series", &["anom"], |deps| averager::spatial_mean(&deps["anom"]))
            .unwrap();
        g
    }

    #[test]
    fn regrid_tasks_share_a_cached_plan() {
        use crate::regrid_plan::RegridMethod;
        let ds = SynthesisSpec::new(4, 2, 8, 16).build();
        let mut g = TaskGraph::new();
        g.add_source("ta", ds.variable("ta").unwrap().clone()).unwrap();
        g.add_source("ua", ds.variable("ua").unwrap().clone()).unwrap();
        // both tasks regrid onto the same target grid → one shared plan
        let dst = cdms::RectGrid::uniform(5, 9).unwrap();
        g.add_regrid_task("ta_lo", "ta", dst.clone(), RegridMethod::Bilinear).unwrap();
        g.add_regrid_task("ua_lo", "ua", dst, RegridMethod::Bilinear).unwrap();
        let before = crate::plan_cache::global_stats();
        let report = g.run_parallel().unwrap();
        assert_eq!(report.outputs["ta_lo"].shape(), &[4, 2, 5, 9]);
        assert_eq!(report.outputs["ua_lo"].shape(), &[4, 2, 5, 9]);
        let after = crate::plan_cache::global_stats();
        assert!(
            after.hits + after.misses >= before.hits + before.misses + 2,
            "both regrid tasks should consult the plan cache"
        );
        assert!(after.hits > before.hits, "second task should reuse the cached plan");
    }

    #[test]
    fn pipeline_task_matches_stepwise_tasks() {
        use crate::pipeline::AnalysisStep;
        let ds = SynthesisSpec::new(12, 2, 8, 16).build();
        let ta = ds.variable("ta").unwrap().clone();
        let mut g = TaskGraph::new();
        g.add_source("ta", ta).unwrap();
        g.add_pipeline_task(
            "series",
            "ta",
            vec![AnalysisStep::Anomaly, AnalysisStep::Standardize, AnalysisStep::SpatialMean],
        )
        .unwrap();
        g.add_task("anom", &["ta"], |deps| climatology::anomaly(&deps["ta"])).unwrap();
        g.add_task("stdz", &["anom"], |deps| {
            crate::statistics::standardize(&deps["anom"])
        })
        .unwrap();
        g.add_task("series_stepwise", &["stdz"], |deps| {
            averager::spatial_mean(&deps["stdz"])
        })
        .unwrap();
        let report = g.run_parallel().unwrap();
        assert_eq!(report.outputs["series"].array, report.outputs["series_stepwise"].array);
    }

    #[test]
    fn serial_run_produces_all_outputs() {
        let g = analysis_graph(0);
        let report = g.run_serial().unwrap();
        assert_eq!(report.outputs.len(), 4);
        assert_eq!(report.outputs["series"].shape(), &[4, 2]);
        assert_eq!(report.timings.len(), 4);
    }

    #[test]
    fn parallel_matches_serial() {
        let g = analysis_graph(0);
        let s = g.run_serial().unwrap();
        let p = g.run_parallel().unwrap();
        for name in ["anom", "zonal", "series"] {
            assert_eq!(s.outputs[name].array, p.outputs[name].array, "{name}");
        }
    }

    #[test]
    fn parallel_is_faster_on_independent_tasks() {
        // two independent 60ms tasks: serial ≥ 120ms, parallel ≈ 60ms.
        // Pool pinned to 2 so the assertion holds regardless of the
        // ambient thread count.
        let g = analysis_graph(60);
        let s = g.run_serial().unwrap();
        let p = g.run_with_pool(2).unwrap();
        assert_eq!(p.workers, 2);
        assert!(
            p.total < s.total,
            "parallel {:?} !< serial {:?}",
            p.total,
            s.total
        );
    }

    #[test]
    fn a_chain_starts_one_worker_at_any_pool() {
        let ds = SynthesisSpec::new(4, 1, 4, 8).build();
        let mut g = TaskGraph::new();
        g.add_source("ta", ds.variable("ta").unwrap().clone()).unwrap();
        g.add_task("anom", &["ta"], |deps| climatology::anomaly(&deps["ta"])).unwrap();
        g.add_task("series", &["anom"], |deps| averager::spatial_mean(&deps["anom"])).unwrap();
        let (pooled, serial) = (g.run_with_pool(4).unwrap(), g.run_serial().unwrap());
        assert_eq!((pooled.workers, pooled.started), (3, 1));
        assert_eq!((serial.workers, serial.started), (1, 1));
    }

    #[test]
    fn unknown_dependency_rejected() {
        let mut g = TaskGraph::new();
        g.add_task("a", &["ghost"], |_| {
            Err(CdmsError::Invalid("unreachable".into()))
        })
        .unwrap();
        assert!(g.run_serial().is_err());
    }

    #[test]
    fn cycle_detected() {
        let mut g = TaskGraph::new();
        g.add_task("a", &["b"], |_| Err(CdmsError::Invalid("x".into()))).unwrap();
        g.add_task("b", &["a"], |_| Err(CdmsError::Invalid("x".into()))).unwrap();
        let err = g.run_parallel().unwrap_err();
        assert!(matches!(err, CdmsError::Invalid(m) if m.contains("cycle")));
    }

    #[test]
    fn duplicate_task_rejected() {
        let mut g = TaskGraph::new();
        g.add_task("a", &[], |_| Err(CdmsError::Invalid("x".into()))).unwrap();
        assert!(g.add_task("a", &[], |_| Err(CdmsError::Invalid("x".into()))).is_err());
    }

    #[test]
    fn task_failure_is_attributed() {
        let mut g = TaskGraph::new();
        g.add_task("bad", &[], |_| Err(CdmsError::Invalid("numerical blow-up".into())))
            .unwrap();
        let err = g.run_serial().unwrap_err();
        assert!(err.to_string().contains("bad"));
        assert!(err.to_string().contains("numerical blow-up"));
    }

    fn graph_with_flaky_task(failures: usize) -> TaskGraph {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ds = SynthesisSpec::new(4, 2, 8, 16).build();
        let ta = ds.variable("ta").unwrap().clone();
        let mut g = TaskGraph::new();
        g.add_source("ta", ta).unwrap();
        let calls = AtomicUsize::new(0);
        g.add_task("flaky", &["ta"], move |deps| {
            if calls.fetch_add(1, Ordering::SeqCst) < failures {
                Err(CdmsError::Invalid("transient I/O hiccup".into()))
            } else {
                climatology::anomaly(&deps["ta"])
            }
        })
        .unwrap();
        g
    }

    #[test]
    fn retry_policy_recovers_flaky_task() {
        for parallel in [false, true] {
            let mut g = graph_with_flaky_task(2);
            g.retry = RetryPolicy::retries(2, Duration::from_millis(1));
            let report = if parallel { g.run_parallel() } else { g.run_serial() }.unwrap();
            assert!(report.outputs.contains_key("flaky"));
            // provenance records all three attempts and sums them
            assert_eq!(report.attempt_timings["flaky"].len(), 3, "parallel={parallel}");
            assert_eq!(report.attempt_timings["ta"].len(), 1);
            assert!(report.timings["flaky"] >= report.attempt_timings["flaky"][0]);
        }
    }

    #[test]
    fn default_policy_fails_fast_on_flaky_task() {
        let g = graph_with_flaky_task(1);
        let err = g.run_serial().unwrap_err();
        assert!(err.to_string().contains("flaky"), "{err}");
        assert!(err.to_string().contains("transient"), "{err}");
    }

    #[test]
    fn retries_exhausted_reports_last_error() {
        let mut g = graph_with_flaky_task(usize::MAX);
        g.retry = RetryPolicy::retries(2, Duration::ZERO);
        let err = g.run_parallel().unwrap_err();
        assert!(err.to_string().contains("transient"), "{err}");
    }

    fn saved_v3_dataset(tag: &str, window: usize) -> (std::path::PathBuf, cdms::Dataset) {
        let dir =
            std::env::temp_dir().join(format!("cdat_taskgraph_v3_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = SynthesisSpec::new(6, 2, 8, 16).build();
        let path = dir.join("src.ncr");
        let opts = cdms::format_v3::V3Options { window, levels: 2, compress: true };
        cdms::format_v3::write_dataset_v3_with(&cdms::storage::LocalDisk, &ds, &path, &opts)
            .unwrap();
        (path, ds)
    }

    #[test]
    fn streaming_window_sources_fan_out_one_node_per_window() {
        let (path, ds) = saved_v3_dataset("fanout", 2);
        let ta = ds.variable("ta").unwrap();
        let mut g = TaskGraph::new();
        for w in 0..3 {
            g.add_streaming_window_source(&format!("ta_w{w}"), &path, "ta", w, false).unwrap();
        }
        let report = g.run_parallel().unwrap();
        for w in 0..3 {
            let want = ta.time_window(w * 2..w * 2 + 2).unwrap();
            let got = &report.outputs[&format!("ta_w{w}")];
            assert_eq!(got.array, want.array, "window {w}");
            assert_eq!(got.axes, want.axes, "window {w}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn streaming_window_source_degrades_instead_of_failing() {
        use cdms::storage::{FaultyStorage, LocalDisk, StorageFault, StorageFaultPlan};
        let (path, ds) = saved_v3_dataset("degrade", 2);
        let ta = ds.variable("ta").unwrap();
        // kill window 1's full-resolution chunk; the pyramid survives
        let meta = cdms::format_v3::read_meta_with(&LocalDisk, &path).unwrap();
        let vi = meta.var_index("ta").unwrap();
        let e = *meta.chunk(vi, 1, 0).unwrap();
        let plan = StorageFaultPlan::none().inject_read(
            e.offset..e.offset + 1,
            StorageFault::ReadError,
            0,
        );
        let fresh_storage = || -> Arc<dyn cdms::Storage> {
            let plan = StorageFaultPlan::none().inject_read(
                e.offset..e.offset + 1,
                StorageFault::ReadError,
                0,
            );
            Arc::new(FaultyStorage::new(plan))
        };

        // strict node: the damaged window fails the graph
        let mut g = TaskGraph::new();
        g.add_streaming_window_source_with(
            Arc::new(FaultyStorage::new(plan)),
            "ta_w1",
            &path,
            "ta",
            1,
            cdms::StreamOptions::default(),
            false,
        )
        .unwrap();
        assert!(g.run_serial().is_err());

        // degraded node: the graph completes with an approximate window
        let mut g = TaskGraph::new();
        g.add_streaming_window_source_with(
            fresh_storage(),
            "ta_w1",
            &path,
            "ta",
            1,
            cdms::StreamOptions::default(),
            true,
        )
        .unwrap();
        let report = g.run_serial().unwrap();
        let got = &report.outputs["ta_w1"];
        let want = ta.time_window(2..4).unwrap();
        assert_eq!(got.shape(), want.shape());
        assert_eq!(got.axes, want.axes);
        assert_ne!(got.array, want.array, "served from the pyramid, not level 0");
        assert!(got.array.valid_count() > 0, "degraded, not masked out");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn streaming_window_source_retries_transients_via_policy() {
        use cdms::storage::{FaultyStorage, LocalDisk, StorageFault, StorageFaultPlan};
        let (path, ds) = saved_v3_dataset("retry", 3);
        let meta = cdms::format_v3::read_meta_with(&LocalDisk, &path).unwrap();
        let vi = meta.var_index("ta").unwrap();
        let e = *meta.chunk(vi, 0, 0).unwrap();
        // more consecutive failures than the stream's own retry budget, so
        // the error escapes the node and the graph's RetryPolicy matters
        let plan = StorageFaultPlan::none().inject_read(
            e.offset..e.offset + 1,
            StorageFault::Transient { times: 0 },
            5,
        );
        let sopts = cdms::StreamOptions {
            max_retries: 1,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            ..cdms::StreamOptions::default()
        };
        let mut g = TaskGraph::new();
        g.add_streaming_window_source_with(
            Arc::new(FaultyStorage::new(plan)),
            "ta_w0",
            &path,
            "ta",
            0,
            sopts,
            false,
        )
        .unwrap();
        g.retry = RetryPolicy::retries(4, Duration::ZERO);
        let report = g.run_serial().unwrap();
        let want = ds.variable("ta").unwrap().time_window(0..3).unwrap();
        assert_eq!(report.outputs["ta_w0"].array, want.array);
        assert!(report.attempt_timings["ta_w0"].len() > 1, "should have retried");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// `ta`, `tb`, then `bad` — which declares `ta` and reaches for `tb` —
    /// and one task behind it.
    fn graph_reading_an_undeclared_output(
        read: fn(&BTreeMap<String, Arc<Variable>>) -> Result<Variable>,
    ) -> TaskGraph {
        let ds = SynthesisSpec::new(2, 1, 4, 8).build();
        let mut g = TaskGraph::new();
        g.add_source("ta", ds.variable("ta").unwrap().clone()).unwrap();
        g.add_source("tb", ds.variable("ua").unwrap().clone()).unwrap();
        g.add_task("bad", &["ta"], read).unwrap();
        g.add_task("after", &["bad"], |deps| Ok((*deps["bad"]).clone())).unwrap();
        g
    }

    /// The oracle sees what the pool sees: a task is handed its declared
    /// dependencies only, so reading an undeclared one fails the same way
    /// from every runner (`run_serial` used to hand over every output so
    /// far and returned `Ok`).
    #[test]
    fn undeclared_dependency_is_the_same_error_from_every_runner() {
        let g = graph_reading_an_undeclared_output(|deps| {
            let tb = deps.get("tb").ok_or_else(|| CdmsError::NotFound("undeclared 'tb'".into()))?;
            Ok((**tb).clone())
        });
        let serial = g.run_serial().map(|_| ()).unwrap_err().to_string();
        assert!(serial.contains("task 'bad'") && serial.contains("undeclared 'tb'"), "{serial}");
        for pool in [1, 2, 8] {
            let pooled = g.run_with_pool(pool).map(|_| ()).unwrap_err().to_string();
            assert_eq!(pooled, serial, "pool {pool}");
        }
    }

    /// A task that panics ends the run at any pool size, the way it ends
    /// `run_serial` and a pool of 1: the panic propagates. (Above one
    /// worker the peers used to wait on the condvar for ever.) The run is
    /// on its own thread so that a hang fails this test at the watchdog
    /// instead of stalling the suite.
    #[test]
    fn panicking_task_ends_the_pool_run() {
        let g = graph_reading_an_undeclared_output(|deps| Ok((*deps["tb"]).clone()));
        let run = std::thread::spawn(move || g.run_with_pool(2).map(|_| ()));
        let started = Instant::now();
        while !run.is_finished() {
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "run_with_pool(2) still running 1 s after its task panicked"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(run.join().is_err(), "the task's panic propagates");
    }

    /// One failure rule for every runner: of the failures a run saw, the
    /// one first in `run_serial`'s order is returned. `a` (index 0) fails
    /// only once `b` has failed, or after 2 s, so on a pool of two `b` fails
    /// first and `a`'s error is still the one returned.
    #[test]
    fn every_runner_returns_the_failure_first_in_serial_order() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let graph = || {
            let b_failed = Arc::new(AtomicBool::new(false));
            let seen = Arc::clone(&b_failed);
            let mut g = TaskGraph::new();
            g.add_task("a", &[], move |_| {
                let start = Instant::now();
                while !seen.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(2) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(CdmsError::Invalid("a failed".into()))
            })
            .unwrap();
            g.add_task("b", &[], move |_| {
                b_failed.store(true, Ordering::SeqCst);
                Err(CdmsError::Invalid("b failed".into()))
            })
            .unwrap();
            g
        };
        let serial = graph().run_serial().map(|_| ()).unwrap_err().to_string();
        assert!(serial.contains("task 'a'"), "{serial}");
        for pool in [1, 2, 8] {
            let pooled = graph().run_with_pool(pool).map(|_| ()).unwrap_err().to_string();
            assert_eq!(pooled, serial, "pool {pool}");
        }
    }

    #[test]
    fn empty_graph_runs() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        let r = g.run_parallel().unwrap();
        assert!(r.outputs.is_empty());
    }
}
