//! Parallel analysis task graphs — DV3D's "parallel task execution".
//!
//! An analysis recipe is a DAG of named tasks, each a closure from its
//! dependencies' outputs to a new [`Variable`]. The graph runs either
//! serially ([`TaskGraph::run_serial`], the determinism oracle) or on a
//! **dependency-counting, event-driven executor**
//! ([`TaskGraph::run_with_pool`] / [`TaskGraph::run_parallel`]): the items
//! of one `rayon` region are its workers, and a task is enqueued the instant
//! its last dependency completes — no inter-wave barriers, so a slow task
//! only delays its own dependents, never unrelated work. Ready tasks are
//! dispatched critical-path-first, the first task error cancels the rest of
//! the graph (in-flight tasks drain cleanly), and outputs are bit-identical
//! to `run_serial` at any worker count. See DESIGN.md §18.
//!
//! On the dv3dlint `indexing_hot_paths` list: the scheduler runs under
//! every batch workload and must not panic, so element access goes through
//! `.get()` and iterators.

use cdms::{CdmsError, Result, Variable};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::path::Path;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

type TaskFn = dyn Fn(&BTreeMap<String, Arc<Variable>>) -> Result<Variable> + Send + Sync;

struct Task {
    name: String,
    deps: Vec<String>,
    run: Box<TaskFn>,
}

impl Task {
    /// What the task body is handed: the outputs of its declared
    /// dependencies, in declared order, and nothing else — under both
    /// runners, so the serial oracle cannot see more than the pool does.
    fn inputs(&self, outputs: &BTreeMap<String, Arc<Variable>>) -> BTreeMap<String, Arc<Variable>> {
        self.deps
            .iter()
            .filter_map(|d| outputs.get(d).map(|v| (d.clone(), Arc::clone(v))))
            .collect()
    }
}

/// How a run reacts to a failing task: total attempts per task, and the
/// backoff slept between them (doubling each retry). Mirrors
/// `vistrails::executor::RetryPolicy` without coupling the crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (clamped to at least 1).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles on every further retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    /// Fail fast: one attempt, no backoff.
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, backoff: Duration::ZERO }
    }
}

impl RetryPolicy {
    /// Up to `retries` re-runs after the first failure.
    pub fn retries(retries: u32, backoff: Duration) -> RetryPolicy {
        RetryPolicy { max_attempts: retries.saturating_add(1), backoff }
    }

    /// Runs `f` under the policy, returning per-attempt wall times and the
    /// final outcome (the last error when every attempt fails).
    fn run(
        &self,
        f: impl Fn(&BTreeMap<String, Arc<Variable>>) -> Result<Variable>,
        deps: &BTreeMap<String, Arc<Variable>>,
    ) -> (Vec<Duration>, Result<Variable>) {
        let max = self.max_attempts.max(1);
        let mut timings = Vec::new();
        let mut backoff = self.backoff;
        loop {
            let t0 = Instant::now();
            let out = f(deps);
            timings.push(t0.elapsed());
            match out {
                Ok(v) => return (timings, Ok(v)),
                Err(e) => {
                    if timings.len() as u32 >= max {
                        return (timings, Err(e));
                    }
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff *= 2;
                    }
                }
            }
        }
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
pub const MAX_TASKS: usize = 100_000;

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
    /// Worker threads the run actually used (1 for `run_serial`).
    pub workers: usize,
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
    pub fn add_source(&mut self, name: &str, var: Variable) -> Result<()> {
        let var = Arc::new(var);
        self.add_task(name, &[], move |_| Ok((*var).clone()))
    }

    /// Adds a source task that reads `variable` from an `.ncr` file at run
    /// time, degrading gracefully on damage:
    ///
    /// * transient storage errors (EINTR-style, injected flakiness)
    ///   propagate as-is so the graph's [`RetryPolicy`] re-runs the read;
    /// * a file that fails strict checksum verification is re-read with
    ///   salvage semantics — the task still succeeds as long as the
    ///   requested variable's sections are intact.
    pub fn add_dataset_source(&mut self, name: &str, path: &Path, variable: &str) -> Result<()> {
        self.add_dataset_source_with(Arc::new(cdms::storage::LocalDisk), name, path, variable)
    }

    /// [`TaskGraph::add_dataset_source`] through an explicit storage
    /// backend (fault injection, tests).
    pub fn add_dataset_source_with(
        &mut self,
        storage: Arc<dyn cdms::Storage>,
        name: &str,
        path: &Path,
        variable: &str,
    ) -> Result<()> {
        let path = path.to_path_buf();
        let variable = variable.to_string();
        self.add_task(name, &[], move |_| {
            match cdms::format::read_dataset_with(storage.as_ref(), &path) {
                Ok(ds) => Ok(ds.require(&variable)?.clone()),
                Err(e) if e.is_transient() => Err(e),
                Err(_) => {
                    // Strictly unreadable: salvage what the checksums vouch for.
                    let (ds, report) =
                        cdms::format::read_dataset_salvage_with(storage.as_ref(), &path)?;
                    ds.variable(&variable).cloned().ok_or_else(|| {
                        CdmsError::Format(format!(
                            "variable '{variable}' not salvageable from '{}': {report}",
                            path.display()
                        ))
                    })
                }
            }
        })
    }

    /// Adds a source task that streams ONE chunk window of `variable` out
    /// of a `.ncr` v3 file — a graph over many windows touches each chunk
    /// with ranged reads instead of ever loading the whole series, so the
    /// graph's working set stays at the streaming cache budget.
    ///
    /// Fault behaviour matches [`TaskGraph::add_dataset_source`] in
    /// spirit: transient storage errors propagate so the graph's
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
    #[allow(clippy::too_many_arguments)]
    pub fn add_streaming_window_source_with(
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
    pub fn add_regrid_batch_task(
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

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Wavefront schedule: groups of task indices whose dependencies are
    /// all in earlier groups. Errors on unknown deps or cycles.
    fn schedule(&self) -> Result<Vec<Vec<usize>>> {
        let index: BTreeMap<&str, usize> =
            self.tasks.iter().enumerate().map(|(i, t)| (t.name.as_str(), i)).collect();
        for t in &self.tasks {
            for d in &t.deps {
                if !index.contains_key(d.as_str()) {
                    return Err(CdmsError::NotFound(format!(
                        "task '{}' depends on unknown '{d}'",
                        t.name
                    )));
                }
            }
        }
        let mut done: BTreeSet<usize> = BTreeSet::new();
        let mut waves = Vec::new();
        while done.len() < self.tasks.len() {
            let ready: Vec<usize> = (0..self.tasks.len())
                .filter(|i| !done.contains(i))
                .filter(|&i| {
                    self.tasks.get(i).is_some_and(|t| {
                        t.deps
                            .iter()
                            .all(|d| index.get(d.as_str()).is_some_and(|j| done.contains(j)))
                    })
                })
                .collect();
            if ready.is_empty() {
                let stuck: Vec<String> = (0..self.tasks.len())
                    .filter(|i| !done.contains(i))
                    .filter_map(|i| self.tasks.get(i).map(|t| t.name.clone()))
                    .collect();
                return Err(CdmsError::Invalid(format!("cycle among tasks {stuck:?}")));
            }
            done.extend(&ready);
            waves.push(ready);
        }
        Ok(waves)
    }

    /// Runs the graph serially in schedule order. Each task sees exactly
    /// its declared dependencies' outputs, as on the pool.
    pub fn run_serial(&self) -> Result<TaskReport> {
        let start = Instant::now();
        let waves = self.schedule()?;
        let mut outputs: BTreeMap<String, Arc<Variable>> = BTreeMap::new();
        let mut timings = BTreeMap::new();
        let mut attempt_timings = BTreeMap::new();
        for wave in waves {
            for i in wave {
                let Some(t) = self.tasks.get(i) else { continue };
                let (attempts, out) = self.retry.run(&t.run, &t.inputs(&outputs));
                let out = out
                    .map_err(|e| CdmsError::Invalid(format!("task '{}': {e}", t.name)))?;
                timings.insert(t.name.clone(), attempts.iter().sum());
                attempt_timings.insert(t.name.clone(), attempts);
                outputs.insert(t.name.clone(), Arc::new(out));
            }
        }
        Ok(TaskReport { outputs, timings, attempt_timings, workers: 1, total: start.elapsed() })
    }

    /// Validates the graph and derives the executor topology: the
    /// name→index map, the forward dependency counts, the dependents
    /// adjacency, and each task's critical-path height (longest chain of
    /// tasks from it to any sink). Errors match [`TaskGraph::schedule`]
    /// byte-for-byte on unknown deps and cycles.
    fn topology(&self) -> Result<Topology> {
        let index: BTreeMap<&str, usize> =
            self.tasks.iter().enumerate().map(|(i, t)| (t.name.as_str(), i)).collect();
        let n = self.tasks.len();
        let mut deps_left = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in self.tasks.iter().enumerate() {
            for d in &t.deps {
                let Some(&j) = index.get(d.as_str()) else {
                    return Err(CdmsError::NotFound(format!(
                        "task '{}' depends on unknown '{d}'",
                        t.name
                    )));
                };
                if let Some(c) = deps_left.get_mut(i) {
                    *c += 1;
                }
                if let Some(v) = dependents.get_mut(j) {
                    v.push(i);
                }
            }
        }
        // Kahn order doubles as the cycle check and gives the reverse
        // order for the height computation.
        let mut counts = deps_left.clone();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut frontier: Vec<usize> =
            counts.iter().enumerate().filter(|(_, &c)| c == 0).map(|(i, _)| i).collect();
        while let Some(i) = frontier.pop() {
            order.push(i);
            for &j in dependents.get(i).map(Vec::as_slice).unwrap_or_default() {
                if let Some(c) = counts.get_mut(j) {
                    *c -= 1;
                    if *c == 0 {
                        frontier.push(j);
                    }
                }
            }
        }
        if order.len() < n {
            let stuck: Vec<String> = counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, _)| {
                    self.tasks.get(i).map(|t| t.name.clone()).unwrap_or_default()
                })
                .collect();
            return Err(CdmsError::Invalid(format!("cycle among tasks {stuck:?}")));
        }
        // Critical-path height, sinks = 1, in reverse topological order:
        // dispatching the tallest ready task first keeps the longest
        // remaining chain moving while shorter branches fill spare workers.
        let mut height = vec![1u32; n];
        for &i in order.iter().rev() {
            let tallest_dependent = dependents
                .get(i)
                .map(Vec::as_slice)
                .unwrap_or_default()
                .iter()
                .filter_map(|&j| height.get(j).copied())
                .max()
                .unwrap_or(0);
            if let Some(h) = height.get_mut(i) {
                *h = tallest_dependent.saturating_add(1);
            }
        }
        Ok(Topology { deps_left, dependents, height })
    }

    /// Runs the graph on the dependency-counting executor with as many
    /// workers as `rayon::current_num_threads()` — the caller's
    /// `rayon::with_threads` value, else the process default. Outputs are
    /// bit-identical to [`TaskGraph::run_serial`]; each task sees exactly
    /// its declared dependencies' outputs.
    pub fn run_parallel(&self) -> Result<TaskReport> {
        self.run_with_pool(rayon::current_num_threads())
    }

    /// Runs the graph on a bounded pool of exactly `threads` workers
    /// (clamped to at least 1, at most the task count).
    ///
    /// The workers are the items of one `rayon` region of that width, so
    /// the run starts no thread of its own and a one-worker run stays on
    /// the caller. A worker needs no seat to be sure of finishing: one
    /// worker drains the ready queue by itself, and a worker waits on the
    /// condvar only while a peer has a task in flight, so no wait cycle
    /// forms. Tasks run at the caller's `rayon::current_num_threads()`, so
    /// the kernels inside a task publish regions as wide as they would on
    /// the caller.
    ///
    /// Scheduling is event-driven: every task carries a count of unmet
    /// dependencies, and the completion that zeroes the count pushes the
    /// task onto a priority queue ordered by critical-path height (ties
    /// broken by insertion index, so the queue order is deterministic).
    /// There are no inter-wave barriers. The first task failure cancels
    /// the run: the ready queue is drained, no new task starts, in-flight
    /// tasks finish and their workers exit cleanly. Retry semantics
    /// ([`TaskGraph::retry`]) are applied per task exactly as in
    /// `run_serial`.
    pub fn run_with_pool(&self, threads: usize) -> Result<TaskReport> {
        let start = Instant::now();
        let topo = self.topology()?;
        let n = self.tasks.len();
        let workers = threads.max(1).min(n.max(1));
        // Seed the ready queue with every zero-dependency task. The heap
        // is bounded by the task count; with_capacity states the cap.
        let mut ready: BinaryHeap<Ready> = BinaryHeap::with_capacity(n);
        for (i, &c) in topo.deps_left.iter().enumerate() {
            if c == 0 {
                ready.push(Ready { height: topo.height.get(i).copied().unwrap_or(1), index: i });
            }
        }
        let shared = ExecShared {
            state: Mutex::new(ExecState {
                ready,
                deps_left: topo.deps_left.clone(),
                outputs: BTreeMap::new(),
                timings: BTreeMap::new(),
                attempt_timings: BTreeMap::new(),
                in_flight: 0,
                done: 0,
                error: None,
            }),
            cv: Condvar::new(),
        };
        let kernel_threads = rayon::current_num_threads();
        rayon::with_threads(workers, || {
            vec![(); workers].par_iter().for_each(|()| {
                rayon::with_threads(kernel_threads, || self.exec_worker(&shared, &topo))
            })
        });
        let state = shared.state.into_inner();
        if let Some(e) = state.error {
            return Err(e);
        }
        Ok(TaskReport {
            outputs: state.outputs,
            timings: state.timings,
            attempt_timings: state.attempt_timings,
            workers,
            total: start.elapsed(),
        })
    }

    /// One executor worker: pop the tallest ready task, run it outside the
    /// scheduler lock, publish the result, and wake peers. Exits when the
    /// graph is complete or cancelled-and-drained.
    fn exec_worker(&self, shared: &ExecShared, topo: &Topology) {
        let n = self.tasks.len();
        let mut guard = shared.state.lock();
        loop {
            while guard.ready.is_empty() && !guard.finished(n) {
                let cv = &shared.cv;
                guard = cv.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            if guard.finished(n) {
                drop(guard);
                shared.cv.notify_all();
                return;
            }
            let Some(next) = guard.ready.pop() else { continue };
            let Some(task) = self.tasks.get(next.index) else { continue };
            // Snapshot the inputs while still under the lock; the task body
            // runs without it.
            let dep_vals = task.inputs(&guard.outputs);
            guard.in_flight += 1;
            drop(guard);

            let unwinding = Unwinding { shared, task: &task.name };
            let (attempts, out) = self.retry.run(&task.run, &dep_vals);
            std::mem::forget(unwinding);

            guard = shared.state.lock();
            guard.in_flight -= 1;
            match out {
                Ok(v) => {
                    guard.timings.insert(task.name.clone(), attempts.iter().sum());
                    guard.attempt_timings.insert(task.name.clone(), attempts);
                    guard.outputs.insert(task.name.clone(), Arc::new(v));
                    guard.done += 1;
                    if guard.error.is_none() {
                        for &j in
                            topo.dependents.get(next.index).map(Vec::as_slice).unwrap_or_default()
                        {
                            let now_ready = match guard.deps_left.get_mut(j) {
                                Some(c) => {
                                    *c = c.saturating_sub(1);
                                    *c == 0
                                }
                                None => false,
                            };
                            if now_ready {
                                let h = topo.height.get(j).copied().unwrap_or(1);
                                guard.ready.push(Ready { height: h, index: j });
                            }
                        }
                    }
                }
                Err(e) => {
                    // First-error cancellation: record the error once and
                    // drain the ready queue so nothing new starts.
                    if guard.error.is_none() {
                        guard.error = Some(CdmsError::Invalid(format!(
                            "task '{}': {e}",
                            task.name
                        )));
                    }
                    guard.ready.clear();
                }
            }
            shared.cv.notify_all();
        }
    }
}

/// Static topology the executor schedules against.
struct Topology {
    /// Unmet forward-dependency count per task (the executor's seed).
    deps_left: Vec<usize>,
    /// Tasks unblocked by each task's completion.
    dependents: Vec<Vec<usize>>,
    /// Critical-path height (longest chain to any sink), for priority.
    height: Vec<u32>,
}

/// A ready task in the dispatch heap: tallest critical path first, then
/// lowest insertion index — a total, deterministic order.
#[derive(PartialEq, Eq)]
struct Ready {
    height: u32,
    index: usize,
}

impl Ord for Ready {
    fn cmp(&self, other: &Ready) -> std::cmp::Ordering {
        self.height.cmp(&other.height).then(other.index.cmp(&self.index))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Ready) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Mutable scheduler state, guarded by one mutex that is never held
/// across a task body (workers snapshot dependencies, drop the lock, run,
/// re-lock to publish).
struct ExecState {
    ready: BinaryHeap<Ready>,
    deps_left: Vec<usize>,
    outputs: BTreeMap<String, Arc<Variable>>,
    timings: BTreeMap<String, Duration>,
    attempt_timings: BTreeMap<String, Vec<Duration>>,
    in_flight: usize,
    done: usize,
    error: Option<CdmsError>,
}

impl ExecState {
    /// True when no worker has anything left to do: every task completed,
    /// or the run was cancelled and all in-flight work has drained.
    fn finished(&self, n: usize) -> bool {
        self.done == n || (self.error.is_some() && self.in_flight == 0 && self.ready.is_empty())
    }
}

struct ExecShared {
    state: Mutex<ExecState>,
    cv: Condvar,
}

/// Held by a worker while a task body runs outside the lock and forgotten
/// when the body returns, so it drops only if the body unwinds. It then
/// leaves the scheduler cancelled and drained — failure recorded, the
/// in-flight count given back, nothing left to start, peers woken — so the
/// other workers exit and the region can re-raise the panic instead of
/// waiting on the condvar for ever.
struct Unwinding<'a> {
    shared: &'a ExecShared,
    task: &'a str,
}

impl Drop for Unwinding<'_> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock();
        state.in_flight -= 1;
        if state.error.is_none() {
            state.error = Some(CdmsError::Invalid(format!("task '{}' panicked", self.task)));
        }
        state.ready.clear();
        drop(state);
        self.shared.cv.notify_all();
    }
}

impl std::fmt::Debug for TaskGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.tasks.iter().map(|t| t.name.as_str()).collect();
        f.debug_struct("TaskGraph").field("tasks", &names).finish()
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

    fn saved_dataset(tag: &str) -> (std::path::PathBuf, cdms::Dataset) {
        let dir = std::env::temp_dir()
            .join(format!("cdat_taskgraph_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = SynthesisSpec::new(2, 2, 8, 16).build();
        let path = dir.join("src.ncr");
        ds.save(&path).unwrap();
        (path, ds)
    }

    #[test]
    fn dataset_source_reads_variable_from_disk() {
        let (path, ds) = saved_dataset("read");
        let mut g = TaskGraph::new();
        g.add_dataset_source("ta", &path, "ta").unwrap();
        let report = g.run_serial().unwrap();
        assert_eq!(report.outputs["ta"].array, ds.variable("ta").unwrap().array);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn dataset_source_retries_transient_storage_faults() {
        use cdms::storage::{FaultyStorage, StorageFault, StorageFaultPlan};
        let (path, ds) = saved_dataset("transient");
        // The read is storage op 0; make it (and the next one) fail
        // EINTR-style so a single RetryPolicy retry clears it.
        let plan = StorageFaultPlan::none().inject(0, StorageFault::Transient { times: 2 });
        let storage = Arc::new(FaultyStorage::new(plan));
        let mut g = TaskGraph::new();
        g.add_dataset_source_with(storage.clone(), "ta", &path, "ta").unwrap();

        // fail-fast policy: the transient error surfaces
        let err = g.run_serial().unwrap_err();
        assert!(err.to_string().contains("transient"), "{err}");

        // with retries the same graph succeeds (fresh storage, same plan)
        let plan = StorageFaultPlan::none().inject(0, StorageFault::Transient { times: 2 });
        let mut g = TaskGraph::new();
        g.add_dataset_source_with(Arc::new(FaultyStorage::new(plan)), "ta", &path, "ta")
            .unwrap();
        g.retry = RetryPolicy::retries(3, Duration::ZERO);
        let report = g.run_serial().unwrap();
        assert_eq!(report.outputs["ta"].array, ds.variable("ta").unwrap().array);
        assert!(report.attempt_timings["ta"].len() > 1, "should have retried");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn dataset_source_degrades_to_salvage_on_corruption() {
        let (path, ds) = saved_dataset("salvage");
        // Corrupt the metadata section of a variable other than "ta":
        // strict read fails, salvage still recovers "ta", so the graph
        // keeps running.
        let (mut bytes, layout) = cdms::format_v3::to_bytes_v3_with(&ds, &Default::default());
        let victim = layout
            .sections
            .iter()
            .find(|s| matches!(&s.variable, Some((id, _)) if id != "ta"))
            .expect("synth dataset has a second variable");
        bytes[victim.payload.start] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let mut g = TaskGraph::new();
        g.add_dataset_source("ta", &path, "ta").unwrap();
        let report = g.run_serial().unwrap();
        assert_eq!(report.outputs["ta"].array, ds.variable("ta").unwrap().array);

        // asking for the corrupted variable itself fails with a reason
        let (_, corrupt_id) = victim.variable.clone().map(|(id, _)| ((), id)).unwrap();
        let mut g = TaskGraph::new();
        g.add_dataset_source("broken", &path, &corrupt_id).unwrap();
        let err = g.run_serial().unwrap_err();
        assert!(err.to_string().contains("not salvageable"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
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

    #[test]
    fn empty_graph_runs() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        let r = g.run_parallel().unwrap();
        assert!(r.outputs.is_empty());
    }
}
