//! The caching, branch-parallel pipeline executor.
//!
//! A pipeline runs as one [`schedule::run`] over its
//! modules, at the caller's `rayon::current_num_threads()` (the paper's
//! "parallel task execution"): a module starts the moment its inputs are
//! ready, so a slow module delays only its own dependents. Results are
//! cached by module signature (type + params + upstream signatures), so
//! re-executing after a small edit only recomputes the dirty cone — the
//! mechanism that makes VisTrails-style exploratory tweaking cheap.

use crate::module::ModuleRegistry;
use crate::pipeline::{ModuleId, Pipeline};
use crate::schedule::{self, RetryPolicy};
use crate::value::WfData;
use crate::{Result, WfError};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// One module's outputs, by port.
type Ports = Arc<BTreeMap<String, WfData>>;

/// Per-module outputs of one execution.
#[derive(Debug, Clone, Default)]
pub struct ExecResults {
    outputs: BTreeMap<ModuleId, Ports>,
    /// Execution log entries in booking order: by depth (the longest chain
    /// of inputs above a module), then by module id — the same sequence on
    /// every run of one pipeline, whatever order the modules finished in.
    pub log: Vec<ExecLogEntry>,
}

impl ExecResults {
    /// Output of `module` on `port`.
    pub fn output(&self, module: ModuleId, port: &str) -> Option<&WfData> {
        self.outputs.get(&module)?.get(port)
    }

    /// All outputs of a module.
    pub fn module_outputs(&self, module: ModuleId) -> Option<&BTreeMap<String, WfData>> {
        self.outputs.get(&module).map(|ports| &**ports)
    }

    /// Number of modules that executed (or were served from cache).
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// True when nothing ran.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// How many modules were served from cache.
    pub fn cache_hits(&self) -> usize {
        self.log.iter().filter(|e| e.cache_hit).count()
    }
}

/// One module's execution record — the execution-provenance log entry.
#[derive(Debug, Clone)]
pub struct ExecLogEntry {
    pub module: ModuleId,
    pub type_name: String,
    /// Total wall time across all attempts (ZERO for cache hits).
    pub duration: Duration,
    pub cache_hit: bool,
    /// Signature used as the cache key.
    pub signature: u64,
    /// Attempts actually run (0 for cache hits, 1 for a clean first run,
    /// more when the retry policy re-ran a failing module).
    pub attempts: u32,
    /// Wall time of each individual attempt, in order.
    pub attempt_durations: Vec<Duration>,
}

/// The executor: registry + cross-run result cache.
#[derive(Debug)]
pub struct Executor {
    registry: ModuleRegistry,
    cache: HashMap<u64, Ports>,
    /// Disable to measure uncached performance (ablation).
    pub caching_enabled: bool,
    /// Per-module retry policy (default: fail fast). Transient module
    /// failures — a file briefly locked, a flaky remote — are retried with
    /// exponential backoff before the run is declared failed.
    pub retry: RetryPolicy,
}

impl Executor {
    /// Creates an executor over a registry.
    pub fn new(registry: ModuleRegistry) -> Executor {
        Executor {
            registry,
            cache: HashMap::new(),
            caching_enabled: true,
            retry: RetryPolicy::none(),
        }
    }

    /// The registry.
    pub fn registry(&self) -> &ModuleRegistry {
        &self.registry
    }

    /// Clears the result cache.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Number of cached module results.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Executes the full pipeline; returns per-module outputs and a log.
    pub fn execute(&mut self, pipeline: &Pipeline) -> Result<ExecResults> {
        self.execute_subset(pipeline, None)
    }

    /// Executes only what `sink` needs (or everything when `None`).
    ///
    /// The modules run as one [`schedule::run`] at the caller's
    /// `rayon::current_num_threads()`, so `rayon::with_threads` sets how
    /// many run at once, up to the pipeline's widest depth level (a chain
    /// runs on the caller). Cache hits are settled before the run: modules
    /// with equal signatures have identical upstream cones, so neither can
    /// hit the other's output within a run. After it every success is
    /// cached and booked, and the failure booked first is returned. A
    /// module that panics ends the run with its panic, and nothing of the
    /// run is cached.
    pub fn execute_subset(
        &mut self,
        pipeline: &Pipeline,
        sink: Option<ModuleId>,
    ) -> Result<ExecResults> {
        pipeline.validate(&self.registry)?;
        let target = match sink {
            Some(s) => pipeline.upstream_subgraph(s)?,
            None => pipeline.clone(),
        };

        // Node `i` is the `i`-th module by id; the topology's order, by
        // depth and then index, is the booking order.
        let (ids, topo) = target.topology()?;

        // Signatures mix in the registry's cache salts, so an engine-version
        // bump behind a module type invalidates cached outputs of it and of
        // everything downstream.
        let mut jobs = Vec::with_capacity(ids.len());
        for (&id, node) in &target.modules {
            let signature = target.module_signature_salted(id, self.registry.cache_salts());
            let hit = self.caching_enabled.then(|| self.cache.get(&signature).cloned()).flatten();
            jobs.push((id, signature, node, hit, self.registry.get(&node.type_name)?));
        }

        let mut slots = schedule::run(&topo, rayon::current_num_threads(), &self.retry, |i, done| {
            let Some((id, _, node, hit, module)) = jobs.get(i) else {
                return Err(WfError::NotFound(format!("node {i}")));
            };
            if let Some(hit) = hit {
                return Ok(Arc::clone(hit));
            }
            let mut inputs: BTreeMap<String, WfData> = BTreeMap::new();
            for c in target.inputs_of(*id) {
                let upstream = ids.binary_search(&c.from_module).ok().and_then(|j| done.get(j)?.get());
                if let Some(v) = upstream.and_then(|ports| ports.get(&c.from_port)) {
                    inputs.insert(c.to_port.clone(), v.clone());
                }
            }
            module.execute(&inputs, &node.params).map(Arc::new).map_err(|e| wrap_exec_err(*id, e))
        });

        let mut results = ExecResults::default();
        let mut failed = None;
        for &i in topo.order() {
            let (Some(&(id, signature, node, ref hit, _)), Some((attempt_durations, out))) =
                (jobs.get(i), slots.get_mut(i).and_then(Option::take))
            else {
                continue;
            };
            let Ok(out) = out.map_err(|e| failed = failed.take().or(Some(e))) else { continue };
            let attempt_durations = if hit.is_some() { Vec::new() } else { attempt_durations };
            if self.caching_enabled && hit.is_none() {
                self.cache.insert(signature, Arc::clone(&out));
            }
            results.outputs.insert(id, out);
            results.log.push(ExecLogEntry {
                module: id,
                type_name: node.type_name.clone(),
                duration: attempt_durations.iter().sum(),
                cache_hit: hit.is_some(),
                signature,
                attempts: attempt_durations.len() as u32,
                attempt_durations,
            });
        }
        failed.map_or(Ok(results), Err)
    }
}

fn wrap_exec_err(id: ModuleId, e: WfError) -> WfError {
    match e {
        WfError::Execution { message, .. } => WfError::Execution { module: id, message },
        other => WfError::Execution { module: id, message: other.to_string() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{single, PortType};
    use crate::value::{ParamValue, WfData};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    fn registry(counter: Arc<AtomicUsize>) -> ModuleRegistry {
        let mut r = ModuleRegistry::new();
        let c1 = counter.clone();
        r.register_fn("m", "src", &[], &[("out", PortType::Float)], move |_, params| {
            c1.fetch_add(1, Ordering::SeqCst);
            let v = params.get("v").and_then(ParamValue::as_f64).unwrap_or(1.0);
            Ok(single("out", WfData::Float(v)))
        });
        let c2 = counter.clone();
        r.register_fn(
            "m",
            "add",
            &[("a", PortType::Float), ("b", PortType::Float)],
            &[("out", PortType::Float)],
            move |inputs, _| {
                c2.fetch_add(1, Ordering::SeqCst);
                let a = inputs.get("a").and_then(WfData::as_float).unwrap_or(0.0);
                let b = inputs.get("b").and_then(WfData::as_float).unwrap_or(0.0);
                Ok(single("out", WfData::Float(a + b)))
            },
        );
        r.register_fn("m", "fail", &[], &[("out", PortType::Float)], |_, _| {
            Err(WfError::Execution { module: 0, message: "boom".into() })
        });
        let c3 = counter.clone();
        r.register_fn("m", "slow", &[], &[("out", PortType::Float)], move |_, _| {
            c3.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(40));
            Ok(single("out", WfData::Float(1.0)))
        });
        // fails on its first two calls, succeeds from the third on
        let c4 = counter;
        r.register_fn("m", "flaky", &[], &[("out", PortType::Float)], move |_, _| {
            if c4.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(WfError::Execution { module: 0, message: "transient".into() })
            } else {
                Ok(single("out", WfData::Float(7.0)))
            }
        });
        r
    }

    fn diamond() -> Pipeline {
        let mut p = Pipeline::new();
        p.add_module(1, "m.src").unwrap();
        p.add_module(2, "m.src").unwrap();
        p.add_module(3, "m.add").unwrap();
        p.connect((1, "out"), (3, "a")).unwrap();
        p.connect((2, "out"), (3, "b")).unwrap();
        p.set_parameter(1, "v", ParamValue::Float(40.0)).unwrap();
        p.set_parameter(2, "v", ParamValue::Float(2.0)).unwrap();
        p
    }

    #[test]
    fn executes_dataflow() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter.clone()));
        let results = exec.execute(&diamond()).unwrap();
        assert_eq!(results.output(3, "out").and_then(WfData::as_float), Some(42.0));
        assert_eq!(results.len(), 3);
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        assert_eq!(results.cache_hits(), 0);
    }

    #[test]
    fn cache_skips_repeat_work() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter.clone()));
        exec.execute(&diamond()).unwrap();
        let second = exec.execute(&diamond()).unwrap();
        // no new module executions
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        assert_eq!(second.cache_hits(), 3);
        assert_eq!(second.output(3, "out").and_then(WfData::as_float), Some(42.0));
    }

    #[test]
    fn parameter_edit_recomputes_only_dirty_cone() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter.clone()));
        exec.execute(&diamond()).unwrap();
        let mut p2 = diamond();
        p2.set_parameter(1, "v", ParamValue::Float(100.0)).unwrap();
        let results = exec.execute(&p2).unwrap();
        assert_eq!(results.output(3, "out").and_then(WfData::as_float), Some(102.0));
        // module 2 was cached; modules 1 and 3 re-ran
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        assert_eq!(results.cache_hits(), 1);
    }

    #[test]
    fn caching_can_be_disabled() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter.clone()));
        exec.caching_enabled = false;
        exec.execute(&diamond()).unwrap();
        exec.execute(&diamond()).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 6);
        assert_eq!(exec.cache_len(), 0);
    }

    #[test]
    fn cache_salt_change_invalidates_downstream() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter.clone()));
        exec.execute(&diamond()).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        // same engine version → everything served from cache
        exec.execute(&diamond()).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        // bump the engine version behind `m.src`: both sources AND the
        // downstream add must recompute (salts flow through the recursive
        // signature walk)
        exec.registry.set_cache_salt("m.src", 2);
        exec.execute(&diamond()).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 6);
        // stable again under the new salt
        exec.execute(&diamond()).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 6);
        // clearing the salt restores the original signatures → cache hits
        exec.registry.set_cache_salt("m.src", 0);
        exec.execute(&diamond()).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn clear_cache_forces_recompute() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter.clone()));
        exec.execute(&diamond()).unwrap();
        assert!(exec.cache_len() > 0);
        exec.clear_cache();
        exec.execute(&diamond()).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn failing_module_reports_id() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter));
        let mut p = Pipeline::new();
        p.add_module(7, "m.fail").unwrap();
        match exec.execute(&p) {
            Err(WfError::Execution { module, message }) => {
                assert_eq!(module, 7);
                assert_eq!(message, "boom");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    /// A wave whose threads are made to finish in the reverse of module
    /// order is still booked in module order, its successes are cached,
    /// and of two failures the earlier module's is the one returned.
    #[test]
    fn a_wave_is_booked_in_module_order_not_completion_order() {
        use std::sync::{Condvar, Mutex};
        const N: usize = 8;
        // module `rank` finishes only once the N - 1 - rank modules after
        // it in the wave have finished
        let gated_registry = || {
            let finished = Arc::new((Mutex::new(0usize), Condvar::new()));
            let mut r = ModuleRegistry::new();
            r.register_fn("m", "gate", &[], &[("out", PortType::Float)], move |_, params| {
                let rank = params.get("rank").and_then(ParamValue::as_i64).unwrap() as usize;
                let (count, turn) = &*finished;
                let waited = turn
                    .wait_timeout_while(
                        count.lock().unwrap(),
                        Duration::from_secs(10),
                        |done| *done < N - 1 - rank,
                    )
                    .unwrap();
                let mut done = waited.0;
                *done += 1;
                turn.notify_all();
                if params.get("fail").and_then(ParamValue::as_bool) == Some(true) {
                    return Err(WfError::Execution { module: 0, message: format!("gate {rank}") });
                }
                Ok(single("out", WfData::Float(rank as f64)))
            });
            r
        };
        let wave = |failing: &[u64]| {
            let mut p = Pipeline::new();
            for rank in 0..N as u64 {
                p.add_module(10 + rank, "m.gate").unwrap();
                p.set_parameter(10 + rank, "rank", ParamValue::Int(rank as i64)).unwrap();
                if failing.contains(&rank) {
                    p.set_parameter(10 + rank, "fail", ParamValue::Bool(true)).unwrap();
                }
            }
            p
        };
        rayon::with_threads(N, || {
            for _ in 0..20 {
                let results = Executor::new(gated_registry()).execute(&wave(&[])).unwrap();
                let booked: Vec<ModuleId> = results.log.iter().map(|e| e.module).collect();
                assert_eq!(booked, (10..18).collect::<Vec<_>>());

                let mut exec = Executor::new(gated_registry());
                match exec.execute(&wave(&[2, 5])) {
                    Err(WfError::Execution { module, message }) => {
                        assert_eq!((module, message.as_str()), (12, "gate 2"));
                    }
                    other => panic!("expected module 12's failure, got {other:?}"),
                }
                assert_eq!(exec.cache_len(), N - 2, "the wave's successes are cached");
            }
        });
    }

    /// A run is booked by depth, then module id, cache hits and misses
    /// alike: with module 1 edited, the diamond books 1 (a miss), 2 (a
    /// hit), then 3.
    #[test]
    fn a_run_is_booked_by_depth_then_module_id() {
        let mut exec = Executor::new(registry(Arc::new(AtomicUsize::new(0))));
        exec.execute(&diamond()).unwrap();
        let mut p = diamond();
        p.set_parameter(1, "v", ParamValue::Float(100.0)).unwrap();
        let results = exec.execute(&p).unwrap();
        let booked: Vec<(ModuleId, bool)> =
            results.log.iter().map(|e| (e.module, e.cache_hit)).collect();
        assert_eq!(booked, [(1, false), (2, true), (3, false)]);
    }

    /// A module waits for nothing but its inputs. Module 1 (depth 0) runs
    /// until module 3 (depth 1, behind the fast module 2) has run, so the
    /// pipeline succeeds only if 3 starts while 1 is still running; behind
    /// a barrier between depths, 1 fails at its 2 s timeout.
    #[test]
    fn a_module_waits_only_for_its_own_inputs() {
        use std::sync::atomic::AtomicBool;
        let ran = Arc::new(AtomicBool::new(false));
        let mut r = registry(Arc::new(AtomicUsize::new(0)));
        let seen = Arc::clone(&ran);
        r.register_fn("m", "await", &[], &[("out", PortType::Float)], move |_, _| {
            let start = Instant::now();
            while !seen.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(2) {
                std::thread::sleep(Duration::from_millis(1));
            }
            match seen.load(Ordering::SeqCst) {
                true => Ok(single("out", WfData::Float(0.0))),
                false => Err(WfError::Execution { module: 0, message: "3 did not run".into() }),
            }
        });
        r.register_fn("m", "signal", &[("a", PortType::Float)], &[], move |_, _| {
            ran.store(true, Ordering::SeqCst);
            Ok(BTreeMap::new())
        });
        let mut p = Pipeline::new();
        p.add_module(1, "m.await").unwrap();
        p.add_module(2, "m.src").unwrap();
        p.add_module(3, "m.signal").unwrap();
        p.connect((2, "out"), (3, "a")).unwrap();
        let results = rayon::with_threads(2, || Executor::new(r).execute(&p)).unwrap();
        assert_eq!(results.len(), 3);
    }

    /// A chain is one module wide at every depth, so however many threads
    /// the caller allows, its modules run one after another on the caller.
    /// Run after run, uncached: a pool that is still warm from the last
    /// run would otherwise let a lingering worker take the first module.
    #[test]
    fn a_chain_runs_on_the_calling_thread() {
        use parking_lot::Mutex;
        let threads = Arc::new(Mutex::new(Vec::new()));
        let mut r = ModuleRegistry::new();
        let seen = Arc::clone(&threads);
        let (inputs, outputs) = ([("a", PortType::Float)], [("out", PortType::Float)]);
        r.register_fn("m", "step", &inputs, &outputs, move |_, _| {
            seen.lock().push(std::thread::current().id());
            Ok(single("out", WfData::Float(0.0)))
        });
        let mut p = Pipeline::new();
        for id in 1..=5 {
            p.add_module(id, "m.step").unwrap();
            if id > 1 {
                p.connect((id - 1, "out"), (id, "a")).unwrap();
            }
        }
        let mut exec = Executor::new(r);
        exec.caching_enabled = false;
        for _ in 0..200 {
            let results = rayon::with_threads(8, || exec.execute(&p)).unwrap();
            assert_eq!(results.len(), 5);
        }
        assert_eq!(*threads.lock(), vec![std::thread::current().id(); 5 * 200]);
    }

    #[test]
    fn retry_policy_recovers_transient_failures() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter.clone()));
        exec.retry = RetryPolicy::retries(2, Duration::from_millis(1));
        let mut p = Pipeline::new();
        p.add_module(1, "m.flaky").unwrap();
        let results = exec.execute(&p).unwrap();
        assert_eq!(results.output(1, "out").and_then(WfData::as_float), Some(7.0));
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        // provenance shows all three attempts with their timings
        let entry = &results.log[0];
        assert_eq!(entry.attempts, 3);
        assert_eq!(entry.attempt_durations.len(), 3);
        assert!(entry.duration >= entry.attempt_durations[0]);
    }

    #[test]
    fn default_policy_fails_fast_on_flaky_module() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter.clone()));
        let mut p = Pipeline::new();
        p.add_module(1, "m.flaky").unwrap();
        match exec.execute(&p) {
            Err(WfError::Execution { module, message }) => {
                assert_eq!(module, 1);
                assert_eq!(message, "transient");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn retries_exhausted_reports_last_error() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter));
        exec.retry = RetryPolicy::retries(3, Duration::ZERO);
        let mut p = Pipeline::new();
        p.add_module(9, "m.fail").unwrap();
        match exec.execute(&p) {
            Err(WfError::Execution { module, message }) => {
                assert_eq!(module, 9);
                assert_eq!(message, "boom");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn clean_runs_log_single_attempts() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter));
        exec.retry = RetryPolicy::retries(2, Duration::ZERO);
        let first = exec.execute(&diamond()).unwrap();
        assert!(first.log.iter().all(|e| e.attempts == 1));
        // cache hits record zero attempts
        let second = exec.execute(&diamond()).unwrap();
        assert!(second.log.iter().all(|e| e.cache_hit && e.attempts == 0));
    }

    #[test]
    fn execute_subset_runs_only_upstream() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter.clone()));
        let p = diamond();
        let results = exec.execute_subset(&p, Some(1)).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        assert!(results.output(3, "out").is_none());
    }

    #[test]
    fn independent_branches_run_in_parallel() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter));
        let mut p = Pipeline::new();
        for id in 1..=4 {
            p.add_module(id, "m.slow").unwrap();
        }
        let start = Instant::now();
        rayon::with_threads(4, || exec.execute(&p)).unwrap();
        let elapsed = start.elapsed();
        // serial would be ≥ 160ms; parallel should be well under
        assert!(
            elapsed < Duration::from_millis(140),
            "wavefront not parallel: {elapsed:?}"
        );
    }

    /// A module that panics inside a 4-wide wave ends `execute` with its
    /// panic instead of leaving the wave waiting, and the pool that ran
    /// the wave serves the same executor's next run. The run is on its own
    /// thread so that a hang fails this test at the watchdog instead of
    /// stalling the suite.
    #[test]
    fn a_panicking_module_ends_the_wave_and_the_pool_survives() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut r = registry(counter.clone());
        r.register_fn("m", "panic", &[], &[("out", PortType::Float)], |_, _| {
            panic!("module panicked")
        });
        let mut p = Pipeline::new();
        for id in 1..=3 {
            p.add_module(id, "m.slow").unwrap();
        }
        p.add_module(4, "m.panic").unwrap();
        let mut exec = Executor::new(r);
        let run = std::thread::spawn(move || {
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rayon::with_threads(4, || exec.execute(&p).map(|_| ()))
            }));
            (exec, ran.is_err())
        });
        let started = Instant::now();
        while !run.is_finished() {
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "execute still running 1 s after its module panicked"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let (mut exec, panicked) = run.join().unwrap();
        assert!(panicked, "the module's panic propagates");
        assert_eq!(exec.cache_len(), 0, "nothing of the panicked wave is cached");
        let results = rayon::with_threads(4, || exec.execute(&diamond())).unwrap();
        assert_eq!(results.output(3, "out").and_then(WfData::as_float), Some(42.0));
    }

    #[test]
    fn log_records_all_modules() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter));
        let results = exec.execute(&diamond()).unwrap();
        assert_eq!(results.log.len(), 3);
        let types: Vec<&str> = results.log.iter().map(|e| e.type_name.as_str()).collect();
        assert!(types.contains(&"m.add"));
        assert!(results.log.iter().all(|e| e.signature != 0));
    }

    #[test]
    fn invalid_pipeline_rejected_before_running() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut exec = Executor::new(registry(counter.clone()));
        let mut p = Pipeline::new();
        p.add_module(1, "m.unknown").unwrap();
        assert!(exec.execute(&p).is_err());
        assert_eq!(counter.load(Ordering::SeqCst), 0);
    }
}
