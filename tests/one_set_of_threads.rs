//! One thread ceiling for the process: the analysis task graph and the
//! workflow executor run their parallel work as `vendor/rayon` regions, so
//! however many runs they make, their task and module bodies run on the
//! caller and at most `threads - 1` pool workers, never on threads of
//! their own.
//!
//! One test in its own binary, so that no neighbouring test publishes
//! regions on this pool and the count of distinct threads is the test's
//! alone.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;
use uvcdat::cdat::taskgraph::TaskGraph;
use uvcdat::cdms::synth::SynthesisSpec;
use uvcdat::vistrails::executor::Executor;
use uvcdat::vistrails::module::{single, ModuleRegistry, PortType};
use uvcdat::vistrails::pipeline::Pipeline;
use uvcdat::vistrails::value::WfData;

const THREADS: usize = 8;
const RUNS: usize = 20;

type Seen = Arc<Mutex<HashSet<ThreadId>>>;

fn note(seen: &Seen) {
    seen.lock().unwrap().insert(std::thread::current().id());
    // long enough that every worker of a run finds a task to take
    std::thread::sleep(Duration::from_millis(2));
}

fn distinct(seen: &Seen) -> usize {
    seen.lock().unwrap().len()
}

#[test]
fn task_graphs_and_workflow_waves_share_one_bounded_pool() {
    rayon::with_threads(THREADS, || {
        // ≥ 8 independent tasks: every worker of a run has one to take
        let tasks_seen = Seen::default();
        let var = SynthesisSpec::new(1, 1, 2, 4).build().variable("ta").unwrap().clone();
        let mut graph = TaskGraph::new();
        for i in 0..2 * THREADS {
            let (seen, var) = (Arc::clone(&tasks_seen), var.clone());
            graph
                .add_task(&format!("t{i}"), &[], move |_| {
                    note(&seen);
                    Ok(var.clone())
                })
                .unwrap();
        }
        for _ in 0..RUNS {
            let report = graph.run_with_pool(THREADS).unwrap();
            assert_eq!(report.outputs.len(), 2 * THREADS);
        }
        let tasks = distinct(&tasks_seen);

        // a 40-module wave, re-run with caching off
        let modules_seen = Seen::default();
        let mut registry = ModuleRegistry::new();
        let seen = Arc::clone(&modules_seen);
        registry.register_fn("t", "leaf", &[], &[("out", PortType::Float)], move |_, _| {
            note(&seen);
            Ok(single("out", WfData::Float(1.0)))
        });
        let mut wave = Pipeline::new();
        for id in 0..40 {
            wave.add_module(id, "t.leaf").unwrap();
        }
        let mut exec = Executor::new(registry);
        exec.caching_enabled = false;
        for _ in 0..RUNS {
            assert_eq!(exec.execute(&wave).unwrap().len(), 40);
        }
        let modules = distinct(&modules_seen);

        // the caller plus at most THREADS - 1 pool workers
        assert!(tasks <= THREADS, "{RUNS} task-graph runs used {tasks} threads");
        assert!(modules <= THREADS, "{RUNS} workflow runs used {modules} threads");
    });
}
