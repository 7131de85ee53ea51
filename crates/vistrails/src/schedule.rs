//! The one DAG scheduler — the paper's "parallel task execution". The
//! workflow [`Executor`](crate::executor::Executor) and `cdat`'s analysis
//! `TaskGraph` both run on it.
//!
//! [`Topology::new`] checks a DAG of nodes `0..n` in one Kahn pass, which
//! is also the cycle check, and derives each node's depth and critical-path
//! height. [`run`] executes it dependency-counting and event-driven: the
//! completion that meets a node's last dependency pushes it onto a ready
//! heap, tallest first, then lowest index. There are no barriers, so a slow
//! node delays only its own dependents. The first failure cancels the run:
//! nothing new starts and the nodes running finish. Every failure seen
//! before the run drains stays in its node's slot, and both callers report
//! the one first in [`Topology::order`], the order a serial run takes.
//!
//! On the dv3dlint `indexing_hot_paths` list: the scheduler runs under
//! every batch workload and workflow, and must not panic, so element access
//! goes through `.get()` and iterators.

use parking_lot::Mutex;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, OnceLock};
use std::time::{Duration, Instant};

/// How a run reacts to a failing node: total attempts per node, and the
/// backoff slept between them (doubling each retry).
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
    /// Fail fast (the default).
    pub fn none() -> RetryPolicy {
        RetryPolicy::default()
    }

    /// Up to `retries` re-runs after the first failure, with `backoff`
    /// (doubling) between attempts.
    pub fn retries(retries: u32, backoff: Duration) -> RetryPolicy {
        RetryPolicy { max_attempts: retries.saturating_add(1), backoff }
    }

    /// Runs `f` under the policy. Returns the per-attempt wall times
    /// alongside the final outcome (the last error when all attempts fail).
    pub fn run<T, E>(&self, mut f: impl FnMut() -> Result<T, E>) -> Outcome<T, E> {
        let max = self.max_attempts.max(1);
        let mut timings = Vec::new();
        let mut backoff = self.backoff;
        loop {
            let start = Instant::now();
            let out = f();
            timings.push(start.elapsed());
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

/// What one node's run left: the wall time of each attempt, and the
/// output or the last attempt's error.
pub type Outcome<T, E> = (Vec<Duration>, Result<T, E>);

/// A checked DAG: what [`run`] schedules against.
#[derive(Debug)]
pub struct Topology {
    /// Unmet dependency count per node (the run's seed).
    deps_left: Vec<usize>,
    /// Nodes unblocked by each node's completion.
    dependents: Vec<Vec<usize>>,
    /// Critical-path height (sinks = 1), for dispatch priority.
    height: Vec<u32>,
    /// Every node by depth, then index.
    order: Vec<usize>,
    /// Nodes in the widest depth level.
    width: usize,
}

impl Topology {
    /// Checks the DAG in which node `i` depends on the nodes `deps[i]`. On
    /// a cycle it returns the nodes on or behind one, in index order.
    pub fn new(deps: &[Vec<usize>]) -> Result<Topology, Vec<usize>> {
        let n = deps.len();
        let mut deps_left = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for ((i, ds), c) in deps.iter().enumerate().zip(deps_left.iter_mut()) {
            for &j in ds {
                *c += 1;
                if let Some(v) = dependents.get_mut(j) {
                    v.push(i);
                }
            }
        }
        // Kahn's pass: a node is popped only after all of its dependencies,
        // so its depth is final by then.
        let mut counts = deps_left.clone();
        let mut depth = vec![0usize; n];
        let mut kahn: Vec<usize> = Vec::with_capacity(n);
        let mut frontier: Vec<usize> =
            counts.iter().enumerate().filter(|(_, &c)| c == 0).map(|(i, _)| i).collect();
        while let Some(i) = frontier.pop() {
            kahn.push(i);
            let below = depth.get(i).map_or(1, |d| d + 1);
            for &j in dependents.get(i).into_iter().flatten() {
                if let (Some(c), Some(d)) = (counts.get_mut(j), depth.get_mut(j)) {
                    *d = (*d).max(below);
                    *c -= 1;
                    if *c == 0 {
                        frontier.push(j);
                    }
                }
            }
        }
        if kahn.len() < n {
            let stuck = counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, _)| i);
            return Err(stuck.collect());
        }
        // Heights in reverse Kahn order: dispatching the tallest ready node
        // first keeps the longest remaining chain moving while shorter
        // branches fill spare workers.
        let mut height = vec![1u32; n];
        for &i in kahn.iter().rev() {
            let below = dependents.get(i).into_iter().flatten().filter_map(|&j| height.get(j));
            let h = below.max().map_or(1, |h| h + 1);
            if let Some(slot) = height.get_mut(i) {
                *slot = h;
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| depth.get(i).copied());
        let mut level_sizes = vec![0usize; n];
        for &d in &depth {
            if let Some(size) = level_sizes.get_mut(d) {
                *size += 1;
            }
        }
        let width = level_sizes.into_iter().max().unwrap_or(0);
        Ok(Topology { deps_left, dependents, height, order, width })
    }

    /// Every node, shallowest first, then by index: the order a serial run
    /// takes, and the order the callers book a run's outcomes in.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Nodes in the widest depth level: the most workers [`run`] uses. A
    /// chain is one node wide, so it runs on the caller.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// Runs the DAG on `workers` workers (clamped to at least 1, at most the
/// [`Topology::width`]), `body(i, outputs)` computing node `i` under `retry`, where
/// `outputs[j]` is written once, when node `j` succeeds, and read without a
/// lock from then on. Returns every node's outcome by index; a node the
/// first failure cancelled has none.
///
/// The workers are the items of one `rayon` region of that width, so a run
/// starts no thread of its own and a one-worker run stays on the caller. A
/// worker waits on the condvar only while a peer has a node in flight, so
/// no wait cycle forms. Bodies run at the caller's
/// `rayon::current_num_threads()`, so their kernels publish regions as wide
/// as they would on the caller. A body that panics ends the run the same
/// way, and the region re-raises the panic here.
pub fn run<T, E, F>(
    topo: &Topology,
    workers: usize,
    retry: &RetryPolicy,
    body: F,
) -> Vec<Option<Outcome<T, E>>>
where
    T: Send + Sync,
    E: Send,
    F: Fn(usize, &[OnceLock<T>]) -> Result<T, E> + Sync,
{
    let n = topo.order.len();
    let workers = workers.clamp(1, topo.width.max(1));
    // The heap is bounded by the node count; with_capacity states the cap.
    let mut ready = BinaryHeap::with_capacity(n);
    for (index, (&c, &height)) in topo.deps_left.iter().zip(&topo.height).enumerate() {
        if c == 0 {
            ready.push((height, Reverse(index)));
        }
    }
    let shared = Shared {
        state: Mutex::new(State {
            ready,
            deps_left: topo.deps_left.clone(),
            slots: (0..n).map(|_| None).collect(),
            in_flight: 0,
            done: 0,
            failed: false,
        }),
        cv: Condvar::new(),
    };
    let outputs: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let kernel_threads = rayon::current_num_threads();
    rayon::with_threads(workers, || {
        vec![(); workers].par_iter().for_each(|()| {
            rayon::with_threads(kernel_threads, || worker(topo, retry, &body, &shared, &outputs))
        })
    });
    let slots = shared.state.into_inner().slots;
    slots
        .into_iter()
        .zip(outputs)
        .map(|(slot, out)| match (slot?, out.into_inner()) {
            ((attempts, None), Some(v)) => Some((attempts, Ok(v))),
            ((attempts, Some(e)), _) => Some((attempts, Err(e))),
            ((_, None), None) => None,
        })
        .collect()
}

/// One worker: pop the tallest ready node, run it outside the scheduler
/// lock, publish the outcome, and wake peers. Exits when every node has
/// succeeded, or when the run is cancelled and drained.
fn worker<T, E, F>(
    topo: &Topology,
    retry: &RetryPolicy,
    body: &F,
    shared: &Shared<E>,
    outputs: &[OnceLock<T>],
) where
    F: Fn(usize, &[OnceLock<T>]) -> Result<T, E>,
{
    let n = topo.order.len();
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
        let Some((_, Reverse(index))) = guard.ready.pop() else { continue };
        guard.in_flight += 1;
        drop(guard);

        let unwinding = Unwinding(shared);
        let (attempts, out) = retry.run(|| body(index, outputs));
        std::mem::forget(unwinding);
        // a node is dispatched once, so its cell is empty
        let failure = out.map(|v| outputs.get(index).map(|cell| cell.set(v))).err();

        guard = shared.state.lock();
        guard.in_flight -= 1;
        if failure.is_some() {
            // First-failure cancellation: nothing new starts.
            guard.failed = true;
            guard.ready.clear();
        } else {
            guard.done += 1;
            if !guard.failed {
                for &j in topo.dependents.get(index).into_iter().flatten() {
                    let Some(c) = guard.deps_left.get_mut(j) else { continue };
                    *c -= 1;
                    if *c == 0 {
                        let height = topo.height.get(j).copied().unwrap_or(1);
                        guard.ready.push((height, Reverse(j)));
                    }
                }
            }
        }
        if let Some(slot) = guard.slots.get_mut(index) {
            *slot = Some((attempts, failure));
        }
        shared.cv.notify_all();
    }
}

/// Mutable scheduler state, guarded by one mutex that is never held
/// across a body.
struct State<E> {
    /// Ready nodes as `(height, Reverse(index))`: the tallest critical path
    /// first, then the lowest index — a total, deterministic order.
    ready: BinaryHeap<(u32, Reverse<usize>)>,
    deps_left: Vec<usize>,
    /// Per node, once it has run: its attempt times and its error, if any.
    slots: Vec<Option<(Vec<Duration>, Option<E>)>>,
    in_flight: usize,
    done: usize,
    failed: bool,
}

impl<E> State<E> {
    /// True when no worker has anything left to do: every node succeeded,
    /// or the run was cancelled and all in-flight work has drained.
    fn finished(&self, n: usize) -> bool {
        self.done == n || (self.failed && self.in_flight == 0 && self.ready.is_empty())
    }
}

struct Shared<E> {
    state: Mutex<State<E>>,
    cv: Condvar,
}

/// Held by a worker while a body runs outside the lock and forgotten when
/// the body returns, so it drops only if the body unwinds. It then leaves
/// the run cancelled and drained — the in-flight count given back, nothing
/// left to start, peers woken — so the other workers exit and the region
/// can re-raise the panic instead of waiting on the condvar for ever.
struct Unwinding<'a, E>(&'a Shared<E>);

impl<E> Drop for Unwinding<'_, E> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.in_flight -= 1;
        state.failed = true;
        state.ready.clear();
        drop(state);
        self.0.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_depth_then_index_and_a_cycle_names_what_it_blocks() {
        let order = |deps: &[Vec<usize>]| Topology::new(deps).map(|t| t.order);
        // 0 → 2 → 3 ← 1
        assert_eq!(order(&[vec![], vec![], vec![0], vec![2, 1]]), Ok(vec![0, 1, 2, 3]));
        assert_eq!(order(&[vec![3], vec![], vec![1], vec![]]), Ok(vec![1, 3, 0, 2]));
        // 1 ↔ 2, and 3 behind them
        assert_eq!(order(&[vec![], vec![2], vec![1], vec![2]]), Err(vec![1, 2, 3]));
    }

    #[test]
    fn width_is_the_widest_depth_level() {
        let width = |deps: &[Vec<usize>]| Topology::new(deps).map(|t| t.width());
        assert_eq!(width(&[]), Ok(0));
        assert_eq!(width(&[vec![], vec![0], vec![1], vec![2]]), Ok(1));
        // 0 → {1, 2, 3} → 4, beside the lone 5
        let diamond = [vec![], vec![0], vec![0], vec![0], vec![1, 2, 3], vec![]];
        assert_eq!(width(&diamond), Ok(3));
    }

    /// What ran before the run drained is in its slot, the failure
    /// included; what the failure cancelled has none. Node 0 is the
    /// tallest, so it runs first and cancels 1, behind it, and 2.
    #[test]
    fn a_failure_keeps_what_ran_and_cancels_the_rest() {
        let topo = Topology::new(&[vec![], vec![0], vec![]]).unwrap();
        let retry = RetryPolicy::retries(1, Duration::ZERO);
        let slots = run(&topo, 1, &retry, |i, _| if i == 0 { Err("boom") } else { Ok(i) });
        let got: Vec<_> = slots.into_iter().map(|s| s.map(|(a, r)| (a.len(), r))).collect();
        assert_eq!(got, [Some((2, Err("boom"))), None, None]);
    }
}
