//! The dependency-counting executor vs the `run_serial` oracle.
//!
//! Two contracts are pinned here:
//!
//! 1. **Scheduling is invisible in the bits.** Over randomly generated
//!    DAGs — random fan-in/fan-out, injected transient failures cleared
//!    by the retry policy, and permanently failing tasks — the executor's
//!    `TaskReport.outputs` (data AND masks) and its attempt counts are
//!    bit-identical to `run_serial` at pool sizes 1, 2 and 8, and
//!    `run_parallel` sizes its pool from `rayon::with_threads` the same way.
//! 2. **Batched regrid is invisible in the bits.** `regrid_batch` over N
//!    ensemble members equals N per-member `regrid` calls byte-for-byte,
//!    masks included, for both regrid methods and uneven member shapes.

use cdat::regrid::{regrid, regrid_batch};
use cdat::regrid_plan::RegridMethod;
use cdat::taskgraph::{RetryPolicy, TaskGraph};
use cdms::axis::AxisKind;
use cdms::synth::SynthesisSpec;
use cdms::{Axis, CdmsError, MaskedArray, RectGrid, Variable};
use proptest::prelude::*;
use rayon::with_threads;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---- deterministic PRNG (no external crates, no wall clock) ----

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

// ---- random DAG specs, rebuilt into a fresh graph per run ----

#[derive(Clone, Copy, Debug, PartialEq)]
enum Behavior {
    /// Succeeds on the first attempt.
    Ok,
    /// Fails the first `n` attempts, then succeeds (the retry policy's
    /// budget always covers `n`).
    Flaky(u32),
    /// Fails every attempt.
    Fail,
}

#[derive(Clone, Debug)]
struct TaskSpec {
    deps: Vec<usize>,
    behavior: Behavior,
    salt: u64,
}

/// A random DAG: each task depends on a random subset of earlier tasks,
/// so the spec is acyclic by construction. `fail_one` plants exactly one
/// permanently failing task (never task 0, so something always runs).
fn random_spec(seed: u64, n: usize, edge_pct: u64, flaky_pct: u64, fail_one: bool) -> Vec<TaskSpec> {
    let mut rng = Rng::new(seed);
    let mut spec: Vec<TaskSpec> = (0..n)
        .map(|i| {
            let mut deps = Vec::new();
            for j in 0..i {
                if rng.chance(edge_pct) {
                    deps.push(j);
                }
            }
            // keep the graph connected-ish: half the orphan tasks get one
            // random earlier dependency
            if deps.is_empty() && i > 0 && rng.chance(50) {
                deps.push(rng.below(i));
            }
            let behavior = if rng.chance(flaky_pct) {
                Behavior::Flaky(1 + (rng.next() % 2) as u32)
            } else {
                Behavior::Ok
            };
            TaskSpec { deps, behavior, salt: rng.next() }
        })
        .collect();
    if fail_one && n > 1 {
        let victim = 1 + rng.below(n - 1);
        if let Some(t) = spec.get_mut(victim) {
            t.behavior = Behavior::Fail;
        }
    }
    spec
}

/// Builds a runnable graph from a spec. Every closure reads exactly its
/// declared dependencies (never the whole map), computes a small masked
/// field as a pure function of (salt, deps) with f32 accumulation in
/// fixed dep order, and fails per its behavior through a fresh per-run
/// attempt counter.
fn build_graph(spec: &[TaskSpec]) -> TaskGraph {
    const SHAPE: [usize; 2] = [3, 4];
    let mut g = TaskGraph::new();
    g.retry = RetryPolicy::retries(3, Duration::ZERO);
    for (i, t) in spec.iter().enumerate() {
        let dep_names: Vec<String> = t.deps.iter().map(|j| format!("t{j}")).collect();
        let dep_refs: Vec<&str> = dep_names.iter().map(String::as_str).collect();
        let salt = t.salt;
        let behavior = t.behavior;
        let attempts = AtomicU32::new(0);
        let names = dep_names.clone();
        g.add_task(&format!("t{i}"), &dep_refs, move |deps| {
            let attempt = attempts.fetch_add(1, Ordering::SeqCst);
            match behavior {
                Behavior::Fail => {
                    return Err(CdmsError::Invalid("planted permanent failure".into()))
                }
                Behavior::Flaky(n) if attempt < n => {
                    return Err(CdmsError::Invalid("planted transient failure".into()))
                }
                _ => {}
            }
            let n = SHAPE.iter().product();
            let mut data: Vec<f32> = (0..n)
                .map(|l| ((salt.wrapping_add(l as u64 * 31) % 2000) as f32) / 100.0 - 10.0)
                .collect();
            let mut mask: Vec<bool> = (0..n).map(|l| (salt >> (l % 13)) & 1 == 1).collect();
            // accumulate declared deps only, in declared order
            for name in &names {
                let dv = deps
                    .get(name)
                    .ok_or_else(|| CdmsError::NotFound(format!("dependency '{name}'")))?;
                for ((d, m), (dv, &dm)) in data
                    .iter_mut()
                    .zip(mask.iter_mut())
                    .zip(dv.array.data().iter().zip(dv.array.mask()))
                {
                    *d += dv;
                    *m |= dm;
                }
            }
            let arr = MaskedArray::with_mask(data, mask, &SHAPE)?;
            let axes = vec![
                Axis::new("y", vec![0.0, 1.0, 2.0], "1", AxisKind::Generic)?,
                Axis::new("x", vec![0.0, 1.0, 2.0, 3.0], "1", AxisKind::Generic)?,
            ];
            Variable::new("v", arr, axes)
        })
        .expect("unique task names");
    }
    g
}

fn assert_reports_identical(spec: &[TaskSpec], pool: usize) {
    let serial = build_graph(spec).run_serial().expect("serial run");
    let pooled = build_graph(spec).run_with_pool(pool).expect("pooled run");
    assert_eq!(
        serial.outputs.keys().collect::<Vec<_>>(),
        pooled.outputs.keys().collect::<Vec<_>>(),
        "output key sets differ at pool {pool}"
    );
    for (name, want) in &serial.outputs {
        let got = &pooled.outputs[name];
        let wb: Vec<u32> = want.array.data().iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u32> = got.array.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(wb, gb, "data bits differ for '{name}' at pool {pool}");
        assert_eq!(want.array.mask(), got.array.mask(), "masks differ for '{name}'");
    }
    // retry provenance: same attempt counts per task
    for (name, want) in &serial.attempt_timings {
        assert_eq!(
            want.len(),
            pooled.attempt_timings[name].len(),
            "attempt counts differ for '{name}' at pool {pool}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Executor outputs are bit-identical to the serial oracle over random
    /// DAGs with injected transient failures, at pools 1, 2 and 8.
    #[test]
    fn executor_bit_identical_to_serial(
        seed in 0u64..u64::MAX,
        n in 3usize..24,
        edge_pct in 5u64..45,
        flaky_pct in 0u64..35,
    ) {
        let spec = random_spec(seed, n, edge_pct, flaky_pct, false);
        for pool in [1usize, 2, 8] {
            assert_reports_identical(&spec, pool);
        }
    }

    /// A permanently failing task fails every runner with an attributed
    /// error; the executor cancels cleanly instead of hanging or panicking.
    #[test]
    fn executor_fails_like_serial_on_planted_failure(
        seed in 0u64..u64::MAX,
        n in 3usize..16,
        edge_pct in 10u64..50,
    ) {
        let spec = random_spec(seed, n, edge_pct, 10, true);
        let serial_err = build_graph(&spec).run_serial().expect_err("serial must fail");
        prop_assert!(serial_err.to_string().contains("planted permanent failure"));
        for pool in [1usize, 2, 8] {
            let err = build_graph(&spec)
                .run_with_pool(pool)
                .expect_err("pooled run must fail");
            prop_assert!(
                err.to_string().contains("planted permanent failure"),
                "pool {}: {}", pool, err
            );
            prop_assert!(err.to_string().contains("task 't"), "pool {}: {}", pool, err);
        }
    }
}

// ---- run_parallel honours the scoped thread count ----

#[test]
fn run_parallel_matches_serial_at_env_thread_counts() {
    let spec = random_spec(0xD1CE, 18, 30, 20, false);
    let want = build_graph(&spec).run_serial().expect("serial");
    for threads in [1usize, 2, 8] {
        let got = with_threads(threads, || build_graph(&spec).run_parallel().expect("parallel"));
        assert_eq!(got.workers, threads.min(spec.len()), "threads {threads}");
        for (name, w) in &want.outputs {
            let g = &got.outputs[name];
            let wb: Vec<u32> = w.array.data().iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = g.array.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(wb, gb, "'{name}' at {threads} env threads");
            assert_eq!(w.array.mask(), g.array.mask(), "'{name}' mask");
        }
    }
}

// ---- regrid_batch ≡ per-member regrid, byte-for-byte ----

/// `regrid_batch` and `regrid` go through the process-global plan cache,
/// whose counters `regrid_batch_hits_plan_cache_once` reads: the tests
/// that touch it must not interleave.
static PLAN_CACHE_LOCK: Mutex<()> = Mutex::new(());

fn batch_members() -> Vec<Variable> {
    // uneven leading shapes on the same horizontal grid: a 4-D field, a
    // 3-D time slab stack, and a masked 2-D surface field
    let ds = SynthesisSpec::new(4, 2, 12, 24).seed(7).build();
    let ta = ds.variable("ta").expect("ta").clone();
    let tos = ds.variable("tos").expect("tos").clone();
    let slab = ta.time_slab(1).expect("slab");
    vec![ta, slab, tos]
}

#[test]
fn regrid_batch_equals_per_member_regrid_byte_for_byte() {
    let _guard = PLAN_CACHE_LOCK.lock().expect("plan cache lock");
    let members = batch_members();
    let refs: Vec<&Variable> = members.iter().collect();
    let target = RectGrid::uniform(7, 13).expect("target grid");
    for method in [RegridMethod::Bilinear, RegridMethod::Conservative] {
        let batch = regrid_batch(&refs, &target, method).expect("regrid_batch");
        assert_eq!(batch.len(), members.len());
        for (member, got) in members.iter().zip(&batch) {
            let want = regrid(member, &target, method).expect("single regrid");
            assert_eq!(got.shape(), want.shape(), "{method:?} '{}'", member.id);
            let wb: Vec<u32> = want.array.data().iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.array.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(wb, gb, "{method:?} '{}' data bits", member.id);
            assert_eq!(
                got.array.mask(),
                want.array.mask(),
                "{method:?} '{}' mask",
                member.id
            );
            assert_eq!(got.axes, want.axes, "{method:?} '{}' axes", member.id);
            assert_eq!(got.id, want.id);
        }
    }
}

#[test]
fn regrid_batch_validates_and_handles_edges() {
    let _guard = PLAN_CACHE_LOCK.lock().expect("plan cache lock");
    let members = batch_members();
    let target = RectGrid::uniform(5, 9).expect("target grid");

    // empty batch is an empty result, not an error
    assert!(regrid_batch(&[], &target, RegridMethod::Bilinear).expect("empty batch").is_empty());

    // a member on the wrong source grid rejects the whole batch
    let other = SynthesisSpec::new(2, 1, 9, 18).seed(3).build();
    let wrong = other.variable("ta").expect("ta").clone();
    let refs: Vec<&Variable> = members.iter().take(1).chain(std::iter::once(&wrong)).collect();
    assert!(regrid_batch(&refs, &target, RegridMethod::Bilinear).is_err());
}

// ---- regrid_batch: one cache consult for N members ----

#[test]
fn regrid_batch_hits_plan_cache_once() {
    let _guard = PLAN_CACHE_LOCK.lock().expect("plan cache lock");
    let members = batch_members();
    let refs: Vec<&Variable> = members.iter().collect();
    let target = RectGrid::uniform(6, 11).expect("target grid");
    let before = cdat::plan_cache::global_stats();
    let out = regrid_batch(&refs, &target, RegridMethod::Bilinear).expect("regrid_batch");
    let after = cdat::plan_cache::global_stats();
    assert_eq!(out.len(), members.len());
    assert_eq!(
        after.hits + after.misses,
        before.hits + before.misses + 1,
        "batch must consult the plan cache exactly once"
    );
    for (member, got) in members.iter().zip(&out) {
        let want = regrid(member, &target, RegridMethod::Bilinear).expect("regrid");
        assert_eq!(got.array, want.array, "'{}'", member.id);
    }
}

// ---- executor structural properties ----

/// After a failure is recorded, no queued-but-unstarted task may run: the
/// ready queue drains. With one worker, the failing task runs first and
/// the planted counter proves the independent task never started.
#[test]
fn first_error_cancels_unstarted_tasks() {
    let started = Arc::new(AtomicU32::new(0));
    let mut g = TaskGraph::new();
    g.add_task("boom", &[], |_| Err(CdmsError::Invalid("early failure".into())))
        .expect("add boom");
    let flag = Arc::clone(&started);
    g.add_task("later", &[], move |_| {
        flag.fetch_add(1, Ordering::SeqCst);
        Err(CdmsError::Invalid("should never run".into()))
    })
    .expect("add later");
    let err = g.run_with_pool(1).expect_err("must fail");
    assert!(err.to_string().contains("early failure"), "{err}");
    assert_eq!(started.load(Ordering::SeqCst), 0, "cancelled task must not start");
}

/// Tall-chain-first dispatch: with one worker, the head of the 3-deep
/// chain runs before an independent leaf added earlier would... the leaf
/// is added first but has height 1, the chain head height 3.
#[test]
fn critical_path_runs_first() {
    let order = Arc::new(Mutex::new(Vec::new()));
    let mk = |order: &Arc<Mutex<Vec<&'static str>>>, tag: &'static str| {
        let order = Arc::clone(order);
        move |_: &std::collections::BTreeMap<String, Arc<Variable>>| {
            order.lock().expect("order lock").push(tag);
            let arr = MaskedArray::zeros(&[1]);
            let axes = vec![Axis::new("s", vec![0.0], "1", AxisKind::Generic)?];
            Variable::new("v", arr, axes)
        }
    };
    let mut g = TaskGraph::new();
    g.add_task("leaf", &[], mk(&order, "leaf")).expect("leaf");
    g.add_task("c0", &[], mk(&order, "c0")).expect("c0");
    g.add_task("c1", &["c0"], mk(&order, "c1")).expect("c1");
    g.add_task("c2", &["c1"], mk(&order, "c2")).expect("c2");
    g.run_with_pool(1).expect("run");
    let got = order.lock().expect("order lock").clone();
    // c0 (height 3) must dispatch before leaf (height 1)
    assert_eq!(got[0], "c0", "dispatch order {got:?}");
}
