//! Contention tests for [`cdat::plan_cache::SharedPlanCache`] — the
//! concurrent front that task-graph workers hit from many threads at
//! once.
//!
//! Pinned invariants:
//!
//! * concurrent lookups of one missing key run exactly **one** build and
//!   the piggybacking threads are counted as `dedups`;
//! * the map lock is never held across a build, so distinct keys build in
//!   parallel;
//! * a failed build poisons nothing — waiters retry and the next claimant
//!   rebuilds;
//! * capacity stays bounded under arbitrary interleavings, with counters
//!   that add up afterwards.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cdat::plan_cache::SharedPlanCache;
use cdat::regrid_plan::RegridPlan;
use cdms::grid::RectGrid;
use cdms::CdmsError;

/// A real (small) plan build, so the cached values are the genuine article.
fn build_plan(n: usize) -> cdms::Result<RegridPlan> {
    let src = RectGrid::uniform(6, 12)?;
    let dst = RectGrid::uniform(3 + n, 2 * (3 + n))?;
    RegridPlan::conservative(&src.lat, &src.lon, &dst)
}

#[test]
fn same_key_concurrent_lookups_build_once() {
    const THREADS: usize = 8;
    let cache = Arc::new(SharedPlanCache::new(8));
    let builds = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(Barrier::new(THREADS));

    let plans: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let gate = Arc::clone(&gate);
                s.spawn(move || {
                    gate.wait();
                    cache.get_or_build(42, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // widen the race window so the others really queue up
                        std::thread::sleep(Duration::from_millis(40));
                        build_plan(1)
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect()
    });

    assert_eq!(builds.load(Ordering::SeqCst), 1, "one build for one key");
    for p in &plans[1..] {
        assert!(Arc::ptr_eq(&plans[0], p), "all callers share one allocation");
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, THREADS as u64 - 1);
    assert!(
        stats.dedups >= 1 && stats.dedups < THREADS as u64,
        "threads that blocked on the in-flight build count as dedups, got {}",
        stats.dedups
    );
}

#[test]
fn distinct_keys_build_in_parallel_lock_not_held_across_builds() {
    const KEYS: usize = 4;
    const BUILD_SLEEP: Duration = Duration::from_millis(80);
    let cache = Arc::new(SharedPlanCache::new(8));
    let gate = Arc::new(Barrier::new(KEYS));

    let start = Instant::now();
    std::thread::scope(|s| {
        for k in 0..KEYS {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            s.spawn(move || {
                gate.wait();
                cache
                    .get_or_build(k as u64, || {
                        std::thread::sleep(BUILD_SLEEP);
                        build_plan(k)
                    })
                    .unwrap();
            });
        }
    });
    let elapsed = start.elapsed();

    // serial builds would take KEYS * BUILD_SLEEP = 320ms; parallel ~80ms.
    // The generous bound still proves the lock was not held across builds.
    assert!(
        elapsed < BUILD_SLEEP * (KEYS as u32 - 1),
        "distinct keys must build concurrently (took {elapsed:?})"
    );
    assert_eq!(cache.len(), KEYS);
    assert_eq!(cache.stats().misses, KEYS as u64);
}

#[test]
fn failed_build_does_not_poison_and_waiters_retry() {
    const THREADS: usize = 4;
    let cache = Arc::new(SharedPlanCache::new(4));
    let attempts = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(Barrier::new(THREADS));

    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let attempts = Arc::clone(&attempts);
                let gate = Arc::clone(&gate);
                s.spawn(move || {
                    gate.wait();
                    cache.get_or_build(7, || {
                        let n = attempts.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(20));
                        if n == 0 {
                            Err(CdmsError::Invalid("injected build failure".into()))
                        } else {
                            build_plan(2)
                        }
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let errs = results.iter().filter(|r| r.is_err()).count();
    let oks: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert_eq!(errs, 1, "exactly the claimant that ran the failing build errors");
    assert_eq!(oks.len(), THREADS - 1, "everyone else is served by the retry");
    for p in &oks[1..] {
        assert!(Arc::ptr_eq(oks[0], p));
    }
    assert!(attempts.load(Ordering::SeqCst) >= 2, "a waiter must have rebuilt");
    assert!(cache.get(7).is_some(), "the retried build landed in the cache");
}

#[test]
fn eviction_under_contention_stays_bounded_with_consistent_counters() {
    const THREADS: usize = 8;
    const KEYS: u64 = 6;
    const ROUNDS: usize = 12;
    let cache = Arc::new(SharedPlanCache::new(2));
    let gate = Arc::new(Barrier::new(THREADS));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            s.spawn(move || {
                gate.wait();
                for r in 0..ROUNDS {
                    // every thread walks the key space with a different stride
                    // so evictions and rebuilds interleave
                    let key = ((t + r * (t + 1)) as u64) % KEYS;
                    let plan = cache
                        .get_or_build(key, || build_plan(key as usize))
                        .unwrap();
                    assert!(plan.nnz() > 0);
                }
            });
        }
    });

    assert!(cache.len() <= 2, "capacity bound violated: {}", cache.len());
    let stats = cache.stats();
    assert_eq!(
        stats.evictions,
        stats.misses - cache.len() as u64,
        "every successful build inserted; inserts beyond capacity evicted"
    );
    assert!(
        stats.hits + stats.misses >= (THREADS * ROUNDS) as u64,
        "each of the {} lookups was served (hits {} + misses {})",
        THREADS * ROUNDS,
        stats.hits,
        stats.misses
    );
}

#[test]
fn a_cached_key_is_never_built_a_second_time() {
    // The double build needs a thread to miss the LRU just before the
    // builder inserts and to reach the in-flight map just after the builder
    // unclaims. No hook reaches between those two steps from outside, so
    // the test repeats the encounter instead: every thread walks the same
    // fresh keys in the same order, so all of them arrive at each key
    // together, and the build is a clone, so it is over while the losers of
    // the claim are still queueing for the in-flight lock. Capacity covers
    // every key: a second build of any key is the bug and nothing else.
    const THREADS: usize = 8;
    const KEYS: usize = 40_000;
    let cache = SharedPlanCache::new(KEYS);
    let plan = build_plan(0).unwrap();
    let builds: Vec<AtomicUsize> = (0..KEYS).map(|_| AtomicUsize::new(0)).collect();
    let gate = Barrier::new(THREADS);

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                gate.wait();
                for (key, built) in builds.iter().enumerate() {
                    cache
                        .get_or_build(key as u64, || {
                            built.fetch_add(1, Ordering::SeqCst);
                            Ok(plan.clone())
                        })
                        .unwrap();
                }
            });
        }
    });

    let twice: Vec<usize> =
        (0..KEYS).filter(|&k| builds[k].load(Ordering::SeqCst) != 1).collect();
    assert!(twice.is_empty(), "keys not built exactly once: {twice:?}");
    let stats = cache.stats();
    assert_eq!(stats.misses, KEYS as u64, "one miss per key");
    assert_eq!(stats.hits, ((THREADS - 1) * KEYS) as u64, "every other lookup is a hit");
    assert_eq!(stats.evictions, 0);
    assert_eq!(cache.len(), KEYS);
}
