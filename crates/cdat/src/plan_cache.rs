//! Workspace-wide cache of [`RegridPlan`]s: a bounded LRU keyed by the
//! `(source grid, target grid, method)` fingerprint from
//! [`crate::regrid_plan::plan_key`], with hit/miss/dedup/eviction counters
//! so benches and diagnostics can verify reuse. The `regrid::{bilinear,
//! conservative}` wrappers route through the process-global instance, so
//! every animation frame, spreadsheet cell or hyperwall panel that repeats
//! a grid pair pays the planning cost once.
//!
//! [`SharedPlanCache`] is safe to hit from many threads at once (the
//! task-graph pool's regrid tasks). The LRU lock is
//! **never held while a plan builds** (builds for different keys proceed
//! in parallel), and concurrent requests for the *same* key are
//! deduplicated: one thread builds, the rest wait on that build and are
//! counted in [`CacheStats::dedups`]. Keys are content-addressed grid
//! fingerprints, so "same key" means "same work" across callers.
//!
//! A hot-path file that denies `clippy::indexing_slicing`: lookups run in the
//! interactive render loop and must not panic.

// Hot path: cached regrid plans are applied inside every animation frame.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::regrid_plan::RegridPlan;
use cdms::Result;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Default capacity of the process-global cache: a hyperwall's worth of
/// distinct grid pairs, small enough that eviction scans stay trivial.
pub(crate) const DEFAULT_GLOBAL_CAPACITY: usize = 32;

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Plans dropped to respect the capacity bound.
    pub evictions: u64,
    /// Lookups that piggybacked on another thread's in-flight build of the
    /// same key instead of building their own copy.
    pub dedups: u64,
}

#[derive(Debug)]
struct Entry {
    plan: Arc<RegridPlan>,
    last_used: u64,
}

/// The LRU bookkeeping behind [`SharedPlanCache`]; only touched under
/// its lock.
#[derive(Debug)]
struct Lru {
    capacity: usize,
    tick: u64,
    stats: CacheStats,
    entries: HashMap<u64, Entry>,
}

impl Lru {
    /// The cached plan for `key`, bumping its recency (counts nothing).
    fn touch(&mut self, key: u64) -> Option<Arc<RegridPlan>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.plan)
        })
    }

    /// Inserts a plan, evicting least-recently-used entries to stay within
    /// capacity.
    fn insert(&mut self, key: u64, plan: Arc<RegridPlan>) {
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(key, Entry { plan, last_used: tick });
        while self.entries.len() > self.capacity {
            // O(n) scan; n is bounded by the (small) capacity. Tie-break on
            // key so eviction order is deterministic.
            let victim = self
                .entries
                .iter()
                .map(|(&k, e)| (e.last_used, k))
                .min()
                .map(|(_, k)| k);
            match victim {
                Some(k) => {
                    self.entries.remove(&k);
                    self.stats.evictions += 1;
                }
                None => break,
            }
        }
    }
}

/// One in-flight plan build that other threads can wait on.
#[derive(Debug, Default)]
struct BuildSlot {
    done: Mutex<bool>,
    cv: Condvar,
}

impl BuildSlot {
    fn wait(&self) {
        let mut done = self.done.lock();
        while !*done {
            done = self.cv.wait(done);
        }
    }

    fn finish(&self) {
        *self.done.lock() = true;
        self.cv.notify_all();
    }
}

/// A bounded LRU cache of regrid plans, safe to hit from many threads at
/// once.
///
/// Invariants the contention tests pin down:
///
/// * the LRU lock is held only for map bookkeeping, never across a plan
///   build — distinct keys build in parallel;
/// * concurrent lookups of the same missing key run **one** build; the
///   other threads block on that build and count as
///   [`CacheStats::dedups`] (their served lookups also count as hits);
/// * a key that is cached is never built again: the thread that claims a
///   build looks the key up once more under its claim, so a build that
///   landed between its miss and its claim is a hit, not a second build
///   overwriting the live entry;
/// * a failed build poisons nothing: waiters retry, and the next claimant
///   rebuilds;
/// * capacity stays bounded under any interleaving (eviction is the
///   ordinary LRU path, counted in [`CacheStats::evictions`]).
#[derive(Debug)]
pub struct SharedPlanCache {
    lru: Mutex<Lru>,
    inflight: Mutex<HashMap<u64, Arc<BuildSlot>>>,
}

impl SharedPlanCache {
    /// A shared cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> SharedPlanCache {
        SharedPlanCache {
            lru: Mutex::new(Lru {
                capacity: capacity.max(1),
                tick: 0,
                stats: CacheStats::default(),
                entries: HashMap::new(),
            }),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.lock().stats
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.lru.lock().entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.lock().entries.is_empty()
    }

    /// The cached plan for `key`, bumping recency (counts a hit or miss).
    pub fn get(&self, key: u64) -> Option<Arc<RegridPlan>> {
        let mut c = self.lru.lock();
        let plan = c.touch(key);
        match plan {
            Some(_) => c.stats.hits += 1,
            None => c.stats.misses += 1,
        }
        plan
    }

    /// Answers `key` from the LRU under its own (brief) lock, counting the
    /// hit — and a dedup when the caller `waited` on another thread's build.
    fn lookup(&self, key: u64, waited: bool) -> Option<Arc<RegridPlan>> {
        let mut c = self.lru.lock();
        let plan = c.touch(key)?;
        c.stats.hits += 1;
        if waited {
            c.stats.dedups += 1;
        }
        Some(plan)
    }

    /// The plan for `key`, building it on a miss without serializing
    /// unrelated builds, and deduplicating concurrent builds of the same
    /// key. A failed build caches nothing and surfaces the error to the
    /// thread that ran it; waiting threads retry (and rebuild if needed).
    pub fn get_or_build(
        &self,
        key: u64,
        mut build: impl FnMut() -> Result<RegridPlan>,
    ) -> Result<Arc<RegridPlan>> {
        let mut waited = false;
        loop {
            // fast path: answer from the LRU
            if let Some(plan) = self.lookup(key, waited) {
                return Ok(plan);
            }
            // miss: claim the build, or wait on whoever already claimed it
            let (slot, is_builder) = {
                let mut inflight = self.inflight.lock();
                match inflight.get(&key) {
                    Some(s) => (Arc::clone(s), false),
                    None => {
                        let s = Arc::new(BuildSlot::default());
                        inflight.insert(key, Arc::clone(&s));
                        (s, true)
                    }
                }
            };
            if !is_builder {
                slot.wait();
                waited = true;
                continue;
            }
            // The miss above and the claim are two critical sections: a
            // build of this key may have landed (insert, then unclaim)
            // between them. Builders insert before they unclaim, so one
            // more look under the claim sees every finished build — only a
            // key that is really absent gets built.
            let out = match self.lookup(key, waited) {
                Some(plan) => Ok(plan),
                // build WITHOUT holding either lock: other keys proceed freely
                None => match build() {
                    Ok(plan) => {
                        let plan = Arc::new(plan);
                        let mut c = self.lru.lock();
                        c.stats.misses += 1;
                        c.insert(key, Arc::clone(&plan));
                        Ok(plan)
                    }
                    Err(e) => {
                        self.lru.lock().stats.misses += 1;
                        Err(e)
                    }
                },
            };
            self.inflight.lock().remove(&key);
            slot.finish();
            return out;
        }
    }
}

static GLOBAL: OnceLock<SharedPlanCache> = OnceLock::new();

/// The process-global shared plan cache: the concurrent front the
/// `regrid` wrappers and the task graph's regrid tasks hit.
pub fn shared_global() -> &'static SharedPlanCache {
    GLOBAL.get_or_init(|| SharedPlanCache::new(DEFAULT_GLOBAL_CAPACITY))
}

/// Counters of the global cache.
pub fn global_stats() -> CacheStats {
    shared_global().stats()
}

/// Empties the global cache (counters are kept).
pub fn clear_global() {
    shared_global().lru.lock().entries.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdms::RectGrid;

    fn plan_for(n: usize) -> RegridPlan {
        let src = RectGrid::uniform(n, 2 * n).unwrap();
        let dst = RectGrid::uniform(n + 1, 2 * n + 1).unwrap();
        RegridPlan::bilinear(&src.lat, &src.lon, &dst).unwrap()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = SharedPlanCache::new(2);
        c.get_or_build(1, || Ok(plan_for(2))).unwrap();
        c.get_or_build(2, || Ok(plan_for(3))).unwrap();
        assert!(c.get(1).is_some()); // 1 is now more recent than 2
        c.get_or_build(3, || Ok(plan_for(4))).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none(), "LRU entry 2 should have been evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 4, "three builds plus the lookup of evicted key 2");
    }

    #[test]
    fn get_or_build_builds_once() {
        let c = SharedPlanCache::new(4);
        let mut builds = 0;
        for _ in 0..3 {
            let p = c
                .get_or_build(7, || {
                    builds += 1;
                    Ok(plan_for(2))
                })
                .unwrap();
            assert_eq!(p.dst_shape(), (3, 5));
        }
        assert_eq!(builds, 1);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn failed_builds_cache_nothing() {
        let c = SharedPlanCache::new(4);
        let r = c.get_or_build(9, || Err(cdms::CdmsError::Invalid("nope".into())));
        assert!(r.is_err());
        assert!(c.is_empty());
        // a later successful build still works
        assert!(c.get_or_build(9, || Ok(plan_for(2))).is_ok());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_bound_keeps_the_most_recent() {
        let c = SharedPlanCache::new(1);
        for k in 0..4 {
            c.get_or_build(k, || Ok(plan_for(2))).unwrap();
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 3);
        assert!(c.get(3).is_some(), "most recent entry survives");
    }
}
