//! Execution provenance: the persistent record of *runs*.
//!
//! The version tree records how workflows were *built*; the execution log
//! records every time one was *run* — which version, which modules, with
//! what signatures, how long, cache hit or not. "It maintains a record of
//! … the datasets and parameters used in each workflow execution" (§II.B).

use crate::executor::ExecResults;
use crate::provenance::VersionId;
use crate::{Result, WfError};
use serde::{Deserialize, Serialize};

/// One module's record within a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleRun {
    pub module: u64,
    pub type_name: String,
    pub duration_us: u64,
    pub cache_hit: bool,
    /// The cache signature — identifies the exact (type, params, upstream)
    /// combination, so identical signatures across runs mean identical
    /// results.
    pub signature: u64,
}

/// One workflow execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Monotonic run counter within this log.
    pub run_id: u64,
    /// The provenance version that was materialized (if known).
    pub version: Option<VersionId>,
    /// Per-module records in the run's booking order: by depth, then by
    /// module id (`ExecResults::log`).
    pub modules: Vec<ModuleRun>,
}

impl RunRecord {
    /// Total module wall time (µs), cache hits counting as zero.
    pub fn total_us(&self) -> u64 {
        self.modules.iter().map(|m| m.duration_us).sum()
    }

    /// Number of cache hits in this run.
    pub fn cache_hits(&self) -> usize {
        self.modules.iter().filter(|m| m.cache_hit).count()
    }
}

/// The append-only execution log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionLog {
    runs: Vec<RunRecord>,
}

impl ExecutionLog {
    /// An empty log.
    pub fn new() -> ExecutionLog {
        ExecutionLog::default()
    }

    /// Records one execution's results; returns the run id.
    pub fn record(&mut self, version: Option<VersionId>, results: &ExecResults) -> u64 {
        let run_id = self.runs.len() as u64;
        self.runs.push(RunRecord {
            run_id,
            version,
            modules: results
                .log
                .iter()
                .map(|e| ModuleRun {
                    module: e.module,
                    type_name: e.type_name.clone(),
                    duration_us: e.duration.as_micros() as u64,
                    cache_hit: e.cache_hit,
                    signature: e.signature,
                })
                .collect(),
        });
        run_id
    }

    /// All runs, oldest first.
    pub fn runs(&self) -> &[RunRecord] {
        &self.runs
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Runs that executed a given provenance version.
    pub fn runs_of_version(&self, version: VersionId) -> Vec<&RunRecord> {
        self.runs.iter().filter(|r| r.version == Some(version)).collect()
    }

    /// Whether two runs produced identical results for a module, judged by
    /// signature equality (the reproducibility query: "can I regenerate
    /// this product?").
    pub fn same_result(&self, run_a: u64, run_b: u64, module: u64) -> Option<bool> {
        let find = |run: u64| {
            self.runs
                .get(run as usize)?
                .modules
                .iter()
                .find(|m| m.module == module)
                .map(|m| m.signature)
        };
        Some(find(run_a)? == find(run_b)?)
    }

    /// Serializes the log.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| WfError::Serde(e.to_string()))
    }

    /// Parses a log.
    pub fn from_json(s: &str) -> Result<ExecutionLog> {
        serde_json::from_str(s).map_err(|e| WfError::Serde(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::module::{single, ModuleRegistry, PortType};
    use crate::pipeline::Pipeline;
    use crate::value::{ParamValue, WfData};

    fn registry() -> ModuleRegistry {
        let mut r = ModuleRegistry::new();
        r.register_fn("m", "src", &[], &[("out", PortType::Float)], |_, params| {
            let v = params.get("v").and_then(ParamValue::as_f64).unwrap_or(0.0);
            Ok(single("out", WfData::Float(v)))
        });
        r
    }

    fn pipeline(v: f64) -> Pipeline {
        let mut p = Pipeline::new();
        p.add_module(1, "m.src").unwrap();
        p.set_parameter(1, "v", ParamValue::Float(v)).unwrap();
        p
    }

    #[test]
    fn records_runs_with_ids() {
        let mut exec = Executor::new(registry());
        let mut log = ExecutionLog::new();
        let r0 = log.record(Some(5), &exec.execute(&pipeline(1.0)).unwrap());
        let r1 = log.record(Some(5), &exec.execute(&pipeline(1.0)).unwrap());
        let r2 = log.record(Some(9), &exec.execute(&pipeline(2.0)).unwrap());
        assert_eq!((r0, r1, r2), (0, 1, 2));
        assert_eq!(log.len(), 3);
        assert_eq!(log.runs_of_version(5).len(), 2);
        assert_eq!(log.runs_of_version(9).len(), 1);
        // second run of the same version was served from cache
        assert_eq!(log.runs()[1].cache_hits(), 1);
        assert_eq!(log.runs()[0].cache_hits(), 0);
    }

    #[test]
    fn signature_equality_answers_reproducibility() {
        let mut exec = Executor::new(registry());
        let mut log = ExecutionLog::new();
        log.record(None, &exec.execute(&pipeline(1.0)).unwrap());
        log.record(None, &exec.execute(&pipeline(1.0)).unwrap());
        log.record(None, &exec.execute(&pipeline(3.0)).unwrap());
        assert_eq!(log.same_result(0, 1, 1), Some(true));
        assert_eq!(log.same_result(0, 2, 1), Some(false));
        assert_eq!(log.same_result(0, 9, 1), None);
        assert_eq!(log.same_result(0, 1, 99), None);
    }

    #[test]
    fn json_roundtrip() {
        let mut exec = Executor::new(registry());
        let mut log = ExecutionLog::new();
        log.record(Some(1), &exec.execute(&pipeline(1.0)).unwrap());
        let s = log.to_json().unwrap();
        let back = ExecutionLog::from_json(&s).unwrap();
        assert_eq!(back, log);
        assert!(ExecutionLog::from_json("nope").is_err());
    }

    #[test]
    fn total_time_sums_modules() {
        let mut exec = Executor::new(registry());
        let mut log = ExecutionLog::new();
        log.record(None, &exec.execute(&pipeline(1.0)).unwrap());
        let run = &log.runs()[0];
        assert_eq!(run.total_us(), run.modules.iter().map(|m| m.duration_us).sum::<u64>());
    }
}
