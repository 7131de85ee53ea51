//! Earth System Grid (ESG) federated-access stand-in.
//!
//! The paper's workflows begin by pulling variables from the ESG Federation
//! or a remote ParaView server. Without the network we model the same API
//! shape: a catalog of published datasets searchable by facet
//! (model/experiment/variable), with an `open` that "transfers" the data —
//! optionally with a simulated per-megabyte latency so transfer-bound
//! workflows can be studied.
//!
//! The scan is corruption-aware: a damaged `.ncr` file no longer silently
//! disappears from the catalog. Files that salvage partially are indexed
//! with [`EntryStatus::Salvaged`] (only the recovered variables listed);
//! files with nothing recoverable are kept as [`EntryStatus::Quarantined`]
//! entries whose `open` fails with the recorded reason.

use crate::dataset::Dataset;
use crate::error::{CdmsError, Result};
use crate::format;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Where a catalog entry's data lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataSource {
    /// A file on the local filesystem.
    LocalFile(PathBuf),
    /// A simulated remote ESG node (directory-backed, latency applied).
    EsgNode { node: String, path: PathBuf },
    /// A simulated ParaView server on a remote supercomputer: supports
    /// *server-side* subsetting, so only the selected region transfers.
    ParaViewServer { host: String, path: PathBuf },
}

/// Health of a catalog entry's backing file, decided at scan/publish time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum EntryStatus {
    /// The file parsed cleanly under strict checksum verification.
    #[default]
    Healthy,
    /// The file is damaged but some variables were recovered; `open`
    /// serves the salvaged subset.
    Salvaged {
        /// What the salvage pass found (from `crate::SalvageReport`).
        reason: String,
    },
    /// Nothing recoverable; `open` fails with this reason instead of
    /// surfacing a raw parse error.
    Quarantined {
        /// Why the file was quarantined.
        reason: String,
    },
}

/// One published dataset's catalog record.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Unique dataset id within the catalog.
    pub id: String,
    /// Facets: model, experiment, institution, …
    pub facets: BTreeMap<String, String>,
    /// Variable ids the dataset provides.
    pub variables: Vec<String>,
    /// Data location.
    pub source: DataSource,
    /// Payload size in bytes (drives the simulated transfer time).
    pub size_bytes: u64,
    /// Why the size could not be read, when it couldn't (`size_bytes` is 0
    /// then) — an unreadable file must not masquerade as an empty one.
    pub size_error: Option<String>,
    /// File health as of the last scan/publish.
    pub status: EntryStatus,
}

/// A facet query: every `(facet, value)` pair must match.
#[derive(Debug, Clone, Default)]
pub struct FacetQuery {
    clauses: Vec<(String, String)>,
    /// Require this variable to be present.
    variable: Option<String>,
}

impl FacetQuery {
    /// An empty query (matches everything).
    pub fn new() -> FacetQuery {
        FacetQuery::default()
    }

    /// Adds a facet constraint.
    pub fn facet(mut self, name: &str, value: &str) -> FacetQuery {
        self.clauses.push((name.to_string(), value.to_string()));
        self
    }

    /// Requires the dataset to provide `variable`.
    pub fn variable(mut self, variable: &str) -> FacetQuery {
        self.variable = Some(variable.to_string());
        self
    }

    fn matches(&self, entry: &CatalogEntry) -> bool {
        for (k, v) in &self.clauses {
            if entry.facets.get(k) != Some(v) {
                return false;
            }
        }
        if let Some(var) = &self.variable {
            if !entry.variables.contains(var) {
                return false;
            }
        }
        true
    }
}

/// A directory-backed federated catalog.
#[derive(Debug)]
pub struct EsgCatalog {
    root: PathBuf,
    entries: Vec<CatalogEntry>,
    /// Simulated transfer throughput for `EsgNode` sources, bytes/sec.
    /// `None` disables the latency simulation entirely.
    pub simulated_bandwidth: Option<f64>,
}

impl EsgCatalog {
    /// Creates (or reuses) a catalog rooted at `root`, scanning any existing
    /// `.ncr` files into local entries.
    pub fn new(root: impl AsRef<Path>) -> Result<EsgCatalog> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let mut catalog = EsgCatalog { root: root.clone(), entries: Vec::new(), simulated_bandwidth: None };
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&root)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "ncr"))
            .collect();
        paths.sort();
        for path in paths {
            catalog.scan_file(&path);
        }
        Ok(catalog)
    }

    /// Indexes one on-disk `.ncr` file, degrading gracefully on corruption:
    /// strict open → `Healthy`; partial salvage → `Salvaged`; otherwise a
    /// `Quarantined` entry recording why the file is unusable.
    fn scan_file(&mut self, path: &Path) {
        let source = DataSource::LocalFile(path.to_path_buf());
        match Dataset::open(path) {
            Ok(ds) => self.index_dataset(&ds, source, EntryStatus::Healthy),
            Err(open_err) => match format::read_dataset_salvage(path) {
                Ok((ds, report)) if !report.recovered_variables.is_empty() => {
                    self.index_dataset(
                        &ds,
                        source,
                        EntryStatus::Salvaged { reason: report.summary() },
                    );
                }
                Ok((ds, report)) => {
                    self.quarantine(&ds.id, path, source, report.summary());
                }
                Err(_) => {
                    let stem = path
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    self.quarantine(&stem, path, source, open_err.to_string());
                }
            },
        }
    }

    /// Records an unusable file so it stays visible (and explainable)
    /// instead of silently vanishing from the catalog.
    fn quarantine(&mut self, id: &str, path: &Path, source: DataSource, reason: String) {
        let (size_bytes, size_error) = file_size(path);
        self.entries.retain(|e| e.id != id);
        self.entries.push(CatalogEntry {
            id: id.to_string(),
            facets: BTreeMap::new(),
            variables: Vec::new(),
            source,
            size_bytes,
            size_error,
            status: EntryStatus::Quarantined { reason },
        });
    }

    fn index_dataset(&mut self, ds: &Dataset, source: DataSource, status: EntryStatus) {
        let (size_bytes, size_error) = match &source {
            DataSource::LocalFile(p)
            | DataSource::EsgNode { path: p, .. }
            | DataSource::ParaViewServer { path: p, .. } => file_size(p),
        };
        let facets = ds
            .attributes
            .iter()
            .filter_map(|(k, v)| v.as_text().map(|t| (k.clone(), t.to_string())))
            .collect();
        self.entries.retain(|e| e.id != ds.id);
        self.entries.push(CatalogEntry {
            id: ds.id.clone(),
            facets,
            variables: ds.variable_ids(),
            source,
            size_bytes,
            size_error,
            status,
        });
    }

    /// Publishes a dataset into the catalog: writes the `.ncr` file under the
    /// catalog root and indexes it. `node = None` publishes locally; a node
    /// name marks the entry as a "remote" ESG holding.
    pub fn publish(&mut self, ds: &Dataset, node: Option<&str>) -> Result<()> {
        let path = self.root.join(format!("{}.ncr", ds.id));
        ds.save(&path)?;
        let source = match node {
            None => DataSource::LocalFile(path),
            Some(n) => DataSource::EsgNode { node: n.to_string(), path },
        };
        self.index_dataset(ds, source, EntryStatus::Healthy);
        Ok(())
    }

    /// Publishes a dataset behind a simulated ParaView server (remote
    /// compute: the server can subset before transfer).
    pub fn publish_paraview(&mut self, ds: &Dataset, host: &str) -> Result<()> {
        let path = self.root.join(format!("{}.ncr", ds.id));
        ds.save(&path)?;
        self.index_dataset(
            ds,
            DataSource::ParaViewServer { host: host.to_string(), path },
            EntryStatus::Healthy,
        );
        Ok(())
    }

    /// Searches by facet query.
    pub fn search(&self, query: &FacetQuery) -> Vec<&CatalogEntry> {
        self.entries.iter().filter(|e| query.matches(e)).collect()
    }

    /// Opens a dataset by id, "transferring" it (with simulated latency for
    /// remote entries when `simulated_bandwidth` is set). Quarantined
    /// entries fail with the recorded reason; salvaged entries serve the
    /// recovered variables.
    pub fn open(&self, id: &str) -> Result<Dataset> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| CdmsError::NotFound(format!("catalog entry '{id}'")))?;
        if let EntryStatus::Quarantined { reason } = &entry.status {
            return Err(CdmsError::Format(format!(
                "catalog entry '{id}' is quarantined: {reason}"
            )));
        }
        let path = match &entry.source {
            DataSource::LocalFile(p) => p,
            DataSource::EsgNode { path, .. } | DataSource::ParaViewServer { path, .. } => {
                if let Some(bw) = self.simulated_bandwidth {
                    let secs = entry.size_bytes as f64 / bw.max(1.0);
                    parking_lot::assert_unlocked("the simulated transfer");
                    std::thread::sleep(Duration::from_secs_f64(secs.min(2.0)));
                }
                path
            }
        };
        match &entry.status {
            EntryStatus::Salvaged { .. } => {
                let (ds, _report) = format::read_dataset_salvage(path)?;
                Ok(ds)
            }
            _ => Dataset::open(path),
        }
    }

    /// Opens one variable of a dataset with *server-side* subsetting — the
    /// ParaView-server workflow of §III.G. Only entries published behind a
    /// ParaView server accept this; the subset happens "remotely" (before
    /// the simulated transfer), so the latency charge is proportional to
    /// the subset size, not the whole dataset.
    pub fn open_variable_subset(
        &self,
        id: &str,
        variable: &str,
        lat: (f64, f64),
        lon: (f64, f64),
    ) -> Result<crate::Variable> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| CdmsError::NotFound(format!("catalog entry '{id}'")))?;
        let DataSource::ParaViewServer { path, .. } = &entry.source else {
            return Err(CdmsError::Invalid(format!(
                "'{id}' is not behind a ParaView server; open() it instead"
            )));
        };
        // "server side": full read + subset happen before the transfer
        let ds = Dataset::open(path)?;
        let sub = ds.require(variable)?.subset_lat_lon(lat, lon)?;
        if let Some(bw) = self.simulated_bandwidth {
            let bytes = (sub.array.len() * 4) as f64;
            let secs = bytes / bw.max(1.0);
            parking_lot::assert_unlocked("the simulated transfer");
            std::thread::sleep(Duration::from_secs_f64(secs.min(2.0)));
        }
        Ok(sub)
    }
}

/// Reads the on-disk size, surfacing the error instead of reporting an
/// unreadable file as zero-size (which hid permission/race problems).
fn file_size(path: &Path) -> (u64, Option<String>) {
    match std::fs::metadata(path) {
        Ok(m) => (m.len(), None),
        Err(e) => (0, Some(e.to_string())),
    }
}

#[cfg(test)]
impl CatalogEntry {
    /// True when the backing file verified cleanly.
    pub(crate) fn is_healthy(&self) -> bool {
        self.status == EntryStatus::Healthy
    }
}

#[cfg(test)]
impl EsgCatalog {
    /// All entries.
    pub(crate) fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthesisSpec;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cdms_catalog_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn publish_search_open_roundtrip() {
        let root = temp_root("pso");
        let mut cat = EsgCatalog::new(&root).unwrap();
        let mut ds = SynthesisSpec::new(2, 2, 4, 8).build();
        ds.id = "exp1".to_string();
        cat.publish(&ds, None).unwrap();

        let hits = cat.search(&FacetQuery::new().facet("experiment", "control"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, "exp1");
        assert!(cat.search(&FacetQuery::new().facet("experiment", "rcp85")).is_empty());

        let hits = cat.search(&FacetQuery::new().variable("ta"));
        assert_eq!(hits.len(), 1);
        assert!(cat.search(&FacetQuery::new().variable("nope")).is_empty());

        let opened = cat.open("exp1").unwrap();
        assert_eq!(opened.variable("ta").unwrap().shape(), &[2, 2, 4, 8]);
        assert!(cat.open("missing").is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn rescans_existing_files_on_new() {
        let root = temp_root("rescan");
        {
            let mut cat = EsgCatalog::new(&root).unwrap();
            let mut ds = SynthesisSpec::new(1, 1, 4, 8).build();
            ds.id = "persisted".to_string();
            cat.publish(&ds, None).unwrap();
        }
        let cat2 = EsgCatalog::new(&root).unwrap();
        assert_eq!(cat2.entries().len(), 1);
        assert_eq!(cat2.entries()[0].id, "persisted");
        assert!(cat2.entries()[0].variables.contains(&"wave".to_string()));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn remote_entries_survive_open_without_bandwidth() {
        let root = temp_root("remote");
        let mut cat = EsgCatalog::new(&root).unwrap();
        let mut ds = SynthesisSpec::new(1, 1, 4, 8).build();
        ds.id = "remote1".to_string();
        cat.publish(&ds, Some("esg-node-llnl")).unwrap();
        assert!(matches!(cat.entries()[0].source, DataSource::EsgNode { .. }));
        let opened = cat.open("remote1").unwrap();
        assert_eq!(opened.id, "remote1");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn republish_replaces_entry() {
        let root = temp_root("repub");
        let mut cat = EsgCatalog::new(&root).unwrap();
        let mut ds = SynthesisSpec::new(1, 1, 4, 8).build();
        ds.id = "dup".to_string();
        cat.publish(&ds, None).unwrap();
        cat.publish(&ds, None).unwrap();
        assert_eq!(cat.entries().len(), 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn paraview_server_side_subsetting() {
        let root = temp_root("pv");
        let mut cat = EsgCatalog::new(&root).unwrap();
        let mut ds = SynthesisSpec::new(2, 2, 16, 32).build();
        ds.id = "pv1".to_string();
        cat.publish_paraview(&ds, "discover.nasa.gov").unwrap();
        assert!(matches!(cat.entries()[0].source, DataSource::ParaViewServer { .. }));
        // subset the tropics server-side
        let sub = cat
            .open_variable_subset("pv1", "ta", (-20.0, 20.0), (0.0, 360.0))
            .unwrap();
        assert!(sub.shape()[2] < 16);
        assert_eq!(sub.shape()[3], 32);
        // non-ParaView entries refuse server-side subsetting
        let mut local = SynthesisSpec::new(1, 1, 4, 8).build();
        local.id = "plain".to_string();
        cat.publish(&local, None).unwrap();
        assert!(cat
            .open_variable_subset("plain", "ta", (-20.0, 20.0), (0.0, 360.0))
            .is_err());
        assert!(cat
            .open_variable_subset("missing", "ta", (-20.0, 20.0), (0.0, 360.0))
            .is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_file_is_quarantined_with_reason() {
        let root = temp_root("quar");
        {
            let mut cat = EsgCatalog::new(&root).unwrap();
            let mut ds = SynthesisSpec::new(1, 1, 4, 8).build();
            ds.id = "broken".to_string();
            cat.publish(&ds, None).unwrap();
        }
        // Destroy the file beyond salvage: truncate to garbage.
        let path = root.join("broken.ncr");
        std::fs::write(&path, b"NCRS\x63\x00\x00\x00").unwrap(); // version 99
        let cat = EsgCatalog::new(&root).unwrap();
        assert_eq!(cat.entries().len(), 1, "quarantined file must stay visible");
        let entry = &cat.entries()[0];
        assert_eq!(entry.id, "broken");
        assert!(!entry.is_healthy());
        assert!(matches!(entry.status, EntryStatus::Quarantined { .. }));
        let err = cat.open("broken").unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn partially_corrupt_file_is_salvaged() {
        let root = temp_root("salv");
        let mut ds = SynthesisSpec::new(1, 1, 4, 8).build();
        ds.id = "partial".to_string();
        {
            let mut cat = EsgCatalog::new(&root).unwrap();
            cat.publish(&ds, None).unwrap();
        }
        // Corrupt one variable's VarMeta payload; the rest must survive.
        let path = root.join("partial.ncr");
        let (mut bytes, layout) =
            crate::format_v3::to_bytes_v3_with(&ds, &crate::format_v3::V3Options::default());
        let victim = layout
            .sections
            .iter()
            .find(|s| s.variable.is_some())
            .unwrap();
        bytes[victim.payload.start + victim.payload.len() / 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let cat = EsgCatalog::new(&root).unwrap();
        let entry = &cat.entries()[0];
        assert!(matches!(entry.status, EntryStatus::Salvaged { .. }), "{:?}", entry.status);
        assert_eq!(entry.variables.len(), ds.len() - 1);
        let opened = cat.open("partial").unwrap();
        assert_eq!(opened.len(), ds.len() - 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn healthy_entries_report_size_without_error() {
        let root = temp_root("size");
        let mut cat = EsgCatalog::new(&root).unwrap();
        let mut ds = SynthesisSpec::new(1, 1, 4, 8).build();
        ds.id = "sized".to_string();
        cat.publish(&ds, None).unwrap();
        let entry = &cat.entries()[0];
        assert!(entry.size_bytes > 0);
        assert!(entry.size_error.is_none());
        assert!(entry.is_healthy());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn multi_facet_queries_conjunct() {
        let root = temp_root("conj");
        let mut cat = EsgCatalog::new(&root).unwrap();
        let mut a = SynthesisSpec::new(1, 1, 4, 8).build();
        a.id = "a".into();
        a.attributes.insert("experiment".into(), "control".into());
        cat.publish(&a, None).unwrap();
        let mut b = SynthesisSpec::new(1, 1, 4, 8).build();
        b.id = "b".into();
        b.attributes.insert("experiment".into(), "rcp85".into());
        cat.publish(&b, None).unwrap();

        let q = FacetQuery::new().facet("model", "SYNTH-1").facet("experiment", "rcp85");
        let hits = cat.search(&q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, "b");
        assert_eq!(cat.search(&FacetQuery::new()).len(), 2);
        std::fs::remove_dir_all(&root).ok();
    }
}
