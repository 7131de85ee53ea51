//! Earth System Grid (ESG) federated-access stand-in.
//!
//! The paper's workflows begin by pulling variables from the ESG Federation
//! or a remote ParaView server. Without the network we model the same API
//! shape: a catalog of published datasets searchable by facet
//! (model/experiment/variable), with an `open` that "transfers" the data —
//! optionally with a simulated per-megabyte latency so transfer-bound
//! workflows can be studied.
//!
//! Every entry is built one way, by a scan and a publish alike: from the
//! file's verified metadata (`format_v3::verified_meta`: every checksum,
//! the trailer, the footer and the metadata sections), so listing a file
//! decodes none of its chunks. A damaged file does not disappear from the
//! catalog: a file that step refuses is salvaged, and is indexed as
//! [`EntryStatus::Salvaged`] (only the recovered variables listed) or,
//! with nothing recoverable, kept as [`EntryStatus::Quarantined`], whose
//! `open` fails with the recorded reason.

use crate::attr::Attributes;
use crate::dataset::Dataset;
use crate::error::{CdmsError, Result};
use crate::storage::{LocalDisk, Storage};
use crate::{format, format_v3};

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
    /// Every checksum and the metadata verified. Chunk bodies are decoded
    /// when the entry is opened, so a chunk whose CRC holds but whose body
    /// does not decode fails that strict read.
    #[default]
    Healthy,
    /// The metadata step refused the file, and salvage recovered some
    /// variables; `open` serves them.
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
        self.clauses.iter().all(|(k, v)| entry.facets.get(k) == Some(v))
            && self.variable.as_ref().is_none_or(|var| entry.variables.contains(var))
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
            catalog.index(DataSource::LocalFile(path));
        }
        Ok(catalog)
    }

    /// Builds the entry for the file behind `source`, replacing any entry
    /// of its id: the one way an entry is made. A file the metadata step
    /// accepts is `Healthy`; one it refuses is salvaged, and is `Salvaged`
    /// when a variable comes back, else `Quarantined`. A file whose id
    /// cannot be read takes its stem as id.
    fn index(&mut self, source: DataSource) {
        let path = source.path();
        let read = LocalDisk.read(path);
        let (size_bytes, size_error) = match &read {
            Ok(bytes) => (bytes.len() as u64, None),
            Err(e) => (0, Some(e.to_string())),
        };
        let described = read.and_then(|bytes| match format_v3::verified_meta(&bytes) {
            Ok(meta) => {
                let variables = meta.vars.into_iter().map(|v| v.id).collect();
                Ok((meta.id, meta.attributes, variables, EntryStatus::Healthy))
            }
            Err(strict) => {
                let (ds, report) = format::from_bytes_salvage(&bytes).map_err(|_| strict)?;
                let reason = report.summary();
                let status = if report.recovered_variables.is_empty() {
                    EntryStatus::Quarantined { reason }
                } else {
                    EntryStatus::Salvaged { reason }
                };
                let variables = ds.variable_ids();
                Ok((ds.id, ds.attributes, variables, status))
            }
        });
        let (id, attributes, variables, status) = described.unwrap_or_else(|e| {
            let reason = format::with_path(e, path).to_string();
            (String::new(), Attributes::new(), Vec::new(), EntryStatus::Quarantined { reason })
        });
        let stem = || path.file_stem().map(|s| s.to_string_lossy().into_owned());
        let id = if id.is_empty() { stem().unwrap_or_default() } else { id };
        let facets = attributes
            .into_iter()
            .filter_map(|(k, v)| v.as_text().map(|t| (k, t.to_string())))
            .collect();
        self.entries.retain(|e| e.id != id);
        let entry = CatalogEntry { id, facets, variables, source, size_bytes, size_error, status };
        self.entries.push(entry);
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
        self.index(source);
        Ok(())
    }

    /// Publishes a dataset behind a simulated ParaView server (remote
    /// compute: the server can subset before transfer).
    pub fn publish_paraview(&mut self, ds: &Dataset, host: &str) -> Result<()> {
        let path = self.root.join(format!("{}.ncr", ds.id));
        ds.save(&path)?;
        self.index(DataSource::ParaViewServer { host: host.to_string(), path });
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
        let entry = self.entry(id)?;
        self.serve(entry, |ds| Ok((ds, entry.size_bytes)))
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
        let entry = self.entry(id)?;
        if !matches!(entry.source, DataSource::ParaViewServer { .. }) {
            return Err(CdmsError::Invalid(format!(
                "'{id}' is not behind a ParaView server; open() it instead"
            )));
        }
        self.serve(entry, |ds| {
            let sub = ds.require(variable)?.subset_lat_lon(lat, lon)?;
            let bytes = (sub.array.len() * 4) as u64;
            Ok((sub, bytes))
        })
    }

    fn entry(&self, id: &str) -> Result<&CatalogEntry> {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| CdmsError::NotFound(format!("catalog entry '{id}'")))
    }

    /// The one read path of both opens. A quarantined entry fails with its
    /// reason; otherwise the file is decoded as the status says — strictly
    /// when `Healthy`, by salvage when `Salvaged` — and `pick` chooses what
    /// leaves the "server" and how many bytes that is, which a remote entry
    /// is charged as its simulated transfer.
    fn serve<T>(
        &self,
        entry: &CatalogEntry,
        pick: impl FnOnce(Dataset) -> Result<(T, u64)>,
    ) -> Result<T> {
        if let (EntryStatus::Quarantined { reason }, id) = (&entry.status, &entry.id) {
            return Err(CdmsError::Format(format!("catalog entry '{id}' is quarantined: {reason}")));
        }
        let path = entry.source.path();
        let decoded = LocalDisk.read(path).and_then(|bytes| match entry.status {
            EntryStatus::Healthy => format::from_bytes(&bytes),
            _ => format::from_bytes_salvage(&bytes).map(|(ds, _)| ds),
        });
        let mut ds = decoded.map_err(|e| format::with_path(e, path))?;
        if ds.id.is_empty() {
            ds.id.clone_from(&entry.id);
        }
        let (served, bytes) = pick(ds)?;
        let remote = !matches!(entry.source, DataSource::LocalFile(_));
        if let Some(bw) = self.simulated_bandwidth.filter(|_| remote) {
            let secs = bytes as f64 / bw.max(1.0);
            parking_lot::assert_unlocked("the simulated transfer");
            std::thread::sleep(Duration::from_secs_f64(secs.min(2.0)));
        }
        Ok(served)
    }
}

impl DataSource {
    /// The file behind the source.
    fn path(&self) -> &Path {
        match self {
            DataSource::LocalFile(path)
            | DataSource::EsgNode { path, .. }
            | DataSource::ParaViewServer { path, .. } => path,
        }
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
    use crate::container;
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
        let published = {
            let mut cat = EsgCatalog::new(&root).unwrap();
            let mut ds = SynthesisSpec::new(1, 1, 4, 8).build();
            ds.id = "persisted".to_string();
            cat.publish(&ds, None).unwrap();
            cat
        };
        let cat2 = EsgCatalog::new(&root).unwrap();
        assert_eq!(cat2.entries().len(), 1);
        assert_eq!(cat2.entries()[0].id, "persisted");
        assert!(cat2.entries()[0].variables.contains(&"wave".to_string()));
        // a publish and a rescan build the same entry
        let built = |e: &CatalogEntry| {
            (e.facets.clone(), e.variables.clone(), e.status.clone(), e.size_bytes, e.size_error.clone())
        };
        assert_eq!(built(&published.entries()[0]), built(&cat2.entries()[0]));
        assert!(!cat2.entries()[0].facets.is_empty());
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

    #[test]
    fn a_chunk_that_does_not_decode_behind_its_crc_is_healthy_until_opened() {
        // every CRC holds, and only decoding chunk (ta, window 1, level 0)
        // refuses the file: the scan decodes no chunk, `open` does
        let root = temp_root("undecodable");
        std::fs::create_dir_all(&root).unwrap();
        let ds = SynthesisSpec::new(6, 2, 8, 12).seed(11).build();
        let file = format_v3::fixtures::rle_overrun(&ds, (0, 1, 0), &[2, 9, 9, 9]);
        std::fs::write(root.join("undecodable.ncr"), &file).unwrap();
        let cat = EsgCatalog::new(&root).unwrap();
        let entry = &cat.entries()[0];
        assert!(entry.is_healthy(), "{:?}", entry.status);
        assert_eq!((&entry.id, &entry.variables), (&ds.id, &ds.variable_ids()));
        let err = cat.open(&ds.id).unwrap_err().to_string();
        assert!(err.contains("overruns declared size"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_salvaged_paraview_entry_subsets_what_salvage_recovered() {
        let root = temp_root("pv_salv");
        let mut cat = EsgCatalog::new(&root).unwrap();
        let mut ds = SynthesisSpec::new(2, 2, 16, 32).build();
        ds.id = "pv_damaged".to_string();
        cat.publish_paraview(&ds, "discover.nasa.gov").unwrap();
        // damaged after publishing: the last VarMeta (not `ta`'s) flipped
        let (mut bytes, layout) = format_v3::to_bytes_v3_with(&ds, &Default::default());
        let victim = layout.sections.iter().rfind(|s| s.variable.is_some()).unwrap();
        bytes[victim.payload.start + victim.payload.len() / 2] ^= 0xFF;
        std::fs::write(root.join("pv_damaged.ncr"), &bytes).unwrap();
        cat.index(cat.entries()[0].source.clone());

        let entry = &cat.entries()[0];
        assert!(matches!(entry.status, EntryStatus::Salvaged { .. }), "{:?}", entry.status);
        let subset = |var: &str| cat.open_variable_subset("pv_damaged", var, (-20.0, 20.0), (0.0, 360.0));
        assert!(subset("ta").unwrap().shape()[2] < 16);
        let lost = &victim.variable.as_ref().unwrap().0;
        assert!(matches!(subset(lost), Err(CdmsError::NotFound(_))));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_seeded_mutation_sweep_never_mislabels_or_panics() {
        use rand::{Rng, SeedableRng};
        let root = temp_root("sweep");
        let mut ds = SynthesisSpec::new(5, 1, 4, 8).build();
        ds.id = "swept".to_string();
        EsgCatalog::new(&root).unwrap().publish(&ds, None).unwrap();
        let path = root.join("swept.ncr");
        let clean = std::fs::read(&path).unwrap();
        let (encoded, layout) = format_v3::to_bytes_v3_with(&ds, &Default::default());
        assert_eq!(clean, encoded, "the byte map is the published file's");

        // the clean file; three byte flips in the preamble, the footer and
        // the first two frames of every section kind; sixteen truncations
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let mut frames = vec![0..container::PREAMBLE_LEN, layout.footer.clone()];
        for (i, s) in layout.sections.iter().enumerate() {
            if layout.sections[..i].iter().filter(|t| t.kind == s.kind).count() < 2 {
                frames.push(s.frame.clone());
            }
        }
        let mut mutants = vec![clean.clone()];
        for frame in frames.iter().flat_map(|f| [f; 3]) {
            let mut bytes = clean.clone();
            bytes[rng.gen_range(frame.clone())] ^= rng.gen_range(1..=255u8);
            mutants.push(bytes);
        }
        mutants.extend((0..16).map(|_| clean[..rng.gen_range(0..clean.len())].to_vec()));

        let mut seen = [0; 3];
        for bytes in &mutants {
            std::fs::write(&path, bytes).unwrap();
            let cat = EsgCatalog::new(&root).unwrap();
            assert_eq!(cat.entries().len(), 1, "a damaged file stays listed");
            let entry = &cat.entries()[0];
            let opened = cat.open(&entry.id);
            match &entry.status {
                EntryStatus::Healthy => {
                    seen[0] += 1;
                    assert!(container::verify_all(bytes).is_ok());
                }
                EntryStatus::Salvaged { .. } => {
                    seen[1] += 1;
                    assert_eq!(opened.unwrap().variable_ids(), entry.variables);
                }
                EntryStatus::Quarantined { reason } => {
                    seen[2] += 1;
                    let err = opened.unwrap_err().to_string();
                    assert!(err.contains(reason.as_str()), "{err} does not name {reason}");
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "healthy, salvaged, quarantined: {seen:?}");
        std::fs::remove_dir_all(&root).ok();
    }
}
