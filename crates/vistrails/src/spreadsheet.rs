//! The visualization spreadsheet: a resizable grid of cells, each bound to
//! a pipeline version + sink module (§III.E).
//!
//! Cells can be created, modified, copied, moved and compared; spreadsheets
//! serialize with their provenance so they reload exactly. Configuration
//! and navigation operations apply to all *active* cells, which is how
//! DV3D keeps multiple plots synchronized.

use crate::provenance::{Vistrail, VersionId};
use crate::Result;
use crate::WfError;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A cell position `(row, col)`.
pub(crate) type CellAddress = (usize, usize);

/// What a cell displays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellBinding {
    /// The provenance version whose pipeline this cell executes.
    pub version: VersionId,
    /// The sink module (cell module) within that pipeline.
    pub sink: u64,
    /// Display label.
    pub label: String,
}

/// A grid of visualization cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spreadsheet {
    pub name: String,
    rows: usize,
    cols: usize,
    // JSON maps need string keys; addresses serialize as "row,col".
    cells: BTreeMap<CellAddress, CellBinding>,
    active: BTreeSet<CellAddress>,
}

impl Spreadsheet {
    /// An empty sheet of the given size.
    pub fn new(name: &str, rows: usize, cols: usize) -> Spreadsheet {
        Spreadsheet {
            name: name.to_string(),
            rows: rows.max(1),
            cols: cols.max(1),
            cells: BTreeMap::new(),
            active: BTreeSet::new(),
        }
    }

    fn check(&self, at: CellAddress) -> Result<()> {
        if at.0 >= self.rows || at.1 >= self.cols {
            return Err(WfError::Invalid(format!(
                "cell {at:?} outside {}x{} sheet",
                self.rows, self.cols
            )));
        }
        Ok(())
    }

    /// Binds a cell (replacing any existing binding).
    pub fn set_cell(&mut self, at: CellAddress, binding: CellBinding) -> Result<()> {
        self.check(at)?;
        self.cells.insert(at, binding);
        Ok(())
    }

    /// The binding at a cell.
    pub fn cell(&self, at: CellAddress) -> Option<&CellBinding> {
        self.cells.get(&at)
    }

    /// Clears a cell.
    pub fn clear_cell(&mut self, at: CellAddress) -> Option<CellBinding> {
        self.active.remove(&at);
        self.cells.remove(&at)
    }

    /// Copies a cell's binding to another position (drag-and-drop copy).
    pub fn copy_cell(&mut self, from: CellAddress, to: CellAddress) -> Result<()> {
        self.check(to)?;
        let binding = self
            .cells
            .get(&from)
            .cloned()
            .ok_or_else(|| WfError::NotFound(format!("cell {from:?}")))?;
        self.cells.insert(to, binding);
        Ok(())
    }

    /// Moves a cell (drag-and-drop rearrange).
    pub fn move_cell(&mut self, from: CellAddress, to: CellAddress) -> Result<()> {
        self.check(to)?;
        let binding = self
            .cells
            .remove(&from)
            .ok_or_else(|| WfError::NotFound(format!("cell {from:?}")))?;
        if self.active.remove(&from) {
            self.active.insert(to);
        }
        self.cells.insert(to, binding);
        Ok(())
    }

    /// Activates / deactivates a cell. Interaction ops target active cells.
    pub fn set_active(&mut self, at: CellAddress, active: bool) -> Result<()> {
        if !self.cells.contains_key(&at) {
            return Err(WfError::NotFound(format!("cell {at:?}")));
        }
        if active {
            self.active.insert(at);
        } else {
            self.active.remove(&at);
        }
        Ok(())
    }

    /// Serializes the sheet together with its vistrail so it can be saved
    /// and reloaded with provenance intact.
    pub fn save_with_provenance(&self, vistrail: &Vistrail) -> Result<String> {
        #[derive(Serialize)]
        struct Saved {
            sheet: Spreadsheet,
            vistrail: Vistrail,
        }
        let saved = Saved { sheet: self.clone(), vistrail: vistrail.clone() };
        serde_json::to_string(&saved).map_err(|e| WfError::Serde(e.to_string()))
    }

    /// Reloads a sheet + vistrail pair.
    pub fn load_with_provenance(s: &str) -> Result<(Spreadsheet, Vistrail)> {
        #[derive(Deserialize)]
        struct Saved {
            sheet: Spreadsheet,
            vistrail: Vistrail,
        }
        let saved: Saved =
            serde_json::from_str(s).map_err(|e| WfError::Serde(e.to_string()))?;
        Ok((saved.sheet, saved.vistrail))
    }
}

#[cfg(test)]
impl Spreadsheet {
    /// Grid dimensions `(rows, cols)`.
    pub(crate) fn size(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of bound cells.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// The active cells in row-major order.
    pub(crate) fn active_cells(&self) -> Vec<CellAddress> {
        self.active.iter().copied().collect()
    }

    /// Activates every bound cell.
    pub(crate) fn activate_all(&mut self) {
        self.active = self.cells.keys().copied().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Action;

    fn binding(v: VersionId) -> CellBinding {
        CellBinding { version: v, sink: 1, label: format!("cell v{v}") }
    }

    #[test]
    fn set_get_clear() {
        let mut s = Spreadsheet::new("main", 2, 3);
        assert_eq!(s.size(), (2, 3));
        s.set_cell((0, 0), binding(1)).unwrap();
        s.set_cell((1, 2), binding(2)).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.cell((0, 0)).unwrap().version, 1);
        assert!(s.cell((0, 1)).is_none());
        assert!(s.set_cell((5, 0), binding(1)).is_err());
        let removed = s.clear_cell((0, 0)).unwrap();
        assert_eq!(removed.version, 1);
        assert!(s.clear_cell((0, 0)).is_none());
    }

    #[test]
    fn copy_and_move() {
        let mut s = Spreadsheet::new("main", 2, 2);
        s.set_cell((0, 0), binding(7)).unwrap();
        s.copy_cell((0, 0), (0, 1)).unwrap();
        assert_eq!(s.cell((0, 1)).unwrap().version, 7);
        assert_eq!(s.len(), 2);
        s.move_cell((0, 1), (1, 1)).unwrap();
        assert!(s.cell((0, 1)).is_none());
        assert_eq!(s.cell((1, 1)).unwrap().version, 7);
        assert!(s.copy_cell((9, 9), (0, 0)).is_err());
        assert!(s.move_cell((0, 0), (9, 9)).is_err());
    }

    #[test]
    fn activation_rules() {
        let mut s = Spreadsheet::new("main", 2, 2);
        s.set_cell((0, 0), binding(1)).unwrap();
        s.set_cell((0, 1), binding(2)).unwrap();
        assert!(s.set_active((1, 1), true).is_err()); // unbound
        s.set_active((0, 0), true).unwrap();
        assert_eq!(s.active_cells(), vec![(0, 0)]);
        s.activate_all();
        assert_eq!(s.active_cells().len(), 2);
        s.set_active((0, 0), false).unwrap();
        assert_eq!(s.active_cells(), vec![(0, 1)]);
    }

    #[test]
    fn move_keeps_activation() {
        let mut s = Spreadsheet::new("main", 2, 2);
        s.set_cell((0, 0), binding(1)).unwrap();
        s.set_active((0, 0), true).unwrap();
        s.move_cell((0, 0), (1, 0)).unwrap();
        assert_eq!(s.active_cells(), vec![(1, 0)]);
    }

    #[test]
    fn clear_removes_activation() {
        let mut s = Spreadsheet::new("main", 1, 1);
        s.set_cell((0, 0), binding(1)).unwrap();
        s.set_active((0, 0), true).unwrap();
        s.clear_cell((0, 0));
        assert!(s.active_cells().is_empty());
    }

    #[test]
    fn save_and_reload_with_provenance() {
        let mut vt = Vistrail::new("wf");
        let v = vt
            .add_action(
                Vistrail::ROOT,
                Action::AddModule { id: 1, type_name: "m.cell".into() },
            )
            .unwrap();
        let mut s = Spreadsheet::new("sheet1", 1, 2);
        s.set_cell((0, 0), CellBinding { version: v, sink: 1, label: "plot".into() })
            .unwrap();
        s.set_active((0, 0), true).unwrap();
        let saved = s.save_with_provenance(&vt).unwrap();
        let (s2, vt2) = Spreadsheet::load_with_provenance(&saved).unwrap();
        assert_eq!(s2, s);
        assert_eq!(vt2, vt);
        // the reloaded pipeline still materializes
        assert_eq!(vt2.materialize(v).unwrap().modules.len(), 1);
        assert!(Spreadsheet::load_with_provenance("garbage").is_err());
    }
}
