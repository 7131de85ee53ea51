//! A headless model of the UV-CDAT GUI's panes (§III.E, Fig 2).
//!
//! No display server exists here, but each pane's *semantics* do: the
//! project view organizes spreadsheets into projects, the variable view
//! lists and edits the selected dataset's variables, and the plot view
//! exposes the palette of prebuilt plot workflows — which is
//! `crate::plots::PALETTE` itself: label, inputs needed, and the key
//! `prebuilt_plot_workflow` takes.

use crate::{Dv3dError, Result};
use cdms::{AttValue, Dataset};
use serde::{Deserialize, Serialize};

/// The project view: projects → named spreadsheets.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProjectView {
    projects: Vec<(String, Vec<String>)>,
}

impl ProjectView {
    /// An empty project tree.
    pub fn new() -> ProjectView {
        ProjectView::default()
    }

    /// Creates a project; errors on duplicates.
    pub fn add_project(&mut self, name: &str) -> Result<()> {
        if self.projects.iter().any(|(n, _)| n == name) {
            return Err(Dv3dError::Config(format!("project '{name}' exists")));
        }
        self.projects.push((name.to_string(), Vec::new()));
        Ok(())
    }

    /// Adds a spreadsheet to a project.
    pub fn add_sheet(&mut self, project: &str, sheet: &str) -> Result<()> {
        let p = self
            .projects
            .iter_mut()
            .find(|(n, _)| n == project)
            .ok_or_else(|| Dv3dError::Config(format!("no project '{project}'")))?;
        if p.1.iter().any(|s| s == sheet) {
            return Err(Dv3dError::Config(format!("sheet '{sheet}' exists in '{project}'")));
        }
        p.1.push(sheet.to_string());
        Ok(())
    }

    /// Project names in creation order.
    pub fn projects(&self) -> Vec<&str> {
        self.projects.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Sheets of one project.
    pub fn sheets(&self, project: &str) -> Option<Vec<&str>> {
        self.projects
            .iter()
            .find(|(n, _)| n == project)
            .map(|(_, sheets)| sheets.iter().map(|s| s.as_str()).collect())
    }

    /// Serializes the project tree (saved alongside spreadsheets).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self)
            .map_err(|e| Dv3dError::Workflow(vistrails::WfError::Serde(e.to_string())))
    }

    /// Reloads a project tree.
    pub fn from_json(s: &str) -> Result<ProjectView> {
        serde_json::from_str(s)
            .map_err(|e| Dv3dError::Workflow(vistrails::WfError::Serde(e.to_string())))
    }
}

/// A row of the variable view.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableRow {
    pub id: String,
    pub long_name: String,
    pub units: String,
    pub shape: Vec<usize>,
}

/// The variable view: lists/edits the variables of a dataset.
#[derive(Debug)]
pub struct VariableView<'a> {
    dataset: &'a mut Dataset,
    selected: Option<String>,
}

impl<'a> VariableView<'a> {
    /// A view over a dataset.
    pub fn new(dataset: &'a mut Dataset) -> VariableView<'a> {
        VariableView { dataset, selected: None }
    }

    /// The table rows.
    pub fn rows(&self) -> Vec<VariableRow> {
        self.dataset
            .variables()
            .iter()
            .map(|v| VariableRow {
                id: v.id.clone(),
                long_name: v.long_name().to_string(),
                units: v.units().unwrap_or("").to_string(),
                shape: v.shape().to_vec(),
            })
            .collect()
    }

    /// Selects a variable.
    pub fn select(&mut self, id: &str) -> Result<()> {
        if self.dataset.variable(id).is_none() {
            return Err(Dv3dError::Config(format!("no variable '{id}'")));
        }
        self.selected = Some(id.to_string());
        Ok(())
    }

    /// The selected variable id.
    pub fn selected(&self) -> Option<&str> {
        self.selected.as_deref()
    }

    /// Edits an attribute of the selected variable.
    pub fn set_attribute(&mut self, name: &str, value: impl Into<AttValue>) -> Result<()> {
        let id = self
            .selected
            .clone()
            .ok_or_else(|| Dv3dError::Config("no variable selected".into()))?;
        let mut var = self
            .dataset
            .variable(&id)
            .ok_or_else(|| Dv3dError::Config(format!("selected variable '{id}' no longer exists")))?
            .clone();
        var.attributes.insert(name.to_string(), value.into());
        self.dataset.add_variable(var);
        Ok(())
    }

    /// Runs a calculator statement against the dataset (the command-line
    /// pane), refreshing the view's table.
    pub fn execute(&mut self, statement: &str) -> Result<crate::calculator::CalcValue> {
        crate::calculator::evaluate(self.dataset, statement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdms::synth::SynthesisSpec;

    #[test]
    fn project_tree_operations() {
        let mut pv = ProjectView::new();
        pv.add_project("AR6 browse").unwrap();
        pv.add_project("MJO study").unwrap();
        assert!(pv.add_project("AR6 browse").is_err());
        pv.add_sheet("AR6 browse", "main").unwrap();
        pv.add_sheet("AR6 browse", "zoom").unwrap();
        assert!(pv.add_sheet("AR6 browse", "main").is_err());
        assert!(pv.add_sheet("nope", "x").is_err());
        assert_eq!(pv.projects(), vec!["AR6 browse", "MJO study"]);
        assert_eq!(pv.sheets("AR6 browse").unwrap(), vec!["main", "zoom"]);
        assert!(pv.sheets("nope").is_none());
    }

    #[test]
    fn project_view_serializes() {
        let mut pv = ProjectView::new();
        pv.add_project("p1").unwrap();
        pv.add_sheet("p1", "main").unwrap();
        let json = pv.to_json().unwrap();
        let back = ProjectView::from_json(&json).unwrap();
        assert_eq!(back, pv);
        assert!(ProjectView::from_json("zzz").is_err());
    }

    #[test]
    fn variable_view_lists_and_edits() {
        let mut ds = SynthesisSpec::new(2, 2, 4, 8).build();
        let mut vv = VariableView::new(&mut ds);
        let rows = vv.rows();
        assert!(rows.iter().any(|r| r.id == "ta" && r.units == "K"));
        assert!(rows.iter().any(|r| r.shape == vec![2, 2, 4, 8]));
        vv.select("ta").unwrap();
        assert_eq!(vv.selected(), Some("ta"));
        assert!(vv.select("nope").is_err());
        vv.set_attribute("comment", "checked").unwrap();
        assert_eq!(
            ds.variable("ta").unwrap().attributes.get("comment").and_then(|a| a.as_text()),
            Some("checked")
        );
    }

    #[test]
    fn attribute_edit_requires_selection() {
        let mut ds = SynthesisSpec::new(1, 1, 4, 8).build();
        let mut vv = VariableView::new(&mut ds);
        assert!(vv.set_attribute("x", 1.0).is_err());
    }

    #[test]
    fn calculator_pane_updates_table() {
        let mut ds = SynthesisSpec::new(2, 1, 4, 8).build();
        let mut vv = VariableView::new(&mut ds);
        let before = vv.rows().len();
        vv.execute("pr2 = pr * 2").unwrap();
        assert_eq!(vv.rows().len(), before + 1);
    }

    #[test]
    fn palette_covers_paper_plot_types() {
        let palette = crate::plots::PALETTE;
        let names: Vec<&str> = palette.iter().map(|e| e.label).collect();
        for expected in
            ["Slicer", "Volume", "Isosurface", "Hovmoller Slicer", "Hovmoller Volume", "Vector Slicer"]
        {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert!(palette.iter().any(|e| e.needs_vectors));
        assert_eq!(palette.iter().filter(|e| e.needs_hovmoller).count(), 2);
        // the eight entries the plot view always listed, with their flags:
        // (label, two variables, vector pair, time-as-z volume)
        for (label, two_inputs, vectors, hovmoller) in [
            ("Slicer", false, false, false),
            ("Slicer + Contour Overlay", true, false, false),
            ("Volume", false, false, false),
            ("Isosurface", false, false, false),
            ("Isosurface (colored by 2nd var)", true, false, false),
            ("Hovmoller Slicer", false, false, true),
            ("Hovmoller Volume", false, false, true),
            ("Vector Slicer", true, true, false),
        ] {
            let row = palette.iter().find(|e| e.label == label).expect(label);
            assert_eq!(row.second_image.is_some() || row.needs_vectors, two_inputs, "{label}");
            assert_eq!((row.needs_vectors, row.needs_hovmoller), (vectors, hovmoller), "{label}");
        }
    }
}
