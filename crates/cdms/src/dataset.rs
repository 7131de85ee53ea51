//! Datasets: named collections of variables plus global attributes,
//! the in-memory image of one `.ncr` file.

use crate::attr::{AttValue, Attributes};
use crate::error::{CdmsError, Result};
use crate::variable::Variable;
use std::path::Path;

/// A self-describing dataset (one file's worth of variables).
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Dataset identifier (conventionally the file stem).
    pub id: String,
    /// Variables in insertion order.
    variables: Vec<Variable>,
    /// Global attributes.
    pub attributes: Attributes,
}

impl Dataset {
    /// An empty dataset with the given id.
    pub fn new(id: &str) -> Dataset {
        Dataset { id: id.to_string(), ..Default::default() }
    }

    /// Builder-style global attribute setter.
    pub fn with_attr(mut self, name: &str, value: impl Into<AttValue>) -> Dataset {
        self.attributes.insert(name.to_string(), value.into());
        self
    }

    /// Adds or replaces a variable by id.
    pub fn add_variable(&mut self, var: Variable) {
        if let Some(existing) = self.variables.iter_mut().find(|v| v.id == var.id) {
            *existing = var;
        } else {
            self.variables.push(var);
        }
    }

    /// Looks up a variable by id.
    pub fn variable(&self, id: &str) -> Option<&Variable> {
        self.variables.iter().find(|v| v.id == id)
    }

    /// Looks up a variable by id, as an error-returning accessor.
    pub fn require(&self, id: &str) -> Result<&Variable> {
        self.variable(id)
            .ok_or_else(|| CdmsError::NotFound(format!("variable '{id}' in dataset '{}'", self.id)))
    }

    /// All variables, in insertion order.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// Variable ids, in insertion order.
    pub fn variable_ids(&self) -> Vec<String> {
        self.variables.iter().map(|v| v.id.clone()).collect()
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.variables.len()
    }

    /// True when the dataset holds no variables.
    pub fn is_empty(&self) -> bool {
        self.variables.is_empty()
    }

    /// Writes the dataset to a `.ncr` file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        crate::format::write_dataset(self, path.as_ref())
    }

    /// Reads a dataset from a `.ncr` file.
    pub fn open(path: impl AsRef<Path>) -> Result<Dataset> {
        crate::format::read_dataset(path.as_ref())
    }
}

#[cfg(test)]
impl Dataset {
    /// Removes a variable by id, returning it.
    pub(crate) fn remove_variable(&mut self, id: &str) -> Option<Variable> {
        let pos = self.variables.iter().position(|v| v.id == id)?;
        Some(self.variables.remove(pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::MaskedArray;
    use crate::axis::Axis;

    fn small_var(id: &str) -> Variable {
        let lat = Axis::latitude(vec![0.0, 10.0]).unwrap();
        Variable::new(id, MaskedArray::filled(1.0, &[2]), vec![lat]).unwrap()
    }

    #[test]
    fn add_lookup_remove() {
        let mut ds = Dataset::new("test").with_attr("institution", "NCCS");
        assert!(ds.is_empty());
        ds.add_variable(small_var("ta"));
        ds.add_variable(small_var("ua"));
        assert_eq!(ds.len(), 2);
        assert!(ds.variable("ta").is_some());
        assert!(ds.require("hus").is_err());
        assert_eq!(ds.variable_ids(), vec!["ta", "ua"]);
        let removed = ds.remove_variable("ta").unwrap();
        assert_eq!(removed.id, "ta");
        assert_eq!(ds.len(), 1);
        assert!(ds.remove_variable("ta").is_none());
    }

    #[test]
    fn add_replaces_same_id() {
        let mut ds = Dataset::new("test");
        ds.add_variable(small_var("ta"));
        let mut v2 = small_var("ta");
        v2.array = MaskedArray::filled(5.0, &[2]);
        ds.add_variable(v2);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.variable("ta").unwrap().array.data()[0], 5.0);
    }
}
