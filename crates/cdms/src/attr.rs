//! Attribute values attached to variables, axes and datasets.
//!
//! Mirrors the NetCDF/CDMS attribute model: a small tagged union of text,
//! numeric scalars and numeric vectors, stored in ordered maps so that
//! metadata round-trips deterministically through the file format.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A single attribute value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttValue {
    /// Free text (e.g. `long_name`, `units`, `history`).
    Text(String),
    /// A single 64-bit float (e.g. `missing_value`).
    Float(f64),
    /// A single signed integer (e.g. `realization`).
    Int(i64),
    /// A vector of floats (e.g. `valid_range`).
    FloatVec(Vec<f64>),
}

impl AttValue {
    /// Returns the text payload if this is a [`AttValue::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AttValue::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for AttValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttValue::Text(s) => write!(f, "{s}"),
            AttValue::Float(v) => write!(f, "{v}"),
            AttValue::Int(v) => write!(f, "{v}"),
            AttValue::FloatVec(v) => write!(f, "{v:?}"),
        }
    }
}

impl From<&str> for AttValue {
    fn from(s: &str) -> Self {
        AttValue::Text(s.to_string())
    }
}
impl From<String> for AttValue {
    fn from(s: String) -> Self {
        AttValue::Text(s)
    }
}
impl From<f64> for AttValue {
    fn from(v: f64) -> Self {
        AttValue::Float(v)
    }
}
impl From<i64> for AttValue {
    fn from(v: i64) -> Self {
        AttValue::Int(v)
    }
}

/// An ordered attribute map (name → value).
pub(crate) type Attributes = BTreeMap<String, AttValue>;

/// Convenience constructor for an attribute map from `(name, value)` pairs.
#[cfg(test)]
pub(crate) fn attrs<I, K, V>(pairs: I) -> Attributes
where
    I: IntoIterator<Item = (K, V)>,
    K: Into<String>,
    V: Into<AttValue>,
{
    pairs.into_iter().map(|(k, v)| (k.into(), v.into())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_builder_orders_keys() {
        let a = attrs([("units", "K"), ("long_name", "air temperature")]);
        let keys: Vec<_> = a.keys().cloned().collect();
        assert_eq!(keys, vec!["long_name".to_string(), "units".to_string()]);
    }

    #[test]
    fn display_renders() {
        assert_eq!(AttValue::from(1.5).to_string(), "1.5");
        assert_eq!(AttValue::FloatVec(vec![1.0, 2.0]).to_string(), "[1.0, 2.0]");
    }
}
