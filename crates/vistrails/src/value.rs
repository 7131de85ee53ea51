//! Workflow values: serializable module *parameters* and the runtime *data*
//! flowing between modules.

use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A module parameter — part of the pipeline definition, recorded in
/// provenance, serializable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    FloatList(Vec<f64>),
}

impl ParamValue {
    /// Numeric coercion.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            ParamValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Integer coercion.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            ParamValue::Float(v) if v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A stable content signature for caching.
    pub(crate) fn signature(&self, h: &mut Fnv) {
        match self {
            ParamValue::Bool(b) => {
                h.write(&[1, *b as u8]);
            }
            ParamValue::Int(v) => {
                h.write(&[2]);
                h.write(&v.to_le_bytes());
            }
            ParamValue::Float(v) => {
                h.write(&[3]);
                h.write(&v.to_le_bytes());
            }
            ParamValue::Str(s) => {
                h.write(&[4]);
                h.write(s.as_bytes());
            }
            ParamValue::FloatList(v) => {
                h.write(&[5]);
                for x in v {
                    h.write(&x.to_le_bytes());
                }
            }
        }
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}
impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}
impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_string())
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}
impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

/// A module's parameter set.
pub type Params = BTreeMap<String, ParamValue>;

/// Runtime data on a connection. Opaque payloads let packages flow their
/// own types (CDMS variables, VTK image data, rendered frames…) through the
/// engine without the engine depending on them.
#[derive(Clone)]
pub enum WfData {
    /// Absence of data.
    None,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    FloatVec(Vec<f64>),
    /// A shared, typed payload owned by some package.
    Opaque {
        /// Human-readable type tag, e.g. `"cdms.Variable"`.
        type_name: String,
        /// The payload.
        value: Arc<dyn Any + Send + Sync>,
    },
}

impl std::fmt::Debug for WfData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WfData::None => write!(f, "None"),
            WfData::Bool(v) => write!(f, "Bool({v})"),
            WfData::Int(v) => write!(f, "Int({v})"),
            WfData::Float(v) => write!(f, "Float({v})"),
            WfData::Str(v) => write!(f, "Str({v:?})"),
            WfData::FloatVec(v) => write!(f, "FloatVec(len={})", v.len()),
            WfData::Opaque { type_name, .. } => write!(f, "Opaque({type_name})"),
        }
    }
}

impl WfData {
    /// Wraps a payload as opaque data with an explicit type tag.
    pub fn opaque<T: Any + Send + Sync>(type_name: &str, value: T) -> WfData {
        WfData::Opaque { type_name: type_name.to_string(), value: Arc::new(value) }
    }

    /// Downcasts an opaque payload.
    pub fn as_opaque<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        match self {
            WfData::Opaque { value, .. } => value.clone().downcast::<T>().ok(),
            _ => None,
        }
    }

    /// The type tag of this value (variant name, or the opaque tag).
    pub fn type_tag(&self) -> &str {
        match self {
            WfData::None => "None",
            WfData::Bool(_) => "Bool",
            WfData::Int(_) => "Int",
            WfData::Float(_) => "Float",
            WfData::Str(_) => "Str",
            WfData::FloatVec(_) => "FloatVec",
            WfData::Opaque { type_name, .. } => type_name,
        }
    }

    /// Numeric coercion.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            WfData::Float(v) => Some(*v),
            WfData::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            WfData::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A tiny FNV-1a hasher used for cache signatures (stable across runs,
/// unlike `DefaultHasher`).
#[derive(Debug, Clone)]
pub(crate) struct Fnv(pub u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
impl ParamValue {
    /// Boolean payload.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Float-list payload.
    pub(crate) fn as_float_list(&self) -> Option<&[f64]> {
        match self {
            ParamValue::FloatList(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
impl WfData {
    /// Integer coercion.
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            WfData::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean payload.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            WfData::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_coercions() {
        assert_eq!(ParamValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(ParamValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(ParamValue::Float(3.0).as_i64(), Some(3));
        assert_eq!(ParamValue::Float(3.5).as_i64(), None);
        assert_eq!(ParamValue::from("x").as_str(), Some("x"));
        assert_eq!(ParamValue::from(true).as_bool(), Some(true));
        assert_eq!(
            ParamValue::FloatList(vec![1.0]).as_float_list(),
            Some(&[1.0][..])
        );
        assert_eq!(ParamValue::from("x").as_f64(), None);
    }

    #[test]
    fn param_serde_roundtrip() {
        let p = ParamValue::FloatList(vec![1.0, 2.0]);
        let s = serde_json::to_string(&p).unwrap();
        let back: ParamValue = serde_json::from_str(&s).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn opaque_downcast() {
        #[derive(Debug, PartialEq)]
        struct Payload(Vec<u8>);
        let d = WfData::opaque("test.Payload", Payload(vec![1, 2, 3]));
        assert_eq!(d.type_tag(), "test.Payload");
        let p = d.as_opaque::<Payload>().unwrap();
        assert_eq!(*p, Payload(vec![1, 2, 3]));
        // wrong type fails
        assert!(d.as_opaque::<String>().is_none());
        // non-opaque fails
        assert!(WfData::Float(1.0).as_opaque::<Payload>().is_none());
    }

    #[test]
    fn data_coercions_and_tags() {
        assert_eq!(WfData::Float(1.5).as_float(), Some(1.5));
        assert_eq!(WfData::Int(2).as_float(), Some(2.0));
        assert_eq!(WfData::Int(2).as_int(), Some(2));
        assert_eq!(WfData::Str("hi".into()).as_str(), Some("hi"));
        assert_eq!(WfData::Bool(true).as_bool(), Some(true));
        assert_eq!(WfData::None.type_tag(), "None");
        assert_eq!(WfData::FloatVec(vec![]).type_tag(), "FloatVec");
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        let mut a = Fnv::new();
        ParamValue::Float(1.0).signature(&mut a);
        let mut b = Fnv::new();
        ParamValue::Float(1.0).signature(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv::new();
        ParamValue::Float(1.0000001).signature(&mut c);
        assert_ne!(a.finish(), c.finish());
        // Int(1) and Float(1.0) differ
        let mut d = Fnv::new();
        ParamValue::Int(1).signature(&mut d);
        assert_ne!(a.finish(), d.finish());
    }

    #[test]
    fn debug_format_hides_opaque_payload() {
        let d = WfData::opaque("big.Thing", vec![0u8; 1000]);
        assert_eq!(format!("{d:?}"), "Opaque(big.Thing)");
    }
}
