#![forbid(unsafe_code)]
// R1 (DESIGN.md §10): library code returns an error where it could panic;
// a site whose invariant rules the panic out says why in an `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # vistrails — workflow + provenance engine
//!
//! A Rust reproduction of the VisTrails infrastructure UV-CDAT is built on
//! (paper §II.B, §III.A, §III.F):
//!
//! * [`module`] — the *package mechanism*: libraries expose their
//!   functionality as typed workflow modules registered under a package
//!   name ("tightly coupled integration"), or as external-tool adapters
//!   ("loosely coupled integration").
//! * [`pipeline`] — dataflow graphs of module instances and typed
//!   connections, with validation (ports, types, cycles) and
//!   upstream-subgraph extraction (the hyperwall workflow split uses this).
//! * [`schedule`] — the one DAG scheduler: a dependency-counting,
//!   event-driven run over a pool region, with one retry policy and one
//!   failure rule. The executor below and `cdat`'s analysis task graph
//!   both run on it.
//! * [`executor`] — pipeline execution on the scheduler, with result
//!   caching: independent branches run in parallel, and no module waits
//!   for anything but its own inputs.
//! * [`provenance`] — the VisTrails *version tree*: every edit to a
//!   workflow is an action appended to a tree of versions; any version can
//!   be materialized by replaying its action path, tagged, branched from,
//!   or diffed against another. Workflow evolution is never lost.
//! * [`spreadsheet`] — a grid of cells, each bound to a pipeline version
//!   and sink module, with active-cell selection and synchronized
//!   configuration (the UV-CDAT spreadsheet of §III.E).
//!
//! ## Quickstart
//!
//! ```
//! use vistrails::prelude::*;
//!
//! // Register a tiny package.
//! let mut registry = ModuleRegistry::new();
//! registry.register_fn("math", "add", &[("a", PortType::Float), ("b", PortType::Float)],
//!     &[("sum", PortType::Float)], |inputs, _params| {
//!         let a = inputs.get("a").and_then(WfData::as_float).unwrap_or(0.0);
//!         let b = inputs.get("b").and_then(WfData::as_float).unwrap_or(0.0);
//!         Ok(single("sum", WfData::Float(a + b)))
//!     });
//! registry.register_fn("math", "const", &[], &[("value", PortType::Float)],
//!     |_inputs, params| {
//!         let v = params.get("value").and_then(ParamValue::as_f64).unwrap_or(0.0);
//!         Ok(single("value", WfData::Float(v)))
//!     });
//!
//! // Build a pipeline through the provenance tree.
//! let mut vt = Vistrail::new("example");
//! let root = Vistrail::ROOT;
//! let v1 = vt.add_action(root, Action::AddModule { id: 1, type_name: "math.const".into() }).unwrap();
//! let v2 = vt.add_action(v1, Action::SetParameter { module: 1, name: "value".into(),
//!     value: ParamValue::Float(40.0) }).unwrap();
//! let v3 = vt.add_action(v2, Action::AddModule { id: 2, type_name: "math.const".into() }).unwrap();
//! let v4 = vt.add_action(v3, Action::SetParameter { module: 2, name: "value".into(),
//!     value: ParamValue::Float(2.0) }).unwrap();
//! let v5 = vt.add_action(v4, Action::AddModule { id: 3, type_name: "math.add".into() }).unwrap();
//! let v6 = vt.add_action(v5, Action::AddConnection {
//!     from: (1, "value".into()), to: (3, "a".into()) }).unwrap();
//! let v7 = vt.add_action(v6, Action::AddConnection {
//!     from: (2, "value".into()), to: (3, "b".into()) }).unwrap();
//!
//! let pipeline = vt.materialize(v7).unwrap();
//! let mut exec = Executor::new(registry);
//! let results = exec.execute(&pipeline).unwrap();
//! assert_eq!(results.output(3, "sum").and_then(WfData::as_float), Some(42.0));
//! ```

pub mod execlog;
pub mod executor;
pub mod module;
pub mod pipeline;
pub mod provenance;
pub mod schedule;
pub mod spreadsheet;
pub mod value;

/// Errors raised by workflow operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WfError {
    /// Unknown module type, port, version, …
    NotFound(String),
    /// The pipeline or action is structurally invalid.
    Invalid(String),
    /// A cycle was detected in the dataflow graph.
    Cycle(Vec<u64>),
    /// A module's execute failed.
    Execution { module: u64, message: String },
    /// Type mismatch on a connection or port.
    TypeMismatch { expected: String, got: String },
    /// (De)serialization failure.
    Serde(String),
}

impl std::fmt::Display for WfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WfError::NotFound(m) => write!(f, "not found: {m}"),
            WfError::Invalid(m) => write!(f, "invalid: {m}"),
            WfError::Cycle(ids) => write!(f, "cycle through modules {ids:?}"),
            WfError::Execution { module, message } => {
                write!(f, "module {module} failed: {message}")
            }
            WfError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            WfError::Serde(m) => write!(f, "serialization: {m}"),
        }
    }
}

impl std::error::Error for WfError {
    /// All variants carry their cause as data (strings, module ids); there
    /// is no deeper error object to expose.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        None
    }
}

/// Convenient result alias.
pub(crate) type Result<T> = std::result::Result<T, WfError>;

/// The imports a workflow needs: register modules, record a version tree,
/// run it.
pub mod prelude {
    pub use crate::executor::Executor;
    pub use crate::module::{single, ModuleRegistry, PortType};
    pub use crate::provenance::{Action, Vistrail};
    pub use crate::value::{ParamValue, WfData};
}
