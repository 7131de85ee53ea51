//! Modules and the package registry.
//!
//! VisTrails' package mechanism lets any library expose its functionality as
//! workflow modules through a thin interface (§III.A). Here a package is a
//! namespace of [`WfModule`] implementations in a [`ModuleRegistry`]. Two
//! integration styles are supported, mirroring Fig 1:
//!
//! * **Tightly coupled** — implement [`WfModule`] (or use
//!   [`ModuleRegistry::register_fn`]) so the module runs in-process with
//!   typed ports.
//! * **Loosely coupled** — wrap an external tool behind
//!   [`ModuleRegistry::register_external_tool`]: the adapter receives the
//!   whole input map and returns text, like shelling out to R or MatLab.

use crate::value::{Params, WfData};
use crate::{Result, WfError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Port data types (checked when connections are validated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortType {
    Bool,
    Int,
    Float,
    Str,
    FloatVec,
    /// An opaque package type, matched by tag (e.g. `"cdms.Variable"`).
    Opaque(String),
    /// Accepts anything.
    Any,
}

impl PortType {
    /// Whether a runtime value is acceptable on this port.
    pub fn accepts(&self, data: &WfData) -> bool {
        match (self, data) {
            (PortType::Any, _) => true,
            (PortType::Bool, WfData::Bool(_)) => true,
            (PortType::Int, WfData::Int(_)) => true,
            (PortType::Float, WfData::Float(_) | WfData::Int(_)) => true,
            (PortType::Str, WfData::Str(_)) => true,
            (PortType::FloatVec, WfData::FloatVec(_)) => true,
            (PortType::Opaque(tag), WfData::Opaque { type_name, .. }) => tag == type_name,
            _ => false,
        }
    }

    /// Whether data of type `other` can flow into this port (static check).
    pub(crate) fn compatible(&self, other: &PortType) -> bool {
        self == other
            || *self == PortType::Any
            || *other == PortType::Any
            || (*self == PortType::Float && *other == PortType::Int)
    }
}

/// A port description.
#[derive(Debug, Clone, PartialEq)]
pub struct PortSpec {
    pub name: String,
    pub port_type: PortType,
    /// Inputs marked optional may be unconnected.
    pub optional: bool,
}

/// A module type's interface description.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleDescriptor {
    /// Fully qualified name `package.type`.
    pub type_name: String,
    pub inputs: Vec<PortSpec>,
    pub outputs: Vec<PortSpec>,
    /// Sinks anchor execution (spreadsheet cells are sinks).
    pub is_sink: bool,
}

impl ModuleDescriptor {
    /// Finds an input port spec by name.
    pub(crate) fn input(&self, name: &str) -> Option<&PortSpec> {
        self.inputs.iter().find(|p| p.name == name)
    }

    /// Finds an output port spec by name.
    pub(crate) fn output(&self, name: &str) -> Option<&PortSpec> {
        self.outputs.iter().find(|p| p.name == name)
    }
}

/// A workflow module implementation. Implementations are stateless; all
/// per-instance state lives in the pipeline's parameters.
pub trait WfModule: Send + Sync {
    /// The module's interface.
    fn descriptor(&self) -> ModuleDescriptor;

    /// Runs the module.
    fn execute(
        &self,
        inputs: &BTreeMap<String, WfData>,
        params: &Params,
    ) -> Result<BTreeMap<String, WfData>>;
}

/// Convenience: a single-entry output map.
pub fn single(port: &str, data: WfData) -> BTreeMap<String, WfData> {
    let mut m = BTreeMap::new();
    m.insert(port.to_string(), data);
    m
}

type ExecuteFn = dyn Fn(&BTreeMap<String, WfData>, &Params) -> Result<BTreeMap<String, WfData>>
    + Send
    + Sync;

/// A module built from a closure (the `register_fn` path).
struct FnModule {
    descriptor: ModuleDescriptor,
    f: Box<ExecuteFn>,
}

impl WfModule for FnModule {
    fn descriptor(&self) -> ModuleDescriptor {
        self.descriptor.clone()
    }

    fn execute(
        &self,
        inputs: &BTreeMap<String, WfData>,
        params: &Params,
    ) -> Result<BTreeMap<String, WfData>> {
        (self.f)(inputs, params)
    }
}

/// The registry of all known module types, namespaced by package.
#[derive(Clone, Default)]
pub struct ModuleRegistry {
    modules: BTreeMap<String, Arc<dyn WfModule>>,
    cache_salts: BTreeMap<String, u64>,
}

impl ModuleRegistry {
    /// An empty registry.
    pub fn new() -> ModuleRegistry {
        ModuleRegistry::default()
    }

    /// Registers a module implementation under `package.type`.
    pub(crate) fn register(&mut self, module: Arc<dyn WfModule>) {
        self.modules.insert(module.descriptor().type_name.clone(), module);
    }

    /// Declares a cache salt for a module type: a version of the engine
    /// behind the module that is mixed into pipeline cache signatures
    /// (recursively, so downstream modules are invalidated too). A salt of
    /// 0 is the default and leaves signatures untouched — e.g.
    /// `cdat.Regrid` registers its regrid-engine version here so cached
    /// pipeline outputs can never survive a weight-math change.
    pub fn set_cache_salt(&mut self, type_name: &str, salt: u64) {
        if salt == 0 {
            self.cache_salts.remove(type_name);
        } else {
            self.cache_salts.insert(type_name.to_string(), salt);
        }
    }

    /// All registered cache salts, for signature computation.
    pub(crate) fn cache_salts(&self) -> &BTreeMap<String, u64> {
        &self.cache_salts
    }

    /// Registers a closure-backed module with the given ports.
    pub fn register_fn(
        &mut self,
        package: &str,
        type_name: &str,
        inputs: &[(&str, PortType)],
        outputs: &[(&str, PortType)],
        f: impl Fn(&BTreeMap<String, WfData>, &Params) -> Result<BTreeMap<String, WfData>>
            + Send
            + Sync
            + 'static,
    ) {
        self.register_fn_sink(package, type_name, inputs, outputs, false, f)
    }

    /// Like [`ModuleRegistry::register_fn`] with an explicit sink flag.
    pub fn register_fn_sink(
        &mut self,
        package: &str,
        type_name: &str,
        inputs: &[(&str, PortType)],
        outputs: &[(&str, PortType)],
        is_sink: bool,
        f: impl Fn(&BTreeMap<String, WfData>, &Params) -> Result<BTreeMap<String, WfData>>
            + Send
            + Sync
            + 'static,
    ) {
        let descriptor = ModuleDescriptor {
            type_name: format!("{package}.{type_name}"),
            inputs: inputs
                .iter()
                .map(|(n, t)| PortSpec {
                    name: n.to_string(),
                    port_type: t.clone(),
                    optional: true,
                })
                .collect(),
            outputs: outputs
                .iter()
                .map(|(n, t)| PortSpec {
                    name: n.to_string(),
                    port_type: t.clone(),
                    optional: false,
                })
                .collect(),
            is_sink,
        };
        self.register(Arc::new(FnModule { descriptor, f: Box::new(f) }));
    }

    /// Registers a *loosely coupled* external tool: the adapter takes the
    /// whole input map plus params and returns text on the `result` port —
    /// the shape of shelling out to R / MatLab / VisIt (paper Fig 1).
    pub fn register_external_tool(
        &mut self,
        package: &str,
        tool: &str,
        adapter: impl Fn(&BTreeMap<String, WfData>, &Params) -> std::result::Result<String, String>
            + Send
            + Sync
            + 'static,
    ) {
        self.register_fn(
            package,
            tool,
            &[("input", PortType::Any)],
            &[("result", PortType::Str)],
            move |inputs, params| match adapter(inputs, params) {
                Ok(text) => Ok(single("result", WfData::Str(text))),
                Err(msg) => Err(WfError::Execution { module: 0, message: msg }),
            },
        );
    }

    /// Looks up a module by fully qualified type name.
    pub fn get(&self, type_name: &str) -> Result<Arc<dyn WfModule>> {
        self.modules
            .get(type_name)
            .cloned()
            .ok_or_else(|| WfError::NotFound(format!("module type '{type_name}'")))
    }

    /// Descriptor lookup.
    pub fn descriptor(&self, type_name: &str) -> Result<ModuleDescriptor> {
        Ok(self.get(type_name)?.descriptor())
    }

    /// All registered type names (the plot-palette listing).
    pub fn type_names(&self) -> Vec<String> {
        self.modules.keys().cloned().collect()
    }

    /// Type names belonging to one package.
    pub fn package_types(&self, package: &str) -> Vec<String> {
        let prefix = format!("{package}.");
        self.modules.keys().filter(|k| k.starts_with(&prefix)).cloned().collect()
    }
}

impl std::fmt::Debug for ModuleRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleRegistry")
            .field("types", &self.type_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_neg() -> ModuleRegistry {
        let mut r = ModuleRegistry::new();
        r.register_fn(
            "m",
            "neg",
            &[("x", PortType::Float)],
            &[("y", PortType::Float)],
            |inputs, _| {
                let x = inputs.get("x").and_then(WfData::as_float).unwrap_or(0.0);
                Ok(single("y", WfData::Float(-x)))
            },
        );
        r
    }

    #[test]
    fn register_and_execute() {
        let r = registry_with_neg();
        let m = r.get("m.neg").unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert("x".to_string(), WfData::Float(3.0));
        let out = m.execute(&inputs, &Params::new()).unwrap();
        assert_eq!(out["y"].as_float(), Some(-3.0));
        assert!(r.get("m.missing").is_err());
    }

    #[test]
    fn descriptor_queries() {
        let r = registry_with_neg();
        let d = r.descriptor("m.neg").unwrap();
        assert_eq!(d.type_name, "m.neg");
        assert!(d.input("x").is_some());
        assert!(d.input("nope").is_none());
        assert!(d.output("y").is_some());
        assert!(!d.is_sink);
    }

    #[test]
    fn package_listing() {
        let mut r = registry_with_neg();
        r.register_fn("other", "id", &[], &[], |_, _| Ok(BTreeMap::new()));
        assert_eq!(r.package_types("m"), vec!["m.neg"]);
        assert_eq!(r.type_names().len(), 2);
        assert!(r.package_types("zzz").is_empty());
    }

    #[test]
    fn port_type_accepts() {
        assert!(PortType::Float.accepts(&WfData::Float(1.0)));
        assert!(PortType::Float.accepts(&WfData::Int(1))); // int promotes
        assert!(!PortType::Int.accepts(&WfData::Float(1.0)));
        assert!(PortType::Any.accepts(&WfData::None));
        assert!(PortType::Opaque("a.B".into()).accepts(&WfData::opaque("a.B", 1u8)));
        assert!(!PortType::Opaque("a.B".into()).accepts(&WfData::opaque("a.C", 1u8)));
    }

    #[test]
    fn port_type_compatibility() {
        assert!(PortType::Float.compatible(&PortType::Int));
        assert!(!PortType::Int.compatible(&PortType::Float));
        assert!(PortType::Any.compatible(&PortType::Str));
        assert!(PortType::Str.compatible(&PortType::Any));
        assert!(PortType::Opaque("x".into()).compatible(&PortType::Opaque("x".into())));
        assert!(!PortType::Opaque("x".into()).compatible(&PortType::Opaque("y".into())));
    }

    #[test]
    fn external_tool_adapter() {
        let mut r = ModuleRegistry::new();
        r.register_external_tool("loose", "rstats", |inputs, _| {
            let x = inputs
                .get("input")
                .and_then(WfData::as_float)
                .ok_or("missing input")?;
            Ok(format!("mean={x:.1}"))
        });
        let m = r.get("loose.rstats").unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert("input".to_string(), WfData::Float(5.0));
        let out = m.execute(&inputs, &Params::new()).unwrap();
        assert_eq!(out["result"].as_str(), Some("mean=5.0"));
        // failure path
        let err = m.execute(&BTreeMap::new(), &Params::new()).unwrap_err();
        assert!(matches!(err, WfError::Execution { .. }));
    }

    #[test]
    fn sink_flag_carried() {
        let mut r = ModuleRegistry::new();
        r.register_fn_sink("ui", "cell", &[("in", PortType::Any)], &[], true, |_, _| {
            Ok(BTreeMap::new())
        });
        assert!(r.descriptor("ui.cell").unwrap().is_sink);
    }
}
