//! Dataflow pipelines: module instances + typed connections.

use crate::module::ModuleRegistry;
use crate::schedule::Topology;
use crate::value::{Fnv, ParamValue, Params};
use crate::{Result, WfError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A module instance's id within a pipeline.
pub type ModuleId = u64;

/// One module instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleNode {
    /// Fully qualified type name (`package.type`).
    pub type_name: String,
    /// Parameter values.
    pub params: Params,
}

/// A directed dataflow connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Connection {
    pub from_module: ModuleId,
    pub from_port: String,
    pub to_module: ModuleId,
    pub to_port: String,
}

/// A dataflow graph.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Pipeline {
    /// Module instances by id.
    pub modules: BTreeMap<ModuleId, ModuleNode>,
    /// Dataflow edges.
    pub connections: Vec<Connection>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Adds a module instance.
    pub fn add_module(&mut self, id: ModuleId, type_name: &str) -> Result<()> {
        if self.modules.contains_key(&id) {
            return Err(WfError::Invalid(format!("module id {id} already exists")));
        }
        self.modules
            .insert(id, ModuleNode { type_name: type_name.to_string(), params: Params::new() });
        Ok(())
    }

    /// Removes a module and all its connections.
    pub fn delete_module(&mut self, id: ModuleId) -> Result<()> {
        if self.modules.remove(&id).is_none() {
            return Err(WfError::NotFound(format!("module {id}")));
        }
        self.connections.retain(|c| c.from_module != id && c.to_module != id);
        Ok(())
    }

    /// Sets a parameter on a module.
    pub fn set_parameter(&mut self, id: ModuleId, name: &str, value: ParamValue) -> Result<()> {
        let node = self
            .modules
            .get_mut(&id)
            .ok_or_else(|| WfError::NotFound(format!("module {id}")))?;
        node.params.insert(name.to_string(), value);
        Ok(())
    }

    /// Adds a connection. Each input port accepts at most one incoming edge.
    pub fn connect(
        &mut self,
        from: (ModuleId, &str),
        to: (ModuleId, &str),
    ) -> Result<()> {
        if !self.modules.contains_key(&from.0) {
            return Err(WfError::NotFound(format!("module {}", from.0)));
        }
        if !self.modules.contains_key(&to.0) {
            return Err(WfError::NotFound(format!("module {}", to.0)));
        }
        if self
            .connections
            .iter()
            .any(|c| c.to_module == to.0 && c.to_port == to.1)
        {
            return Err(WfError::Invalid(format!(
                "input port {}:{} already connected",
                to.0, to.1
            )));
        }
        self.connections.push(Connection {
            from_module: from.0,
            from_port: from.1.to_string(),
            to_module: to.0,
            to_port: to.1.to_string(),
        });
        Ok(())
    }

    /// Removes a connection.
    pub(crate) fn disconnect(&mut self, to: (ModuleId, &str)) -> Result<()> {
        let before = self.connections.len();
        self.connections
            .retain(|c| !(c.to_module == to.0 && c.to_port == to.1));
        if self.connections.len() == before {
            return Err(WfError::NotFound(format!("connection into {}:{}", to.0, to.1)));
        }
        Ok(())
    }

    /// Incoming connections of a module.
    pub fn inputs_of(&self, id: ModuleId) -> Vec<&Connection> {
        self.connections.iter().filter(|c| c.to_module == id).collect()
    }

    /// Modules with no outgoing connections (candidate sinks).
    pub fn sinks(&self) -> Vec<ModuleId> {
        self.modules
            .keys()
            .copied()
            .filter(|id| !self.connections.iter().any(|c| c.from_module == *id))
            .collect()
    }

    /// The modules by id, and the scheduler's [`Topology`] over them (node
    /// `i` is the `i`-th module by id). Errors with the offending ids on a
    /// cycle, and on connections referencing unknown modules (possible
    /// after deserializing an untrusted pipeline).
    pub(crate) fn topology(&self) -> Result<(Vec<ModuleId>, Topology)> {
        let ids: Vec<ModuleId> = self.modules.keys().copied().collect();
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
        for c in &self.connections {
            let from = ids.binary_search(&c.from_module).map_err(|_| {
                WfError::NotFound(format!("connection from unknown module {}", c.from_module))
            })?;
            let into = ids.binary_search(&c.to_module).ok().and_then(|i| deps.get_mut(i));
            into.ok_or_else(|| {
                WfError::NotFound(format!("connection into unknown module {}", c.to_module))
            })?
            .push(from);
        }
        let topo = Topology::new(&deps).map_err(|stuck| {
            WfError::Cycle(stuck.iter().filter_map(|&i| ids.get(i).copied()).collect())
        })?;
        Ok((ids, topo))
    }

    /// Validates the pipeline against a registry: module types exist,
    /// connected ports exist with compatible types, no cycles.
    pub fn validate(&self, registry: &ModuleRegistry) -> Result<()> {
        for (id, node) in &self.modules {
            registry
                .descriptor(&node.type_name)
                .map_err(|_| WfError::NotFound(format!("module {id}: type '{}'", node.type_name)))?;
        }
        for c in &self.connections {
            let from_node = self.modules.get(&c.from_module).ok_or_else(|| {
                WfError::NotFound(format!("connection from unknown module {}", c.from_module))
            })?;
            let to_node = self.modules.get(&c.to_module).ok_or_else(|| {
                WfError::NotFound(format!("connection into unknown module {}", c.to_module))
            })?;
            let from_desc = registry.descriptor(&from_node.type_name)?;
            let to_desc = registry.descriptor(&to_node.type_name)?;
            let out = from_desc.output(&c.from_port).ok_or_else(|| {
                WfError::NotFound(format!(
                    "output port '{}' on {}",
                    c.from_port, from_desc.type_name
                ))
            })?;
            let inp = to_desc.input(&c.to_port).ok_or_else(|| {
                WfError::NotFound(format!("input port '{}' on {}", c.to_port, to_desc.type_name))
            })?;
            if !inp.port_type.compatible(&out.port_type) {
                return Err(WfError::TypeMismatch {
                    expected: format!("{:?}", inp.port_type),
                    got: format!("{:?}", out.port_type),
                });
            }
        }
        self.topology()?;
        Ok(())
    }

    /// The sub-pipeline consisting of `sink` plus everything upstream of it —
    /// exactly the per-client workflow the hyperwall server ships (§III.H).
    pub fn upstream_subgraph(&self, sink: ModuleId) -> Result<Pipeline> {
        if !self.modules.contains_key(&sink) {
            return Err(WfError::NotFound(format!("module {sink}")));
        }
        let mut keep: BTreeSet<ModuleId> = BTreeSet::new();
        let mut stack = vec![sink];
        while let Some(id) = stack.pop() {
            if !keep.insert(id) {
                continue;
            }
            for c in self.connections.iter().filter(|c| c.to_module == id) {
                stack.push(c.from_module);
            }
        }
        Ok(Pipeline {
            modules: self
                .modules
                .iter()
                .filter(|(id, _)| keep.contains(id))
                .map(|(&id, n)| (id, n.clone()))
                .collect(),
            connections: self
                .connections
                .iter()
                .filter(|c| keep.contains(&c.from_module) && keep.contains(&c.to_module))
                .cloned()
                .collect(),
        })
    }

    /// [`Pipeline::module_signature`] with per-module-type cache salts
    /// mixed in: a nonzero salt for a type changes the signature of every
    /// module of that type *and*, through the recursive walk, of every
    /// module downstream of one — so bumping an engine version (e.g. the
    /// regrid weight math behind `cdat.Regrid`) invalidates all cached
    /// pipeline outputs that depend on it. An empty map (or all-zero
    /// salts) reproduces the unsalted signature exactly.
    pub(crate) fn module_signature_salted(
        &self,
        id: ModuleId,
        salts: &BTreeMap<String, u64>,
    ) -> u64 {
        fn walk(p: &Pipeline, id: ModuleId, salts: &BTreeMap<String, u64>, depth: usize) -> u64 {
            let mut h = Fnv::new();
            if depth > 10_000 {
                return h.finish(); // cycle guard; validate() rejects cycles anyway
            }
            if let Some(node) = p.modules.get(&id) {
                h.write(node.type_name.as_bytes());
                match salts.get(&node.type_name) {
                    Some(&salt) if salt != 0 => h.write(&salt.to_le_bytes()),
                    _ => {}
                }
                for (k, v) in &node.params {
                    h.write(k.as_bytes());
                    v.signature(&mut h);
                }
                let mut ins: Vec<&Connection> =
                    p.connections.iter().filter(|c| c.to_module == id).collect();
                ins.sort_by(|a, b| a.to_port.cmp(&b.to_port));
                for c in ins {
                    h.write(c.to_port.as_bytes());
                    h.write(c.from_port.as_bytes());
                    h.write(&walk(p, c.from_module, salts, depth + 1).to_le_bytes());
                }
            }
            h.finish()
        }
        walk(self, id, salts, 0)
    }

    /// Serializes to JSON (the `.vt` file stand-in).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| WfError::Serde(e.to_string()))
    }

    /// Parses from JSON.
    pub fn from_json(s: &str) -> Result<Pipeline> {
        serde_json::from_str(s).map_err(|e| WfError::Serde(e.to_string()))
    }
}

#[cfg(test)]
impl Pipeline {
    /// Every module, after all of its inputs: by depth, then by id.
    pub(crate) fn topological_order(&self) -> Result<Vec<ModuleId>> {
        let (ids, topo) = self.topology()?;
        Ok(topo.order().iter().filter_map(|&i| ids.get(i).copied()).collect())
    }

    /// A stable signature of one module's identity for caching: its type,
    /// parameters, and (recursively) the signatures of its inputs.
    pub(crate) fn module_signature(&self, id: ModuleId) -> u64 {
        static NO_SALTS: BTreeMap<String, u64> = BTreeMap::new();
        self.module_signature_salted(id, &NO_SALTS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{single, PortType};
    use crate::value::WfData;

    fn registry() -> ModuleRegistry {
        let mut r = ModuleRegistry::new();
        r.register_fn("m", "src", &[], &[("out", PortType::Float)], |_, params| {
            let v = params.get("v").and_then(ParamValue::as_f64).unwrap_or(0.0);
            Ok(single("out", WfData::Float(v)))
        });
        r.register_fn(
            "m",
            "add",
            &[("a", PortType::Float), ("b", PortType::Float)],
            &[("out", PortType::Float)],
            |inputs, _| {
                let a = inputs.get("a").and_then(WfData::as_float).unwrap_or(0.0);
                let b = inputs.get("b").and_then(WfData::as_float).unwrap_or(0.0);
                Ok(single("out", WfData::Float(a + b)))
            },
        );
        r.register_fn("m", "txt", &[], &[("out", PortType::Str)], |_, _| {
            Ok(single("out", WfData::Str("x".into())))
        });
        r
    }

    fn diamond() -> Pipeline {
        // 1 → 2, 1 → 3, (2,3) → 4
        let mut p = Pipeline::new();
        for id in 1..=2 {
            p.add_module(id, "m.src").unwrap();
        }
        p.add_module(3, "m.add").unwrap();
        p.add_module(4, "m.add").unwrap();
        p.connect((1, "out"), (3, "a")).unwrap();
        p.connect((2, "out"), (3, "b")).unwrap();
        p.connect((3, "out"), (4, "a")).unwrap();
        p.connect((1, "out"), (4, "b")).unwrap();
        p
    }

    #[test]
    fn build_and_validate() {
        let p = diamond();
        assert!(p.validate(&registry()).is_ok());
        assert_eq!(p.sinks(), vec![4]);
    }

    #[test]
    fn duplicate_module_id_rejected() {
        let mut p = Pipeline::new();
        p.add_module(1, "m.src").unwrap();
        assert!(p.add_module(1, "m.src").is_err());
    }

    #[test]
    fn double_connection_to_input_rejected() {
        let mut p = Pipeline::new();
        p.add_module(1, "m.src").unwrap();
        p.add_module(2, "m.src").unwrap();
        p.add_module(3, "m.add").unwrap();
        p.connect((1, "out"), (3, "a")).unwrap();
        assert!(p.connect((2, "out"), (3, "a")).is_err());
    }

    #[test]
    fn connect_unknown_modules_rejected() {
        let mut p = Pipeline::new();
        p.add_module(1, "m.src").unwrap();
        assert!(p.connect((1, "out"), (9, "a")).is_err());
        assert!(p.connect((9, "out"), (1, "a")).is_err());
    }

    #[test]
    fn delete_module_cleans_connections() {
        let mut p = diamond();
        p.delete_module(3).unwrap();
        assert!(!p.modules.contains_key(&3));
        assert!(p.connections.iter().all(|c| c.from_module != 3 && c.to_module != 3));
        assert!(p.delete_module(3).is_err());
    }

    #[test]
    fn disconnect_works() {
        let mut p = diamond();
        p.disconnect((4, "b")).unwrap();
        assert_eq!(p.inputs_of(4).len(), 1);
        assert!(p.disconnect((4, "b")).is_err());
    }

    #[test]
    fn topological_order_respects_edges() {
        let p = diamond();
        let order = p.topological_order().unwrap();
        let pos = |id: ModuleId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
        assert!(pos(3) < pos(4));
    }

    #[test]
    fn cycle_detected() {
        let mut p = Pipeline::new();
        p.add_module(1, "m.add").unwrap();
        p.add_module(2, "m.add").unwrap();
        p.connect((1, "out"), (2, "a")).unwrap();
        p.connect((2, "out"), (1, "a")).unwrap();
        match p.topological_order() {
            Err(WfError::Cycle(ids)) => {
                assert!(ids.contains(&1) && ids.contains(&2));
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn validation_catches_bad_types_and_ports() {
        let r = registry();
        // unknown type
        let mut p = Pipeline::new();
        p.add_module(1, "m.nope").unwrap();
        assert!(matches!(p.validate(&r), Err(WfError::NotFound(_))));
        // bad port
        let mut p = Pipeline::new();
        p.add_module(1, "m.src").unwrap();
        p.add_module(2, "m.add").unwrap();
        p.connect((1, "bogus"), (2, "a")).unwrap();
        assert!(matches!(p.validate(&r), Err(WfError::NotFound(_))));
        // type mismatch: Str → Float
        let mut p = Pipeline::new();
        p.add_module(1, "m.txt").unwrap();
        p.add_module(2, "m.add").unwrap();
        p.connect((1, "out"), (2, "a")).unwrap();
        assert!(matches!(p.validate(&r), Err(WfError::TypeMismatch { .. })));
    }

    #[test]
    fn upstream_subgraph_extracts_cell_workflow() {
        let p = diamond();
        let sub = p.upstream_subgraph(3).unwrap();
        assert_eq!(sub.modules.len(), 3); // 1, 2, 3
        assert!(!sub.modules.contains_key(&4));
        assert_eq!(sub.connections.len(), 2);
        assert!(sub.validate(&registry()).is_ok());
        // subgraph of a source is itself
        let sub1 = p.upstream_subgraph(1).unwrap();
        assert_eq!(sub1.modules.len(), 1);
        assert!(p.upstream_subgraph(99).is_err());
    }

    #[test]
    fn signature_changes_with_params_and_structure() {
        let p = diamond();
        let s0 = p.module_signature(4);
        // same pipeline, same signature
        assert_eq!(diamond().module_signature(4), s0);
        // parameter change upstream propagates
        let mut p2 = diamond();
        p2.set_parameter(1, "v", ParamValue::Float(9.0)).unwrap();
        assert_ne!(p2.module_signature(4), s0);
        // but the signature of the untouched branch (module 2) is unchanged
        assert_eq!(p2.module_signature(2), p.module_signature(2));
        // structural change propagates
        let mut p3 = diamond();
        p3.disconnect((4, "b")).unwrap();
        assert_ne!(p3.module_signature(4), s0);
    }

    #[test]
    fn dangling_connections_error_instead_of_panicking() {
        // simulate a corrupt/untrusted deserialized pipeline
        let json = r#"{"modules":{"1":{"type_name":"m.src","params":{}}},
            "connections":[{"from_module":9,"from_port":"out",
                            "to_module":1,"to_port":"a"}]}"#;
        let p = Pipeline::from_json(json).unwrap();
        assert!(matches!(p.topological_order(), Err(WfError::NotFound(_))));
        assert!(matches!(p.validate(&registry()), Err(WfError::NotFound(_))));
        let json2 = r#"{"modules":{"1":{"type_name":"m.src","params":{}}},
            "connections":[{"from_module":1,"from_port":"out",
                            "to_module":9,"to_port":"a"}]}"#;
        let p2 = Pipeline::from_json(json2).unwrap();
        assert!(matches!(p2.topological_order(), Err(WfError::NotFound(_))));
    }

    #[test]
    fn json_roundtrip() {
        let mut p = diamond();
        p.set_parameter(1, "v", ParamValue::Float(3.5)).unwrap();
        let s = p.to_json().unwrap();
        let back = Pipeline::from_json(&s).unwrap();
        assert_eq!(back, p);
        assert!(Pipeline::from_json("not json").is_err());
    }
}
