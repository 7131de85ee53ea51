//! The version tree: action-based workflow provenance.
//!
//! Every edit to a workflow — adding a module, setting a parameter,
//! connecting ports — is an [`Action`] appended as a child of some existing
//! version. Nothing is ever overwritten: "users can easily back up to
//! earlier stages of the exploration and start a new branch of
//! investigation without losing the previous results" (§II.B). A pipeline
//! is *materialized* from a version by replaying the action path from the
//! root, which makes materialization a pure function of the tree — the
//! property the proptests pin down.

use crate::pipeline::{ModuleId, Pipeline};
use crate::value::ParamValue;
use crate::{Result, WfError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A version id within a vistrail (0 = the empty root).
pub type VersionId = u64;

/// One workflow edit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Action {
    AddModule { id: ModuleId, type_name: String },
    DeleteModule { id: ModuleId },
    SetParameter { module: ModuleId, name: String, value: ParamValue },
    AddConnection { from: (ModuleId, String), to: (ModuleId, String) },
    DeleteConnection { to: (ModuleId, String) },
}

impl Action {
    /// Applies this action to a pipeline.
    pub fn apply(&self, pipeline: &mut Pipeline) -> Result<()> {
        match self {
            Action::AddModule { id, type_name } => pipeline.add_module(*id, type_name),
            Action::DeleteModule { id } => pipeline.delete_module(*id),
            Action::SetParameter { module, name, value } => {
                pipeline.set_parameter(*module, name, value.clone())
            }
            Action::AddConnection { from, to } => {
                pipeline.connect((from.0, &from.1), (to.0, &to.1))
            }
            Action::DeleteConnection { to } => pipeline.disconnect((to.0, &to.1)),
        }
    }

    /// A short human-readable description (shown in the history view).
    pub fn describe(&self) -> String {
        match self {
            Action::AddModule { id, type_name } => format!("add {type_name} as #{id}"),
            Action::DeleteModule { id } => format!("delete #{id}"),
            Action::SetParameter { module, name, value } => {
                format!("set #{module}.{name} = {value:?}")
            }
            Action::AddConnection { from, to } => {
                format!("connect #{}:{} -> #{}:{}", from.0, from.1, to.0, to.1)
            }
            Action::DeleteConnection { to } => format!("disconnect #{}:{}", to.0, to.1),
        }
    }
}

/// One node of the version tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct VersionNode {
    pub id: VersionId,
    /// Parent version (`None` only for the root).
    pub parent: Option<VersionId>,
    /// The edit that produced this version (`None` for the root).
    pub action: Option<Action>,
    /// Monotonic edit counter (a deterministic "timestamp").
    pub sequence: u64,
}

/// A vistrail: the complete provenance of one workflow's evolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vistrail {
    /// Display name.
    pub name: String,
    nodes: BTreeMap<VersionId, VersionNode>,
    tags: BTreeMap<String, VersionId>,
    next_id: VersionId,
    sequence: u64,
}

impl Vistrail {
    /// The root version id (the empty pipeline).
    pub const ROOT: VersionId = 0;

    /// A new vistrail containing only the empty root version.
    pub fn new(name: &str) -> Vistrail {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            Self::ROOT,
            VersionNode { id: Self::ROOT, parent: None, action: None, sequence: 0 },
        );
        Vistrail { name: name.to_string(), nodes, tags: BTreeMap::new(), next_id: 1, sequence: 1 }
    }

    /// Appends an action as a child of `parent`, returning the new version.
    /// The action is validated by replaying onto the parent's pipeline, so
    /// the tree can never hold an inapplicable action path.
    pub fn add_action(&mut self, parent: VersionId, action: Action) -> Result<VersionId> {
        if !self.nodes.contains_key(&parent) {
            return Err(WfError::NotFound(format!("version {parent}")));
        }
        let mut pipeline = self.materialize(parent)?;
        action.apply(&mut pipeline)?;
        let id = self.next_id;
        self.next_id += 1;
        let sequence = self.sequence;
        self.sequence += 1;
        self.nodes.insert(
            id,
            VersionNode { id, parent: Some(parent), action: Some(action), sequence },
        );
        Ok(id)
    }

    /// Appends a chain of actions, returning the final version.
    pub fn add_actions(&mut self, parent: VersionId, actions: Vec<Action>) -> Result<VersionId> {
        let mut v = parent;
        for a in actions {
            v = self.add_action(v, a)?;
        }
        Ok(v)
    }

    /// The path of versions from the root to `version` (inclusive).
    pub(crate) fn path_to(&self, version: VersionId) -> Result<Vec<VersionId>> {
        let mut path = Vec::new();
        let mut cur = Some(version);
        while let Some(id) = cur {
            let node = self
                .nodes
                .get(&id)
                .ok_or_else(|| WfError::NotFound(format!("version {id}")))?;
            path.push(id);
            cur = node.parent;
        }
        path.reverse();
        Ok(path)
    }

    /// Materializes the pipeline at `version` by replaying its action path.
    pub fn materialize(&self, version: VersionId) -> Result<Pipeline> {
        let mut pipeline = Pipeline::new();
        for id in self.path_to(version)? {
            if let Some(action) = &self.nodes[&id].action {
                action.apply(&mut pipeline)?;
            }
        }
        Ok(pipeline)
    }

    /// Tags a version with a name (re-tagging moves the tag).
    pub fn tag(&mut self, version: VersionId, name: &str) -> Result<()> {
        if !self.nodes.contains_key(&version) {
            return Err(WfError::NotFound(format!("version {version}")));
        }
        self.tags.insert(name.to_string(), version);
        Ok(())
    }

    /// Resolves a tag.
    pub fn tagged(&self, name: &str) -> Option<VersionId> {
        self.tags.get(name).copied()
    }

    /// Number of versions (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Never true (the root always exists).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Lowest common ancestor of two versions.
    pub(crate) fn common_ancestor(&self, a: VersionId, b: VersionId) -> Result<VersionId> {
        let pa = self.path_to(a)?;
        let pb = self.path_to(b)?;
        let mut lca = Self::ROOT;
        for (x, y) in pa.iter().zip(pb.iter()) {
            if x == y {
                lca = *x;
            } else {
                break;
            }
        }
        Ok(lca)
    }

    /// The actions that differ between two versions: `(only_in_a, only_in_b)`
    /// relative to their common ancestor — the "diff analyses" view.
    pub fn diff(&self, a: VersionId, b: VersionId) -> Result<(Vec<Action>, Vec<Action>)> {
        let lca = self.common_ancestor(a, b)?;
        let tail = |v: VersionId| -> Result<Vec<Action>> {
            Ok(self
                .path_to(v)?
                .into_iter()
                .skip_while(|&id| id != lca)
                .skip(1)
                .filter_map(|id| self.nodes[&id].action.clone())
                .collect())
        };
        Ok((tail(a)?, tail(b)?))
    }

    /// Serializes the whole vistrail (the `.vt` file).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| WfError::Serde(e.to_string()))
    }

    /// Parses a vistrail from JSON.
    pub fn from_json(s: &str) -> Result<Vistrail> {
        serde_json::from_str(s).map_err(|e| WfError::Serde(e.to_string()))
    }
}

#[cfg(test)]
impl Vistrail {
    /// Children of a version (the branches leaving it).
    pub(crate) fn children(&self, version: VersionId) -> Vec<VersionId> {
        self.nodes
            .values()
            .filter(|n| n.parent == Some(version))
            .map(|n| n.id)
            .collect()
    }

    /// All leaf versions (current heads of every branch).
    pub(crate) fn leaves(&self) -> Vec<VersionId> {
        self.nodes
            .keys()
            .copied()
            .filter(|&id| self.children(id).is_empty())
            .collect()
    }

    /// A version's node.
    pub(crate) fn node(&self, version: VersionId) -> Option<&VersionNode> {
        self.nodes.get(&version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_chain(vt: &mut Vistrail) -> VersionId {
        vt.add_actions(
            Vistrail::ROOT,
            vec![
                Action::AddModule { id: 1, type_name: "m.src".into() },
                Action::SetParameter {
                    module: 1,
                    name: "v".into(),
                    value: ParamValue::Float(1.0),
                },
                Action::AddModule { id: 2, type_name: "m.sink".into() },
                Action::AddConnection { from: (1, "out".into()), to: (2, "in".into()) },
            ],
        )
        .unwrap()
    }

    #[test]
    fn materialize_replays_actions() {
        let mut vt = Vistrail::new("t");
        let head = base_chain(&mut vt);
        let p = vt.materialize(head).unwrap();
        assert_eq!(p.modules.len(), 2);
        assert_eq!(p.connections.len(), 1);
        assert_eq!(
            p.modules[&1].params.get("v"),
            Some(&ParamValue::Float(1.0))
        );
        // root is empty
        assert!(vt.materialize(Vistrail::ROOT).unwrap().modules.is_empty());
    }

    #[test]
    fn branching_preserves_both_lines() {
        let mut vt = Vistrail::new("t");
        let head = base_chain(&mut vt);
        // branch A: change the parameter
        let a = vt
            .add_action(
                head,
                Action::SetParameter {
                    module: 1,
                    name: "v".into(),
                    value: ParamValue::Float(2.0),
                },
            )
            .unwrap();
        // branch B (from the same parent): delete the connection
        let b = vt
            .add_action(head, Action::DeleteConnection { to: (2, "in".into()) })
            .unwrap();
        let pa = vt.materialize(a).unwrap();
        let pb = vt.materialize(b).unwrap();
        assert_eq!(pa.modules[&1].params.get("v"), Some(&ParamValue::Float(2.0)));
        assert_eq!(pa.connections.len(), 1);
        assert_eq!(pb.modules[&1].params.get("v"), Some(&ParamValue::Float(1.0)));
        assert!(pb.connections.is_empty());
        // the shared parent is still materializable (nothing lost)
        assert_eq!(vt.materialize(head).unwrap().connections.len(), 1);
        assert_eq!(vt.children(head).len(), 2);
        let mut leaves = vt.leaves();
        leaves.sort();
        assert_eq!(leaves, vec![a, b]);
    }

    #[test]
    fn invalid_actions_rejected_and_tree_unchanged() {
        let mut vt = Vistrail::new("t");
        let head = base_chain(&mut vt);
        let before = vt.len();
        // deleting an unknown module fails
        assert!(vt.add_action(head, Action::DeleteModule { id: 99 }).is_err());
        // duplicate module id fails
        assert!(vt
            .add_action(head, Action::AddModule { id: 1, type_name: "x".into() })
            .is_err());
        // unknown parent fails
        assert!(vt
            .add_action(12345, Action::AddModule { id: 5, type_name: "x".into() })
            .is_err());
        assert_eq!(vt.len(), before);
    }

    #[test]
    fn tags_resolve_and_move() {
        let mut vt = Vistrail::new("t");
        let head = base_chain(&mut vt);
        vt.tag(head, "baseline").unwrap();
        assert_eq!(vt.tagged("baseline"), Some(head));
        let next = vt
            .add_action(head, Action::DeleteConnection { to: (2, "in".into()) })
            .unwrap();
        vt.tag(next, "baseline").unwrap(); // retag
        assert_eq!(vt.tagged("baseline"), Some(next));
        assert_eq!(vt.tagged("missing"), None);
        assert!(vt.tag(999, "x").is_err());
    }

    #[test]
    fn path_and_ancestor_queries() {
        let mut vt = Vistrail::new("t");
        let head = base_chain(&mut vt);
        let a = vt
            .add_action(head, Action::AddModule { id: 3, type_name: "x".into() })
            .unwrap();
        let b = vt
            .add_action(head, Action::AddModule { id: 4, type_name: "y".into() })
            .unwrap();
        assert_eq!(vt.common_ancestor(a, b).unwrap(), head);
        assert_eq!(vt.common_ancestor(a, a).unwrap(), a);
        let path = vt.path_to(a).unwrap();
        assert_eq!(path[0], Vistrail::ROOT);
        assert_eq!(*path.last().unwrap(), a);
    }

    #[test]
    fn diff_reports_divergent_actions() {
        let mut vt = Vistrail::new("t");
        let head = base_chain(&mut vt);
        let a = vt
            .add_action(head, Action::AddModule { id: 3, type_name: "x".into() })
            .unwrap();
        let b = vt
            .add_actions(
                head,
                vec![
                    Action::AddModule { id: 4, type_name: "y".into() },
                    Action::AddModule { id: 5, type_name: "z".into() },
                ],
            )
            .unwrap();
        let (da, db) = vt.diff(a, b).unwrap();
        assert_eq!(da.len(), 1);
        assert_eq!(db.len(), 2);
        assert_eq!(da[0].describe(), "add x as #3");
    }

    #[test]
    fn serde_roundtrip_preserves_everything() {
        let mut vt = Vistrail::new("t");
        let head = base_chain(&mut vt);
        vt.tag(head, "v1").unwrap();
        let json = vt.to_json().unwrap();
        let back = Vistrail::from_json(&json).unwrap();
        assert_eq!(back, vt);
        assert_eq!(back.materialize(head).unwrap(), vt.materialize(head).unwrap());
        assert!(Vistrail::from_json("{").is_err());
    }

    #[test]
    fn describe_covers_all_actions() {
        let actions = [
            Action::AddModule { id: 1, type_name: "a.b".into() },
            Action::DeleteModule { id: 1 },
            Action::SetParameter { module: 1, name: "p".into(), value: ParamValue::Int(2) },
            Action::AddConnection { from: (1, "o".into()), to: (2, "i".into()) },
            Action::DeleteConnection { to: (2, "i".into()) },
        ];
        for a in &actions {
            assert!(!a.describe().is_empty());
        }
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut vt = Vistrail::new("t");
        let head = base_chain(&mut vt);
        let path = vt.path_to(head).unwrap();
        let seqs: Vec<u64> = path.iter().map(|&id| vt.node(id).unwrap().sequence).collect();
        assert!(seqs.windows(2).all(|w| w[1] > w[0]));
    }
}
