//! Building the multi-cell wall workflow and splitting it per client.
//!
//! One `cdms.SynthSource` feeds all cells; each cell selects its own
//! variable/level, translates it and plots it — so the per-client
//! upstream subgraph (source + select + translate + plot + cell) is the
//! "edited version of the workflow" the paper's server ships to clients.

use crate::Result;
pub use dv3d::modules::cell_from_plot_stage;
pub use dv3d::modules::CellChain;
use dv3d::modules::{cell_chain_actions, single_variable_row, synth_source_actions};
use vistrails::module::ModuleRegistry;
use vistrails::pipeline::{ModuleId, Pipeline};
use vistrails::value::ParamValue;

/// Configuration of the wall workflow.
#[derive(Debug, Clone)]
pub struct WallWorkflowConfig {
    /// Number of spreadsheet cells (= displays).
    pub n_cells: usize,
    /// Synthetic dataset size `(nt, nlev, nlat, nlon)`.
    pub synth: (i64, i64, i64, i64),
    /// Per-display full resolution.
    pub cell_px: (usize, usize),
}

impl Default for WallWorkflowConfig {
    fn default() -> WallWorkflowConfig {
        WallWorkflowConfig { n_cells: 15, synth: (2, 4, 24, 48), cell_px: (256, 192) }
    }
}

/// The (variable, palette row) pairs the cells cycle through — one variable
/// per display, like the "large numbers of variables contained in a typical
/// climate simulation dataset" the paper shows on the wall. Surface-only
/// fields (`pr`) get slicers; 3D fields also get volumes and isosurfaces.
const WALL_CELLS: [(&str, &str); 5] = [
    ("ta", "slicer"),
    ("zg", "volume"),
    ("hus", "isosurface"),
    ("ua", "volume"),
    ("pr", "slicer"),
];

/// Builds the full wall pipeline by applying the recorded actions of the
/// shared data source (module 1) and of each cell's chain; cell `i` uses
/// ids `10i + {10, 11, 12, 13}` (`+ 14` is the slot of a Hovmöller stage).
pub(crate) fn build_wall_pipeline(cfg: &WallWorkflowConfig) -> Result<(Pipeline, Vec<CellChain>)> {
    let mut actions = synth_source_actions(1, cfg.synth);
    let mut chains = Vec::with_capacity(cfg.n_cells);
    for (i, (variable, plot)) in WALL_CELLS.iter().cycle().take(cfg.n_cells).enumerate() {
        let base = 10 * (i as ModuleId + 1);
        let chain = CellChain {
            select: base,
            translate: base + 1,
            plot: base + 2,
            cell: base + 3,
            hovmoller: base + 4,
        };
        let cell_params = vec![
            ("name", ParamValue::Str(format!("{variable} #{i}"))),
            ("width", ParamValue::Int(cfg.cell_px.0 as i64)),
            ("height", ParamValue::Int(cfg.cell_px.1 as i64)),
        ];
        let row = single_variable_row(plot)?;
        actions.extend(cell_chain_actions(row, 1, &chain, variable, 0, cell_params));
        chains.push(chain);
    }
    let mut p = Pipeline::new();
    for action in &actions {
        action.apply(&mut p)?;
    }
    Ok((p, chains))
}

/// The registry a wall node (server or client) uses.
pub(crate) fn wall_registry() -> ModuleRegistry {
    let mut reg = ModuleRegistry::new();
    dv3d::modules::register_all(&mut reg);
    reg
}

/// Splits the wall pipeline into one sub-pipeline per cell — the per-client
/// workflow edit of §III.H.
pub(crate) fn split_per_client(
    pipeline: &Pipeline,
    chains: &[CellChain],
) -> Result<Vec<Pipeline>> {
    chains
        .iter()
        .map(|c| pipeline.upstream_subgraph(c.cell).map_err(Into::into))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_pipeline_builds_and_validates() {
        let cfg = WallWorkflowConfig { n_cells: 15, ..Default::default() };
        let (p, chains) = build_wall_pipeline(&cfg).unwrap();
        assert_eq!(chains.len(), 15);
        assert_eq!(p.modules.len(), 1 + 15 * 4);
        p.validate(&wall_registry()).unwrap();
        // every cell is a sink
        let sinks = p.sinks();
        for c in &chains {
            assert!(sinks.contains(&c.cell));
        }
    }

    /// The wall's workflow is what `AssignWorkflow` carries to every
    /// client: its serialized form is pinned (length + FNV-1a, recorded
    /// while the pipeline was still assembled by hand).
    #[test]
    fn default_wall_pipeline_json_is_pinned() {
        let (p, _) = build_wall_pipeline(&WallWorkflowConfig::default()).unwrap();
        let json = p.to_json().unwrap();
        let pin = (json.len(), crate::frame_delta::fnv1a(json.as_bytes()));
        assert_eq!(pin, (9219, 0xc345_ef65_1404_1e00), "{json}");
    }

    #[test]
    fn chain_ids_exist_in_pipeline() {
        let cfg = WallWorkflowConfig { n_cells: 4, ..Default::default() };
        let (p, chains) = build_wall_pipeline(&cfg).unwrap();
        for c in &chains {
            for id in [c.select, c.translate, c.plot, c.cell] {
                assert!(p.modules.contains_key(&id), "missing module {id}");
            }
        }
    }

    #[test]
    fn split_extracts_single_cell_workflows() {
        let cfg = WallWorkflowConfig { n_cells: 6, ..Default::default() };
        let (p, chains) = build_wall_pipeline(&cfg).unwrap();
        let subs = split_per_client(&p, &chains).unwrap();
        assert_eq!(subs.len(), 6);
        for (i, sub) in subs.iter().enumerate() {
            // source + one chain of 4
            assert_eq!(sub.modules.len(), 5, "client {i}");
            assert!(sub.modules.contains_key(&1));
            assert!(sub.modules.contains_key(&chains[i].cell));
            sub.validate(&wall_registry()).unwrap();
            // other cells' modules are absent
            for (j, other) in chains.iter().enumerate() {
                if j != i {
                    assert!(!sub.modules.contains_key(&other.cell));
                }
            }
        }
    }

    #[test]
    fn sub_workflow_executes_standalone() {
        let cfg = WallWorkflowConfig {
            n_cells: 3,
            synth: (1, 2, 10, 20),
            cell_px: (64, 48),
        };
        let (p, chains) = build_wall_pipeline(&cfg).unwrap();
        let subs = split_per_client(&p, &chains).unwrap();
        let mut exec = vistrails::executor::Executor::new(wall_registry());
        let results = exec.execute(&subs[1]).unwrap();
        let coverage = results
            .output(chains[1].cell, "coverage")
            .and_then(vistrails::value::WfData::as_float)
            .unwrap();
        assert!(coverage > 0.0);
    }

    #[test]
    fn variables_and_plots_cycle() {
        let cfg = WallWorkflowConfig { n_cells: 7, ..Default::default() };
        let (p, chains) = build_wall_pipeline(&cfg).unwrap();
        // cell 5 wraps back to variable 0
        let v0: String = p.modules[&chains[0].select].params["name"]
            .as_str()
            .unwrap()
            .into();
        let v5: String = p.modules[&chains[5].select].params["name"]
            .as_str()
            .unwrap()
            .into();
        assert_eq!(v0, v5);
        // plot types cycle with the variable pairing (period 5)
        assert_eq!(
            p.modules[&chains[0].plot].type_name,
            p.modules[&chains[5].plot].type_name
        );
        assert_ne!(
            p.modules[&chains[0].plot].type_name,
            p.modules[&chains[1].plot].type_name
        );
    }
}
