//! Building the multi-cell wall workflow and splitting it per client.
//!
//! One `cdms.SynthSource` feeds all cells; each cell selects its own
//! variable/level, translates it and plots it — so the per-client
//! upstream subgraph (source + select + translate + plot + cell) is the
//! "edited version of the workflow" the paper's server ships to clients.

use crate::{Result, WallError};
use dv3d::cell::Dv3dCell;
use dv3d::plots::PlotSpec;
use vistrails::executor::Executor;
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

/// The (variable, plot type) pairs the cells cycle through — one variable
/// per display, like the "large numbers of variables contained in a typical
/// climate simulation dataset" the paper shows on the wall. Surface-only
/// fields (`pr`) get slicers; 3D fields also get volumes and isosurfaces.
const WALL_CELLS: [(&str, &str); 5] = [
    ("ta", "dv3d.SlicerPlot"),
    ("zg", "dv3d.VolumePlot"),
    ("hus", "dv3d.IsosurfacePlot"),
    ("ua", "dv3d.VolumePlot"),
    ("pr", "dv3d.SlicerPlot"),
];

/// The module ids of one cell's chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellChain {
    pub select: ModuleId,
    pub translate: ModuleId,
    pub plot: ModuleId,
    pub cell: ModuleId,
}

/// Builds the full wall pipeline. Module 1 is the shared data source;
/// cell `i` uses ids `10i + {10, 11, 12, 13}`.
pub fn build_wall_pipeline(cfg: &WallWorkflowConfig) -> Result<(Pipeline, Vec<CellChain>)> {
    let mut p = Pipeline::new();
    p.add_module(1, "cdms.SynthSource")?;
    p.set_parameter(1, "nt", ParamValue::Int(cfg.synth.0))?;
    p.set_parameter(1, "nlev", ParamValue::Int(cfg.synth.1))?;
    p.set_parameter(1, "nlat", ParamValue::Int(cfg.synth.2))?;
    p.set_parameter(1, "nlon", ParamValue::Int(cfg.synth.3))?;

    let mut chains = Vec::with_capacity(cfg.n_cells);
    for i in 0..cfg.n_cells {
        let base = 10 * (i as ModuleId + 1);
        let chain = CellChain {
            select: base,
            translate: base + 1,
            plot: base + 2,
            cell: base + 3,
        };
        let (variable, plot_type) = WALL_CELLS[i % WALL_CELLS.len()];

        p.add_module(chain.select, "cdms.SelectVariable")?;
        p.set_parameter(chain.select, "name", ParamValue::Str(variable.into()))?;
        p.set_parameter(chain.select, "time_index", ParamValue::Int(0))?;
        p.connect((1, "dataset"), (chain.select, "dataset"))?;

        p.add_module(chain.translate, "dv3d.TranslateScalar")?;
        p.connect((chain.select, "variable"), (chain.translate, "variable"))?;

        p.add_module(chain.plot, plot_type)?;
        p.connect((chain.translate, "image"), (chain.plot, "image"))?;

        p.add_module(chain.cell, "dv3d.Cell")?;
        p.connect((chain.plot, "plot"), (chain.cell, "plot"))?;
        p.set_parameter(chain.cell, "name", ParamValue::Str(format!("{variable} #{i}")))?;
        p.set_parameter(chain.cell, "width", ParamValue::Int(cfg.cell_px.0 as i64))?;
        p.set_parameter(chain.cell, "height", ParamValue::Int(cfg.cell_px.1 as i64))?;
        chains.push(chain);
    }
    Ok((p, chains))
}

/// The registry a wall node (server or client) uses.
pub fn wall_registry() -> ModuleRegistry {
    let mut reg = ModuleRegistry::new();
    dv3d::modules::register_all(&mut reg);
    reg
}

/// Executes `pipeline` up to its `plot` module and builds the cell named
/// `name` from the `PlotSpec` that module produces — how the server's
/// mirror, a display client and the single-node baseline each come by a
/// cell. A caller building several cells of one pipeline passes the same
/// `exec`: the shared source is then a cache hit from the second on.
pub(crate) fn cell_from_plot_stage(
    exec: &mut Executor,
    pipeline: &Pipeline,
    plot: ModuleId,
    name: &str,
) -> Result<Dv3dCell> {
    let results = exec.execute_subset(pipeline, Some(plot))?;
    let spec = results
        .output(plot, "plot")
        .and_then(|d| d.as_opaque::<PlotSpec>())
        .ok_or_else(|| WallError::Protocol("plot module produced no PlotSpec".into()))?;
    Ok(Dv3dCell::try_new(name, (*spec).clone())?)
}

/// Splits the wall pipeline into one sub-pipeline per cell — the per-client
/// workflow edit of §III.H.
pub fn split_per_client(
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
