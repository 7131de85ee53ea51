#![forbid(unsafe_code)]
// R1 (DESIGN.md §10): library code returns an error where it could panic;
// a site whose invariant rules the panic out says why in an `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # uvcdat — the end-to-end application crate
//!
//! Re-exports the full stack of this DV3D/UV-CDAT reproduction so examples
//! and downstream users can depend on one crate:
//!
//! * [`cdms`] — climate data management (arrays, axes, grids, files,
//!   catalog, synthetic data).
//! * [`cdat`] — analysis operations and parallel task graphs.
//! * [`rvtk`] — the VTK-like filters + software rendering substrate.
//! * [`vistrails`] — workflows, provenance version trees, spreadsheets.
//! * [`dv3d`] — the DV3D plot package (the paper's contribution).
//! * [`hyperwall`] — the distributed visualization framework.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `EXPERIMENTS.md` for the figure-by-figure reproduction record.

pub use cdat;
pub use cdms;
pub use dv3d;
pub use hyperwall;
pub use rvtk;
pub use vistrails;

/// Builds the standard module registry with every package registered —
/// the state of a freshly launched UV-CDAT session.
pub fn standard_registry() -> vistrails::module::ModuleRegistry {
    let mut reg = vistrails::module::ModuleRegistry::new();
    dv3d::modules::register_all(&mut reg);
    reg
}

#[cfg(test)]
mod tests {
    #[test]
    fn standard_registry_has_all_packages() {
        let reg = super::standard_registry();
        assert!(!reg.package_types("cdms").is_empty());
        assert!(!reg.package_types("cdat").is_empty());
        assert!(!reg.package_types("dv3d").is_empty());
    }
}
