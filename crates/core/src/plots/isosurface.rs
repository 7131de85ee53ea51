//! The Isosurface plot: a surface of one variable, optionally colored by
//! the spatially corresponding values of a second variable (§III.C).

use crate::interaction::ConfigOp;
use crate::plots::{image_range, same_dims, Plot};
use crate::transfer::TransferEditor;
use crate::Result;
use parking_lot::Mutex;
use rvtk::filters::{isosurface, isosurface_colored};
use rvtk::render::{Actor, Renderer};
use rvtk::{ImageData, PolyData};
use std::sync::Arc;

/// An interactive isosurface view.
///
/// Extraction is the expensive step (marching tetrahedra over every cell),
/// so the surface is cached and only re-extracted when the isovalue or the
/// data changes — camera navigation re-renders at rasterization cost only.
#[derive(Debug)]
pub struct IsosurfacePlot {
    image: ImageData,
    color_image: Option<ImageData>,
    /// Current isovalue.
    pub isovalue: f32,
    /// Colormap state; ranges over the *color* variable when present.
    pub editor: TransferEditor,
    /// Cached `(isovalue, surface)` of the last extraction; every frame at
    /// that isovalue shares the one allocation with its actor.
    cache: Mutex<Option<(f32, Arc<PolyData>)>>,
}

impl IsosurfacePlot {
    /// A new isosurface at `isovalue` (defaults to the range midpoint).
    pub fn new(
        image: ImageData,
        color_image: Option<ImageData>,
        isovalue: Option<f32>,
    ) -> Result<IsosurfacePlot> {
        same_dims("color field", color_image.as_ref(), &image)?;
        let surf_range = image_range(&image);
        let isovalue = isovalue.unwrap_or((surf_range.0 + surf_range.1) / 2.0);
        let color_range = color_image.as_ref().map(image_range).unwrap_or(surf_range);
        let mut plot = IsosurfacePlot {
            image,
            color_image,
            isovalue,
            editor: TransferEditor::new(color_range),
            cache: Mutex::new(None),
        };
        // When coloring by a second variable, auto-range the colormap to the
        // values actually present *on the surface* — the full color-field
        // range is usually dominated by regions the surface never visits.
        if plot.color_image.is_some() {
            if let Ok(surf) = plot.extract() {
                if let Some(r) = surf.scalar_range() {
                    if r.1 > r.0 {
                        plot.editor = TransferEditor::new(r);
                    }
                }
            }
        }
        Ok(plot)
    }

    /// Extracts the current surface, served from the cache (shared, not
    /// copied) when the isovalue hasn't changed since the last extraction.
    pub(crate) fn extract(&self) -> Result<Arc<PolyData>> {
        if let Some((v, surf)) = self.cache.lock().as_ref() {
            if *v == self.isovalue {
                return Ok(Arc::clone(surf));
            }
        }
        let surf = Arc::new(match &self.color_image {
            Some(ci) => isosurface_colored(&self.image, self.isovalue, ci)?,
            None => isosurface(&self.image, self.isovalue)?,
        });
        *self.cache.lock() = Some((self.isovalue, Arc::clone(&surf)));
        Ok(surf)
    }
}

impl Plot for IsosurfacePlot {
    fn type_name(&self) -> &'static str {
        super::ISOSURFACE.label
    }

    fn configure(&mut self, op: &ConfigOp) -> Result<bool> {
        if self.editor.configure(op)? {
            return Ok(true);
        }
        match op {
            ConfigOp::SetIsovalue(v) => {
                self.isovalue = *v;
                Ok(true)
            }
            ConfigOp::AdjustIsovalue { delta_frac } => {
                let range = image_range(&self.image);
                self.isovalue = (self.isovalue + delta_frac * (range.1 - range.0))
                    .clamp(range.0, range.1);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn populate(&self, renderer: &mut Renderer) -> Result<()> {
        let surf = self.extract()?;
        let actor = if self.color_image.is_some() {
            Actor::from_poly_data(surf).with_lookup_table(self.editor.lookup_table())
        } else {
            Actor::from_poly_data(surf).with_color(rvtk::Color::rgb(0.75, 0.8, 0.9))
        };
        renderer.add_actor(actor);
        Ok(())
    }

    fn editor(&self) -> &TransferEditor {
        &self.editor
    }

    fn check_image(&self, image: &ImageData) -> Result<()> {
        same_dims("color field", self.color_image.as_ref(), image)
    }

    fn set_image(&mut self, image: ImageData) -> Result<()> {
        self.check_image(&image)?;
        // keep the isovalue at the same relative position in the new range
        let old = image_range(&self.image);
        let new = image_range(&image);
        let rel = ((self.isovalue - old.0) / (old.1 - old.0).max(1e-6)).clamp(0.0, 1.0);
        self.isovalue = new.0 + rel * (new.1 - new.0);
        if self.color_image.is_none() {
            self.editor.rescale(new);
        }
        self.image = image;
        *self.cache.lock() = None; // data changed: invalidate
        Ok(())
    }

    fn image(&self) -> &ImageData {
        &self.image
    }

    fn status_line(&self) -> String {
        format!(
            "isosurface @ {:.3}{}",
            self.isovalue,
            if self.color_image.is_some() { " (colored)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtk::render::Framebuffer;
    use rvtk::Color;

    fn radial() -> ImageData {
        ImageData::from_fn([14, 14, 14], [1.0; 3], [0.0; 3], |x, y, z| {
            (((x - 6.5).powi(2) + (y - 6.5).powi(2) + (z - 6.5).powi(2)) as f32).sqrt()
        })
    }

    #[test]
    fn default_isovalue_is_midrange() {
        let p = IsosurfacePlot::new(radial(), None, None).unwrap();
        let (lo, hi) = image_range(p.image());
        assert!((p.isovalue - (lo + hi) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn isovalue_ops() {
        let mut p = IsosurfacePlot::new(radial(), None, None).unwrap();
        p.configure(&ConfigOp::SetIsovalue(4.0)).unwrap();
        assert_eq!(p.isovalue, 4.0);
        p.configure(&ConfigOp::AdjustIsovalue { delta_frac: 10.0 }).unwrap();
        let (_, hi) = image_range(p.image());
        assert_eq!(p.isovalue, hi); // clamped
    }

    #[test]
    fn smaller_isovalue_gives_smaller_surface() {
        let mut p = IsosurfacePlot::new(radial(), None, Some(5.0)).unwrap();
        let big = p.extract().unwrap().surface_area();
        p.configure(&ConfigOp::SetIsovalue(2.5)).unwrap();
        let small = p.extract().unwrap().surface_area();
        assert!(small < big, "{small} !< {big}");
    }

    #[test]
    fn colored_surface_uses_lut_ranged_to_surface_values() {
        let color = ImageData::from_fn([14, 14, 14], [1.0; 3], [0.0; 3], |_, _, z| z as f32);
        let p = IsosurfacePlot::new(radial(), Some(color), Some(5.0)).unwrap();
        // the sphere of radius 5 around z=6.5 only visits z ∈ [1.5, 11.5]:
        // the colormap ranges over what the surface shows, not (0, 13)
        let (lo, hi) = p.scalar_range();
        assert!(lo > 0.5 && lo < 2.5, "lo {lo}");
        assert!(hi > 10.5 && hi < 12.5, "hi {hi}");
        let mut r = Renderer::new();
        p.populate(&mut r).unwrap();
        assert!(r.actors()[0].property.lookup_table.is_some());
    }

    #[test]
    fn mismatched_color_dims_rejected() {
        let color = ImageData::from_fn([4, 4, 4], [1.0; 3], [0.0; 3], |_, _, _| 0.0);
        assert!(IsosurfacePlot::new(radial(), Some(color), None).is_err());
    }

    #[test]
    fn renders_nonempty() {
        let p = IsosurfacePlot::new(radial(), None, Some(4.0)).unwrap();
        let mut r = Renderer::new();
        p.populate(&mut r).unwrap();
        r.reset_camera();
        let mut fb = Framebuffer::new(48, 48);
        r.render(&mut fb);
        assert!(fb.covered_pixels(Color::BLACK) > 50);
    }

    #[test]
    fn extraction_cache_hits_and_invalidates() {
        let mut p = IsosurfacePlot::new(radial(), None, Some(5.0)).unwrap();
        let a = p.extract().unwrap();
        // same isovalue: cached copy is identical
        let b = p.extract().unwrap();
        assert_eq!(a, b);
        // new isovalue: different surface
        p.configure(&ConfigOp::SetIsovalue(3.0)).unwrap();
        let c = p.extract().unwrap();
        assert_ne!(a.points.len(), c.points.len());
        // new data: invalidated (extract matches a fresh plot)
        let img2 = ImageData::from_fn([14, 14, 14], [1.0; 3], [0.0; 3], |x, _, _| x as f32);
        p.set_image(img2.clone()).unwrap();
        let fresh = IsosurfacePlot::new(img2, None, Some(p.isovalue)).unwrap();
        assert_eq!(p.extract().unwrap(), fresh.extract().unwrap());
    }

    #[test]
    fn frames_at_one_isovalue_share_the_cached_surface() {
        let mesh_of = |p: &IsosurfacePlot| {
            let mut r = Renderer::new();
            p.populate(&mut r).unwrap();
            Arc::clone(&r.actors()[0].poly_data)
        };
        let mut p = IsosurfacePlot::new(radial(), None, Some(5.0)).unwrap();
        let first = mesh_of(&p);
        assert!(Arc::ptr_eq(&first, &mesh_of(&p)), "a cache hit must not copy the surface");
        // a changed isovalue extracts afresh
        p.configure(&ConfigOp::SetIsovalue(3.0)).unwrap();
        let moved = mesh_of(&p);
        assert!(!Arc::ptr_eq(&first, &moved));
        assert!(Arc::ptr_eq(&moved, &mesh_of(&p)));
        // and so does new data at an unchanged relative isovalue
        p.set_image(radial()).unwrap();
        assert!(!Arc::ptr_eq(&moved, &mesh_of(&p)));
    }

    #[test]
    fn set_image_preserves_relative_isovalue() {
        let mut p = IsosurfacePlot::new(radial(), None, None).unwrap();
        let (lo, hi) = image_range(p.image());
        let rel = (p.isovalue - lo) / (hi - lo);
        let scaled = ImageData::from_fn([14, 14, 14], [1.0; 3], [0.0; 3], |x, y, z| {
            10.0 * (((x - 6.5).powi(2) + (y - 6.5).powi(2) + (z - 6.5).powi(2)) as f32).sqrt()
        });
        p.set_image(scaled).unwrap();
        let (lo2, hi2) = image_range(p.image());
        let rel2 = (p.isovalue - lo2) / (hi2 - lo2);
        assert!((rel - rel2).abs() < 1e-5);
    }
}
