//! Actors: geometry + appearance + placement.

use crate::color::Color;
use crate::lookup_table::LookupTable;
use crate::math::{Bounds, Mat4};
use crate::poly_data::PolyData;
use std::sync::Arc;

/// How geometry is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Representation {
    /// Filled, shaded triangles (plus any line cells).
    #[default]
    Surface,
    /// Triangle edges only.
    Wireframe,
    /// Point sprites at each point.
    Points,
}

/// Appearance properties.
#[derive(Debug, Clone, PartialEq)]
pub struct Property {
    /// Flat color used when no lookup table / scalars are present.
    pub color: Color,
    /// Global opacity multiplier.
    pub opacity: f32,
    /// Map point scalars through this table when present.
    pub lookup_table: Option<LookupTable>,
    /// Drawing mode.
    pub representation: Representation,
    /// Point sprite radius in pixels (Points mode).
    pub point_size: f32,
    /// Enable diffuse lighting (otherwise flat/full-bright).
    pub lighting: bool,
    /// Ambient light floor in [0, 1].
    pub ambient: f32,
}

impl Default for Property {
    fn default() -> Property {
        Property {
            color: Color::rgb(0.8, 0.8, 0.8),
            opacity: 1.0,
            lookup_table: None,
            representation: Representation::Surface,
            point_size: 2.0,
            lighting: true,
            ambient: 0.25,
        }
    }
}

/// A placed, styled piece of geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Actor {
    /// The geometry (already in world coordinates unless `transform` says
    /// otherwise). Shared, not owned: the renderer only reads it, so a plot
    /// that caches its mesh hands every frame the same allocation. Assign
    /// into it through `Arc::make_mut`.
    pub poly_data: Arc<PolyData>,
    /// Appearance.
    pub property: Property,
    /// Model transform applied at render time.
    pub transform: Mat4,
    /// Skip rendering when false.
    pub visible: bool,
}

impl Actor {
    /// Wraps geometry with default appearance.
    pub fn from_poly_data(poly_data: impl Into<Arc<PolyData>>) -> Actor {
        Actor {
            poly_data: poly_data.into(),
            property: Property::default(),
            transform: Mat4::identity(),
            visible: true,
        }
    }

    /// Builder-style color setter.
    pub fn with_color(mut self, color: Color) -> Actor {
        self.property.color = color;
        self
    }

    /// Builder-style lookup-table setter (auto-ranges to the scalars when
    /// the table's range is degenerate).
    pub fn with_lookup_table(mut self, mut lut: LookupTable) -> Actor {
        if lut.range.0 >= lut.range.1 {
            if let Some(range) = self.poly_data.scalar_range() {
                lut.set_range(range);
            }
        }
        self.property.lookup_table = Some(lut);
        self
    }

    /// Builder-style opacity setter.
    pub fn with_opacity(mut self, opacity: f32) -> Actor {
        self.property.opacity = opacity.clamp(0.0, 1.0);
        self
    }

    /// World-space bounds (transform applied).
    pub(crate) fn bounds(&self) -> Bounds {
        let mut b = Bounds::empty();
        for &p in &self.poly_data.points {
            b.include(self.transform.transform_point(p));
        }
        b
    }
}

#[cfg(test)]
impl Actor {
    /// Builder-style representation setter.
    pub(crate) fn with_representation(mut self, rep: Representation) -> Actor {
        self.property.representation = rep;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup_table::ColormapName;
    use crate::math::Vec3;

    fn tri() -> PolyData {
        let mut pd = PolyData::new();
        pd.add_point(Vec3::ZERO);
        pd.add_point(Vec3::new(1.0, 0.0, 0.0));
        pd.add_point(Vec3::new(0.0, 1.0, 0.0));
        pd.triangles.push([0, 1, 2]);
        pd
    }

    #[test]
    fn builders_compose() {
        let a = Actor::from_poly_data(tri())
            .with_color(Color::RED)
            .with_opacity(2.0)
            .with_representation(Representation::Wireframe);
        assert_eq!(a.property.color, Color::RED);
        assert_eq!(a.property.opacity, 1.0); // clamped
        assert_eq!(a.property.representation, Representation::Wireframe);
        assert!(a.visible);
    }

    #[test]
    fn lut_auto_ranges_to_scalars() {
        let mut pd = tri();
        pd.scalars = Some(vec![5.0, 10.0, 15.0]);
        let a = Actor::from_poly_data(pd)
            .with_lookup_table(LookupTable::new(ColormapName::Jet, (0.0, 0.0)));
        assert_eq!(a.property.lookup_table.as_ref().unwrap().range, (5.0, 15.0));
        // explicit ranges are kept
        let a2 = Actor::from_poly_data(tri())
            .with_lookup_table(LookupTable::new(ColormapName::Jet, (1.0, 2.0)));
        assert_eq!(a2.property.lookup_table.as_ref().unwrap().range, (1.0, 2.0));
    }

    #[test]
    fn bounds_apply_transform() {
        let mut a = Actor::from_poly_data(tri());
        a.transform = Mat4::translate(Vec3::new(10.0, 0.0, 0.0));
        let b = a.bounds();
        assert_eq!(b.min.x, 10.0);
        assert_eq!(b.max.x, 11.0);
    }
}
