//! Polygonal data: points, triangles and polylines with per-point
//! attributes — the output type of geometry filters and the input to the
//! rasterizer.

use crate::image_data::value_range;
use crate::math::Vec3;

/// Polygonal geometry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolyData {
    /// Point positions.
    pub points: Vec<Vec3>,
    /// Optional per-point normals (same length as `points` when present).
    pub normals: Option<Vec<Vec3>>,
    /// Optional per-point scalars used for color mapping.
    pub scalars: Option<Vec<f32>>,
    /// Triangles as point-index triples.
    pub triangles: Vec<[u32; 3]>,
    /// Polylines as runs of point indices.
    pub lines: Vec<Vec<u32>>,
}

impl PolyData {
    /// An empty mesh.
    pub fn new() -> PolyData {
        PolyData::default()
    }

    /// Adds a point, returning its index.
    pub fn add_point(&mut self, p: Vec3) -> u32 {
        self.points.push(p);
        (self.points.len() - 1) as u32
    }

    /// Scalar range ignoring NaNs ([`value_range`]); `None` when scalars
    /// are absent.
    pub fn scalar_range(&self) -> Option<(f32, f32)> {
        value_range(self.scalars.as_ref()?)
    }

    /// Total surface area of the triangle mesh.
    pub fn surface_area(&self) -> f64 {
        self.triangles
            .iter()
            .map(|tri| {
                let [a, b, c] = tri.map(|i| self.points[i as usize]);
                (b - a).cross(c - a).length() * 0.5
            })
            .sum()
    }

    /// True when every triangle edge is shared by exactly two triangles —
    /// i.e. the mesh is a closed (watertight) surface. Edges are matched by
    /// point index, so the triangles must share vertices, as the isosurface
    /// extractor's do.
    pub fn is_closed_surface(&self) -> bool {
        use std::collections::HashMap;
        if self.triangles.is_empty() {
            return false;
        }
        let mut edges: HashMap<(u32, u32), i32> = HashMap::new();
        for tri in &self.triangles {
            for e in [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])] {
                let key = (e.0.min(e.1), e.0.max(e.1));
                *edges.entry(key).or_insert(0) += 1;
            }
        }
        edges.values().all(|&c| c == 2)
    }
}

#[cfg(test)]
impl PolyData {
    /// World-space bounding box over all points.
    pub(crate) fn bounds(&self) -> crate::math::Bounds {
        let mut b = crate::math::Bounds::empty();
        for &p in &self.points {
            b.include(p);
        }
        b
    }

    /// Computes area-weighted per-point normals from the triangle mesh.
    pub(crate) fn compute_normals(&mut self) {
        let mut normals = vec![Vec3::ZERO; self.points.len()];
        for tri in &self.triangles {
            let [a, b, c] = tri.map(|i| self.points[i as usize]);
            // un-normalized cross product weights by triangle area
            let n = (b - a).cross(c - a);
            for &i in tri {
                normals[i as usize] = normals[i as usize] + n;
            }
        }
        for n in &mut normals {
            *n = n.normalized();
        }
        self.normals = Some(normals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unit right triangle in the z=0 plane.
    fn tri() -> PolyData {
        let mut pd = PolyData::new();
        let a = pd.add_point(Vec3::new(0.0, 0.0, 0.0));
        let b = pd.add_point(Vec3::new(1.0, 0.0, 0.0));
        let c = pd.add_point(Vec3::new(0.0, 1.0, 0.0));
        pd.triangles.push([a, b, c]);
        pd
    }

    /// A tetrahedron (closed surface).
    fn tetra() -> PolyData {
        let mut pd = PolyData::new();
        let p = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        for &q in &p {
            pd.add_point(q);
        }
        pd.triangles = vec![[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]];
        pd
    }

    #[test]
    fn area_and_bounds() {
        let pd = tri();
        assert!((pd.surface_area() - 0.5).abs() < 1e-12);
        let b = pd.bounds();
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::new(1.0, 1.0, 0.0));
    }

    #[test]
    fn normals_point_consistently() {
        let mut pd = tri();
        pd.compute_normals();
        let n = pd.normals.as_ref().unwrap();
        for v in n {
            assert!((v.z - 1.0).abs() < 1e-12, "{v:?}");
        }
    }

    #[test]
    fn closed_surface_detection() {
        assert!(!tri().is_closed_surface());
        assert!(tetra().is_closed_surface());
        assert!(!PolyData::new().is_closed_surface());
    }

    #[test]
    fn scalar_range_skips_nan() {
        let mut pd = tri();
        pd.scalars = Some(vec![1.0, f32::NAN, 3.0]);
        assert_eq!(pd.scalar_range(), Some((1.0, 3.0)));
        pd.scalars = None;
        assert_eq!(pd.scalar_range(), None);
    }
}
