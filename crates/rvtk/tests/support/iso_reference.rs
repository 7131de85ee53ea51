//! The isosurface extractor as it was before vertices were named by their
//! lattice edge, kept as the oracle for the one that replaced it: marching
//! tetrahedra that interpolates a crossed edge again for every tetrahedron
//! using it, with two fresh gradients each time, followed by a weld that
//! merges points whose coordinates round to the same key. `march_tet` and
//! `weld` are the production code of that time, verbatim but for the key
//! each emitted point now records.
//!
//! Both `tests/iso_oracle.rs` of `rvtk` and the root package's
//! `tests/iso_oracle.rs` include this file.

use rvtk::math::Vec3;
use rvtk::{ImageData, PolyData};
use std::collections::HashMap;

/// Cube-corner offsets, VTK ordering.
const CORNERS: [[usize; 3]; 8] = [
    [0, 0, 0],
    [1, 0, 0],
    [1, 1, 0],
    [0, 1, 0],
    [0, 0, 1],
    [1, 0, 1],
    [1, 1, 1],
    [0, 1, 1],
];

/// Six tetrahedra around the 0–6 main diagonal.
const TETS: [[usize; 4]; 6] = [
    [0, 1, 2, 6],
    [0, 2, 3, 6],
    [0, 3, 7, 6],
    [0, 7, 4, 6],
    [0, 4, 5, 6],
    [0, 5, 1, 6],
];

/// What an emitted point is: the lattice edge it was interpolated on,
/// (inside grid point, outside grid point), or the grid point it landed
/// on exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key {
    Edge([usize; 3], [usize; 3]),
    Point([usize; 3]),
}

/// Everything the march emitted, before any weld: one point per triangle
/// corner, with its key.
#[derive(Debug)]
pub struct Emitted {
    pub mesh: PolyData,
    pub keys: Vec<Key>,
}

/// The old march over every cell, k → j → i → tetrahedron → edge — what
/// the slab-parallel march and its in-order stitch produced.
pub fn emit(img: &ImageData, value: f32, color_field: Option<&ImageData>) -> Emitted {
    let [nx, ny, nz] = img.dims;
    let mut out = Emitted { mesh: PolyData::new(), keys: Vec::new() };
    out.mesh.scalars = Some(Vec::new());
    out.mesh.normals = Some(Vec::new());
    let mut corner_val = [0.0f32; 8];
    let mut corner_idx = [[0usize; 3]; 8];
    for k in 0..nz - 1 {
        for j in 0..ny - 1 {
            for i in 0..nx - 1 {
                let mut has_nan = false;
                for (c, off) in CORNERS.iter().enumerate() {
                    let (ci, cj, ck) = (i + off[0], j + off[1], k + off[2]);
                    let v = img.scalar(ci, cj, ck);
                    if v.is_nan() {
                        has_nan = true;
                        break;
                    }
                    corner_val[c] = v;
                    corner_idx[c] = [ci, cj, ck];
                }
                if has_nan {
                    continue;
                }
                let any_below = corner_val.iter().any(|&v| v < value);
                let any_above = corner_val.iter().any(|&v| v >= value);
                if !(any_below && any_above) {
                    continue;
                }
                for tet in &TETS {
                    march_tet(
                        img,
                        value,
                        tet.map(|c| corner_idx[c]),
                        tet.map(|c| corner_val[c]),
                        color_field,
                        &mut out,
                    );
                }
            }
        }
    }
    out
}

/// Emits 0–2 triangles for one tetrahedron.
fn march_tet(
    img: &ImageData,
    value: f32,
    idx: [[usize; 3]; 4],
    val: [f32; 4],
    color_field: Option<&ImageData>,
    out: &mut Emitted,
) {
    let mut mask = 0u8;
    for (c, &v) in val.iter().enumerate() {
        if v >= value {
            mask |= 1 << c;
        }
    }
    if mask == 0 || mask == 0b1111 {
        return;
    }

    let mut edge_vertex = |a: usize, b: usize| -> u32 {
        let (va, vb) = (val[a], val[b]);
        let t = if (vb - va).abs() < 1e-30 { 0.5 } else { ((value - va) / (vb - va)) as f64 };
        let t = t.clamp(0.0, 1.0);
        let pa = img.point(idx[a][0], idx[a][1], idx[a][2]);
        let pb = img.point(idx[b][0], idx[b][1], idx[b][2]);
        let p = pa.lerp(pb, t);
        let ga = img.gradient(idx[a][0], idx[a][1], idx[a][2]);
        let gb = img.gradient(idx[b][0], idx[b][1], idx[b][2]);
        let n = (-(ga.lerp(gb, t))).normalized();
        let s = match color_field {
            Some(cf) => cf.sample_continuous(cf.world_to_continuous(p)).unwrap_or(f32::NAN),
            None => value,
        };
        out.keys.push(if p == pa {
            Key::Point(idx[a])
        } else if p == pb {
            Key::Point(idx[b])
        } else {
            Key::Edge(idx[a], idx[b])
        });
        out.mesh.points.push(p);
        out.mesh.scalars.as_mut().unwrap().push(s);
        out.mesh.normals.as_mut().unwrap().push(n);
        (out.mesh.points.len() - 1) as u32
    };

    let inside: Vec<usize> = (0..4).filter(|&c| mask & (1 << c) != 0).collect();
    match inside.len() {
        1 => {
            let a = inside[0];
            let others: Vec<usize> = (0..4).filter(|&c| c != a).collect();
            let p0 = edge_vertex(a, others[0]);
            let p1 = edge_vertex(a, others[1]);
            let p2 = edge_vertex(a, others[2]);
            out.mesh.triangles.push([p0, p1, p2]);
        }
        3 => {
            let Some(a) = (0..4).find(|&c| mask & (1 << c) == 0) else { return };
            let others: Vec<usize> = (0..4).filter(|&c| c != a).collect();
            let p0 = edge_vertex(others[0], a);
            let p1 = edge_vertex(others[1], a);
            let p2 = edge_vertex(others[2], a);
            out.mesh.triangles.push([p0, p1, p2]);
        }
        2 => {
            let (a, b) = (inside[0], inside[1]);
            let outs: Vec<usize> = (0..4).filter(|&c| c != a && c != b).collect();
            let (c, d) = (outs[0], outs[1]);
            let p0 = edge_vertex(a, c);
            let p1 = edge_vertex(a, d);
            let p2 = edge_vertex(b, d);
            let p3 = edge_vertex(b, c);
            out.mesh.triangles.push([p0, p1, p2]);
            out.mesh.triangles.push([p0, p2, p3]);
        }
        _ => {}
    }
}

/// `PolyData::merge_points` as it was: merges points closer than `tol` by
/// rounding coordinates to a `tol` lattice (first occurrence wins), remaps
/// the triangles and drops those left degenerate. Returns the remap.
pub fn weld(pd: &mut PolyData, tol: f64) -> Vec<u32> {
    let inv = 1.0 / tol.max(1e-12);
    let mut map: HashMap<(i64, i64, i64), u32> = HashMap::new();
    let mut remap = vec![0u32; pd.points.len()];
    let mut new_points = Vec::new();
    let mut new_normals = pd.normals.as_ref().map(|_| Vec::new());
    let mut new_scalars = pd.scalars.as_ref().map(|_| Vec::new());
    for (i, &p) in pd.points.iter().enumerate() {
        let key = ((p.x * inv).round() as i64, (p.y * inv).round() as i64, (p.z * inv).round() as i64);
        let idx = *map.entry(key).or_insert_with(|| {
            new_points.push(p);
            if let (Some(nn), Some(on)) = (new_normals.as_mut(), pd.normals.as_ref()) {
                nn.push(on[i]);
            }
            if let (Some(ns), Some(os)) = (new_scalars.as_mut(), pd.scalars.as_ref()) {
                ns.push(os[i]);
            }
            (new_points.len() - 1) as u32
        });
        remap[i] = idx;
    }
    pd.points = new_points;
    pd.normals = new_normals;
    pd.scalars = new_scalars;
    for tri in &mut pd.triangles {
        *tri = tri.map(|i| remap[i as usize]);
    }
    pd.triangles.retain(|t| t[0] != t[1] && t[1] != t[2] && t[0] != t[2]);
    remap
}

/// The tolerance the old extractor welded with.
pub fn weld_tolerance(img: &ImageData) -> f64 {
    1e-7 * (1.0 + img.bounds().diagonal())
}

/// The old extractor's output: the march, then the weld.
pub fn reference(img: &ImageData, value: f32, color_field: Option<&ImageData>) -> PolyData {
    let mut mesh = emit(img, value, color_field).mesh;
    weld(&mut mesh, weld_tolerance(img));
    mesh
}

/// The emitted points merged by key instead of by rounded coordinates
/// (first occurrence wins), with the triangles left degenerate dropped.
/// Returns the mesh and the remap.
pub fn merge_by_key(emitted: &Emitted) -> (PolyData, Vec<u32>) {
    let src = &emitted.mesh;
    let (normals, scalars) = (src.normals.as_ref().unwrap(), src.scalars.as_ref().unwrap());
    let mut out = PolyData::new();
    let (mut out_normals, mut out_scalars) = (Vec::new(), Vec::new());
    let mut ids: HashMap<Key, u32> = HashMap::new();
    let remap: Vec<u32> = emitted
        .keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            *ids.entry(*key).or_insert_with(|| {
                out_normals.push(normals[i]);
                out_scalars.push(scalars[i]);
                out.add_point(src.points[i])
            })
        })
        .collect();
    out.normals = Some(out_normals);
    out.scalars = Some(out_scalars);
    out.triangles = src
        .triangles
        .iter()
        .map(|t| t.map(|i| remap[i as usize]))
        .filter(|t| t[0] != t[1] && t[1] != t[2] && t[0] != t[2])
        .collect();
    (out, remap)
}

fn vec_bits(v: &[Vec3]) -> Vec<[u64; 3]> {
    v.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
}

/// Asserts two meshes equal bit for bit: points, normals, scalars and
/// triangles, in order.
pub fn assert_bit_identical(got: &PolyData, want: &PolyData, case: &str) {
    assert_eq!(got.points.len(), want.points.len(), "{case}: point count");
    assert!(vec_bits(&got.points) == vec_bits(&want.points), "{case}: points differ");
    let normals = |pd: &PolyData| vec_bits(pd.normals.as_ref().unwrap());
    assert!(normals(got) == normals(want), "{case}: normals differ");
    let scalars = |pd: &PolyData| {
        pd.scalars.as_ref().unwrap().iter().map(|s| s.to_bits()).collect::<Vec<_>>()
    };
    assert!(scalars(got) == scalars(want), "{case}: scalars differ");
    assert_eq!(got.triangles, want.triangles, "{case}: triangles differ");
    assert!(got.lines.is_empty() && want.lines.is_empty(), "{case}: lines");
}
