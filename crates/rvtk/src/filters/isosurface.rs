//! Isosurface extraction by marching tetrahedra, one vertex per crossed
//! lattice edge.
//!
//! Each grid cell is split into six tetrahedra sharing the cell's main
//! diagonal — a decomposition whose face diagonals agree between adjacent
//! cells, so the extracted surface is watertight (verified by property
//! tests). Compared to classic marching cubes this trades slightly more
//! triangles for a table small enough to verify by inspection and no
//! ambiguous cases.
//!
//! A vertex is keyed by the lattice edge it lies on, or by the grid point
//! it lands on when the interpolation reaches an end (a triangle two of
//! whose corners then coincide is dropped). The output holds each key
//! once, in the order the serial k → j → i → tetrahedron → edge walk first
//! reaches it, as Flying Edges (Schroeder et al., 2015) and VTK's contour
//! filters share edge vertices.
//!
//! The work runs in passes over items, each a band of [`BAND`] cell rows
//! of one k-slab, numbered in the serial walk's order:
//!
//! 1. *March.* An item classifies its grid rows once each into bit words
//!    (inside, NaN), visits only the cells those words say the surface
//!    crosses, and numbers the keys its triangles reach in its own walk's
//!    order, recording for each the edge that first reached it.
//! 2. *Link.* A key in an item's bottom plane or first row may have been
//!    reached by an earlier item — one of the three neighbouring bands of
//!    the slab below, or the band before in its own slab. It belongs to
//!    the earliest of them that reached it; the item ranks the keys it
//!    owns.
//! 3. *Write.* Owned counts give each item its output offsets. Each item
//!    computes its vertices' positions, normals and colour samples
//!    straight into its slots of the output, and its triangles over
//!    output ids, in the serial walk's order at any thread count.
//!
//! DESIGN §22 has the layout.

// Hot path: the extractor runs over every cell of a new field's first frame.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::image_data::ImageData;
use crate::math::Vec3;
use crate::poly_data::PolyData;
use crate::{Result, VtkError};
use rayon::prelude::*;

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

/// Six tetrahedra around the 0–6 main diagonal. Faces on the cube boundary
/// use the same diagonals as the neighbouring cell's decomposition.
const TETS: [[usize; 4]; 6] = [
    [0, 1, 2, 6],
    [0, 2, 3, 6],
    [0, 3, 7, 6],
    [0, 7, 4, 6],
    [0, 4, 5, 6],
    [0, 5, 1, 6],
];

/// The 19 edges of a cell's six tetrahedra, each from its lower cube
/// corner to its upper one: every edge steps up, or not, in each axis.
const EDGES: [[usize; 2]; 19] = [
    [0, 1],
    [0, 2],
    [0, 3],
    [0, 4],
    [0, 5],
    [0, 6],
    [0, 7],
    [1, 2],
    [1, 5],
    [1, 6],
    [2, 6],
    [3, 2],
    [3, 6],
    [3, 7],
    [4, 5],
    [4, 6],
    [4, 7],
    [5, 6],
    [7, 6],
];

/// Keys per grid point: the point itself takes 0, and the edge from it to
/// the point `(dx, dy, dz)` further on takes `dx + 2·dy + 4·dz`.
const SLOTS: usize = 8;
/// No vertex yet, in a cell's edge ids.
const NONE: u32 = u32::MAX;
/// Cell rows per item: a k-slab of cells is cut into bands this many j
/// rows high, the last one shorter. A constant, never the thread count, so
/// the items are the same on every pool. 16 ran ≈ 3 % faster on the
/// benchmark field; 8 lets grids of 10–12 points, which the property tests
/// draw, split into two bands.
const BAND: usize = 8;

/// Extracts the isosurface of `img.scalars` at `value`.
///
/// Cells touching NaN scalars are skipped (missing-data holes). Vertex
/// normals are taken from the (negated) scalar-field gradient so the surface
/// shades smoothly.
pub fn isosurface(img: &ImageData, value: f32) -> Result<PolyData> {
    isosurface_impl(img, value, None)
}

/// Like [`isosurface`], but colors the surface by sampling a *second*
/// field at each vertex — DV3D's "isosurface of variable A colored by
/// variable B". The two fields must share grid geometry.
pub fn isosurface_colored(
    img: &ImageData,
    value: f32,
    color_field: &ImageData,
) -> Result<PolyData> {
    if color_field.dims != img.dims {
        return Err(VtkError::Invalid(format!(
            "color field dims {:?} != surface field dims {:?}",
            color_field.dims, img.dims
        )));
    }
    isosurface_impl(img, value, Some(color_field))
}

fn isosurface_impl(
    img: &ImageData,
    value: f32,
    color_field: Option<&ImageData>,
) -> Result<PolyData> {
    let [nx, ny, nz] = img.dims;
    if nx < 2 || ny < 2 || nz < 2 {
        return Err(VtkError::Invalid("isosurface needs at least 2 points per axis".into()));
    }
    let march = March::new(img, value);
    let mut items: Vec<Item> = (0..(nz - 1) * march.bands).map(|_| Item::default()).collect();
    items.par_iter_mut().enumerate().for_each(|(n, item)| march.item(n, item));
    let mut owners: Vec<Vec<Owner>> = vec![Vec::new(); items.len()];
    owners.par_iter_mut().enumerate().for_each(|(n, owners)| *owners = march.link(&items, n));

    let owned: Vec<usize> = owners.iter().map(|o| o.iter().filter(|o| matches!(o, Owner::Me(_))).count()).collect();
    let firsts: Vec<u32> = owned.iter().scan(0, |n, &o| Some(std::mem::replace(n, *n + o as u32))).collect();
    // item `n`'s grid points, and the ends of the first edge of each
    // vertex it owns
    let mine = |n: usize| {
        let (points, edges) = items.get(n).map_or((&[][..], &[][..]), |i| (&i.points[..], &i.edges[..]));
        let owners = owners.get(n).map_or(&[][..], Vec::as_slice);
        (points, edges.iter().zip(owners).filter(|(_, o)| matches!(o, Owner::Me(_))).map(|(&edge, _)| edge))
    };
    let mut out = PolyData::new();
    let mut normals = Vec::new();
    rayon::extend_counted_pair(&mut out.points, &mut normals, &owned, |n, mut slots, mut normal_slots| {
        let (points, edges) = mine(n);
        // each grid point's gradient, once one of the vertices needs it
        let mut gradients = vec![None; points.len()];
        let mut gradient = |end: u32| {
            let g = gradients.get_mut(end as usize)?;
            let &[x, y, z] = points.get(end as usize)?;
            Some(*g.get_or_insert_with(|| img.gradient(x, y, z)))
        };
        for [lower, upper] in edges {
            let (a, b, t) = march.interpolate(points, [lower, upper]);
            slots.push(march.position(points, a, b, t));
            let normal = gradient(a).zip(gradient(b)).map_or(Vec3::ZERO, |(ga, gb)| (-(ga.lerp(gb, t))).normalized());
            normal_slots.push(normal);
        }
        slots.finish();
        normal_slots.finish();
    });
    let scalars = match color_field {
        Some(cf) => {
            let mut scalars = Vec::new();
            rayon::extend_counted(&mut scalars, &owned, |n, mut slots| {
                let (points, edges) = mine(n);
                for edge in edges {
                    let (a, b, t) = march.interpolate(points, edge);
                    let p = march.position(points, a, b, t);
                    slots.push(cf.sample_continuous(cf.world_to_continuous(p)).unwrap_or(f32::NAN));
                }
                slots.finish();
            });
            scalars
        }
        None => vec![value; out.points.len()],
    };
    let triangle_counts: Vec<usize> = items.iter().map(|i| i.triangles.len()).collect();
    rayon::extend_counted(&mut out.triangles, &triangle_counts, |n, mut slots| {
        let (Some(item), Some(mine), Some(&first)) = (items.get(n), owners.get(n), firsts.get(n)) else {
            slots.fill([0; 3]);
            return;
        };
        // the owner of a key ranks it among those it owns
        let output_id = |v: u32| match mine.get(v as usize) {
            Some(&Owner::Me(rank)) => first + rank,
            Some(&Owner::Item(owner, id)) => match (firsts.get(owner), owners.get(owner).and_then(|o| o.get(id as usize))) {
                (Some(&first), Some(&Owner::Me(rank))) => first + rank,
                _ => 0,
            },
            None => 0,
        };
        for triangle in &item.triangles {
            slots.push(triangle.map(output_id));
        }
        slots.finish();
    });
    out.normals = Some(normals);
    out.scalars = Some(scalars);
    Ok(out)
}

/// What one item's march reached.
#[derive(Debug, Default)]
struct Item {
    /// Per vertex, in the order the item reached them: the lower and upper
    /// end of the edge that first reached it, in `points`.
    edges: Vec<[u32; 2]>,
    /// The grid points those edges join, in the order the item reached
    /// them.
    points: Vec<[usize; 3]>,
    /// Over item vertex ids.
    triangles: Vec<[u32; 3]>,
    /// `(key, vertex)` for the vertices in the item's top plane or last
    /// grid row, sorted: what later items look the keys they share up in.
    shared: Vec<(usize, u32)>,
    /// The vertices in the item's bottom plane or first grid row, which an
    /// earlier item may have reached, in vertex order.
    seam: Vec<Seam>,
}

/// An item vertex an earlier item may have reached.
#[derive(Debug, Clone, Copy)]
struct Seam {
    id: u32,
    key: usize,
    /// The grid row of the key's point.
    y: usize,
    /// The key lies in the item's bottom plane.
    bottom: bool,
}

/// Who numbers an item vertex in the output.
#[derive(Debug, Clone, Copy)]
enum Owner {
    /// The item itself: the vertex's rank among those it owns.
    Me(u32),
    /// An earlier item, which reached the key first, and its id there.
    Item(usize, u32),
}

/// Ids an item gives the grid points of the rows `j` and `j + 1` a row of
/// cells touches, each in the slab's bottom and top plane: the vertex of
/// each key of a point, or the point's index in the item's `points`. Row
/// `y` lives in half `y % 2`; each half takes row `y + 2` when the walk
/// moves on, without being cleared.
#[derive(Debug)]
struct Window {
    /// Per slot, its id plus one: 0 for none.
    ids: Vec<u32>,
    /// Per half, the item's count of what the ids number when the half's
    /// row last started to be reached. Ids below it are left from the row
    /// two before.
    floors: [u32; 2],
}

impl Window {
    fn new(len: usize) -> Window {
        Window { ids: vec![0; len], floors: [0; 2] }
    }

    /// The id in `slot`, in half `half`.
    fn get(&self, slot: usize, half: usize) -> Option<u32> {
        let (&id, &floor) = (self.ids.get(slot)?, self.floors.get(half)?);
        (id > floor).then(|| id - 1)
    }

    fn set(&mut self, slot: usize, id: u32) {
        if let Some(s) = self.ids.get_mut(slot) {
            *s = id + 1;
        }
    }

    /// Hands half `half` to a new row, when `count` ids have been given out.
    fn start_row(&mut self, half: usize, count: usize) {
        if let Some(floor) = self.floors.get_mut(half) {
            *floor = count as u32;
        }
    }
}

/// The [`Window`]s of one item: its vertices, [`SLOTS`] keys per point,
/// and its grid points.
#[derive(Debug)]
struct Windows {
    keys: Window,
    points: Window,
}

/// Per 64 grid points of one row, in both planes of a slab: bit `x` of
/// `[any_in, all_in, any_nan]` says whether the point pairs `x` and
/// `x + 1`, four points in all, hold any value ≥ the isovalue, only such
/// values, or any NaN.
type Classes = Vec<[u64; 3]>;

/// The triangles of one tetrahedron for one corner mask, by [`EDGES`]
/// index, as [`tet_triangles`] gives them.
type Case = [Option<[usize; 3]>; 2];

/// A cube corner: its offsets from its cell's lower corner, and the
/// offset of its point's key.
#[derive(Debug, Clone, Copy)]
struct Corner {
    at: [usize; 3],
    key: usize,
}

/// A crossed cell being marched.
#[derive(Debug)]
struct Cell {
    /// Its lower corner's `[i, j]` in the item's slab.
    at: [usize; 2],
    /// The key of its lower corner's point.
    key: usize,
    values: [f32; 8],
}

/// What every item of one extraction shares.
#[derive(Debug)]
struct March<'a> {
    img: &'a ImageData,
    value: f32,
    /// Per tetrahedron of [`TETS`], its triangles for each corner mask.
    cases: [[Case; 16]; 6],
    /// Per cube corner of [`CORNERS`], its offsets.
    corners: [Corner; 8],
    /// Items per slab.
    bands: usize,
}

/// Where an item's walk stands: its slab `k` and its cell rows `j0..j1`.
#[derive(Debug, Clone, Copy)]
struct Span {
    k: usize,
    j0: usize,
    j1: usize,
}

impl<'a> March<'a> {
    fn new(img: &'a ImageData, value: f32) -> March<'a> {
        let [nx, ny, _] = img.dims;
        March {
            img,
            value,
            cases: TETS.map(|tet| std::array::from_fn(|mask| tet_triangles(tet, mask))),
            corners: CORNERS.map(|at @ [dx, dy, dz]| Corner { at, key: (dx + nx * (dy + ny * dz)) * SLOTS }),
            bands: (ny - 1).div_ceil(BAND),
        }
    }

    /// Marches item `n`: the crossed cells of its band, in the j/i order of
    /// the serial walk.
    fn item(&self, n: usize, item: &mut Item) {
        let [nx, ny, _] = self.img.dims;
        let (k, b) = (n / self.bands, n % self.bands);
        let span = Span { k, j0: b * BAND, j1: ((b + 1) * BAND).min(ny - 1) };
        let mut windows = Windows { keys: Window::new(4 * nx * SLOTS), points: Window::new(4 * nx) };
        let (mut lower, mut upper) = (Classes::new(), Classes::new());
        self.classify(span.j0, k, &mut lower);
        for j in span.j0..span.j1 {
            self.classify(j + 1, k, &mut upper);
            // row j + 1 takes the half row j - 1 held
            windows.keys.start_row((j + 1) % 2, item.edges.len());
            windows.points.start_row((j + 1) % 2, item.points.len());
            for (w, (lo, hi)) in lower.iter().zip(&upper).enumerate() {
                // a cell touching NaN is a hole; a cell all on one side of
                // the isovalue has no surface
                let mut crossed = (lo[0] | hi[0]) & !(lo[1] & hi[1]) & !(lo[2] | hi[2]);
                while crossed != 0 {
                    let i = w * 64 + crossed.trailing_zeros() as usize;
                    crossed &= crossed - 1;
                    if i + 1 >= nx {
                        break;
                    }
                    self.cell(item, &mut windows, span, [i, j]);
                }
            }
            std::mem::swap(&mut lower, &mut upper);
        }
        item.shared.sort_unstable();
    }

    /// Classifies grid row `y` of slab `k`'s two planes into `classes`.
    fn classify(&self, y: usize, k: usize, classes: &mut Classes) {
        let [nx, ny, _] = self.img.dims;
        let row = |z: usize| self.img.scalars.get((y + ny * z) * nx..).and_then(|r| r.get(..nx)).unwrap_or_default();
        let word = |points: &[f32]| {
            points.iter().enumerate().fold([0u64; 2], |[inside, nan], (x, &v)| {
                [inside | u64::from(v >= self.value) << x, nan | u64::from(v.is_nan()) << x]
            })
        };
        // per point first, both planes: [either inside, both inside, either NaN]
        classes.clear();
        classes.extend(row(k).chunks(64).zip(row(k + 1).chunks(64)).map(|(bottom, top)| {
            let ([bi, bn], [ti, tn]) = (word(bottom), word(top));
            [bi | ti, bi & ti, bn | tn]
        }));
        // then per pair of points, the second one's bits shifted down
        let mut next = [0u64; 3];
        for class in classes.iter_mut().rev() {
            let [any_in, all_in, any_nan] = *class;
            let up = |c: u64, n: u64| c >> 1 | n << 63;
            let pair = [any_in | up(any_in, next[0]), all_in & up(all_in, next[1]), any_nan | up(any_nan, next[2])];
            next = std::mem::replace(class, pair);
        }
    }

    /// Marches the crossed cell `[i, j]` of the item's slab.
    fn cell(&self, item: &mut Item, windows: &mut Windows, span: Span, at @ [i, j]: [usize; 2]) {
        let base = self.img.index(i, j, span.k);
        let values = self.corners.map(|c| self.img.scalars.get(base + c.key / SLOTS).copied().unwrap_or(f32::NAN));
        let cell = Cell { at, key: base * SLOTS, values };
        // the cell's vertex on each edge, once reached
        let mut ids = [NONE; EDGES.len()];
        for (tet, cases) in TETS.iter().zip(&self.cases) {
            let mask = tet.iter().enumerate().fold(0, |mask, (c, &corner)| {
                let inside = values.get(corner).is_some_and(|&v| v >= self.value);
                mask | (usize::from(inside) << c)
            });
            for triangle in cases.get(mask).into_iter().flatten().flatten() {
                let corners = triangle.map(|e| {
                    let id = ids.get_mut(e)?;
                    if *id == NONE {
                        *id = self.vertex(item, windows, span, &cell, e)?;
                    }
                    Some(*id)
                });
                if let [Some(p0), Some(p1), Some(p2)] = corners {
                    if p0 != p1 && p1 != p2 && p0 != p2 {
                        item.triangles.push([p0, p1, p2]);
                    }
                }
            }
        }
    }

    /// The item's vertex on edge `e` of `cell`, numbered the first time the
    /// item reaches that lattice edge or the grid point the vertex lands
    /// on, which the interpolation from the edge's inside end decides.
    fn vertex(&self, item: &mut Item, windows: &mut Windows, span: Span, cell: &Cell, e: usize) -> Option<u32> {
        let [nx, _, _] = self.img.dims;
        let [i, j] = cell.at;
        let &[l, u] = EDGES.get(e)?;
        let (lower, upper) = (*self.corners.get(l)?, *self.corners.get(u)?);
        let ([lx, ly, lz], [ux, uy, uz]) = (lower.at, upper.at);
        let step = (ux - lx) + 2 * (uy - ly) + 4 * (uz - lz);
        // corner `c`'s point's window slot and half
        let at = |c: Corner| {
            let [dx, dy, dz] = c.at;
            let half = (j + dy) % 2;
            ((half * 2 + dz) * nx + i + dx, half)
        };
        // window slot, window half and key of key slot `s` of corner `c`
        let name = |c: Corner, s: usize| {
            let (slot, half) = at(c);
            (slot * SLOTS + s, half, cell.key + c.key + s)
        };
        let edge = name(lower, step);
        if let Some(id) = windows.keys.get(edge.0, edge.1) {
            return Some(id);
        }
        let (vl, vu) = (*cell.values.get(l)?, *cell.values.get(u)?);
        let ((a, va), (b, vb)) = if vl >= self.value { ((lower, vl), (upper, vu)) } else { ((upper, vu), (lower, vl)) };
        let world = |c: Corner| {
            let [dx, dy, dz] = c.at;
            self.img.point(i + dx, j + dy, span.k + dz)
        };
        let p = world(a).lerp(world(b), interpolant(self.value, va, vb));
        let (point, named) = if p == world(a) {
            (a, name(a, 0))
        } else if p == world(b) {
            (b, name(b, 0))
        } else {
            (lower, edge)
        };
        let id = match windows.keys.get(named.0, named.1) {
            Some(id) => id,
            None => {
                let id = item.edges.len() as u32;
                let mut end = |c: Corner| {
                    let (slot, half) = at(c);
                    windows.points.get(slot, half).unwrap_or_else(|| {
                        let [dx, dy, dz] = c.at;
                        let end = item.points.len() as u32;
                        item.points.push([i + dx, j + dy, span.k + dz]);
                        windows.points.set(slot, end);
                        end
                    })
                };
                item.edges.push([end(lower), end(upper)]);
                let [_, dy, dz] = point.at;
                let (y, key) = (j + dy, named.2);
                if dz == 1 || y == span.j1 {
                    item.shared.push((key, id));
                }
                // a key on an edge that leaves the bottom plane (the first
                // row) is reached from this slab's (band's) cells alone
                let (rising, climbing) = (key % SLOTS >= 4, (key % SLOTS) & 2 != 0);
                let bottom = dz == 0 && !rising && span.k > 0;
                if bottom || (y == span.j0 && !climbing && span.j0 > 0) {
                    item.seam.push(Seam { id, key, y, bottom });
                }
                windows.keys.set(named.0, id);
                id
            }
        };
        windows.keys.set(edge.0, id);
        Some(id)
    }

    /// Who numbers each of item `n`'s vertices: the item itself, or the
    /// earliest earlier item that reached the same key. Only a key in the
    /// item's bottom plane or first row can have been reached before: in
    /// the slab below by the bands of the cell rows either side of the
    /// key's row, and in the item's slab by the band before, whose last row
    /// is the item's first. Each holds every key of that plane or row it
    /// reached in its `shared` list.
    fn link(&self, items: &[Item], n: usize) -> Vec<Owner> {
        let [_, ny, _] = self.img.dims;
        let (k, b) = (n / self.bands, n % self.bands);
        let Some(item) = items.get(n) else { return Vec::new() };
        let j0 = b * BAND;
        let below = |row: usize| (k > 0 && row + 1 < ny).then(|| (k - 1) * self.bands + row / BAND);
        let before = b.checked_sub(1).map(|c| k * self.bands + c);
        let mut seam = item.seam.iter().peekable();
        let mut owned = 0;
        (0..item.edges.len() as u32)
            .map(|v| {
                let first = seam.next_if(|s| s.id == v).and_then(|s| {
                    // in the serial walk's order
                    let lower = s.y.checked_sub(1).and_then(below).filter(|_| s.bottom);
                    let upper = below(s.y).filter(|&c| s.bottom && Some(c) != lower);
                    let earlier = [lower, upper, before.filter(|_| s.y == j0)];
                    earlier.into_iter().flatten().find_map(|c| {
                        let shared = &items.get(c)?.shared;
                        let at = shared.binary_search_by_key(&s.key, |&(key, _)| key).ok()?;
                        Some(Owner::Item(c, shared.get(at)?.1))
                    })
                });
                first.unwrap_or_else(|| {
                    owned += 1;
                    Owner::Me(owned - 1)
                })
            })
            .collect()
    }

    /// The vertex first reached on the edge joining `ends` of an item's
    /// `points`: its inside end, its outside end, and how far between them
    /// it lies.
    fn interpolate(&self, points: &[[usize; 3]], ends: [u32; 2]) -> (u32, u32, f64) {
        let value = |end: u32| {
            let &[x, y, z] = points.get(end as usize)?;
            self.img.scalars.get(self.img.index(x, y, z)).copied()
        };
        let [lower, upper] = ends;
        let (vl, vu) = (value(lower).unwrap_or(f32::NAN), value(upper).unwrap_or(f32::NAN));
        if vl >= self.value {
            (lower, upper, interpolant(self.value, vl, vu))
        } else {
            (upper, lower, interpolant(self.value, vu, vl))
        }
    }

    /// The point `t` of the way from `points[a]` to `points[b]`.
    fn position(&self, points: &[[usize; 3]], a: u32, b: u32, t: f64) -> Vec3 {
        let world = |end: u32| points.get(end as usize).map_or(Vec3::ZERO, |&[x, y, z]| self.img.point(x, y, z));
        world(a).lerp(world(b), t)
    }
}

/// Where `value` lies between `va` and `vb`, as a fraction of the way.
fn interpolant(value: f32, va: f32, vb: f32) -> f64 {
    let t = if (vb - va).abs() < 1e-30 { 0.5 } else { ((value - va) / (vb - va)) as f64 };
    t.clamp(0.0, 1.0)
}

/// The triangles one tetrahedron contributes, given which of its corners
/// are inside (bit `c` of `mask` for corner `c`, value ≥ isovalue). Each
/// triangle corner is an edge, by its index in [`EDGES`]; triangles wind so
/// the normal faces decreasing field.
fn tet_triangles(tet: [usize; 4], mask: usize) -> Case {
    let edge = |(a, b): (usize, usize)| EDGES.iter().position(|&e| e == [a, b] || e == [b, a]);
    let by_edge = |t: Option<[(usize, usize); 3]>| {
        let [e0, e1, e2] = t?.map(edge);
        Some([e0?, e1?, e2?])
    };
    corner_pairs(tet, mask).map(by_edge)
}

/// [`tet_triangles`], each triangle corner as the (inside cube corner,
/// outside cube corner) pair its edge joins.
fn corner_pairs(tet: [usize; 4], mask: usize) -> [Option<[(usize, usize); 3]>; 2] {
    let side = |inside: bool| {
        tet.into_iter()
            .enumerate()
            .filter(move |&(c, _)| (mask & (1 << c) != 0) == inside)
            .map(|(_, corner)| corner)
    };
    let (mut ins, mut outs) = (side(true), side(false));
    match mask.count_ones() {
        1 => {
            if let (Some(a), Some(b), Some(c), Some(d)) = (ins.next(), outs.next(), outs.next(), outs.next()) {
                return [Some([(a, b), (a, c), (a, d)]), None];
            }
        }
        3 => {
            if let (Some(a), Some(b), Some(c), Some(d)) = (outs.next(), ins.next(), ins.next(), ins.next()) {
                return [Some([(b, a), (c, a), (d, a)]), None];
            }
        }
        2 => {
            // the quad a–c, a–d, b–d, b–c as two triangles
            if let (Some(a), Some(b), Some(c), Some(d)) = (ins.next(), ins.next(), outs.next(), outs.next()) {
                return [Some([(a, c), (a, d), (b, d)]), Some([(a, c), (b, d), (b, c)])];
            }
        }
        // no corner or every corner inside: the surface misses the tetrahedron
        _ => {}
    }
    [None, None]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere_field(n: usize, r_units: f64) -> (ImageData, f64) {
        let c = (n - 1) as f64 / 2.0;
        let img = ImageData::from_fn([n, n, n], [1.0; 3], [0.0; 3], move |x, y, z| {
            (((x - c).powi(2) + (y - c).powi(2) + (z - c).powi(2)) as f32).sqrt()
        });
        (img, r_units)
    }

    #[test]
    fn sphere_surface_is_closed_and_sized_right() {
        let (img, r) = sphere_field(24, 7.0);
        let surf = isosurface(&img, r as f32).unwrap();
        assert!(!surf.triangles.is_empty());
        assert!(surf.is_closed_surface(), "sphere isosurface should be watertight");
        let area = surf.surface_area();
        let exact = 4.0 * std::f64::consts::PI * r * r;
        assert!((area - exact).abs() / exact < 0.05, "area {area} vs {exact}");
    }

    #[test]
    fn vertices_lie_on_the_isolevel() {
        let (img, r) = sphere_field(16, 5.0);
        let surf = isosurface(&img, r as f32).unwrap();
        let c = Vec3::new(7.5, 7.5, 7.5);
        for &p in surf.points.iter().step_by(7) {
            let d = (p - c).length();
            assert!((d - r).abs() < 0.2, "vertex at distance {d}, expected {r}");
        }
    }

    #[test]
    fn normals_point_outward_for_increasing_field() {
        // field = radius ⇒ gradient points outward ⇒ normal = -gradient points
        // inward... the convention is normals face decreasing field, which for
        // a distance field means toward the centre. What matters is
        // consistency: check all normals agree with -gradient.
        let (img, r) = sphere_field(20, 6.0);
        let surf = isosurface(&img, r as f32).unwrap();
        let c = Vec3::new(9.5, 9.5, 9.5);
        let n = surf.normals.as_ref().unwrap();
        let mut agree = 0usize;
        for (i, &p) in surf.points.iter().enumerate() {
            let outward = (p - c).normalized();
            if n[i].dot(outward) < 0.0 {
                agree += 1;
            }
        }
        assert!(agree as f64 > 0.95 * surf.points.len() as f64);
    }

    #[test]
    fn no_crossing_yields_empty_surface() {
        let (img, _) = sphere_field(8, 0.0);
        let surf = isosurface(&img, 1000.0).unwrap();
        assert!(surf.triangles.is_empty());
        let surf = isosurface(&img, -1.0).unwrap();
        assert!(surf.triangles.is_empty());
    }

    #[test]
    fn nan_cells_are_skipped_not_propagated() {
        let (mut img, r) = sphere_field(16, 5.0);
        // poison one corner region
        let idx = img.index(0, 0, 0);
        img.scalars[idx] = f32::NAN;
        let surf = isosurface(&img, r as f32).unwrap();
        assert!(!surf.triangles.is_empty());
        for &p in &surf.points {
            assert!(p.x.is_finite() && p.y.is_finite() && p.z.is_finite());
        }
    }

    #[test]
    fn planar_field_gives_flat_surface() {
        let img = ImageData::from_fn([8, 8, 8], [1.0; 3], [0.0; 3], |x, _, _| x as f32);
        let surf = isosurface(&img, 3.5).unwrap();
        for &p in &surf.points {
            assert!((p.x - 3.5).abs() < 1e-6);
        }
        // plane area = 7 × 7 grid units
        assert!((surf.surface_area() - 49.0).abs() < 1e-6);
    }

    #[test]
    fn colored_isosurface_samples_second_field() {
        let (img, r) = sphere_field(16, 5.0);
        // color field = z coordinate
        let color = ImageData::from_fn([16, 16, 16], [1.0; 3], [0.0; 3], |_, _, z| z as f32);
        let surf = isosurface_colored(&img, r as f32, &color).unwrap();
        let s = surf.scalars.as_ref().unwrap();
        for (i, &p) in surf.points.iter().enumerate() {
            if !s[i].is_nan() {
                assert!((s[i] as f64 - p.z).abs() < 0.05, "scalar {} at z {}", s[i], p.z);
            }
        }
    }

    #[test]
    fn colored_isosurface_rejects_mismatched_grids() {
        let (img, _) = sphere_field(8, 2.0);
        let other = ImageData::from_fn([4, 4, 4], [1.0; 3], [0.0; 3], |_, _, _| 0.0);
        assert!(isosurface_colored(&img, 2.0, &other).is_err());
    }

    #[test]
    fn degenerate_grids_rejected() {
        let img = ImageData::from_fn([1, 8, 8], [1.0; 3], [0.0; 3], |_, _, _| 0.0);
        assert!(isosurface(&img, 0.5).is_err());
    }

    #[test]
    fn respects_origin_and_spacing() {
        let c = 3.5;
        let img = ImageData::from_fn([8, 8, 8], [2.0; 3], [100.0, 0.0, 0.0], move |x, y, z| {
            (((x - c).powi(2) + (y - c).powi(2) + (z - c).powi(2)) as f32).sqrt()
        });
        let surf = isosurface(&img, 2.0).unwrap();
        let b = surf.bounds();
        // centre in world space: (100 + 3.5·2, 7, 7)
        assert!((b.center().x - 107.0).abs() < 0.5);
        assert!((b.center().y - 7.0).abs() < 0.5);
    }
}
