//! Minimal 3D math: vectors and 4×4 matrices (column-vector convention).

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 3-component `f64` vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    /// Constructs a vector.
    pub const fn new(x: f64, y: f64, z: f64) -> Vec3 {
        Vec3 { x, y, z }
    }

    /// The zero vector.
    pub const ZERO: Vec3 = Vec3::new(0.0, 0.0, 0.0);

    /// Dot product.
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    pub(crate) fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean length.
    pub fn length(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector (zero stays zero).
    pub fn normalized(self) -> Vec3 {
        let l = self.length();
        if l < 1e-300 {
            Vec3::ZERO
        } else {
            self / l
        }
    }

    /// Component-wise linear interpolation.
    pub fn lerp(self, o: Vec3, t: f64) -> Vec3 {
        self + (o - self) * t
    }

    /// Component-wise minimum.
    pub(crate) fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    pub(crate) fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}
impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}
impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}
impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}
impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A 4×4 matrix, row-major storage, column-vector convention
/// (`m * v` transforms `v`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// `m[row][col]`.
    pub m: [[f64; 4]; 4],
}

impl Mat4 {
    /// The identity matrix.
    pub(crate) fn identity() -> Mat4 {
        let mut m = [[0.0; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        Mat4 { m }
    }

    /// Rotation about an arbitrary unit axis by `angle` radians (Rodrigues).
    pub(crate) fn rotate(axis: Vec3, angle: f64) -> Mat4 {
        let a = axis.normalized();
        let (s, c) = angle.sin_cos();
        let t = 1.0 - c;
        let (x, y, z) = (a.x, a.y, a.z);
        let mut out = Mat4::identity();
        out.m[0][0] = t * x * x + c;
        out.m[0][1] = t * x * y - s * z;
        out.m[0][2] = t * x * z + s * y;
        out.m[1][0] = t * x * y + s * z;
        out.m[1][1] = t * y * y + c;
        out.m[1][2] = t * y * z - s * x;
        out.m[2][0] = t * x * z - s * y;
        out.m[2][1] = t * y * z + s * x;
        out.m[2][2] = t * z * z + c;
        out
    }

    /// A right-handed look-at view matrix.
    pub(crate) fn look_at(eye: Vec3, center: Vec3, up: Vec3) -> Mat4 {
        let f = (center - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        let mut out = Mat4::identity();
        out.m[0] = [s.x, s.y, s.z, -s.dot(eye)];
        out.m[1] = [u.x, u.y, u.z, -u.dot(eye)];
        out.m[2] = [-f.x, -f.y, -f.z, f.dot(eye)];
        out
    }

    /// A right-handed perspective projection (fov in radians, maps to
    /// clip space with z in [-1, 1]).
    pub(crate) fn perspective(fov_y: f64, aspect: f64, near: f64, far: f64) -> Mat4 {
        let f = 1.0 / (fov_y / 2.0).tan();
        let mut out = Mat4 { m: [[0.0; 4]; 4] };
        out.m[0][0] = f / aspect;
        out.m[1][1] = f;
        out.m[2][2] = (far + near) / (near - far);
        out.m[2][3] = 2.0 * far * near / (near - far);
        out.m[3][2] = -1.0;
        out
    }

    /// An orthographic projection. `near`/`far` are positive distances in
    /// front of the camera (view-space z = `-near` maps to NDC z = -1,
    /// z = `-far` to +1), matching [`Mat4::perspective`]'s convention.
    pub(crate) fn orthographic(half_height: f64, aspect: f64, near: f64, far: f64) -> Mat4 {
        let half_width = half_height * aspect;
        let (zn, zf) = (-near, -far);
        let mut out = Mat4::identity();
        out.m[0][0] = 1.0 / half_width;
        out.m[1][1] = 1.0 / half_height;
        out.m[2][2] = 2.0 / (zf - zn);
        out.m[2][3] = -(zf + zn) / (zf - zn);
        out
    }

    /// Matrix product `self * other`.
    pub fn mul_mat(&self, other: &Mat4) -> Mat4 {
        let mut out = Mat4 { m: [[0.0; 4]; 4] };
        for i in 0..4 {
            for j in 0..4 {
                out.m[i][j] = (0..4).map(|k| self.m[i][k] * other.m[k][j]).sum();
            }
        }
        out
    }

    /// Transforms a point (w = 1) with perspective division.
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        let (x, y, z) = (p.x, p.y, p.z);
        let tx = self.m[0][0] * x + self.m[0][1] * y + self.m[0][2] * z + self.m[0][3];
        let ty = self.m[1][0] * x + self.m[1][1] * y + self.m[1][2] * z + self.m[1][3];
        let tz = self.m[2][0] * x + self.m[2][1] * y + self.m[2][2] * z + self.m[2][3];
        let tw = self.m[3][0] * x + self.m[3][1] * y + self.m[3][2] * z + self.m[3][3];
        if (tw - 1.0).abs() < 1e-12 || tw.abs() < 1e-12 {
            Vec3::new(tx, ty, tz)
        } else {
            Vec3::new(tx / tw, ty / tw, tz / tw)
        }
    }

    /// Transforms a point returning the homogeneous w (needed by clipping).
    pub fn transform_point4(&self, p: Vec3) -> (Vec3, f64) {
        let (x, y, z) = (p.x, p.y, p.z);
        let tx = self.m[0][0] * x + self.m[0][1] * y + self.m[0][2] * z + self.m[0][3];
        let ty = self.m[1][0] * x + self.m[1][1] * y + self.m[1][2] * z + self.m[1][3];
        let tz = self.m[2][0] * x + self.m[2][1] * y + self.m[2][2] * z + self.m[2][3];
        let tw = self.m[3][0] * x + self.m[3][1] * y + self.m[3][2] * z + self.m[3][3];
        (Vec3::new(tx, ty, tz), tw)
    }

    /// General 4×4 inverse by Gauss–Jordan elimination with partial
    /// pivoting. Returns `None` for singular matrices.
    pub fn inverse(&self) -> Option<Mat4> {
        let mut a = self.m;
        let mut inv = Mat4::identity().m;
        for col in 0..4 {
            // pivot
            let mut pivot = col;
            for row in col + 1..4 {
                if a[row][col].abs() > a[pivot][col].abs() {
                    pivot = row;
                }
            }
            if a[pivot][col].abs() < 1e-14 {
                return None;
            }
            a.swap(col, pivot);
            inv.swap(col, pivot);
            let d = a[col][col];
            for j in 0..4 {
                a[col][j] /= d;
                inv[col][j] /= d;
            }
            for row in 0..4 {
                if row != col {
                    let f = a[row][col];
                    for j in 0..4 {
                        a[row][j] -= f * a[col][j];
                        inv[row][j] -= f * inv[col][j];
                    }
                }
            }
        }
        Some(Mat4 { m: inv })
    }

    /// Transforms a direction (w = 0, no translation).
    pub(crate) fn transform_vector(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y + self.m[0][2] * v.z,
            self.m[1][0] * v.x + self.m[1][1] * v.y + self.m[1][2] * v.z,
            self.m[2][0] * v.x + self.m[2][1] * v.y + self.m[2][2] * v.z,
        )
    }
}

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    pub min: Vec3,
    pub max: Vec3,
}

impl Bounds {
    /// An empty (inverted) bounds ready to be grown.
    pub(crate) fn empty() -> Bounds {
        Bounds {
            min: Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
            max: Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Expands to include `p`.
    pub(crate) fn include(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Expands to include another bounds.
    pub(crate) fn union(&mut self, o: &Bounds) {
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    /// True if no point was ever included.
    pub(crate) fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    /// Geometric centre.
    pub(crate) fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Length of the diagonal.
    pub fn diagonal(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.max - self.min).length()
        }
    }

    /// Ray / box intersection (slab method): returns `(t_near, t_far)` along
    /// `origin + t·dir`, or `None` when the ray misses.
    pub fn ray_intersect(&self, origin: Vec3, dir: Vec3) -> Option<(f64, f64)> {
        let mut t0 = f64::NEG_INFINITY;
        let mut t1 = f64::INFINITY;
        for (o, d, lo, hi) in [
            (origin.x, dir.x, self.min.x, self.max.x),
            (origin.y, dir.y, self.min.y, self.max.y),
            (origin.z, dir.z, self.min.z, self.max.z),
        ] {
            if d.abs() < 1e-12 {
                if o < lo || o > hi {
                    return None;
                }
            } else {
                let (mut a, mut b) = ((lo - o) / d, (hi - o) / d);
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                t0 = t0.max(a);
                t1 = t1.min(b);
                if t0 > t1 {
                    return None;
                }
            }
        }
        Some((t0, t1))
    }
}

#[cfg(test)]
impl Mat4 {
    /// A translation matrix.
    pub(crate) fn translate(t: Vec3) -> Mat4 {
        let mut out = Mat4::identity();
        out.m[0][3] = t.x;
        out.m[1][3] = t.y;
        out.m[2][3] = t.z;
        out
    }

    /// A non-uniform scale matrix.
    pub(crate) fn scale(s: Vec3) -> Mat4 {
        let mut out = Mat4::identity();
        out.m[0][0] = s.x;
        out.m[1][1] = s.y;
        out.m[2][2] = s.z;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Vec3, b: Vec3) -> bool {
        (a - b).length() < 1e-9
    }

    #[test]
    fn vector_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a.dot(b), 32.0);
        assert!(close(a.cross(b), Vec3::new(-3.0, 6.0, -3.0)));
        assert!((Vec3::new(3.0, 4.0, 0.0).length() - 5.0).abs() < 1e-12);
        assert!(close(Vec3::new(10.0, 0.0, 0.0).normalized(), Vec3::new(1.0, 0.0, 0.0)));
        assert!(close(Vec3::ZERO.normalized(), Vec3::ZERO));
        assert!(close(a.lerp(b, 0.5), Vec3::new(2.5, 3.5, 4.5)));
    }

    #[test]
    fn matrix_identity_and_translate() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert!(close(Mat4::identity().transform_point(p), p));
        let t = Mat4::translate(Vec3::new(1.0, 0.0, -1.0));
        assert!(close(t.transform_point(p), Vec3::new(2.0, 2.0, 2.0)));
        // directions ignore translation
        assert!(close(t.transform_vector(p), p));
    }

    #[test]
    fn rotation_quarter_turn() {
        let r = Mat4::rotate(Vec3::new(0.0, 0.0, 1.0), std::f64::consts::FRAC_PI_2);
        assert!(close(r.transform_point(Vec3::new(1.0, 0.0, 0.0)), Vec3::new(0.0, 1.0, 0.0)));
    }

    #[test]
    fn matrix_product_order() {
        let t = Mat4::translate(Vec3::new(1.0, 0.0, 0.0));
        let s = Mat4::scale(Vec3::new(2.0, 2.0, 2.0));
        // (t * s) p = t(s(p))
        let p = Vec3::new(1.0, 1.0, 1.0);
        assert!(close(t.mul_mat(&s).transform_point(p), Vec3::new(3.0, 2.0, 2.0)));
        assert!(close(s.mul_mat(&t).transform_point(p), Vec3::new(4.0, 2.0, 2.0)));
    }

    #[test]
    fn look_at_maps_center_to_minus_z() {
        let eye = Vec3::new(0.0, 0.0, 5.0);
        let v = Mat4::look_at(eye, Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0));
        let c = v.transform_point(Vec3::ZERO);
        assert!(close(c, Vec3::new(0.0, 0.0, -5.0)));
        // eye maps to origin
        assert!(close(v.transform_point(eye), Vec3::ZERO));
    }

    #[test]
    fn perspective_depth_ordering() {
        let proj = Mat4::perspective(1.0, 1.0, 0.1, 100.0);
        let near = proj.transform_point(Vec3::new(0.0, 0.0, -0.1));
        let far = proj.transform_point(Vec3::new(0.0, 0.0, -100.0));
        assert!((near.z + 1.0).abs() < 1e-9);
        assert!((far.z - 1.0).abs() < 1e-9);
    }

    #[test]
    fn orthographic_maps_extents() {
        let proj = Mat4::orthographic(2.0, 2.0, 0.1, 10.0);
        let p = proj.transform_point(Vec3::new(4.0, 2.0, -10.0));
        assert!((p.x - 1.0).abs() < 1e-12);
        assert!((p.y - 1.0).abs() < 1e-12);
        assert!((p.z - 1.0).abs() < 1e-12);
        let n = proj.transform_point(Vec3::new(0.0, 0.0, -0.1));
        assert!((n.z + 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_roundtrips() {
        let m = Mat4::translate(Vec3::new(1.0, -2.0, 3.0))
            .mul_mat(&Mat4::rotate(Vec3::new(1.0, 1.0, 0.0), 0.7))
            .mul_mat(&Mat4::scale(Vec3::new(2.0, 3.0, 0.5)));
        let inv = m.inverse().unwrap();
        let id = m.mul_mat(&inv);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((id.m[i][j] - expect).abs() < 1e-10, "({i},{j}) = {}", id.m[i][j]);
            }
        }
        // perspective matrices invert too
        let p = Mat4::perspective(1.0, 1.3, 0.1, 50.0);
        assert!(p.inverse().is_some());
        // singular matrix
        let z = Mat4::scale(Vec3::new(0.0, 1.0, 1.0));
        assert!(z.inverse().is_none());
    }

    #[test]
    fn bounds_growth_and_queries() {
        let mut b = Bounds::empty();
        assert!(b.is_empty());
        b.include(Vec3::new(0.0, 0.0, 0.0));
        b.include(Vec3::new(2.0, 4.0, 4.0));
        assert!(!b.is_empty());
        assert!(close(b.center(), Vec3::new(1.0, 2.0, 2.0)));
        assert!((b.diagonal() - 6.0).abs() < 1e-12);
        let mut c = Bounds::empty();
        c.include(Vec3::new(-1.0, 0.0, 0.0));
        b.union(&c);
        assert_eq!(b.min.x, -1.0);
    }

    #[test]
    fn ray_box_intersection() {
        let mut b = Bounds::empty();
        b.include(Vec3::ZERO);
        b.include(Vec3::new(1.0, 1.0, 1.0));
        let (t0, t1) = b
            .ray_intersect(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0))
            .unwrap();
        assert!((t0 - 1.0).abs() < 1e-12);
        assert!((t1 - 2.0).abs() < 1e-12);
        assert!(b
            .ray_intersect(Vec3::new(-1.0, 2.0, 0.5), Vec3::new(1.0, 0.0, 0.0))
            .is_none());
        // parallel ray inside the slab
        assert!(b
            .ray_intersect(Vec3::new(0.5, 0.5, -5.0), Vec3::new(0.0, 0.0, 1.0))
            .is_some());
    }
}
