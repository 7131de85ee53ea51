//! The camera: position/focal-point/view-up plus the interactive navigation
//! operations (azimuth, elevation, dolly, zoom, roll, pan) that DV3D binds
//! to mouse drags and propagates across spreadsheet cells.

use crate::math::{Bounds, Mat4, Vec3};

/// A perspective or parallel camera.
#[derive(Debug, Clone, PartialEq)]
pub struct Camera {
    /// Eye position.
    pub position: Vec3,
    /// Look-at point.
    pub focal_point: Vec3,
    /// Approximate up direction (re-orthogonalized in the view matrix).
    pub view_up: Vec3,
    /// Vertical field of view in degrees (perspective).
    pub view_angle_deg: f64,
    /// Use parallel (orthographic) projection.
    pub parallel_projection: bool,
    /// Half-height of the view volume in parallel mode.
    pub parallel_scale: f64,
    /// Near/far clip distances.
    pub clipping_range: (f64, f64),
}

impl Default for Camera {
    fn default() -> Camera {
        Camera {
            position: Vec3::new(0.0, 0.0, 10.0),
            focal_point: Vec3::ZERO,
            view_up: Vec3::new(0.0, 1.0, 0.0),
            view_angle_deg: 30.0,
            parallel_projection: false,
            parallel_scale: 1.0,
            clipping_range: (0.1, 1000.0),
        }
    }
}

impl Camera {
    /// Distance from eye to focal point.
    pub fn distance(&self) -> f64 {
        (self.position - self.focal_point).length()
    }

    /// Unit vector from focal point toward the eye.
    pub(crate) fn direction_of_projection(&self) -> Vec3 {
        (self.focal_point - self.position).normalized()
    }

    /// The view matrix.
    pub fn view_matrix(&self) -> Mat4 {
        Mat4::look_at(self.position, self.focal_point, self.view_up)
    }

    /// The projection matrix for a viewport aspect ratio.
    pub fn projection_matrix(&self, aspect: f64) -> Mat4 {
        let (near, far) = self.clipping_range;
        if self.parallel_projection {
            Mat4::orthographic(self.parallel_scale, aspect, near, far)
        } else {
            Mat4::perspective(self.view_angle_deg.to_radians(), aspect, near, far)
        }
    }

    /// Positions the camera to frame `bounds` from the (+x, +y, +z) octant,
    /// VTK's reset-camera behaviour.
    pub(crate) fn reset_to_bounds(&mut self, bounds: &Bounds) {
        if bounds.is_empty() {
            return;
        }
        let center = bounds.center();
        let radius = (bounds.diagonal() / 2.0).max(1e-6);
        let dist = radius / (self.view_angle_deg.to_radians() / 2.0).sin().max(0.05);
        let dir = Vec3::new(0.35, -0.7, 0.55).normalized();
        self.focal_point = center;
        self.position = center + dir * dist;
        self.view_up = Vec3::new(0.0, 0.0, 1.0);
        self.parallel_scale = radius;
        self.clipping_range = ((dist - 2.0 * radius).max(dist * 0.01), dist + 4.0 * radius);
    }

    /// Rotates the eye about the view-up axis through the focal point.
    pub fn azimuth(&mut self, degrees: f64) {
        let rot = Mat4::rotate(self.view_up, degrees.to_radians());
        let offset = self.position - self.focal_point;
        self.position = self.focal_point + rot.transform_vector(offset);
    }

    /// Rotates the eye about the "right" axis through the focal point.
    pub fn elevation(&mut self, degrees: f64) {
        let forward = self.direction_of_projection();
        let right = forward.cross(self.view_up).normalized();
        let rot = Mat4::rotate(right, degrees.to_radians());
        let offset = self.position - self.focal_point;
        self.position = self.focal_point + rot.transform_vector(offset);
        self.view_up = rot.transform_vector(self.view_up).normalized();
    }

    /// Rolls the camera about the view direction.
    pub fn roll(&mut self, degrees: f64) {
        let rot = Mat4::rotate(self.direction_of_projection(), degrees.to_radians());
        self.view_up = rot.transform_vector(self.view_up).normalized();
    }

    /// Moves the eye toward (factor > 1) or away from the focal point.
    pub fn dolly(&mut self, factor: f64) {
        let factor = factor.max(1e-6);
        let offset = self.position - self.focal_point;
        self.position = self.focal_point + offset / factor;
        let (near, far) = self.clipping_range;
        self.clipping_range = ((near / factor).max(1e-6), far);
    }

    /// Zooms: narrows the view angle (perspective) or the parallel scale.
    pub fn zoom(&mut self, factor: f64) {
        let factor = factor.max(1e-6);
        if self.parallel_projection {
            self.parallel_scale /= factor;
        } else {
            self.view_angle_deg = (self.view_angle_deg / factor).clamp(1.0, 170.0);
        }
    }

    /// Pans both eye and focal point in view plane coordinates.
    pub fn pan(&mut self, dx: f64, dy: f64) {
        let forward = self.direction_of_projection();
        let right = forward.cross(self.view_up).normalized();
        let up = right.cross(forward).normalized();
        let offset = right * dx + up * dy;
        self.position = self.position + offset;
        self.focal_point = self.focal_point + offset;
    }

    /// A stereo eye pair: cameras displaced ±half the eye separation along
    /// the "right" axis, converged on the focal point.
    pub fn stereo_pair(&self, eye_separation: f64) -> (Camera, Camera) {
        let forward = self.direction_of_projection();
        let right = forward.cross(self.view_up).normalized();
        let mut left = self.clone();
        let mut right_cam = self.clone();
        left.position = self.position - right * (eye_separation / 2.0);
        right_cam.position = self.position + right * (eye_separation / 2.0);
        (left, right_cam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_bounds() -> Bounds {
        let mut b = Bounds::empty();
        b.include(Vec3::ZERO);
        b.include(Vec3::new(2.0, 2.0, 2.0));
        b
    }

    #[test]
    fn reset_frames_bounds() {
        let mut cam = Camera::default();
        cam.reset_to_bounds(&unit_bounds());
        assert_eq!(cam.focal_point, Vec3::new(1.0, 1.0, 1.0));
        assert!(cam.distance() > unit_bounds().diagonal());
        let (near, far) = cam.clipping_range;
        assert!(near > 0.0 && far > near);
        // empty bounds is a no-op
        let before = cam.clone();
        cam.reset_to_bounds(&Bounds::empty());
        assert_eq!(cam, before);
    }

    #[test]
    fn azimuth_preserves_distance_and_focal() {
        let mut cam = Camera::default();
        cam.reset_to_bounds(&unit_bounds());
        let d0 = cam.distance();
        let f0 = cam.focal_point;
        cam.azimuth(37.0);
        assert!((cam.distance() - d0).abs() < 1e-9);
        assert_eq!(cam.focal_point, f0);
        // 360° returns home
        let p = cam.position;
        cam.azimuth(360.0);
        assert!((cam.position - p).length() < 1e-9);
    }

    #[test]
    fn elevation_preserves_distance_and_orthogonality() {
        let mut cam = Camera::default();
        cam.reset_to_bounds(&unit_bounds());
        let d0 = cam.distance();
        cam.elevation(25.0);
        assert!((cam.distance() - d0).abs() < 1e-9);
        // view_up stays a unit vector
        assert!((cam.view_up.length() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dolly_scales_distance() {
        let mut cam = Camera::default();
        let d0 = cam.distance();
        cam.dolly(2.0);
        assert!((cam.distance() - d0 / 2.0).abs() < 1e-9);
        cam.dolly(0.5);
        assert!((cam.distance() - d0).abs() < 1e-9);
    }

    #[test]
    fn zoom_perspective_vs_parallel() {
        let mut cam = Camera::default();
        let a0 = cam.view_angle_deg;
        cam.zoom(2.0);
        assert!((cam.view_angle_deg - a0 / 2.0).abs() < 1e-9);
        cam.parallel_projection = true;
        cam.parallel_scale = 4.0;
        cam.zoom(2.0);
        assert!((cam.parallel_scale - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pan_moves_both_points() {
        let mut cam = Camera::default();
        let f0 = cam.focal_point;
        let p0 = cam.position;
        cam.pan(1.0, 2.0);
        assert!((cam.focal_point - f0).length() > 0.0);
        // eye and focal move in lockstep
        assert!(((cam.position - p0) - (cam.focal_point - f0)).length() < 1e-12);
    }

    #[test]
    fn roll_only_changes_up() {
        let mut cam = Camera::default();
        let p0 = cam.position;
        cam.roll(90.0);
        assert_eq!(cam.position, p0);
        // view direction is -z, so +90° roll about it takes +y to +x
        assert!((cam.view_up - Vec3::new(1.0, 0.0, 0.0)).length() < 1e-9);
    }

    #[test]
    fn stereo_pair_separated_along_right_axis() {
        let cam = Camera::default();
        let (l, r) = cam.stereo_pair(0.4);
        assert!(((l.position - r.position).length() - 0.4).abs() < 1e-12);
        assert_eq!(l.focal_point, r.focal_point);
    }

    #[test]
    fn view_matrix_centers_focal_point() {
        let mut cam = Camera::default();
        cam.reset_to_bounds(&unit_bounds());
        let v = cam.view_matrix().transform_point(cam.focal_point);
        assert!(v.x.abs() < 1e-9 && v.y.abs() < 1e-9);
        assert!(v.z < 0.0); // in front of the camera (-z)
    }
}
