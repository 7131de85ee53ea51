//! Directional lights for diffuse surface shading.

use crate::color::Color;
use crate::math::Vec3;

/// A directional light.
#[derive(Debug, Clone, PartialEq)]
pub struct Light {
    /// Direction the light *travels* (from light toward scene).
    pub direction: Vec3,
    /// Light color.
    pub color: Color,
    /// Scalar intensity multiplier.
    pub intensity: f32,
}

impl Light {
    /// A white headlight-style light travelling along `direction`.
    pub(crate) fn directional(direction: Vec3) -> Light {
        Light { direction: direction.normalized(), color: Color::WHITE, intensity: 1.0 }
    }

    /// The per-light constants of [`Light::diffuse`], evaluated once so a
    /// per-vertex loop does not re-normalise the light's own direction.
    pub(crate) fn incident(&self) -> IncidentLight {
        IncidentLight { toward: -self.direction.normalized(), intensity: self.intensity }
    }
}

/// A light reduced to the unit vector pointing back at it and its
/// intensity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IncidentLight {
    toward: Vec3,
    intensity: f32,
}

impl IncidentLight {
    /// Lambertian diffuse factor for an already-normalised normal.
    pub(crate) fn diffuse(&self, unit_normal: Vec3) -> f32 {
        (unit_normal.dot(self.toward).abs() as f32) * self.intensity
    }
}

impl Default for Light {
    fn default() -> Light {
        Light::directional(Vec3::new(-0.4, 0.5, -0.8))
    }
}
