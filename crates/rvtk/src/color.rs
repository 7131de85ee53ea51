//! RGBA colors with float components in `[0, 1]`.

/// An RGBA color.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Color {
    pub r: f32,
    pub g: f32,
    pub b: f32,
    pub a: f32,
}

impl Color {
    /// An opaque RGB color.
    pub const fn rgb(r: f32, g: f32, b: f32) -> Color {
        Color { r, g, b, a: 1.0 }
    }

    /// An RGBA color.
    pub const fn rgba(r: f32, g: f32, b: f32, a: f32) -> Color {
        Color { r, g, b, a }
    }

    pub const BLACK: Color = Color::rgb(0.0, 0.0, 0.0);
    pub const WHITE: Color = Color::rgb(1.0, 1.0, 1.0);
    pub const RED: Color = Color::rgb(1.0, 0.0, 0.0);
    pub const GREEN: Color = Color::rgb(0.0, 1.0, 0.0);
    pub const BLUE: Color = Color::rgb(0.0, 0.0, 1.0);
    /// Fully transparent black.
    pub const TRANSPARENT: Color = Color::rgba(0.0, 0.0, 0.0, 0.0);

    /// Linear interpolation between two colors (component-wise, incl. alpha).
    pub fn lerp(self, o: Color, t: f32) -> Color {
        let t = t.clamp(0.0, 1.0);
        Color {
            r: self.r + (o.r - self.r) * t,
            g: self.g + (o.g - self.g) * t,
            b: self.b + (o.b - self.b) * t,
            a: self.a + (o.a - self.a) * t,
        }
    }

    /// Multiplies RGB by `k`, leaving alpha (diffuse shading).
    pub fn scaled(self, k: f32) -> Color {
        Color { r: self.r * k, g: self.g * k, b: self.b * k, a: self.a }
    }

    /// Clamps all components to `[0, 1]`.
    pub fn clamped(self) -> Color {
        Color {
            r: self.r.clamp(0.0, 1.0),
            g: self.g.clamp(0.0, 1.0),
            b: self.b.clamp(0.0, 1.0),
            a: self.a.clamp(0.0, 1.0),
        }
    }

    /// Packs to 8-bit RGBA: per channel `(v.clamp(0.0, 1.0) * 255.0 +
    /// 0.5) as u8`, bit for bit (see `quantize` in this module).
    pub fn to_u8(self) -> [u8; 4] {
        [quantize(self.r), quantize(self.g), quantize(self.b), quantize(self.a)]
    }

    /// Unpacks from 8-bit RGBA.
    pub fn from_u8(c: [u8; 4]) -> Color {
        Color {
            r: c[0] as f32 / 255.0,
            g: c[1] as f32 / 255.0,
            b: c[2] as f32 / 255.0,
            a: c[3] as f32 / 255.0,
        }
    }

    /// "Over" alpha compositing: `self` drawn over `dst`.
    pub fn over(self, dst: Color) -> Color {
        let a = self.a + dst.a * (1.0 - self.a);
        if a <= 0.0 {
            return Color::TRANSPARENT;
        }
        Color {
            r: (self.r * self.a + dst.r * dst.a * (1.0 - self.a)) / a,
            g: (self.g * self.a + dst.g * dst.a * (1.0 - self.a)) / a,
            b: (self.b * self.a + dst.b * dst.a * (1.0 - self.a)) / a,
            a,
        }
    }

    /// Perceptual luminance (Rec. 709).
    pub fn luminance(self) -> f32 {
        0.2126 * self.r + 0.7152 * self.g + 0.0722 * self.b
    }
}

/// One channel of [`Color::to_u8`]: `(v.clamp(0.0, 1.0) * 255.0 + 0.5) as
/// u8` for every `f32`, NaN included (an exhaustive test holds it to that
/// expression), without the saturating float-to-int cast, whose range and
/// NaN checks cost about as much as the rest of a frame's quantization.
///
/// `t = c · 255` is the expression's own product, in `[0, 255]`. Adding 2²³
/// rounds it to the nearest integer `k` (ties to even), exactly, into the
/// low mantissa bits of the sum. As `|t − k| ≤ ½`, the expression's
/// `fl(t + ½)` lies in `[k, k + 1]` (rounding is monotone and both ends are
/// floats), so it truncates to `k`, or to `k + 1` when it reaches `k + 1`.
/// NaN fails `v > 0` and comes out 0, as the cast makes it.
#[inline]
fn quantize(v: f32) -> u8 {
    const MAGIC: f32 = 8_388_608.0;
    let c = if v > 0.0 { v.min(1.0) } else { 0.0 };
    let t = c * 255.0;
    let r = t + MAGIC;
    // the low byte of the sum's bits is `k`, which is at most 255, and
    // `k + 1` is reached only below `t = 255`
    (r.to_bits() as u8).wrapping_add(u8::from(t + 0.5 >= (r - MAGIC) + 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition [`quantize`] is held to.
    fn clamp_scale_round(v: f32) -> u8 {
        (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u8
    }

    #[test]
    fn quantize_is_the_definition_at_every_level_boundary_and_special() {
        let mut inputs: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
        ];
        // NaNs of both signs, quiet and signalling, with payloads whose low
        // byte is set
        for sign in [0u32, 0x8000_0000] {
            for payload in [1u32, 0xff, 0x3f_ffff, 0x40_0000, 0x40_00ff, 0x7f_ffff] {
                inputs.push(f32::from_bits(sign | 0x7f80_0000 | payload));
            }
        }
        // 256 ulps either side of every input whose `c · 255` is a level or
        // a half level: the ties and near-ties of both roundings
        for half in 0..=510u32 {
            let centre = (half as f32 / 2.0 / 255.0).to_bits() as i64;
            for d in -256..=256i64 {
                inputs.push(f32::from_bits((centre + d).clamp(0, u32::MAX as i64) as u32));
            }
        }
        // and every 65 521st bit pattern
        inputs.extend((0..=u32::MAX).step_by(65_521).map(f32::from_bits));
        for v in inputs {
            assert_eq!(quantize(v), clamp_scale_round(v), "{v:?} ({:#010x})", v.to_bits());
        }
    }

    /// Every `f32`: ≈ 6 s in a release build on two cores.
    /// `cargo test --release -p rvtk quantize_is_the_definition_for_every_f32 -- --ignored`
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run with --release -- --ignored"]
    fn quantize_is_the_definition_for_every_f32() {
        let quarter = 1u64 << 30;
        std::thread::scope(|s| {
            for part in 0..4u64 {
                s.spawn(move || {
                    for bits in part * quarter..(part + 1) * quarter {
                        let v = f32::from_bits(bits as u32);
                        assert_eq!(quantize(v), clamp_scale_round(v), "{bits:#010x}");
                    }
                });
            }
        });
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let c = Color::rgba(0.25, 0.5, 0.75, 1.0);
        let u = c.to_u8();
        assert_eq!(u, [64, 128, 191, 255]);
        let back = Color::from_u8(u);
        assert!((back.r - 0.25).abs() < 0.01);
        assert!((back.b - 0.75).abs() < 0.01);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Color::BLACK;
        let b = Color::WHITE;
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert!((mid.r - 0.5).abs() < 1e-6);
        // t is clamped
        assert_eq!(a.lerp(b, 2.0), b);
    }

    #[test]
    fn over_compositing() {
        // opaque over anything = itself
        assert_eq!(Color::RED.over(Color::BLUE), Color::RED);
        // 50% red over opaque blue
        let c = Color::rgba(1.0, 0.0, 0.0, 0.5).over(Color::BLUE);
        assert!((c.r - 0.5).abs() < 1e-6);
        assert!((c.b - 0.5).abs() < 1e-6);
        assert!((c.a - 1.0).abs() < 1e-6);
        // transparent over transparent
        assert_eq!(Color::TRANSPARENT.over(Color::TRANSPARENT), Color::TRANSPARENT);
    }

    #[test]
    fn shading_helpers() {
        let c = Color::rgb(0.5, 0.5, 0.5).scaled(2.0);
        assert_eq!(c.r, 1.0);
        assert_eq!(c.clamped().r, 1.0);
        assert_eq!(Color::rgb(2.0, -1.0, 0.5).clamped(), Color::rgb(1.0, 0.0, 0.5));
        assert!((Color::WHITE.luminance() - 1.0).abs() < 1e-6);
        assert!(Color::GREEN.luminance() > Color::BLUE.luminance());
    }
}
