//! Scalar→color lookup tables and transfer functions.
//!
//! [`LookupTable`] maps a scalar range onto a named colormap — the
//! "colormap" every DV3D plot exposes. [`ColorTransferFunction`] and
//! [`OpacityTransferFunction`] are the piecewise-linear functions volume
//! rendering uses; DV3D's interactive "leveling" operation reshapes the
//! opacity function with mouse drags.

use crate::color::Color;

/// Named colormaps (matched to the maps UV-CDAT ships).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColormapName {
    /// Blue→cyan→green→yellow→red.
    #[default]
    Jet,
    /// Perceptually uniform dark-blue→green→yellow (viridis approximation).
    Viridis,
    /// Diverging blue→white→red.
    CoolWarm,
    /// Black→white.
    Grayscale,
    /// Full-hue rainbow.
    Rainbow,
    /// Yellow→orange→red (sequential heat).
    Hot,
}

impl ColormapName {
    /// Parses a case-insensitive colormap name.
    pub fn parse(s: &str) -> Option<ColormapName> {
        Some(match s.to_ascii_lowercase().as_str() {
            "jet" => ColormapName::Jet,
            "viridis" => ColormapName::Viridis,
            "coolwarm" | "cool_warm" => ColormapName::CoolWarm,
            "grayscale" | "greyscale" | "gray" | "grey" => ColormapName::Grayscale,
            "rainbow" => ColormapName::Rainbow,
            "hot" => ColormapName::Hot,
            _ => return None,
        })
    }

    /// Control points `(t, color)` of the map, t in `[0, 1]` ascending.
    fn control_points(&self) -> Vec<(f32, Color)> {
        match self {
            ColormapName::Jet => vec![
                (0.0, Color::rgb(0.0, 0.0, 0.5)),
                (0.125, Color::rgb(0.0, 0.0, 1.0)),
                (0.375, Color::rgb(0.0, 1.0, 1.0)),
                (0.625, Color::rgb(1.0, 1.0, 0.0)),
                (0.875, Color::rgb(1.0, 0.0, 0.0)),
                (1.0, Color::rgb(0.5, 0.0, 0.0)),
            ],
            ColormapName::Viridis => vec![
                (0.0, Color::rgb(0.267, 0.005, 0.329)),
                (0.25, Color::rgb(0.229, 0.322, 0.546)),
                (0.5, Color::rgb(0.128, 0.567, 0.551)),
                (0.75, Color::rgb(0.369, 0.789, 0.383)),
                (1.0, Color::rgb(0.993, 0.906, 0.144)),
            ],
            ColormapName::CoolWarm => vec![
                (0.0, Color::rgb(0.23, 0.30, 0.75)),
                (0.5, Color::rgb(0.87, 0.87, 0.87)),
                (1.0, Color::rgb(0.71, 0.02, 0.15)),
            ],
            ColormapName::Grayscale => {
                vec![(0.0, Color::BLACK), (1.0, Color::WHITE)]
            }
            ColormapName::Rainbow => vec![
                (0.0, Color::rgb(1.0, 0.0, 1.0)),
                (0.2, Color::rgb(0.0, 0.0, 1.0)),
                (0.4, Color::rgb(0.0, 1.0, 1.0)),
                (0.6, Color::rgb(0.0, 1.0, 0.0)),
                (0.8, Color::rgb(1.0, 1.0, 0.0)),
                (1.0, Color::rgb(1.0, 0.0, 0.0)),
            ],
            ColormapName::Hot => vec![
                (0.0, Color::BLACK),
                (0.4, Color::rgb(1.0, 0.0, 0.0)),
                (0.8, Color::rgb(1.0, 1.0, 0.0)),
                (1.0, Color::WHITE),
            ],
        }
    }
}

/// A scalar→color lookup table over a scalar range.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupTable {
    /// Precomputed table entries.
    table: Vec<Color>,
    /// Mapped scalar range `(min, max)`.
    pub range: (f32, f32),
    /// Color for NaN / missing scalars.
    pub nan_color: Color,
    /// Which map this table was built from.
    pub name: ColormapName,
    /// Whether the map is inverted.
    pub inverted: bool,
}

impl LookupTable {
    /// Builds a 256-entry table from a named map over `range`.
    pub fn new(name: ColormapName, range: (f32, f32)) -> LookupTable {
        Self::with_resolution(name, range, 256, false)
    }

    /// Builds a table with explicit resolution and inversion.
    pub fn with_resolution(
        name: ColormapName,
        range: (f32, f32),
        resolution: usize,
        inverted: bool,
    ) -> LookupTable {
        let pts = name.control_points();
        let resolution = resolution.max(2);
        let mut table = Vec::with_capacity(resolution);
        for i in 0..resolution {
            let mut t = i as f32 / (resolution - 1) as f32;
            if inverted {
                t = 1.0 - t;
            }
            table.push(sample_control_points(&pts, t));
        }
        LookupTable {
            table,
            range,
            nan_color: Color::rgba(0.35, 0.35, 0.35, 1.0),
            name,
            inverted,
        }
    }

    /// Maps a scalar to a color; NaN maps to `nan_color`, out-of-range
    /// clamps to the ends.
    pub fn map(&self, v: f32) -> Color {
        if v.is_nan() {
            return self.nan_color;
        }
        let (lo, hi) = self.range;
        let t = if hi > lo { ((v - lo) / (hi - lo)).clamp(0.0, 1.0) } else { 0.5 };
        let idx = (t * (self.table.len() - 1) as f32 + 0.5) as usize;
        self.table[idx.min(self.table.len() - 1)]
    }

    /// Rescales to a new range, keeping the colors.
    pub fn set_range(&mut self, range: (f32, f32)) {
        self.range = range;
    }
}

impl Default for LookupTable {
    fn default() -> LookupTable {
        LookupTable::new(ColormapName::Jet, (0.0, 1.0))
    }
}

fn sample_control_points(pts: &[(f32, Color)], t: f32) -> Color {
    let t = t.clamp(0.0, 1.0);
    let Some(&(first_t, first_c)) = pts.first() else { return Color::BLACK };
    if t <= first_t {
        return first_c;
    }
    for w in pts.windows(2) {
        let (t0, c0) = w[0];
        let (t1, c1) = w[1];
        if t <= t1 {
            let f = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
            return c0.lerp(c1, f);
        }
    }
    pts.last().map_or(Color::BLACK, |&(_, c)| c)
}

/// A piecewise-linear scalar→color transfer function (volume rendering).
#[derive(Debug, Clone, PartialEq)]
pub struct ColorTransferFunction {
    /// `(scalar, color)` nodes, scalar ascending.
    nodes: Vec<(f32, Color)>,
}

impl ColorTransferFunction {
    /// From a named colormap stretched over `range`; a range given high to
    /// low runs the map backwards (an inverted colormap).
    pub fn from_colormap(name: ColormapName, range: (f32, f32)) -> ColorTransferFunction {
        let pts = name.control_points();
        let mut nodes: Vec<(f32, Color)> = pts
            .into_iter()
            .map(|(t, c)| (range.0 + t * (range.1 - range.0), c))
            .collect();
        if range.1 < range.0 {
            nodes.reverse();
        }
        ColorTransferFunction { nodes }
    }

    /// The scalars of the first and last nodes (`None` without nodes):
    /// the function is constant outside them.
    pub(crate) fn span(&self) -> Option<(f32, f32)> {
        Some((self.nodes.first()?.0, self.nodes.last()?.0))
    }

    /// Evaluates the function at `v` (clamped to the node range).
    pub fn map(&self, v: f32) -> Color {
        if self.nodes.is_empty() {
            return Color::WHITE;
        }
        if v <= self.nodes[0].0 {
            return self.nodes[0].1;
        }
        for w in self.nodes.windows(2) {
            if v <= w[1].0 {
                let (v0, c0) = w[0];
                let (v1, c1) = w[1];
                let f = if v1 > v0 { (v - v0) / (v1 - v0) } else { 0.0 };
                return c0.lerp(c1, f);
            }
        }
        self.nodes.last().map_or(Color::WHITE, |&(_, c)| c)
    }
}

/// A piecewise-linear scalar→opacity transfer function.
///
/// DV3D's signature interaction is *leveling*: the window/level pair
/// `(window, level)` defines a linear ramp from 0 at `level - window/2` to
/// `max_opacity` at `level + window/2`; dragging the mouse adjusts both.
#[derive(Debug, Clone, PartialEq)]
pub struct OpacityTransferFunction {
    /// `(scalar, opacity)` nodes, scalar ascending.
    nodes: Vec<(f32, f32)>,
}

impl OpacityTransferFunction {
    /// From explicit nodes (sorted internally, opacities clamped).
    pub(crate) fn from_nodes(mut nodes: Vec<(f32, f32)>) -> OpacityTransferFunction {
        for n in &mut nodes {
            n.1 = n.1.clamp(0.0, 1.0);
        }
        nodes.sort_by(|a, b| a.0.total_cmp(&b.0));
        OpacityTransferFunction { nodes }
    }

    /// The DV3D leveling ramp: opacity 0 below `level - window/2`, rising
    /// linearly to `max_opacity` at `level + window/2`.
    pub fn leveling(level: f32, window: f32, max_opacity: f32) -> OpacityTransferFunction {
        let half = (window.abs() / 2.0).max(1e-6);
        OpacityTransferFunction::from_nodes(vec![
            (level - half, 0.0),
            (level + half, max_opacity.clamp(0.0, 1.0)),
        ])
    }

    /// The scalars of the first and last nodes (`None` without nodes):
    /// the function is constant outside them.
    pub(crate) fn span(&self) -> Option<(f32, f32)> {
        Some((self.nodes.first()?.0, self.nodes.last()?.0))
    }

    /// Evaluates the opacity at `v` (clamped to the node range).
    pub fn map(&self, v: f32) -> f32 {
        if self.nodes.is_empty() {
            return 1.0;
        }
        if v <= self.nodes[0].0 {
            return self.nodes[0].1;
        }
        for w in self.nodes.windows(2) {
            if v <= w[1].0 {
                let (v0, a0) = w[0];
                let (v1, a1) = w[1];
                let f = if v1 > v0 { (v - v0) / (v1 - v0) } else { 0.0 };
                return a0 + (a1 - a0) * f;
            }
        }
        self.nodes.last().map_or(1.0, |&(_, a)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colormap_name_parsing() {
        assert_eq!(ColormapName::parse("JET"), Some(ColormapName::Jet));
        assert_eq!(ColormapName::parse("grey"), Some(ColormapName::Grayscale));
        assert_eq!(ColormapName::parse("plasma"), None);
    }

    #[test]
    fn jet_endpoints() {
        let lut = LookupTable::new(ColormapName::Jet, (0.0, 1.0));
        let lo = lut.map(0.0);
        let hi = lut.map(1.0);
        assert!(lo.b > 0.4 && lo.r < 0.01, "low end should be dark blue: {lo:?}");
        assert!(hi.r > 0.4 && hi.b < 0.01, "high end should be dark red: {hi:?}");
    }

    #[test]
    fn out_of_range_clamps_and_nan_maps_to_nan_color() {
        let lut = LookupTable::new(ColormapName::Grayscale, (0.0, 10.0));
        assert_eq!(lut.map(-5.0), Color::BLACK);
        assert_eq!(lut.map(50.0), Color::WHITE);
        assert_eq!(lut.map(f32::NAN), lut.nan_color);
    }

    #[test]
    fn degenerate_range_maps_to_middle() {
        let lut = LookupTable::new(ColormapName::Grayscale, (5.0, 5.0));
        let c = lut.map(5.0);
        assert!((c.r - 0.5).abs() < 0.01);
    }

    #[test]
    fn grayscale_is_monotone_in_luminance() {
        let lut = LookupTable::new(ColormapName::Grayscale, (0.0, 1.0));
        let mut prev = -1.0f32;
        for i in 0..=20 {
            let v = i as f32 / 20.0;
            let lum = lut.map(v).luminance();
            assert!(lum >= prev - 1e-6);
            prev = lum;
        }
    }

    #[test]
    fn viridis_is_roughly_monotone_in_luminance() {
        let lut = LookupTable::new(ColormapName::Viridis, (0.0, 1.0));
        let lo = lut.map(0.0).luminance();
        let mid = lut.map(0.5).luminance();
        let hi = lut.map(1.0).luminance();
        assert!(lo < mid && mid < hi);
    }

    #[test]
    fn ctf_from_colormap_spans_range() {
        let ctf = ColorTransferFunction::from_colormap(ColormapName::Grayscale, (100.0, 200.0));
        assert_eq!(ctf.map(100.0), Color::BLACK);
        assert_eq!(ctf.map(200.0), Color::WHITE);
        assert!((ctf.map(150.0).r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ctf_from_a_reversed_range_inverts_the_map() {
        let ctf = ColorTransferFunction::from_colormap(ColormapName::Jet, (200.0, 100.0));
        let lut = LookupTable::with_resolution(ColormapName::Jet, (100.0, 200.0), 256, true);
        assert_eq!(ctf.map(100.0), lut.map(100.0));
        assert_eq!(ctf.map(200.0), lut.map(200.0));
        assert_eq!(ctf.map(50.0), ctf.map(100.0));
        let forward = ColorTransferFunction::from_colormap(ColormapName::Jet, (100.0, 200.0));
        for v in [100.0, 112.5, 150.0, 180.0, 200.0] {
            assert_eq!(ctf.map(v), forward.map(300.0 - v), "at {v}");
        }
    }

    #[test]
    fn otf_leveling_ramp() {
        let otf = OpacityTransferFunction::leveling(10.0, 4.0, 0.8);
        assert_eq!(otf.map(0.0), 0.0);
        assert_eq!(otf.map(8.0), 0.0);
        assert!((otf.map(10.0) - 0.4).abs() < 1e-6);
        assert!((otf.map(12.0) - 0.8).abs() < 1e-6);
        assert!((otf.map(100.0) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn otf_nodes_sorted_and_clamped() {
        let otf = OpacityTransferFunction::from_nodes(vec![(5.0, 2.0), (0.0, -1.0)]);
        assert_eq!(otf.map(0.0), 0.0);
        assert_eq!(otf.map(5.0), 1.0);
        // empty function is fully opaque
        let empty = OpacityTransferFunction::from_nodes(vec![]);
        assert_eq!(empty.map(3.0), 1.0);
    }
}
