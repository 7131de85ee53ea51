//! Bitmap-font annotations: on-screen labels, value readouts and colorbar
//! legends — the 2D overlay layer of a DV3D cell.

use crate::color::Color;
use crate::lookup_table::LookupTable;
use crate::render::framebuffer::Framebuffer;

/// Glyph height in pixels (at scale 1).
pub const GLYPH_HEIGHT: usize = 7;
/// Glyph width in pixels (at scale 1), excluding the 1px advance gap.
pub(crate) const GLYPH_WIDTH: usize = 5;

/// 5×7 glyph bitmaps: each row is 5 bits, MSB = leftmost pixel.
fn glyph(c: char) -> [u8; 7] {
    let c = c.to_ascii_uppercase();
    match c {
        'A' => [0x0E, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11],
        'B' => [0x1E, 0x11, 0x11, 0x1E, 0x11, 0x11, 0x1E],
        'C' => [0x0E, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0E],
        'D' => [0x1E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x1E],
        'E' => [0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x1F],
        'F' => [0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x10],
        'G' => [0x0E, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0F],
        'H' => [0x11, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11],
        'I' => [0x0E, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E],
        'J' => [0x07, 0x02, 0x02, 0x02, 0x02, 0x12, 0x0C],
        'K' => [0x11, 0x12, 0x14, 0x18, 0x14, 0x12, 0x11],
        'L' => [0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1F],
        'M' => [0x11, 0x1B, 0x15, 0x15, 0x11, 0x11, 0x11],
        'N' => [0x11, 0x19, 0x15, 0x13, 0x11, 0x11, 0x11],
        'O' => [0x0E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E],
        'P' => [0x1E, 0x11, 0x11, 0x1E, 0x10, 0x10, 0x10],
        'Q' => [0x0E, 0x11, 0x11, 0x11, 0x15, 0x12, 0x0D],
        'R' => [0x1E, 0x11, 0x11, 0x1E, 0x14, 0x12, 0x11],
        'S' => [0x0F, 0x10, 0x10, 0x0E, 0x01, 0x01, 0x1E],
        'T' => [0x1F, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04],
        'U' => [0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E],
        'V' => [0x11, 0x11, 0x11, 0x11, 0x11, 0x0A, 0x04],
        'W' => [0x11, 0x11, 0x11, 0x15, 0x15, 0x1B, 0x11],
        'X' => [0x11, 0x0A, 0x04, 0x04, 0x04, 0x0A, 0x11],
        'Y' => [0x11, 0x11, 0x0A, 0x04, 0x04, 0x04, 0x04],
        'Z' => [0x1F, 0x01, 0x02, 0x04, 0x08, 0x10, 0x1F],
        '0' => [0x0E, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0E],
        '1' => [0x04, 0x0C, 0x04, 0x04, 0x04, 0x04, 0x0E],
        '2' => [0x0E, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1F],
        '3' => [0x1F, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0E],
        '4' => [0x02, 0x06, 0x0A, 0x12, 0x1F, 0x02, 0x02],
        '5' => [0x1F, 0x10, 0x1E, 0x01, 0x01, 0x11, 0x0E],
        '6' => [0x06, 0x08, 0x10, 0x1E, 0x11, 0x11, 0x0E],
        '7' => [0x1F, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08],
        '8' => [0x0E, 0x11, 0x11, 0x0E, 0x11, 0x11, 0x0E],
        '9' => [0x0E, 0x11, 0x11, 0x0F, 0x01, 0x02, 0x0C],
        '.' => [0x00, 0x00, 0x00, 0x00, 0x00, 0x0C, 0x0C],
        ',' => [0x00, 0x00, 0x00, 0x00, 0x0C, 0x04, 0x08],
        '-' => [0x00, 0x00, 0x00, 0x1F, 0x00, 0x00, 0x00],
        '+' => [0x00, 0x04, 0x04, 0x1F, 0x04, 0x04, 0x00],
        ':' => [0x00, 0x0C, 0x0C, 0x00, 0x0C, 0x0C, 0x00],
        '/' => [0x01, 0x01, 0x02, 0x04, 0x08, 0x10, 0x10],
        '(' => [0x02, 0x04, 0x08, 0x08, 0x08, 0x04, 0x02],
        ')' => [0x08, 0x04, 0x02, 0x02, 0x02, 0x04, 0x08],
        '=' => [0x00, 0x00, 0x1F, 0x00, 0x1F, 0x00, 0x00],
        '%' => [0x18, 0x19, 0x02, 0x04, 0x08, 0x13, 0x03],
        '_' => [0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1F],
        '<' => [0x02, 0x04, 0x08, 0x10, 0x08, 0x04, 0x02],
        '>' => [0x08, 0x04, 0x02, 0x01, 0x02, 0x04, 0x08],
        '[' => [0x0E, 0x08, 0x08, 0x08, 0x08, 0x08, 0x0E],
        ']' => [0x0E, 0x02, 0x02, 0x02, 0x02, 0x02, 0x0E],
        '*' => [0x00, 0x15, 0x0E, 0x1F, 0x0E, 0x15, 0x00],
        '\'' => [0x04, 0x04, 0x08, 0x00, 0x00, 0x00, 0x00],
        '?' => [0x0E, 0x11, 0x01, 0x02, 0x04, 0x00, 0x04],
        ' ' => [0; 7],
        _ => [0x1F, 0x11, 0x11, 0x11, 0x11, 0x11, 0x1F], // tofu box
    }
}

/// Pixel width of `text` at a given integer scale.
pub fn text_width(text: &str, scale: usize) -> usize {
    text.chars().count() * (GLYPH_WIDTH + 1) * scale.max(1)
}

/// Draws `text` with its top-left corner at `(x, y)`.
pub fn draw_text(
    fb: &mut Framebuffer,
    x: usize,
    y: usize,
    text: &str,
    color: Color,
    scale: usize,
) {
    let scale = scale.max(1);
    let mut cx = x;
    for ch in text.chars() {
        let g = glyph(ch);
        for (row, bits) in g.iter().enumerate() {
            for col in 0..GLYPH_WIDTH {
                if bits & (1 << (GLYPH_WIDTH - 1 - col)) != 0 {
                    for dy in 0..scale {
                        for dx in 0..scale {
                            fb.set_pixel(
                                cx + col * scale + dx,
                                y + row * scale + dy,
                                color,
                            );
                        }
                    }
                }
            }
        }
        cx += (GLYPH_WIDTH + 1) * scale;
    }
}

/// Draws a vertical colorbar legend with min/max labels at the right edge
/// region `(x, y)` to `(x + width, y + height)`.
pub fn draw_colorbar(
    fb: &mut Framebuffer,
    x: usize,
    y: usize,
    width: usize,
    height: usize,
    lut: &LookupTable,
) {
    if height < 2 {
        return;
    }
    let (lo, hi) = lut.range;
    for row in 0..height {
        // top = max
        let t = 1.0 - row as f32 / (height - 1) as f32;
        let v = lo + t * (hi - lo);
        let c = lut.map(v);
        for col in 0..width {
            fb.set_pixel(x + col, y + row, c);
        }
    }
    // border
    for row in 0..height {
        fb.set_pixel(x, y + row, Color::WHITE);
        fb.set_pixel(x + width - 1, y + row, Color::WHITE);
    }
    let label = |v: f32| {
        if v.abs() >= 1000.0 || (v != 0.0 && v.abs() < 0.01) {
            format!("{v:.2e}")
        } else {
            format!("{v:.2}")
        }
    };
    draw_text(fb, x + width + 2, y, &label(hi), Color::WHITE, 1);
    draw_text(
        fb,
        x + width + 2,
        (y + height).saturating_sub(GLYPH_HEIGHT),
        &label(lo),
        Color::WHITE,
        1,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup_table::ColormapName;

    #[test]
    fn text_marks_pixels() {
        let mut fb = Framebuffer::new(100, 20);
        draw_text(&mut fb, 2, 2, "TA 288.5K", Color::WHITE, 1);
        assert!(fb.covered_pixels(Color::BLACK) > 40);
    }

    #[test]
    fn scale_doubles_footprint() {
        let mut fb1 = Framebuffer::new(200, 40);
        draw_text(&mut fb1, 0, 0, "X", Color::WHITE, 1);
        let n1 = fb1.covered_pixels(Color::BLACK);
        let mut fb2 = Framebuffer::new(200, 40);
        draw_text(&mut fb2, 0, 0, "X", Color::WHITE, 2);
        let n2 = fb2.covered_pixels(Color::BLACK);
        assert_eq!(n2, 4 * n1);
    }

    #[test]
    fn width_math() {
        assert_eq!(text_width("ABC", 1), 18);
        assert_eq!(text_width("ABC", 2), 36);
        assert_eq!(text_width("", 1), 0);
    }

    #[test]
    fn unknown_chars_render_tofu() {
        let mut fb = Framebuffer::new(20, 10);
        draw_text(&mut fb, 0, 0, "\u{1F600}", Color::WHITE, 1);
        assert!(fb.covered_pixels(Color::BLACK) >= 16); // box outline
    }

    #[test]
    fn lowercase_maps_to_uppercase() {
        let mut fa = Framebuffer::new(20, 10);
        draw_text(&mut fa, 0, 0, "a", Color::WHITE, 1);
        let mut fb = Framebuffer::new(20, 10);
        draw_text(&mut fb, 0, 0, "A", Color::WHITE, 1);
        assert_eq!(fa.covered_pixels(Color::BLACK), fb.covered_pixels(Color::BLACK));
    }

    #[test]
    fn colorbar_spans_lut() {
        let lut = LookupTable::new(ColormapName::Grayscale, (0.0, 1.0));
        let mut fb = Framebuffer::new(80, 64);
        draw_colorbar(&mut fb, 4, 2, 8, 60, &lut);
        // interior: top bright (max), bottom dark (min)
        let top = fb.pixel(8, 3);
        let bottom = fb.pixel(8, 59);
        assert!(top.luminance() > 0.9, "{top:?}");
        assert!(bottom.luminance() < 0.1, "{bottom:?}");
        // labels drawn to the right
        let mut label_pixels = 0;
        for y in 0..64 {
            for x in 14..80 {
                if fb.pixel(x, y).luminance() > 0.5 {
                    label_pixels += 1;
                }
            }
        }
        assert!(label_pixels > 10);
    }

    #[test]
    fn tiny_colorbar_is_noop() {
        let lut = LookupTable::default();
        let mut fb = Framebuffer::new(10, 10);
        draw_colorbar(&mut fb, 0, 0, 4, 1, &lut);
        assert_eq!(fb.covered_pixels(Color::BLACK), 0);
    }
}
