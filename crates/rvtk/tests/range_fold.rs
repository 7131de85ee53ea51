//! The range fold's contract. `rvtk::image_data::value_range` steps eight
//! min and max lanes by compare-select and merges them at the end (DESIGN
//! §29); `serial_range` below is the serial loop it replaced, kept verbatim.
//! The two must agree on every input: NaNs skipped, `None` when no value is
//! left or the minimum is not finite, a +∞ maximum kept. The only freedom is
//! the sign of a zero extreme, which `f32::min` / `f32::max` already left
//! open; the two zeros compare equal.

use rvtk::filters::SliceAxis;
use rvtk::image_data::value_range;
use rvtk::lookup_table::ColormapName;
use rvtk::render::ImageSlice;
use rvtk::{ImageData, LookupTable, PolyData, Vec3};

/// The serial loop `ImageData::scalar_range` ran before the fold.
fn serial_range(values: &[f32]) -> Option<(f32, f32)> {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in values {
        if v.is_nan() {
            continue;
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo.is_finite() {
        Some((lo, hi))
    } else {
        None
    }
}

/// Equal ranges: bit for bit, except that a zero may come back as either
/// zero.
fn same(got: Option<(f32, f32)>, want: Option<(f32, f32)>) -> bool {
    let eq = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0);
    match (got, want) {
        (None, None) => true,
        (Some((a, b)), Some((c, d))) => eq(a, c) && eq(b, d),
        _ => false,
    }
}

fn assert_agrees(values: &[f32], what: &str) {
    let (got, want) = (value_range(values), serial_range(values));
    assert!(same(got, want), "{what} (len {}): fold {got:?}, serial {want:?}", values.len());
}

/// `n` seeded values in about ±1 000.
fn field(n: usize, seed: u64) -> Vec<f32> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 2000.0
        })
        .collect()
}

#[test]
fn every_short_length_with_a_nan_at_every_position() {
    for n in 0..=33 {
        let values = field(n, n as u64);
        assert_agrees(&values, "no NaN");
        for at in 0..n {
            let mut holed = values.clone();
            holed[at] = f32::NAN;
            assert_agrees(&holed, &format!("NaN at {at}"));
        }
        assert_agrees(&vec![f32::NAN; n], "all NaN");
        assert_eq!(value_range(&vec![f32::NAN; n]), None);
    }
    assert_eq!(value_range(&[]), None);
}

#[test]
fn the_benchmark_fields_length() {
    // 180 × 90 × 8, the field every scrub step ranges
    let mut values = field(129_600, 7);
    assert_agrees(&values, "no NaN");
    for at in (0..values.len()).step_by(37) {
        values[at] = f32::NAN;
    }
    assert_agrees(&values, "NaN holes");
    // the extremes in the tail, past the last whole group of eight
    values.push(-5_000.0);
    values.push(5_000.0);
    assert_agrees(&values, "extremes in the tail");
    assert_eq!(value_range(&values), Some((-5_000.0, 5_000.0)));
    assert_agrees(&vec![f32::NAN; 129_600], "all NaN");
}

#[test]
fn infinities_keep_todays_answers() {
    let (inf, nan) = (f32::INFINITY, f32::NAN);
    for n in 1..=20 {
        for at in 0..n {
            let mut values = field(n, 3);
            values[at] = -inf;
            assert_agrees(&values, "−∞");
            assert_eq!(value_range(&values), None, "a −∞ minimum is no range");
            values[at] = inf;
            assert_agrees(&values, "+∞");
            if n > 1 {
                assert_eq!(value_range(&values).map(|r| r.1), Some(inf), "a +∞ maximum is kept");
            }
        }
        assert_agrees(&vec![inf; n], "all +∞");
        assert_eq!(value_range(&vec![inf; n]), None);
        let mut mixed = vec![nan; n];
        mixed[n / 2] = inf;
        assert_agrees(&mixed, "+∞ among NaNs");
        assert_eq!(value_range(&mixed), None);
    }
}

#[test]
fn signed_zeros_compare_equal() {
    for n in 1..=20 {
        for at in 0..n {
            let mut values = vec![0.0f32; n];
            values[at] = -0.0;
            assert_agrees(&values, "one −0");
            let (lo, hi) = value_range(&values).unwrap();
            assert!(lo == 0.0 && hi == 0.0);
            let mut values = vec![-0.0f32; n];
            values[at] = 0.0;
            assert_agrees(&values, "one +0");
            values[(at + 1) % n] = f32::NAN;
            assert_agrees(&values, "zeros and a NaN");
        }
    }
}

#[test]
fn subnormals_are_values_like_any_other() {
    let tiny = f32::MIN_POSITIVE / 4.0;
    assert!(tiny > 0.0 && !tiny.is_normal());
    for n in 2..=20 {
        for at in 0..n {
            let mut values = vec![tiny; n];
            values[at] = -tiny;
            assert_agrees(&values, "±subnormal");
            assert_eq!(value_range(&values), Some((-tiny, tiny)));
            values[at] = f32::from_bits(1);
            values[(at + 3) % n] = f32::NAN;
            assert_agrees(&values, "smallest subnormal");
        }
    }
}

#[test]
fn image_poly_data_and_a_degenerate_slice_range_alike() {
    // one plane, so the slice's auto-range sees the whole field
    let (nx, ny) = (37, 11);
    let mut values = field(nx * ny, 11);
    for at in (0..values.len()).step_by(5) {
        values[at] = f32::NAN;
    }
    let want = serial_range(&values).unwrap();
    let img = ImageData::new([nx, ny, 1], [1.0; 3], [0.0; 3], values.clone()).unwrap();
    assert!(same(img.scalar_range(), Some(want)));

    let mut pd = PolyData::new();
    for &v in &values {
        pd.add_point(Vec3::new(f64::from(v), 0.0, 0.0));
    }
    pd.scalars = Some(values.clone());
    assert!(same(pd.scalar_range(), Some(want)));

    let lut = LookupTable::new(ColormapName::Jet, (0.0, 0.0));
    let slice = ImageSlice::from_image(&img, SliceAxis::Z, 0, lut.clone()).unwrap();
    let mut ranged = lut;
    ranged.set_range(want);
    let expect: Vec<_> = values.iter().map(|&v| ranged.map(v).clamped()).collect();
    assert_eq!(slice.texels().0, &expect[..]);
}
