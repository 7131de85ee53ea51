//! Edge-case round-trip coverage: zero-variable datasets, zero-length
//! axes and all-masked variables must survive the one encoding every file
//! is written and read in (v3, here at its default options) bit-exactly,
//! through both the strict reader and salvage — plus the golden pins of
//! the v3 encoder's bytes.

use cdms::format;
use cdms::{Axis, AxisKind, Dataset, MaskedArray, Variable};

/// Round-trips `ds` through the default writer, then reads it back both
/// strictly and by salvage, and hands each decoded copy to `check`.
fn roundtrip_both(ds: &Dataset, check: impl Fn(&str, &Dataset)) {
    let bytes = format::to_bytes(ds);
    let strict = format::from_bytes(&bytes).expect("v3 roundtrip");
    check("v3", &strict);
    // an undamaged file also salvages cleanly
    let (salvaged, report) = format::from_bytes_salvage(&bytes).expect("salvage");
    assert!(report.is_clean(), "{report}");
    check("v3-salvage", &salvaged);
}

#[test]
fn zero_variable_dataset_roundtrips() {
    let ds = Dataset::new("empty_but_annotated")
        .with_attr("institution", "NASA NCCS")
        .with_attr("comment", "no variables on purpose");
    roundtrip_both(&ds, |tag, back| {
        assert_eq!(back.id, ds.id, "{tag}");
        assert_eq!(back.attributes, ds.attributes, "{tag}");
        assert!(back.is_empty(), "{tag}");
    });
}

#[test]
fn zero_length_axis_roundtrips() {
    // A zero-length axis is NetCDF's unlimited dimension with no records
    // yet written: shape [0, 3], no data elements.
    let empty_time = Axis::empty("time", "days since 2000-01-01", AxisKind::Time);
    let lat = Axis::latitude(vec![-10.0, 0.0, 10.0]).unwrap();
    let arr = MaskedArray::zeros(&[0, 3]);
    let var = Variable::new("ta", arr, vec![empty_time, lat]).unwrap();
    let mut ds = Dataset::new("no_records_yet");
    ds.add_variable(var);

    roundtrip_both(&ds, |tag, back| {
        let v = back.variable("ta").unwrap_or_else(|| panic!("{tag}: variable lost"));
        assert_eq!(v.shape(), &[0usize, 3], "{tag}");
        assert!(v.array.data().is_empty(), "{tag}");
        assert_eq!(v.axes[0].len(), 0, "{tag}");
        assert_eq!(v.axes[0].id, "time", "{tag}");
        assert_eq!(v.axes[1].len(), 3, "{tag}");
    });
}

#[test]
fn all_masked_variable_roundtrips() {
    let lat = Axis::latitude(vec![-30.0, 0.0, 30.0]).unwrap();
    let lon = Axis::longitude(vec![0.0, 90.0, 180.0, 270.0]).unwrap();
    let arr = MaskedArray::all_masked(&[3, 4]);
    let var = Variable::new("hidden", arr.clone(), vec![lat, lon]).unwrap();
    let mut ds = Dataset::new("fully_masked");
    ds.add_variable(var);

    roundtrip_both(&ds, |tag, back| {
        let v = back.variable("hidden").unwrap_or_else(|| panic!("{tag}: variable lost"));
        assert_eq!(v.array.mask(), arr.mask(), "{tag}");
        assert!(v.array.mask().iter().all(|&m| m), "{tag}: some element unmasked");
        assert_eq!(v.array.valid_count(), 0, "{tag}");
    });
}

// ---- golden encoder pins ----
//
// The writer and the reader share one container and one set of payload
// codecs, so a round trip does not compare independent implementations.
// Independence comes from the bytes: length and CRC32C of the encoder's
// output for fixed inputs, recorded before the writers were folded. A pin
// that moves means files written by an earlier build no longer match what
// this build writes.

fn assert_pin(tag: &str, bytes: &[u8], len: usize, crc: u32) {
    assert_eq!(
        (bytes.len(), format!("{:08x}", cdms::storage::crc32c(bytes))),
        (len, format!("{crc:08x}")),
        "{tag}: encoded bytes moved"
    );
}

#[test]
fn golden_pins_of_every_encoder() {
    use cdms::format_v3::{to_bytes_v3_with, V3Options};
    let ds = cdms::synth::SynthesisSpec::new(6, 2, 8, 16).build();
    assert_pin("v3 default", &format::to_bytes(&ds), 59_859, 0x2043_c78d);
    let raw = V3Options { window: 2, levels: 3, compress: false };
    assert_pin("v3 w2 l3 raw", &to_bytes_v3_with(&ds, &raw).0, 63_529, 0x4690_9c5d);
}

#[test]
fn golden_pin_of_the_benchmark_shaped_file() {
    // what `benchmark/src/input.rs` writes for seed 1
    use cdms::format_v3::{to_bytes_v3_with, V3Options};
    let full = cdms::synth::SynthesisSpec::new(48, 8, 90, 180).seed(1).build();
    let mut ds = Dataset::new("bench");
    for id in ["ta", "sftlf"] {
        ds.add_variable(full.require(id).unwrap().clone());
    }
    drop(full);
    let opts = V3Options { window: 4, levels: 3, compress: true };
    assert_pin("bench v3", &to_bytes_v3_with(&ds, &opts).0, 33_057_510, 0x0178_b0d8);
}
