//! Edge-case round-trip coverage (ISSUE 4 satellite): zero-variable
//! datasets, zero-length axes, and all-masked variables must survive both
//! the legacy v1 encoding and the checksummed v2 encoding bit-exactly —
//! and a v1 file written by the current code must keep opening through the
//! version-dispatched reader.

use cdms::format::{self, SalvageReport};
use cdms::{Axis, AxisKind, Dataset, MaskedArray, Variable};

/// Round-trips `ds` through both format versions and hands each decoded
/// copy to `check`.
fn roundtrip_both(ds: &Dataset, check: impl Fn(&str, &Dataset)) {
    let v2 = format::from_bytes(&format::to_bytes(ds)).expect("v2 roundtrip");
    check("v2", &v2);
    let v1 = format::from_bytes(&format::to_bytes_v1(ds)).expect("v1 roundtrip");
    check("v1", &v1);
    // v2 files also salvage cleanly when nothing is wrong
    let (salvaged, report) = format::from_bytes_salvage(&format::to_bytes(ds)).expect("salvage");
    assert!(report.is_clean(), "{report}");
    check("v2-salvage", &salvaged);
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

#[test]
fn v1_bytes_written_today_open_identically() {
    // Byte-compat acceptance: encode v1, re-encode the decoded dataset,
    // and require the same bytes — proving the v1 writer/reader pair is
    // unchanged by the v2 work.
    let lat = Axis::latitude(vec![-45.0, 0.0, 45.0]).unwrap();
    let arr = MaskedArray::from_fn(&[3], |ix| ix[0] as f32 * 1.5);
    let var = Variable::new("t2m", arr, vec![lat]).unwrap().with_attr("units", "K");
    let mut ds = Dataset::new("compat").with_attr("source", "seed-era writer");
    ds.add_variable(var);

    let first = format::to_bytes_v1(&ds);
    let decoded = format::from_bytes(&first).unwrap();
    let second = format::to_bytes_v1(&decoded);
    assert_eq!(first, second, "v1 encoding is not stable across a decode cycle");
}

#[test]
fn salvage_report_on_clean_v1_file() {
    // v1 has no checksums; salvage of an intact v1 file reports clean.
    let mut ds = Dataset::new("v1clean");
    let lat = Axis::latitude(vec![0.0, 10.0]).unwrap();
    ds.add_variable(Variable::new("x", MaskedArray::zeros(&[2]), vec![lat]).unwrap());
    let (back, report): (Dataset, SalvageReport) =
        format::from_bytes_salvage(&format::to_bytes_v1(&ds)).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(back.variable_ids(), ds.variable_ids());
}

// ---- golden encoder pins ----
//
// The three generations share one container writer and one set of payload
// codecs, so "v3 decodes like v2" no longer compares independent
// implementations. Independence comes from the bytes: length and CRC32C
// of every encoder's output for fixed inputs, recorded before the writers
// were folded. A pin that moves means files written by an earlier build
// no longer match what this build writes.

fn assert_pin(tag: &str, bytes: &[u8], len: usize, crc: u32) {
    assert_eq!(
        (bytes.len(), format!("{:08x}", cdms::storage::crc32c(bytes))),
        (len, format!("{crc:08x}")),
        "{tag}: encoded bytes moved"
    );
}

#[test]
fn golden_pins_of_every_encoder() {
    use cdms::format_v3::{to_bytes_v3, to_bytes_v3_with, V3Options};
    let ds = cdms::synth::SynthesisSpec::new(6, 2, 8, 16).build();
    assert_pin("v1", &format::to_bytes_v1(&ds), 46_230, 0xcb88_6325);
    assert_pin("v2", &format::to_bytes(&ds), 43_859, 0x8ee1_34bb);
    assert_pin("v3 default", &to_bytes_v3(&ds).0, 59_859, 0x2043_c78d);
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
