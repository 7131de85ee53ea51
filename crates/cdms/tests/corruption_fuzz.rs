//! Corruption fuzzer for `.ncr` format v3, the format every file is
//! written in.
//!
//! Random single- and multi-byte mutations and truncations of an encoded
//! v3 file are driven through the strict decoder, the salvage path and the
//! ranged open the streamer runs, asserting:
//!
//! 1. **No panic** — every mutation yields an `Err` or a dataset, never an
//!    abort.
//! 2. **No unbounded allocation** — the decoders bound every allocation
//!    against the bytes actually present. There is no counting allocator
//!    to meter that with: a `GlobalAlloc` needs `unsafe`, which the
//!    workspace forbids (`unsafe_code = "forbid"`). Instead the guard paths
//!    are unit-tested in `format.rs`
//!    (`hostile_length_fields_fail_before_allocating`), and this fuzzer
//!    checks the observable consequences: decoded output never exceeds the
//!    input's own element count, and each decode finishes inside a strict
//!    wall-clock budget that materializing a hostile multi-gigabyte length
//!    field could never meet.
//! 3. **No silently-wrong data** — using the encoder's [`V3Layout`] byte
//!    map as the oracle: every untouched chunk is recovered bit-exact, a
//!    window whose level-0 chunk was hit or cut off degrades to the best
//!    intact pyramid level, and the ranged open either refuses or returns
//!    exactly the metadata that was written.
//!
//! Damage that every checksum vouches for — a chunk directory reordered,
//! overlapping or pointing into the trailer, a `levels` that disagrees
//! with the chunks, PackBits runs past a body — is built section by
//! section in `format_v3.rs`' unit tests. Iteration count defaults to
//! 1500 and is overridable via `CDMS_FUZZ_ITERS` (CI smoke runs use a
//! reduced count); every fuzzer's name starts `corruption_fuzz`, so one
//! name filter runs them all.

#![allow(clippy::disallowed_methods, reason = "the fuzzer writes damaged files directly, on purpose")]

use cdms::format::{self, SectionKind};
use cdms::format_v3::{self, V3Layout, V3Meta, V3Options};
use cdms::storage::LocalDisk;
use cdms::synth::SynthesisSpec;
use cdms::Dataset;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Wall-clock ceiling for decoding one ~50 KB mutated file. An honest
/// decode is microseconds; zero-filling even one hostile gigabyte-sized
/// length field would blow far past this.
const DECODE_BUDGET: Duration = Duration::from_secs(5);

fn fuzz_iters() -> usize {
    std::env::var("CDMS_FUZZ_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1500)
}

/// A representative multi-variable dataset with shared axes.
fn sample() -> Dataset {
    SynthesisSpec::new(3, 2, 12, 24).seed(42).build()
}

/// Total elements across all variables — the output-size bound.
fn element_count(ds: &Dataset) -> usize {
    ds.variables().iter().map(|v| v.array.len()).sum()
}

/// Applies `count` random single-byte XOR mutations in `lo..hi`.
fn mutate(bytes: &mut [u8], rng: &mut TestRng, count: usize, lo: usize, hi: usize) {
    for _ in 0..count {
        let i = lo + (rng.next_u64() as usize) % (hi - lo);
        let x = (rng.next_u64() % 255 + 1) as u8; // never a zero XOR
        bytes[i] ^= x;
    }
}

/// Copies a window slab into the full array (test-local mirror of the
/// decoder's scatter, used to build the v3 oracle's expected arrays).
fn scatter(
    slab_d: &[f32],
    slab_m: &[bool],
    full_d: &mut [f32],
    full_m: &mut [bool],
    shape: &[usize],
    time_axis: Option<usize>,
    range: Range<usize>,
) {
    let Some(t) = time_axis else {
        full_d.copy_from_slice(slab_d);
        full_m.copy_from_slice(slab_m);
        return;
    };
    let nt = shape[t];
    let pre: usize = shape[..t].iter().product();
    let post: usize = shape[t + 1..].iter().product();
    let wlen = range.len();
    for p in 0..pre {
        for (k, ti) in range.clone().enumerate() {
            let src = (p * wlen + k) * post;
            let dst = (p * nt + ti) * post;
            full_d[dst..dst + post].copy_from_slice(&slab_d[src..src + post]);
            full_m[dst..dst + post].copy_from_slice(&slab_m[src..src + post]);
        }
    }
}

/// The v3 oracle: for one variable whose metadata survived, the exact
/// array salvage must produce — per window, the first level whose payload
/// bytes are untouched (level 0 verbatim, coarser levels upsampled), or
/// masked fill when every level was hit.
fn expected_v3_array(
    vi: usize,
    meta: &V3Meta,
    layout: &V3Layout,
    original: &[u8],
    mutated: &[u8],
) -> (Vec<f32>, Vec<bool>, usize, usize) {
    let vm = &meta.vars[vi];
    let volume: usize = vm.shape.iter().product::<usize>().max(1);
    let mut data = vec![0.0f32; volume];
    let mut mask = vec![true; volume];
    let mut degraded = 0usize;
    let mut masked = 0usize;
    for w in 0..vm.n_windows() {
        let full_shape = vm.slab_shape(w);
        let mut served = false;
        for l in 0..vm.levels {
            let span = layout
                .chunks
                .iter()
                .find(|c| c.var == vi && c.window == w && c.level == l)
                .expect("layout lists every chunk");
            // a truncated image has no bytes past its cut: `get` is `None`
            if original.get(span.payload.clone()) != mutated.get(span.payload.clone()) {
                continue;
            }
            let n = vm.level_volume(w, l).expect("well-formed shapes");
            let (cd, cm) =
                format_v3::decode_chunk_payload(&original[span.payload.clone()], (vi, w, l), n)
                    .expect("original chunks decode");
            let (sd, sm) = if l == 0 {
                (cd, cm)
            } else {
                degraded += 1;
                format_v3::upsample_nearest(&cd, &cm, &vm.level_shape(w, l), &full_shape)
                    .expect("pyramid shapes are consistent")
            };
            scatter(&sd, &sm, &mut data, &mut mask, &vm.shape, vm.time_axis, vm.window_range(w));
            served = true;
            break;
        }
        if !served {
            masked += 1;
        }
    }
    (data, mask, degraded, masked)
}

#[test]
fn corruption_fuzz_v3_chunk_map_oracle() {
    // v3 sharpens the salvage contract from per-variable to per-chunk:
    // untouched chunks come back bit-exact, windows whose level-0 chunk
    // was hit degrade to the best intact pyramid level, and fully-dead
    // windows are masked — never garbage, never a panic.
    let ds = sample();
    let max_elements = element_count(&ds);
    let opts = V3Options { window: 2, levels: 3, compress: true };
    let (original, layout) = format_v3::to_bytes_v3_with(&ds, &opts);

    // the chunk-map oracle needs the decoded metadata (window/level shapes)
    let dir = std::env::temp_dir().join(format!("cdms_v3_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oracle.ncr");
    std::fs::write(&path, &original).unwrap();
    let meta = format_v3::read_meta_with(&LocalDisk, &path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let axis_payloads: Vec<&Range<usize>> = layout
        .sections
        .iter()
        .filter(|s| s.kind == SectionKind::Axis)
        .map(|s| &s.payload)
        .collect();
    let varmeta_spans: Vec<(&Range<usize>, &Vec<usize>)> = layout
        .sections
        .iter()
        .filter_map(|s| s.variable.as_ref().map(|(_, refs)| (&s.payload, refs)))
        .collect();
    let trailer_start = layout
        .sections
        .iter()
        .find(|s| s.kind == SectionKind::Trailer)
        .expect("v3 always has a trailer")
        .frame
        .start;

    let mut rng = TestRng::from_name("corruption_fuzz_v3");
    let iters = (fuzz_iters() / 2).max(200);
    let (mut exact_windows, mut degraded_windows, mut masked_windows) = (0usize, 0usize, 0usize);
    for iter in 0..iters {
        let mut mutated = original.clone();
        let n_mut = 1 + (rng.next_u64() as usize) % 8;
        mutate(&mut mutated, &mut rng, n_mut, 8, trailer_start);

        let t0 = Instant::now();
        let strict = format::from_bytes(&mutated);
        if strict.is_ok() {
            assert_eq!(mutated, original, "iter {iter}: strict v3 decode accepted altered bytes");
        }
        let (salvaged, report) =
            format::from_bytes_salvage(&mutated).expect("salvage of v3 bytes");
        assert!(report.directory_intact, "iter {iter}: trailer untouched yet directory lost");
        assert!(
            element_count(&salvaged) <= max_elements,
            "iter {iter}: v3 salvage produced more data than was ever written"
        );
        assert!(t0.elapsed() < DECODE_BUDGET, "iter {iter}: v3 decode took {:?}", t0.elapsed());

        let untouched = |r: &Range<usize>| original[r.clone()] == mutated[r.clone()];
        for (vi, vm) in meta.vars.iter().enumerate() {
            let (span, refs) = varmeta_spans[vi];
            if !untouched(span) || !refs.iter().all(|&a| untouched(axis_payloads[a])) {
                continue; // metadata hit: salvage may drop the variable
            }
            let got = salvaged.variable(&vm.id).unwrap_or_else(|| {
                panic!("iter {iter}: variable '{}' with intact metadata not recovered", vm.id)
            });
            let (want_d, want_m, degraded, masked) =
                expected_v3_array(vi, &meta, &layout, &original, &mutated);
            assert_eq!(got.array.data(), want_d.as_slice(), "iter {iter}: '{}' data", vm.id);
            assert_eq!(got.array.mask(), want_m.as_slice(), "iter {iter}: '{}' mask", vm.id);
            degraded_windows += degraded;
            masked_windows += masked;
            exact_windows += vm.n_windows() - degraded - masked;
        }
    }
    // the fuzzer must actually exercise all three outcomes
    assert!(exact_windows > 0, "no window ever survived untouched — fuzzer mis-aimed");
    assert!(degraded_windows > 0, "no window ever degraded to the pyramid — fuzzer mis-aimed");
    assert!(masked_windows > 0, "no window was ever fully lost — fuzzer mis-aimed");
}

#[test]
fn corruption_fuzz_v3_ranged_open_agrees_with_strict() {
    // The ranged bootstrap (`read_meta_with`, what `StreamingDataset::open`
    // runs) sees only the file's tail and its metadata frames. Whatever it
    // is shown, it either refuses or returns exactly the metadata that was
    // written — never an `Ok` describing a different file. Same mutation
    // generator as the chunk-map oracle above: first clear of the trailer
    // (chunk hits must not disturb the open), then over the whole image.
    let ds = sample();
    let opts = V3Options { window: 2, levels: 3, compress: true };
    let (original, layout) = format_v3::to_bytes_v3_with(&ds, &opts);
    let trailer_start = layout
        .sections
        .iter()
        .find(|s| s.kind == SectionKind::Trailer)
        .expect("v3 always has a trailer")
        .frame
        .start;
    let metadata_frames: Vec<&Range<usize>> = layout
        .sections
        .iter()
        .filter(|s| s.kind != SectionKind::Chunk)
        .map(|s| &s.frame)
        .collect();

    let dir = std::env::temp_dir().join(format!("cdms_v3_ranged_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mutated.ncr");
    std::fs::write(&path, &original).unwrap();
    let want = format_v3::read_meta_with(&LocalDisk, &path).unwrap();

    let mut rng = TestRng::from_name("corruption_fuzz_v3");
    let iters = (fuzz_iters() / 2).max(200);
    let (mut opened, mut refused) = (0usize, 0usize);
    for iter in 0..iters {
        let mut mutated = original.clone();
        let n_mut = 1 + (rng.next_u64() as usize) % 8;
        let hi = if iter % 2 == 0 { trailer_start } else { original.len() };
        mutate(&mut mutated, &mut rng, n_mut, 8, hi);
        std::fs::write(&path, &mutated).unwrap();

        let t0 = Instant::now();
        let ranged = format_v3::read_meta_with(&LocalDisk, &path);
        assert!(t0.elapsed() < DECODE_BUDGET, "iter {iter}: open took {:?}", t0.elapsed());
        match ranged {
            Ok(got) => {
                assert_eq!(got.id, want.id, "iter {iter}: id");
                assert_eq!(got.attributes, want.attributes, "iter {iter}: attributes");
                assert_eq!(got.axes, want.axes, "iter {iter}: axes");
                assert_eq!(got.vars, want.vars, "iter {iter}: variables");
                assert_eq!(got.chunks, want.chunks, "iter {iter}: chunk directory");
                assert_eq!(got.file_len, want.file_len, "iter {iter}: file length");
                opened += 1;
            }
            Err(_) => {
                // a refusal needs a reason: some byte the open reads moved
                assert!(
                    metadata_frames.iter().any(|r| original[(*r).clone()] != mutated[(*r).clone()])
                        || original[layout.footer.clone()] != mutated[layout.footer.clone()],
                    "iter {iter}: ranged open refused a file whose metadata is untouched"
                );
                // and what the ranged open refuses, the strict reader refuses
                assert!(format::from_bytes(&mutated).is_err(), "iter {iter}");
                refused += 1;
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(opened > 0, "no mutated image ever opened — fuzzer is mis-aimed");
    assert!(refused > 0, "no mutated image was ever refused — fuzzer is mis-aimed");
}

#[test]
fn corruption_fuzz_v3_truncations_keep_the_chunk_map() {
    // A file cut short has lost its footer, so salvage walks the frames
    // from the preamble and stops at the first one the cut runs through.
    // Random prefixes, half of them with byte flips on top: no panic,
    // bounded output, every decode inside the budget — and when the flips
    // leave every frame's framing alone (the walk then sees each frame
    // wholly inside the cut), every variable whose VarMeta and axis
    // payloads are kept and unflipped is recovered exactly as the
    // chunk-map oracle says, a chunk cut off counting as touched.
    let ds = sample();
    let max_elements = element_count(&ds);
    let opts = V3Options { window: 2, levels: 3, compress: true };
    let (original, layout) = format_v3::to_bytes_v3_with(&ds, &opts);

    let dir = std::env::temp_dir().join(format!("cdms_v3_trunc_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oracle.ncr");
    std::fs::write(&path, &original).unwrap();
    let meta = format_v3::read_meta_with(&LocalDisk, &path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let axis_payloads: Vec<&Range<usize>> = layout
        .sections
        .iter()
        .filter(|s| s.kind == SectionKind::Axis)
        .map(|s| &s.payload)
        .collect();
    let varmeta_spans: Vec<(&Range<usize>, &Vec<usize>)> = layout
        .sections
        .iter()
        .filter_map(|s| s.variable.as_ref().map(|(_, refs)| (&s.payload, refs)))
        .collect();
    let in_a_payload = |i: usize| layout.sections.iter().any(|s| s.payload.contains(&i));

    let mut rng = TestRng::from_name("truncation_fuzz_v3");
    let iters = (fuzz_iters() / 4).max(100);
    let (mut exact_windows, mut degraded_windows, mut masked_windows) = (0usize, 0usize, 0usize);
    for iter in 0..iters {
        let keep = (rng.next_u64() as usize) % original.len();
        let mut mutated = original[..keep].to_vec();
        if keep > 16 && rng.next_u64().is_multiple_of(2) {
            let n = 1 + (rng.next_u64() as usize) % 4;
            mutate(&mut mutated, &mut rng, n, 8, keep);
        }

        let t0 = Instant::now();
        assert!(format::from_bytes(&mutated).is_err(), "iter {iter}: a truncated file read");
        let salvage = format::from_bytes_salvage(&mutated);
        assert!(t0.elapsed() < DECODE_BUDGET, "iter {iter}: decode took {:?}", t0.elapsed());
        let Ok((salvaged, report)) = salvage else {
            assert!(keep < 8, "iter {iter}: salvage refused a {keep}-byte prefix");
            continue;
        };
        assert!(!report.directory_intact, "iter {iter}: the footer is gone");
        assert!(
            element_count(&salvaged) <= max_elements,
            "iter {iter}: salvage of a prefix produced more data than was ever written"
        );

        // the oracle's image ends where the last frame wholly inside the
        // cut ends, so a chunk whose checksum was cut off counts as touched
        let whole = layout.sections.iter().map(|s| s.frame.end).filter(|&end| end <= keep).max();
        let seen = &mutated[..whole.unwrap_or(8).max(8)];
        let flipped: Vec<usize> =
            (0..keep).filter(|&i| original.get(i) != mutated.get(i)).collect();
        if !flipped.iter().all(|&i| in_a_payload(i)) {
            continue; // a flip hit framing: the walk may stop anywhere
        }
        let untouched = |r: &Range<usize>| original.get(r.clone()) == seen.get(r.clone());
        for (vi, vm) in meta.vars.iter().enumerate() {
            let (span, refs) = varmeta_spans[vi];
            if !untouched(span) || !refs.iter().all(|&a| untouched(axis_payloads[a])) {
                continue; // metadata cut or hit: salvage may drop the variable
            }
            let got = salvaged.variable(&vm.id).unwrap_or_else(|| {
                panic!("iter {iter}: variable '{}' with kept metadata not recovered", vm.id)
            });
            let (want_d, want_m, degraded, masked) =
                expected_v3_array(vi, &meta, &layout, &original, seen);
            assert_eq!(got.array.data(), want_d.as_slice(), "iter {iter}: '{}' data", vm.id);
            assert_eq!(got.array.mask(), want_m.as_slice(), "iter {iter}: '{}' mask", vm.id);
            degraded_windows += degraded;
            masked_windows += masked;
            exact_windows += vm.n_windows() - degraded - masked;
        }
    }
    assert!(exact_windows > 0, "no window ever survived a cut — fuzzer mis-aimed");
    assert!(degraded_windows > 0, "no window ever degraded to the pyramid — fuzzer mis-aimed");
    assert!(masked_windows > 0, "no window was ever cut off — fuzzer mis-aimed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure garbage (random bytes, with or without a valid preamble) never
    /// panics either decoder and never stalls on a hostile length field.
    #[test]
    fn garbage_bytes_never_panic(
        body in proptest::collection::vec(0u8..=255, 0..512),
        with_preamble in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if with_preamble {
            // the version read, so the garbage reaches the section decoders
            bytes.extend_from_slice(b"NCRS");
            bytes.extend_from_slice(&3u32.to_le_bytes());
        }
        bytes.extend_from_slice(&body);
        let t0 = Instant::now();
        let _ = format::from_bytes(&bytes);
        let _ = format::from_bytes_salvage(&bytes);
        prop_assert!(t0.elapsed() < DECODE_BUDGET, "garbage input stalled the decoder");
    }
}
