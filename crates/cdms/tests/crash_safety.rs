//! Crash-safety enumeration (ISSUE 4 acceptance criterion): for EVERY
//! primitive-operation index of the atomic write protocol and EVERY fault
//! kind `FaultyStorage` can inject there, the destination path afterwards
//! parses as either the complete old dataset or the complete new dataset —
//! never a hybrid, never unreadable.
//!
//! The atomic writer issues exactly six primitives per clean write
//! (`write_all` tmp → `sync` → `len` → `read` back → `rename` →
//! `sync_dir` of the parent), so the matrix below is exhaustive over the
//! protocol, not a sample of it. The final primitive has one deliberate
//! asymmetry: a hard fault on the directory sync is reported as an error
//! even though the rename already landed — the publish is complete but
//! not yet durable — so for that op alone an `Err` outcome may leave the
//! complete NEW state on disk.

use cdms::format;
use cdms::format_v3;
use cdms::storage::{FaultyStorage, StorageFault, StorageFaultPlan, TRANSIENT_RETRIES};
use cdms::synth::SynthesisSpec;
use cdms::Dataset;
use std::path::PathBuf;

/// Primitive ops issued by one fault-free `write_atomic` call.
const PROTOCOL_OPS: u64 = 6;

/// Index of the post-rename parent-directory sync — the one op where a
/// failed write may still have published the new content.
const SYNC_DIR_OP: u64 = 5;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdms_crash_safety_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn old_and_new() -> (Dataset, Dataset) {
    let mut old = SynthesisSpec::new(2, 1, 6, 12).seed(1).build();
    old.id = "state".to_string();
    let mut new = SynthesisSpec::new(3, 2, 6, 12).seed(2).build();
    new.id = "state".to_string();
    (old, new)
}

/// True when `ds` is semantically identical to `want` (id, attrs, and every
/// variable's data/mask/axes).
fn same_dataset(ds: &Dataset, want: &Dataset) -> bool {
    ds.id == want.id
        && ds.attributes == want.attributes
        && ds.variable_ids() == want.variable_ids()
        && want
            .variables()
            .iter()
            .all(|w| ds.variable(&w.id).is_some_and(|g| g.array == w.array && g.axes == w.axes))
}

fn fault_kinds() -> Vec<(&'static str, StorageFault)> {
    vec![
        ("short_write", StorageFault::ShortWrite { keep: 10 }),
        ("torn_write", StorageFault::TornWrite { at: 7 }),
        ("bit_flip", StorageFault::BitFlip { bit: 133 }),
        ("enospc", StorageFault::Enospc),
        ("transient_recovers", StorageFault::Transient { times: TRANSIENT_RETRIES }),
        ("transient_exhausts", StorageFault::Transient { times: TRANSIENT_RETRIES + 4 }),
        ("crash_before", StorageFault::CrashBefore),
    ]
}

#[test]
fn every_crash_point_leaves_complete_old_or_complete_new() {
    let dir = temp_dir("matrix");
    let (old, new) = old_and_new();
    for op in 0..PROTOCOL_OPS {
        for (name, fault) in fault_kinds() {
            let path = dir.join(format!("op{op}_{name}.ncr"));
            format::write_dataset(&old, &path).expect("seeding the old state");

            let storage = FaultyStorage::new(StorageFaultPlan::none().inject(op, fault.clone()));
            let outcome = format::write_dataset_with(&storage, &new, &path);

            // Whatever happened, the path must parse under STRICT
            // verification — a hybrid or torn file would fail its checksums.
            let on_disk = format::read_dataset(&path).unwrap_or_else(|e| {
                panic!("op {op} fault {name}: destination unreadable after fault: {e}")
            });
            match &outcome {
                Ok(()) => assert!(
                    same_dataset(&on_disk, &new),
                    "op {op} fault {name}: write reported success but new state absent"
                ),
                Err(_) if op == SYNC_DIR_OP => assert!(
                    same_dataset(&on_disk, &old) || same_dataset(&on_disk, &new),
                    "op {op} fault {name}: post-rename sync failure must leave a complete state"
                ),
                Err(_) => assert!(
                    same_dataset(&on_disk, &old),
                    "op {op} fault {name}: failed write must leave the old state untouched"
                ),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_on_first_ever_write_leaves_no_file_or_complete_file() {
    // No previous state: after a mid-write crash the path either does not
    // exist or (when the write survived) holds the complete new dataset.
    let dir = temp_dir("fresh");
    let (_, new) = old_and_new();
    for op in 0..PROTOCOL_OPS {
        for (name, fault) in fault_kinds() {
            let path = dir.join(format!("fresh_op{op}_{name}.ncr"));
            let storage = FaultyStorage::new(StorageFaultPlan::none().inject(op, fault.clone()));
            let outcome = format::write_dataset_with(&storage, &new, &path);
            match outcome {
                Ok(()) => {
                    let on_disk = format::read_dataset(&path)
                        .unwrap_or_else(|e| panic!("op {op} fault {name}: {e}"));
                    assert!(same_dataset(&on_disk, &new), "op {op} fault {name}");
                }
                Err(_) if op == SYNC_DIR_OP => {
                    // the rename already landed; a published file must be
                    // the complete new dataset
                    if path.exists() {
                        let on_disk = format::read_dataset(&path)
                            .unwrap_or_else(|e| panic!("op {op} fault {name}: {e}"));
                        assert!(same_dataset(&on_disk, &new), "op {op} fault {name}");
                    }
                }
                Err(_) => assert!(
                    !path.exists(),
                    "op {op} fault {name}: failed first write must not publish a file"
                ),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v3_writer_crash_points_leave_complete_old_or_complete_new() {
    // The v3 writer at explicit options rides the same six-primitive
    // atomic protocol, so it inherits the same guarantee: any single fault
    // at any step leaves the destination as exactly one complete,
    // strictly-verifiable dataset (old at the default options or new at
    // window 2 / two levels — an overwrite across layouts included).
    let dir = temp_dir("v3matrix");
    let (old, new) = old_and_new();
    let opts = format_v3::V3Options { window: 2, levels: 2, compress: true };
    for op in 0..PROTOCOL_OPS {
        for (name, fault) in fault_kinds() {
            let path = dir.join(format!("v3_op{op}_{name}.ncr"));
            format::write_dataset(&old, &path).expect("seeding the old state");

            let storage = FaultyStorage::new(StorageFaultPlan::none().inject(op, fault.clone()));
            let outcome = format_v3::write_dataset_v3_with(&storage, &new, &path, &opts);

            let on_disk = format::read_dataset(&path).unwrap_or_else(|e| {
                panic!("v3 op {op} fault {name}: destination unreadable after fault: {e}")
            });
            match &outcome {
                Ok(()) => assert!(
                    same_dataset(&on_disk, &new),
                    "v3 op {op} fault {name}: write reported success but new state absent"
                ),
                Err(_) if op == SYNC_DIR_OP => assert!(
                    same_dataset(&on_disk, &old) || same_dataset(&on_disk, &new),
                    "v3 op {op} fault {name}: post-rename sync failure must leave a complete state"
                ),
                Err(_) => assert!(
                    same_dataset(&on_disk, &old),
                    "v3 op {op} fault {name}: failed write must leave the old state untouched"
                ),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn double_fault_on_write_and_retry_still_safe() {
    // Faults on several ops of the same write: retried transients followed
    // by a hard fault, and cascading failures after a torn write.
    let dir = temp_dir("double");
    let (old, new) = old_and_new();
    let plans = vec![
        (
            "transient_then_torn",
            StorageFaultPlan::none()
                .inject(0, StorageFault::Transient { times: 1 })
                .inject(2, StorageFault::TornWrite { at: 3 }),
        ),
        (
            "bitflip_then_enospc",
            StorageFaultPlan::none()
                .inject(0, StorageFault::BitFlip { bit: 9 })
                .inject(3, StorageFault::Enospc),
        ),
        (
            "short_then_crash",
            StorageFaultPlan::none()
                .inject(0, StorageFault::ShortWrite { keep: 4 })
                .inject(1, StorageFault::CrashBefore),
        ),
    ];
    for (name, plan) in plans {
        let path = dir.join(format!("{name}.ncr"));
        format::write_dataset(&old, &path).unwrap();
        let storage = FaultyStorage::new(plan);
        let outcome = format::write_dataset_with(&storage, &new, &path);
        let on_disk = format::read_dataset(&path)
            .unwrap_or_else(|e| panic!("{name}: destination unreadable: {e}"));
        match outcome {
            Ok(()) => assert!(same_dataset(&on_disk, &new), "{name}"),
            Err(_) => assert!(same_dataset(&on_disk, &old), "{name}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
