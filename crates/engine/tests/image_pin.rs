//! The disk image of every persistence preset, pinned byte for byte.
//!
//! Each preset is built, hashed, recalculated, edited by its burst and
//! hashed again: the encoded image (cells and their formula text, cached
//! values and dirty sets) must not move unless the format is meant to. An
//! image holds no graph, so a change to how the workbook compresses its
//! formulas passes; one that changes what a formula prints as, what a
//! recalculation leaves or what is stored fails here first. A deliberate
//! format change updates the constants.

use taco_engine::{RecalcMode, Workbook};
use taco_store::encode_workbook;
use taco_workload::persistence::{
    gen_persist_workload, persist_enron_like, persist_giant_sheet, persist_github_like,
    PersistParams,
};

/// FNV-1a, 64 bits: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn image_hash(wb: &Workbook) -> u64 {
    fnv1a(&encode_workbook(&wb.to_image()).expect("an image encodes"))
}

/// The image hashes after the build and after the burst.
fn hashes(params: &PersistParams) -> (u64, u64) {
    let w = gen_persist_workload(params);
    let mut wb = Workbook::new();
    wb.apply_batch(&w.build).expect("the build applies");
    let built = image_hash(&wb);
    wb.recalculate(RecalcMode::Serial);
    wb.apply_batch(&w.burst).expect("the burst applies");
    (built, image_hash(&wb))
}

#[test]
fn every_preset_encodes_to_its_pinned_image() {
    for (params, want) in [
        (persist_enron_like(), (0xb55f_4180_240b_fc3e, 0xdc7f_227d_82a7_4d49)),
        (persist_github_like(), (0x3f7a_e915_0caf_5237, 0x4d17_39b6_0a71_4711)),
        (persist_giant_sheet(), (0xf77c_84f0_7454_c3c5, 0x1252_e555_bee5_0c6f)),
    ] {
        assert_eq!(hashes(&params), want, "{}", params.name);
    }
}
