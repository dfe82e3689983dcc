//! The disk image of every persistence preset, pinned byte for byte.
//!
//! Each preset is built, hashed, recalculated, edited by its burst and
//! hashed again: the encoded image (cells, cached values, dirty sets and
//! every sheet's compressed graph) must not move unless the format is
//! meant to. A change to how the workbook holds its graph that leaves the
//! images alone passes; one that compresses a sheet differently, counts
//! its dependencies differently or stores a cross-sheet edge fails here
//! first. A deliberate format change updates the constants.

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
        (persist_enron_like(), (0x32c9_4121_234b_97bc, 0xc6e9_5197_cf84_5089)),
        (persist_github_like(), (0x96c4_eaaa_4cb7_3c59, 0xff16_897e_71d2_bdef)),
        (persist_giant_sheet(), (0xef74_5ebd_3702_340f, 0xd47d_92c7_be4f_5f09)),
    ] {
        assert_eq!(hashes(&params), want, "{}", params.name);
    }
}
