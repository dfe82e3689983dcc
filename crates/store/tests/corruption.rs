//! Corruption robustness: damaged containers and WALs must always come
//! back as typed [`StoreError`]s — never a panic, never silently wrong
//! data.
//!
//! The container properties are exhaustive where cheap (every truncation
//! length, one flipped bit in every byte) and randomized on top; the WAL
//! properties run over random cut points per the crash model: a crash
//! can truncate the log anywhere, and replay must recover exactly the
//! clean prefix.

use proptest::prelude::*;
use taco_formula::{CellError, Value};
use taco_grid::{Cell, Range};
use taco_store::{
    CellRecord, EditRecord, ReplayMode, SheetImage, StoreError, StoreReader, WalReader,
    WorkbookImage,
};

/// A reasonably rich image: three sheets, every value type in the cells,
/// dirty sets, and formulas that read their own sheet and other sheets
/// (an image stores formulas as text only).
fn rich_image() -> WorkbookImage {
    // Pre-sorted by (col, row): the container canonicalizes cell order,
    // so a sorted fixture round-trips to an identical image.
    let mut cells: Vec<(Cell, CellRecord)> = Vec::new();
    for row in 1..=40u32 {
        cells.push((Cell::new(1, row), CellRecord::Pure(Value::Number(f64::from(row) * 1.5))));
    }
    for row in 1..=40u32 {
        cells.push((
            Cell::new(2, row),
            CellRecord::Formula {
                src: format!("SUM(A{row}:A{})", row + 2),
                value: Value::Number(4.5),
            },
        ));
    }
    cells.push((
        Cell::new(7, 1),
        CellRecord::Formula { src: "SUM(Alpha!B1:B40)".into(), value: Value::Number(180.0) },
    ));
    cells.push((
        Cell::new(7, 2),
        CellRecord::Formula { src: "'Beta Sheet'!G1*2".into(), value: Value::Number(360.0) },
    ));
    cells.push((Cell::new(9, 1), CellRecord::Pure(Value::Text("päyload".into()))));
    cells.push((Cell::new(9, 2), CellRecord::Pure(Value::Bool(true))));
    cells.push((Cell::new(9, 3), CellRecord::Pure(Value::Error(CellError::Div0))));
    cells.push((Cell::new(9, 4), CellRecord::Pure(Value::Empty)));

    let sheet = |name: &str| SheetImage {
        name: name.to_string(),
        cells: cells.clone(),
        dirty: vec![Cell::new(2, 3), Cell::new(2, 9)],
    };
    WorkbookImage {
        sheets: vec![sheet("Alpha"), sheet("Beta Sheet"), sheet("Gamma")],
        epoch: 3,
        clock: Default::default(),
    }
}

fn wal_bytes() -> (Vec<u8>, Vec<EditRecord>) {
    let path =
        std::env::temp_dir().join(format!("taco_corruption_wal_{}.twal", std::process::id()));
    let records: Vec<EditRecord> = (0..30u32)
        .flat_map(|i| {
            vec![
                EditRecord::SetValue {
                    sheet: i % 3,
                    cell: Cell::new(1, i + 1),
                    value: Value::Number(f64::from(i) / 3.0),
                },
                EditRecord::SetFormula {
                    sheet: i % 3,
                    cell: Cell::new(2, i + 1),
                    src: format!("A{}*2", i + 1),
                },
                EditRecord::ClearRange {
                    sheet: i % 3,
                    range: Range::from_coords(3, i + 1, 4, i + 2),
                },
            ]
        })
        .collect();
    let mut w = taco_store::WalWriter::create(&path).expect("temp wal");
    for r in &records {
        w.append(r).expect("append");
    }
    w.sync().expect("sync");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    (bytes, records)
}

// ---- container ----------------------------------------------------------

#[test]
fn every_truncation_length_is_a_typed_error() {
    let bytes = taco_store::encode_workbook(&rich_image()).expect("encode");
    for cut in 0..bytes.len() {
        match StoreReader::from_bytes(bytes[..cut].to_vec()) {
            Err(_) => {}
            Ok(reader) => {
                // The trailer parsed by luck; decoding the sections must
                // then hit a checksum or bounds error.
                assert!(
                    reader.read_all().is_err(),
                    "truncation to {cut}/{} bytes decoded successfully",
                    bytes.len()
                );
            }
        }
    }
    // And the untruncated file still reads.
    let full = StoreReader::from_bytes(bytes).expect("full file");
    assert_eq!(full.read_all().expect("decode"), rich_image());
}

#[test]
fn every_byte_rejects_a_flipped_bit() {
    let bytes = taco_store::encode_workbook(&rich_image()).expect("encode");
    for (i, _) in bytes.iter().enumerate() {
        let mut damaged = bytes.clone();
        damaged[i] ^= 1 << (i % 8);
        let outcome = StoreReader::from_bytes(damaged).and_then(|r| r.read_all());
        assert!(outcome.is_err(), "bit flip in byte {i}/{} went undetected", bytes.len());
    }
}

#[test]
fn wrong_magic_and_future_version_are_typed() {
    let bytes = taco_store::encode_workbook(&rich_image()).expect("encode");
    let mut wrong_magic = bytes.clone();
    wrong_magic[0..4].copy_from_slice(b"ELSE");
    assert!(matches!(StoreReader::from_bytes(wrong_magic), Err(StoreError::BadMagic)));

    let mut wrong_tail = bytes.clone();
    let n = wrong_tail.len();
    wrong_tail[n - 4..].copy_from_slice(b"ELSE");
    assert!(matches!(StoreReader::from_bytes(wrong_tail), Err(StoreError::BadMagic)));

    let mut future = bytes.clone();
    future[4..6].copy_from_slice(&99u16.to_le_bytes());
    assert!(matches!(StoreReader::from_bytes(future), Err(StoreError::UnsupportedVersion(99))));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_multi_byte_damage_never_panics(seed in 0u64..u64::MAX) {
        let bytes = taco_store::encode_workbook(&rich_image()).expect("encode");
        let mut damaged = bytes.clone();
        let mut x = seed | 1;
        let mut step = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x
        };
        for _ in 0..(step() % 8 + 1) {
            let pos = (step() % bytes.len() as u64) as usize;
            damaged[pos] ^= (step() % 255 + 1) as u8;
        }
        // Outcome may be any typed error (or, vanishingly unlikely, a
        // clean read if damage re-randomized to the original); it must
        // never panic.
        let _ = StoreReader::from_bytes(damaged).and_then(|r| r.read_all());
    }

    #[test]
    fn wal_random_cut_points_recover_the_clean_prefix(seed in 0u64..u64::MAX) {
        let (bytes, records) = wal_bytes();
        let mut x = seed | 1;
        for _ in 0..16 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let cut = (x % (bytes.len() as u64 + 1)) as usize;
            let torn = &bytes[..cut];
            // Tolerant replay never fails on pure truncation and yields a
            // prefix of the original records.
            let replay = WalReader::parse(torn, ReplayMode::TolerateTear)
                .expect("truncation is always tolerable");
            prop_assert!(replay.records.len() <= records.len());
            prop_assert_eq!(&replay.records[..], &records[..replay.records.len()]);
            match replay.torn {
                None => prop_assert_eq!(cut, replay.clean_len as usize),
                Some((rec, offset)) => {
                    prop_assert_eq!(rec as usize, replay.records.len());
                    prop_assert!(offset as usize <= cut);
                }
            }
            // Strict replay errors unless the cut landed on a record
            // boundary.
            match WalReader::parse(torn, ReplayMode::Strict) {
                Ok(strict) => {
                    prop_assert_eq!(strict.records.len(), replay.records.len());
                    prop_assert_eq!(replay.torn, None);
                }
                Err(
                    StoreError::WalTorn { .. }
                    | StoreError::Truncated { .. }
                    | StoreError::BadMagic,
                ) => {}
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }
}

#[test]
fn crafted_overflow_payloads_are_typed_errors_not_panics() {
    // CRC protects against accidents, not adversaries: a re-checksummed
    // (or directly decoded) payload reaches the coordinate arithmetic
    // with arbitrary varints, and must still fail typed, never overflow.
    use taco_store::codec::write_uvarint;

    // ClearRange with a near-u64::MAX width delta.
    let mut payload = vec![2u8]; // OP_CLEAR_RANGE
    write_uvarint(&mut payload, 0).unwrap(); // sheet
    write_uvarint(&mut payload, 1).unwrap(); // head col
    write_uvarint(&mut payload, 1).unwrap(); // head row
    write_uvarint(&mut payload, u64::MAX / 2).unwrap(); // width - 1
    write_uvarint(&mut payload, 0).unwrap(); // height - 1
    assert!(matches!(EditRecord::decode(&payload), Err(StoreError::Malformed(_))));

    // A tiny sheet section declaring billions of cells must be rejected
    // before any allocation happens (counts are bounded by what the
    // remaining input could possibly hold).
    let mut section = Vec::new();
    write_uvarint(&mut section, 0).unwrap(); // no formula sources
    write_uvarint(&mut section, 1 << 40).unwrap(); // absurd cell count
    let reader = StoreReader::from_bytes(container_of(&section)).expect("a valid frame");
    assert!(matches!(reader.read_sheet(0), Err(StoreError::Malformed("cell count exceeds input"))));
}

/// A container of one sheet section holding `section`, checksummed as
/// the writer checksums one: what a crafted file looks like.
fn container_of(section: &[u8]) -> Vec<u8> {
    use taco_store::codec::{crc32, write_f64, write_string, write_uvarint};
    let mut out = b"TACO".to_vec();
    out.extend_from_slice(&taco_store::FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags
    let header = out.clone();
    out.extend_from_slice(section);
    let mut footer = Vec::new();
    write_uvarint(&mut footer, 1).unwrap(); // epoch
    write_f64(&mut footer, 0.0).unwrap(); // clock: now, today, seed
    write_f64(&mut footer, 0.0).unwrap();
    write_uvarint(&mut footer, 0).unwrap();
    write_uvarint(&mut footer, 1).unwrap(); // one sheet
    write_string(&mut footer, "S").unwrap();
    write_uvarint(&mut footer, header.len() as u64).unwrap();
    write_uvarint(&mut footer, section.len() as u64).unwrap();
    footer.extend_from_slice(&crc32(section).to_le_bytes());
    let footer_crc = crc32(&[header, footer.clone()].concat());
    out.extend_from_slice(&footer);
    out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
    out.extend_from_slice(&footer_crc.to_le_bytes());
    out.extend_from_slice(b"OCAT");
    out
}

#[test]
fn wal_bit_flips_error_or_shorten_the_prefix() {
    let (bytes, records) = wal_bytes();
    for (i, _) in bytes.iter().enumerate() {
        let mut damaged = bytes.clone();
        damaged[i] ^= 1 << (i % 8);
        match WalReader::parse(&damaged, ReplayMode::TolerateTear) {
            // Damage may surface as corruption, as a bad header, or (for
            // length-field damage near the tail) as a tear; whatever
            // parses must still be a prefix of the truth.
            Err(_) => {}
            Ok(replay) => {
                assert!(
                    replay.records.len() < records.len(),
                    "flip in byte {i} preserved every record undetected"
                );
                assert_eq!(&replay.records[..], &records[..replay.records.len()]);
            }
        }
    }
}
