//! The byte codec layer: LEB128 varints, the zigzag mapping, strings,
//! floats and CRC-32, over `std::io` readers and writers.
//!
//! Byte-aligned LEB128 frames everything: section payloads, where cells
//! and dirty marks are stored as gaps between sorted neighbours (the
//! WebGraph recipe: gaps are small, and a small varint is one byte), WAL
//! records, which are appended one by one, and the service's wire frames.
//!
//! Every decoder returns [`StoreError`] on malformed input — truncation or
//! bit damage must surface as typed errors, never as panics or wraps.

use crate::StoreError;
use std::io::{Read, Write};

// ---- byte layer: LEB128 + zigzag ---------------------------------------

/// Writes `v` as an LEB128 varint (7 bits per byte, MSB = continuation).
pub fn write_uvarint<W: Write>(w: &mut W, mut v: u64) -> Result<(), StoreError> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads one LEB128 varint. Fails on EOF and on encodings longer than the
/// 10 bytes a `u64` can need (corrupt continuation bits would otherwise
/// read unboundedly).
pub fn read_uvarint<R: Read>(r: &mut R) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        let payload = u64::from(b & 0x7f);
        if shift == 63 && payload > 1 {
            return Err(StoreError::Malformed("varint overflows u64"));
        }
        v |= payload << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(StoreError::Malformed("varint longer than 10 bytes"))
}

/// Zigzag-maps a signed integer so small magnitudes get small codes:
/// `0, -1, 1, -2, … → 0, 1, 2, 3, …`.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes a signed value as zigzag + LEB128.
pub fn write_ivarint<W: Write>(w: &mut W, v: i64) -> Result<(), StoreError> {
    write_uvarint(w, zigzag(v))
}

/// Reads a signed value written by [`write_ivarint`].
pub fn read_ivarint<R: Read>(r: &mut R) -> Result<i64, StoreError> {
    Ok(unzigzag(read_uvarint(r)?))
}

// ---- shared string / float helpers -------------------------------------

/// Writes a length-prefixed UTF-8 string.
pub fn write_string<W: Write>(w: &mut W, s: &str) -> Result<(), StoreError> {
    write_uvarint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// Reads a length-prefixed UTF-8 string, bounding the declared length by
/// `limit` so corrupt lengths cannot trigger huge allocations.
pub fn read_string<R: Read>(r: &mut R, limit: u64) -> Result<String, StoreError> {
    let len = read_uvarint(r)?;
    if len > limit {
        return Err(StoreError::Malformed("string length exceeds section bound"));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| StoreError::Malformed("string is not UTF-8"))
}

/// Writes an `f64` as its little-endian bit pattern (bit-exact, NaN-safe).
pub fn write_f64<W: Write>(w: &mut W, v: f64) -> Result<(), StoreError> {
    w.write_all(&v.to_bits().to_le_bytes())?;
    Ok(())
}

/// Reads an `f64` written by [`write_f64`].
pub fn read_f64<R: Read>(r: &mut R) -> Result<f64, StoreError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_bits(u64::from_le_bytes(buf)))
}

// ---- checksums ----------------------------------------------------------

/// CRC-32 (IEEE, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of a byte slice — the integrity check for every section,
/// the footer, and each WAL record.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uvarint_round_trips_edges() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v).unwrap();
            assert_eq!(read_uvarint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn uvarint_rejects_overflow_and_eof() {
        // 10 continuation bytes with a too-large final payload.
        let bad = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(read_uvarint(&mut bad.as_slice()).is_err());
        let torn = [0x80u8];
        assert!(matches!(read_uvarint(&mut torn.as_slice()), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn zigzag_is_bijective_on_edges() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456, 98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn varints_round_trip(seed in 0u64..u64::MAX) {
            let mut vals = Vec::new();
            let mut x = seed;
            for _ in 0..50 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                vals.push(x >> (x % 60));
            }
            let mut buf = Vec::new();
            for &v in &vals {
                write_uvarint(&mut buf, v).unwrap();
                write_ivarint(&mut buf, v as i64).unwrap();
            }
            let mut r = buf.as_slice();
            for &v in &vals {
                prop_assert_eq!(read_uvarint(&mut r).unwrap(), v);
                prop_assert_eq!(read_ivarint(&mut r).unwrap(), v as i64);
            }
        }
    }

    #[test]
    fn strings_bound_allocation() {
        let mut buf = Vec::new();
        write_string(&mut buf, "héllo").unwrap();
        assert_eq!(read_string(&mut buf.as_slice(), 1024).unwrap(), "héllo");
        // A declared length far past the bound must fail before allocating.
        let mut bad = Vec::new();
        write_uvarint(&mut bad, u64::MAX / 2).unwrap();
        assert!(read_string(&mut bad.as_slice(), 1024).is_err());
    }

    #[test]
    fn crc32_known_value() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn f64_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut buf = Vec::new();
            write_f64(&mut buf, v).unwrap();
            let back = read_f64(&mut buf.as_slice()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
