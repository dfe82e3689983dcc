//! Streaming frame codec: length-prefixed, CRC-checked payloads over any
//! `std::io` stream.
//!
//! ```text
//! frame := payload_len uvarint · crc32(payload) u32 LE · payload
//! ```
//!
//! This is the WAL record shape ([`crate::wal`]) lifted out of the
//! append-only file and onto a bidirectional byte stream, so a wire
//! protocol gets the same corruption guarantees the on-disk formats have:
//! a declared length is bounded *before* any allocation, a checksum
//! mismatch is a typed [`StoreError::ChecksumMismatch`], and a stream that
//! ends mid-frame is a typed [`StoreError::Truncated`] — never a panic,
//! never an unbounded read.
//!
//! Unlike the WAL (which parses a fully-read file and must distinguish
//! torn tails from mid-log corruption), a frame is read incrementally from
//! a live peer: the reader blocks on `read_exact`, so a half-written frame
//! only surfaces when the peer disconnects (`Truncated`).

use crate::codec::{crc32, read_uvarint, write_uvarint};
use crate::StoreError;
use std::io::{Read, Write};

/// Default per-frame payload bound (1 MiB): large enough for any request
/// or a big `GetRange` response, small enough that a hostile declared
/// length cannot balloon allocation.
pub const DEFAULT_MAX_FRAME: u64 = 1 << 20;

/// The bytes of one frame around `payload`: what [`write_frame`] sends
/// and what the WAL appends as one record.
pub(crate) fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    let mut frame = Vec::with_capacity(payload.len() + 9);
    write_uvarint(&mut frame, payload.len() as u64)?;
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Writes one frame. A single `write_all` of the whole frame keeps a torn
/// write prefix-detectable on the reader's side.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), StoreError> {
    w.write_all(&encode_frame(payload)?)?;
    Ok(())
}

/// Reads one frame, enforcing `max_len` on the declared payload length
/// *before* allocating, and verifying the checksum after the read.
pub fn read_frame<R: Read>(r: &mut R, max_len: u64) -> Result<Vec<u8>, StoreError> {
    let len = read_uvarint(r)?;
    if len > max_len {
        return Err(StoreError::Malformed("frame length exceeds limit"));
    }
    let mut crc = [0u8; 4];
    r.read_exact(&mut crc)?;
    let crc = u32::from_le_bytes(crc);
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(StoreError::ChecksumMismatch { what: "frame payload" });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn round_trip() {
        for payload in [&b""[..], b"x", &[0u8; 300][..]] {
            let bytes = frame_bytes(payload);
            let mut r = &bytes[..];
            assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), payload);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn consecutive_frames_stream() {
        let mut bytes = frame_bytes(b"first");
        bytes.extend(frame_bytes(b"second"));
        let mut r = &bytes[..];
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"first");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"second");
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = frame_bytes(b"some payload");
        for cut in 0..bytes.len() {
            let mut r = &bytes[..cut];
            assert!(
                matches!(read_frame(&mut r, DEFAULT_MAX_FRAME), Err(StoreError::Truncated { .. })),
                "cut at {cut} must be a typed truncation"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_typed() {
        let bytes = frame_bytes(b"payload under test");
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                let mut r = &bad[..];
                // Any outcome but a panic or a wrong payload is fine: a
                // length flip can truncate or overrun, a payload/crc flip
                // must fail the checksum.
                match read_frame(&mut r, DEFAULT_MAX_FRAME) {
                    Ok(p) => assert_eq!(p, b"payload under test", "silent corruption at {i}:{bit}"),
                    Err(
                        StoreError::Truncated { .. }
                        | StoreError::Malformed(_)
                        | StoreError::ChecksumMismatch { .. },
                    ) => {}
                    Err(e) => panic!("unexpected error kind at {i}:{bit}: {e}"),
                }
            }
        }
    }

    #[test]
    fn oversized_declared_length_is_bounded_before_allocation() {
        // A tiny input declaring a 2^40-byte payload must fail on the
        // bound, not attempt the allocation.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, 1u64 << 40).unwrap();
        bytes.extend_from_slice(&[0u8; 8]);
        let mut r = &bytes[..];
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(StoreError::Malformed("frame length exceeds limit"))
        ));
    }
}
