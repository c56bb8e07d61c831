//! Length-prefixed, checksummed message frames — the wire codec of the
//! multi-process reconciliation mode (`smn-dist`).
//!
//! A frame is the smallest self-checking unit that can cross a process
//! boundary. The payloads it carries are the crate's existing encodings
//! — [`encode_shard_state`](crate::format::encode_shard_state) sections
//! for shard shipment, [`wal::encode_record`](crate::wal::encode_record)
//! records for the command stream, and routing lists written with the
//! [`format`](crate::format) codec's `put_*` and read with its
//! [`Dec`] — so the distributed wire protocol adds
//! *no new serialization*, only framing:
//!
//! ```text
//! offset  size  field
//! ------  ----  ---------------------------------------------
//!      0     8  magic        "SMN1FRM\0"
//!      8     4  version      u32  (= 1)
//!     12     4  kind         u32  application-defined message tag
//!     16     4  payload_len  u32  (bounded by MAX_FRAME_PAYLOAD)
//!     20     8  payload_crc  u64  CRC-64/XZ of the payload bytes
//!     28     …  payload
//! ```
//!
//! All integers little-endian, like the snapshot and WAL formats. The
//! decoder never panics on any byte string: magic → version → length
//! bound → bounds → checksum, each failure a typed [`StorageError`].
//! The declared length is validated against [`MAX_FRAME_PAYLOAD`]
//! *before* any allocation, so a hostile peer cannot force an
//! out-of-memory with one length field.

use crate::error::StorageError;
use crate::format::{crc64, put_u32, put_u64, Dec};
use std::io::{Read, Write};

/// Frame magic bytes.
pub const FRAME_MAGIC: [u8; 8] = *b"SMN1FRM\0";
/// The frame format version this build writes and reads.
pub const FRAME_VERSION: u32 = 1;
/// Fixed bytes before the payload.
pub const FRAME_HEADER_LEN: usize = 28;
/// Largest payload a well-formed frame may declare. Shard shipments of
/// large federations run to megabytes; a gigabyte is a defensive bound,
/// not a target.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// One decoded frame: the application tag and its payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Application-defined message kind.
    pub kind: u32,
    /// The checksummed payload.
    pub payload: Vec<u8>,
}

/// Encodes one frame into a fresh buffer.
pub fn encode_frame(kind: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&FRAME_MAGIC);
    put_u32(&mut buf, FRAME_VERSION);
    put_u32(&mut buf, kind);
    put_u32(&mut buf, payload.len() as u32);
    put_u64(&mut buf, crc64(payload));
    buf.extend_from_slice(payload);
    buf
}

/// Decodes exactly one frame from the front of `bytes`, returning it and
/// how many bytes it consumed (so a buffer of concatenated frames can be
/// walked). Strict and panic-free on any input.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), StorageError> {
    let mut d = Dec::new(bytes);
    let magic = d.take(8, "frame magic")?;
    if magic != FRAME_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(StorageError::BadMagic { expected: FRAME_MAGIC, found });
    }
    let version = d.u32("frame version")?;
    if version != FRAME_VERSION {
        return Err(StorageError::VersionMismatch { expected: FRAME_VERSION, found: version });
    }
    let kind = d.u32("frame kind")?;
    let len = d.u32("frame payload_len")? as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(StorageError::Invalid(format!(
            "frame payload of {len} bytes exceeds the format bound"
        )));
    }
    let stored_crc = d.u64("frame payload_crc")?;
    let payload = d.take(len, "frame payload")?;
    let found = crc64(payload);
    if found != stored_crc {
        return Err(StorageError::ChecksumMismatch {
            what: "frame payload",
            expected: stored_crc,
            found,
        });
    }
    Ok((Frame { kind, payload: payload.to_vec() }, FRAME_HEADER_LEN + len))
}

/// Writes one frame to a byte sink (e.g. a `TcpStream`), flushing it.
pub fn write_frame(w: &mut impl Write, kind: u32, payload: &[u8]) -> Result<(), StorageError> {
    w.write_all(&encode_frame(kind, payload))?;
    w.flush()?;
    Ok(())
}

/// Reads exactly one frame from a byte source (e.g. a `TcpStream`): the
/// fixed header first, then exactly the declared payload. A peer that
/// closes mid-frame yields a typed I/O or truncation error, never a
/// panic; a hostile declared length is rejected before allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, StorageError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let mut d = Dec::new(&header);
    let magic = d.take(8, "frame magic")?;
    if magic != FRAME_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(StorageError::BadMagic { expected: FRAME_MAGIC, found });
    }
    let version = d.u32("frame version")?;
    if version != FRAME_VERSION {
        return Err(StorageError::VersionMismatch { expected: FRAME_VERSION, found: version });
    }
    let kind = d.u32("frame kind")?;
    let len = d.u32("frame payload_len")? as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(StorageError::Invalid(format!(
            "frame payload of {len} bytes exceeds the format bound"
        )));
    }
    let stored_crc = d.u64("frame payload_crc")?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let found = crc64(&payload);
    if found != stored_crc {
        return Err(StorageError::ChecksumMismatch {
            what: "frame payload",
            expected: stored_crc,
            found,
        });
    }
    Ok(Frame { kind, payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_report_consumed_length() {
        let payload = b"shard shipment bytes".to_vec();
        let buf = encode_frame(7, &payload);
        assert_eq!(buf.len(), FRAME_HEADER_LEN + payload.len());
        let (frame, consumed) = decode_frame(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(frame, Frame { kind: 7, payload });
    }

    #[test]
    fn concatenated_frames_walk_by_consumed_offset() {
        let mut buf = encode_frame(1, b"one");
        buf.extend_from_slice(&encode_frame(2, b""));
        buf.extend_from_slice(&encode_frame(3, b"three"));
        let mut offset = 0;
        let mut kinds = Vec::new();
        while offset < buf.len() {
            let (frame, consumed) = decode_frame(&buf[offset..]).unwrap();
            kinds.push((frame.kind, frame.payload.len()));
            offset += consumed;
        }
        assert_eq!(kinds, vec![(1, 3), (2, 0), (3, 5)]);
    }

    #[test]
    fn stream_read_write_round_trips() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 9, b"over the stream").unwrap();
        write_frame(&mut wire, 10, &[0xFF; 1000]).unwrap();
        let mut cursor = &wire[..];
        let a = read_frame(&mut cursor).unwrap();
        let b = read_frame(&mut cursor).unwrap();
        assert_eq!((a.kind, a.payload.as_slice()), (9, &b"over the stream"[..]));
        assert_eq!((b.kind, b.payload.len()), (10, 1000));
        assert!(cursor.is_empty());
    }

    #[test]
    fn every_corruption_is_a_typed_error() {
        let good = encode_frame(4, b"payload");
        // magic
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bad), Err(StorageError::BadMagic { .. })));
        // version
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(decode_frame(&bad), Err(StorageError::VersionMismatch { .. })));
        // flipped payload bit
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(decode_frame(&bad), Err(StorageError::ChecksumMismatch { .. })));
        // truncated payload
        assert!(matches!(
            decode_frame(&good[..good.len() - 2]),
            Err(StorageError::TruncatedRecord { .. })
        ));
        // truncated header over a stream reads as an I/O error
        let mut cursor = &good[..10];
        assert!(matches!(read_frame(&mut cursor), Err(StorageError::Io(_))));
        // hostile declared length is rejected before allocation
        let mut bad = good.clone();
        bad[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&bad), Err(StorageError::Invalid(_))));
        let mut cursor = &bad[..];
        assert!(matches!(read_frame(&mut cursor), Err(StorageError::Invalid(_))));
    }
}
