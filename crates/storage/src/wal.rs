//! The append-only write-ahead log.
//!
//! A WAL buffer is a fixed header followed by self-checking records, one
//! per applied [`NetworkEvent`]:
//!
//! ```text
//! header:  magic "SMN1WAL\0" (8 bytes), version u32 (= 1)
//! record:  payload_len u32, payload_crc u64 (CRC-64/XZ), payload
//! payload: seq u64, tag u8, fields
//!          tag 1 = Assert : candidate u32, approved u8
//!          tag 2 = Extend : a u32, b u32, confidence f64 (IEEE bits)
//!          tag 3 = Retire : candidate u32
//! ```
//!
//! Sequence numbers are global and strictly increasing across log
//! rotations; a snapshot stores the last sequence it folded in
//! (`applied_seq`), so recovery replays exactly the records with
//! `seq > applied_seq`.
//!
//! Two decoders with different contracts:
//!
//! * [`decode_records`] is **strict** — any anomaly is a typed
//!   [`StorageError`]. Use it when the log is supposed to be intact
//!   (round-trip tests, integrity audits).
//! * [`decode_prefix`] is **tolerant** — it returns every record up to
//!   the first anomaly plus the error that stopped it. This is the
//!   recovery contract: a crash tears the *tail* of the log, and
//!   everything before the tear is still durable. A record whose
//!   checksum fails, whose declared length runs past the buffer, or
//!   whose payload is malformed ends the readable prefix; it is never
//!   skipped over (anything after a tear is untrustworthy).

use crate::error::StorageError;
use crate::format::{crc64, put_f64, put_u32, put_u64, Dec};
use smn_core::persist::NetworkEvent;
use smn_schema::{AttributeId, CandidateId};

/// WAL magic bytes.
pub const WAL_MAGIC: [u8; 8] = *b"SMN1WAL\0";
/// The WAL format version this build writes and reads.
pub const WAL_VERSION: u32 = 1;

const TAG_ASSERT: u8 = 1;
const TAG_EXTEND: u8 = 2;
const TAG_RETIRE: u8 = 3;

/// Largest well-formed record payload (a defensive bound; real payloads
/// are ≤ 21 bytes).
const MAX_PAYLOAD: usize = 1 << 16;

/// The fixed WAL file header.
pub fn wal_header() -> Vec<u8> {
    let mut buf = Vec::with_capacity(12);
    buf.extend_from_slice(&WAL_MAGIC);
    put_u32(&mut buf, WAL_VERSION);
    buf
}

/// Appends one framed record (`seq`, `event`) to `buf`.
pub fn encode_record_into(buf: &mut Vec<u8>, seq: u64, event: &NetworkEvent) {
    let mut payload = Vec::with_capacity(21);
    put_u64(&mut payload, seq);
    match *event {
        NetworkEvent::Assert { candidate, approved } => {
            payload.push(TAG_ASSERT);
            put_u32(&mut payload, candidate.0);
            payload.push(approved as u8);
        }
        NetworkEvent::Extend { a, b, confidence } => {
            payload.push(TAG_EXTEND);
            put_u32(&mut payload, a.0);
            put_u32(&mut payload, b.0);
            put_f64(&mut payload, confidence);
        }
        NetworkEvent::Retire { candidate } => {
            payload.push(TAG_RETIRE);
            put_u32(&mut payload, candidate.0);
        }
    }
    put_u32(buf, payload.len() as u32);
    put_u64(buf, crc64(&payload));
    buf.extend_from_slice(&payload);
}

/// Encodes exactly one framed record as a standalone buffer — the
/// command-stream payload of the distributed mode (one event per wire
/// frame, same bytes a WAL append would write).
pub fn encode_record(seq: u64, event: &NetworkEvent) -> Vec<u8> {
    let mut buf = Vec::with_capacity(33);
    encode_record_into(&mut buf, seq, event);
    buf
}

/// Decodes exactly one standalone framed record (the inverse of
/// [`encode_record`]). Strict: trailing bytes, a failed checksum or a
/// malformed payload are typed errors; an empty buffer is
/// [`TruncatedRecord`](StorageError::TruncatedRecord).
pub fn decode_record(bytes: &[u8]) -> Result<(u64, NetworkEvent), StorageError> {
    let mut dec = Dec::new(bytes);
    let record = read_record(&mut dec)?;
    if dec.remaining() != 0 {
        return Err(StorageError::Invalid(format!(
            "wal record: {} trailing bytes after the frame",
            dec.remaining()
        )));
    }
    Ok(record)
}

/// Reads one framed record from the front of `dec` — for a record that
/// leads a larger payload. Strict like [`decode_record`], except that
/// the bytes after the frame are left to the caller.
pub fn read_record(dec: &mut Dec<'_>) -> Result<(u64, NetworkEvent), StorageError> {
    next_record(dec)?.ok_or(StorageError::TruncatedRecord {
        what: "wal record frame",
        needed: 12,
        available: 0,
    })
}

fn decode_payload(payload: &[u8]) -> Result<(u64, NetworkEvent), StorageError> {
    let mut d = Dec::new(payload);
    let seq = d.u64("wal record seq")?;
    let event = match d.u8("wal record tag")? {
        TAG_ASSERT => NetworkEvent::Assert {
            candidate: CandidateId(d.u32("wal assert candidate")?),
            approved: d.bool("wal assert approved")?,
        },
        TAG_EXTEND => NetworkEvent::Extend {
            a: AttributeId(d.u32("wal extend endpoint")?),
            b: AttributeId(d.u32("wal extend endpoint")?),
            confidence: d.f64("wal extend confidence")?,
        },
        TAG_RETIRE => {
            NetworkEvent::Retire { candidate: CandidateId(d.u32("wal retire candidate")?) }
        }
        t => return Err(StorageError::Invalid(format!("wal record tag {t}"))),
    };
    if d.remaining() != 0 {
        return Err(StorageError::Invalid(format!(
            "wal record: {} trailing payload bytes",
            d.remaining()
        )));
    }
    Ok((seq, event))
}

fn decode_header(dec: &mut Dec<'_>) -> Result<(), StorageError> {
    let magic = dec.take(8, "wal magic")?;
    if magic != WAL_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(StorageError::BadMagic { expected: WAL_MAGIC, found });
    }
    let version = dec.u32("wal version")?;
    if version != WAL_VERSION {
        return Err(StorageError::VersionMismatch { expected: WAL_VERSION, found: version });
    }
    Ok(())
}

fn next_record(dec: &mut Dec<'_>) -> Result<Option<(u64, NetworkEvent)>, StorageError> {
    if dec.remaining() == 0 {
        return Ok(None);
    }
    let payload_len = dec.u32("wal record frame")? as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(StorageError::Invalid(format!(
            "wal record payload of {payload_len} bytes exceeds the format bound"
        )));
    }
    let stored_crc = dec.u64("wal record frame")?;
    let payload = dec.take(payload_len, "wal record payload")?;
    let found = crc64(payload);
    if found != stored_crc {
        return Err(StorageError::ChecksumMismatch {
            what: "wal record",
            expected: stored_crc,
            found,
        });
    }
    decode_payload(payload).map(Some)
}

/// Strictly decodes a whole WAL buffer. Any anomaly anywhere — header,
/// frame, checksum, payload, trailing bytes — is a typed error.
pub fn decode_records(bytes: &[u8]) -> Result<Vec<(u64, NetworkEvent)>, StorageError> {
    let mut dec = Dec::new(bytes);
    decode_header(&mut dec)?;
    let mut records = Vec::new();
    while let Some(record) = next_record(&mut dec)? {
        records.push(record);
    }
    Ok(records)
}

/// Tolerantly decodes the longest intact prefix of a WAL buffer: every
/// record before the first anomaly, plus the error that ended the scan
/// (`None` for a clean end). A torn header yields an empty prefix. This
/// function never panics on any byte string.
pub fn decode_prefix(bytes: &[u8]) -> (Vec<(u64, NetworkEvent)>, Option<StorageError>) {
    let mut dec = Dec::new(bytes);
    if let Err(e) = decode_header(&mut dec) {
        return (Vec::new(), Some(e));
    }
    let mut records = Vec::new();
    loop {
        match next_record(&mut dec) {
            Ok(Some(record)) => records.push(record),
            Ok(None) => return (records, None),
            Err(e) => return (records, Some(e)),
        }
    }
}

/// An in-memory WAL: the byte image of a log file, plus the sequence
/// counter handing out record numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct WalBuffer {
    buf: Vec<u8>,
    next_seq: u64,
}

impl WalBuffer {
    /// An empty log whose first record will carry `next_seq` — use
    /// `applied_seq + 1` of the snapshot the log continues from (or `1`
    /// for a fresh store).
    pub fn new(next_seq: u64) -> Self {
        Self { buf: wal_header(), next_seq }
    }

    /// Appends one event; returns the sequence number it was assigned.
    pub fn append(&mut self, event: &NetworkEvent) -> u64 {
        let seq = self.next_seq;
        encode_record_into(&mut self.buf, seq, event);
        self.next_seq += 1;
        seq
    }

    /// The byte image (header + records) accumulated so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<NetworkEvent> {
        vec![
            NetworkEvent::Assert { candidate: CandidateId(3), approved: true },
            NetworkEvent::Extend { a: AttributeId(1), b: AttributeId(7), confidence: 0.25 },
            NetworkEvent::Retire { candidate: CandidateId(0) },
            NetworkEvent::Assert { candidate: CandidateId(2), approved: false },
        ]
    }

    #[test]
    fn records_round_trip_in_order() {
        let mut wal = WalBuffer::new(5);
        for e in sample_events() {
            wal.append(&e);
        }
        let records = decode_records(wal.bytes()).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records.iter().map(|r| r.0).collect::<Vec<_>>(), vec![5, 6, 7, 8]);
        assert_eq!(records.iter().map(|r| r.1).collect::<Vec<_>>(), sample_events());
        let (prefix, err) = decode_prefix(wal.bytes());
        assert_eq!(prefix, records);
        assert_eq!(err, None);
    }

    #[test]
    fn a_torn_tail_preserves_the_prefix() {
        let mut wal = WalBuffer::new(1);
        let mut boundaries = vec![wal.bytes().len()];
        for e in sample_events() {
            wal.append(&e);
            boundaries.push(wal.bytes().len());
        }
        let full = wal.bytes();
        let whole = decode_records(full).unwrap();
        for cut in 12..=full.len() {
            let (prefix, err) = decode_prefix(&full[..cut]);
            // exactly the records fully written before the cut survive
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(prefix, whole[..complete], "prefix at cut {cut}");
            // a cut mid-record reports its anomaly; a boundary cut is clean
            assert_eq!(err.is_none(), boundaries.contains(&cut), "anomaly report at cut {cut}");
        }
    }
}
