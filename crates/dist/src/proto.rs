//! The coordinator ↔ shard-server message vocabulary.
//!
//! Every message is one `smn-storage` [frame](smn_storage::Frame)
//! (magic, version, kind, length, CRC-64/XZ); the payloads reuse the
//! storage crate's existing encodings wherever state crosses the wire —
//! [`encode_snapshot`](smn_storage::format::encode_snapshot) for the
//! structure-only bootstrap image,
//! [`encode_shard_state`](smn_storage::format::encode_shard_state) for
//! shard shipment, [`encode_record`](smn_storage::wal::encode_record)
//! WAL records for the command stream (asserts and evolution events are
//! literally the log entries a durable single-process run journals) —
//! so the distributed mode adds framing and routing, no new state
//! serialization. The few routing-only payloads (owned lists, query
//! batches, probability vectors) are encoded here with the same
//! little-endian conventions as the storage formats.
//!
//! The request/response discipline is strict lockstep: the coordinator
//! sends one request frame and reads exactly one response frame, which
//! is [`RESP_OK`] with the request-specific payload or [`RESP_ERR`]
//! with a UTF-8 message. Decoders never panic on any input.

use crate::error::DistError;
use smn_schema::CandidateId;

/// Bootstrap: owned-component list + structure-only snapshot image.
pub const REQ_BOOTSTRAP: u32 = 1;
/// One coordinator-validated assertion as a WAL `Assert` record.
pub const REQ_ASSERT: u32 = 2;
/// A batch of hypothetical assertions to price (`H'_k` each).
pub const REQ_WHAT_IF: u32 = 3;
/// One flat pool of candidates (global ids, all owned) to price by
/// information gain.
pub const REQ_GAINS: u32 = 4;
/// Export one owned shard's sample state for shipment.
pub const REQ_EXPORT: u32 = 5;
/// An evolution event (WAL `Extend`/`Retire` record) every server
/// applies to its structure mirror.
pub const REQ_APPLY_EVENT: u32 = 6;
/// Rebuild a merged component from the absorbed shards' exports.
pub const REQ_REBUILD_MERGED: u32 = 7;
/// Rebuild one split part from the dissolved shard's export.
pub const REQ_REBUILD_PART: u32 = 8;
/// Orderly shutdown of the server loop.
pub const REQ_SHUTDOWN: u32 = 9;
/// Success response; payload depends on the request kind.
pub const RESP_OK: u32 = 100;
/// Failure response; payload is a UTF-8 message.
pub const RESP_ERR: u32 = 101;

/// Little-endian u32 append (the storage formats' convention).
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian f64 append (bit pattern, for bit-exact round trips).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A strict little-endian payload reader. Every shortfall is a typed
/// [`DistError::Protocol`], never a panic.
pub struct Rd<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Rd<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, off: 0 }
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DistError> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| DistError::Protocol(format!("truncated payload reading {what}")))?;
        let out = &self.bytes[self.off..end];
        self.off = end;
        Ok(out)
    }

    /// Reads one u32.
    pub fn u32(&mut self, what: &str) -> Result<u32, DistError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads one f64 bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64, DistError> {
        let b = self.take(8, what)?;
        Ok(f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
    }

    /// Reads one u8 as a strict bool (0/1).
    pub fn flag(&mut self, what: &str) -> Result<bool, DistError> {
        match self.take(1, what)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(DistError::Protocol(format!("{what}: flag byte {v}"))),
        }
    }

    /// The unread remainder (consumes it).
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.off..];
        self.off = self.bytes.len();
        out
    }

    /// Errors unless the payload was consumed exactly.
    pub fn finish(self, what: &str) -> Result<(), DistError> {
        if self.off == self.bytes.len() {
            Ok(())
        } else {
            Err(DistError::Protocol(format!(
                "{what}: {} trailing bytes",
                self.bytes.len() - self.off
            )))
        }
    }
}

/// Encodes a `u32`-id list with a leading count.
pub fn put_ids(buf: &mut Vec<u8>, ids: &[u32]) {
    put_u32(buf, ids.len() as u32);
    for &id in ids {
        put_u32(buf, id);
    }
}

/// Decodes a `u32`-id list with a leading count.
pub fn read_ids(rd: &mut Rd<'_>, what: &str) -> Result<Vec<u32>, DistError> {
    let n = rd.u32(what)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(rd.u32(what)?);
    }
    Ok(out)
}

/// Encodes an `f64` vector with a leading count (bit-exact).
pub fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    put_u32(buf, values.len() as u32);
    for &v in values {
        put_f64(buf, v);
    }
}

/// Decodes an `f64` vector with a leading count.
pub fn read_f64s(rd: &mut Rd<'_>, what: &str) -> Result<Vec<f64>, DistError> {
    let n = rd.u32(what)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(rd.f64(what)?);
    }
    Ok(out)
}

/// Encodes the per-shard probability map a server answers bootstrap and
/// rebuild requests with: `(component id, local-order Eq. 2 vector)`
/// entries, ascending by component id.
pub fn put_shard_probs(buf: &mut Vec<u8>, entries: &[(usize, Vec<f64>)]) {
    put_u32(buf, entries.len() as u32);
    for (k, probs) in entries {
        put_u32(buf, *k as u32);
        put_f64s(buf, probs);
    }
}

/// Decodes a per-shard probability map.
pub fn read_shard_probs(rd: &mut Rd<'_>) -> Result<Vec<(usize, Vec<f64>)>, DistError> {
    let n = rd.u32("shard prob entries")? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let k = rd.u32("shard prob component")? as usize;
        let probs = read_f64s(rd, "shard probs")?;
        out.push((k, probs));
    }
    Ok(out)
}

/// Encodes a what-if batch: `(global candidate, hypothetical verdict)`.
pub fn encode_what_if(queries: &[(CandidateId, bool)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + queries.len() * 5);
    put_u32(&mut buf, queries.len() as u32);
    for &(c, approved) in queries {
        put_u32(&mut buf, c.0);
        buf.push(u8::from(approved));
    }
    buf
}

/// Decodes a what-if batch.
pub fn decode_what_if(payload: &[u8]) -> Result<Vec<(CandidateId, bool)>, DistError> {
    let mut rd = Rd::new(payload);
    let n = rd.u32("what-if count")? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let c = CandidateId(rd.u32("what-if candidate")?);
        let approved = rd.flag("what-if verdict")?;
        out.push((c, approved));
    }
    rd.finish("what-if batch")?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_payloads_round_trip() {
        let queries = vec![(CandidateId(3), true), (CandidateId(9), false)];
        assert_eq!(decode_what_if(&encode_what_if(&queries)).unwrap(), queries);

        let mut buf = Vec::new();
        put_shard_probs(&mut buf, &[(2, vec![0.5, 0.25]), (5, vec![])]);
        let mut rd = Rd::new(&buf);
        assert_eq!(read_shard_probs(&mut rd).unwrap(), vec![(2, vec![0.5, 0.25]), (5, vec![])]);
        rd.finish("probs").unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let buf = encode_what_if(&[(CandidateId(1), true)]);
        assert!(matches!(decode_what_if(&buf[..buf.len() - 1]), Err(DistError::Protocol(_))));
        let mut extended = buf.clone();
        extended.push(0);
        assert!(matches!(decode_what_if(&extended), Err(DistError::Protocol(_))));
        let mut bad = buf;
        *bad.last_mut().unwrap() = 7; // verdict byte must be 0/1
        assert!(matches!(decode_what_if(&bad), Err(DistError::Protocol(_))));
    }
}
