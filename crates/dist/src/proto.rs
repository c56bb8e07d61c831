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
//! batches, probability vectors) are written with the storage codec's
//! `put_*` functions and read with its bounds-checked [`Dec`]: lists
//! carry a `u64` count that is checked against the remaining bytes
//! before anything is allocated.
//!
//! The request/response discipline is strict lockstep: the coordinator
//! sends one request frame and reads exactly one response frame, which
//! is [`RESP_OK`] with the request-specific payload or [`RESP_ERR`]
//! with a UTF-8 message. Decoders never panic on any input.

use crate::error::DistError;
use smn_schema::CandidateId;
use smn_storage::format::{put_bool, put_f64s, put_u32, put_u64, Dec};
use smn_storage::StorageError;

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

/// Encodes the per-shard probability map a server answers bootstrap and
/// rebuild requests with: `(component id, local-order Eq. 2 vector)`
/// entries, ascending by component id.
pub fn put_shard_probs(buf: &mut Vec<u8>, entries: &[(usize, Vec<f64>)]) {
    put_u64(buf, entries.len() as u64);
    for (k, probs) in entries {
        put_u32(buf, *k as u32);
        put_f64s(buf, probs);
    }
}

/// Decodes a per-shard probability map.
pub fn read_shard_probs(d: &mut Dec<'_>) -> Result<Vec<(usize, Vec<f64>)>, StorageError> {
    // an entry is at least a component id and an empty vector's count
    let n = d.len(12, "shard prob entries")?;
    (0..n).map(|_| Ok((d.u32("shard prob component")? as usize, d.f64s("shard probs")?))).collect()
}

/// Encodes a what-if batch: `(global candidate, hypothetical verdict)`.
pub fn encode_what_if(queries: &[(CandidateId, bool)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + queries.len() * 5);
    put_u64(&mut buf, queries.len() as u64);
    for &(c, approved) in queries {
        put_u32(&mut buf, c.0);
        put_bool(&mut buf, approved);
    }
    buf
}

/// Decodes a what-if batch.
pub fn decode_what_if(payload: &[u8]) -> Result<Vec<(CandidateId, bool)>, DistError> {
    let mut d = Dec::new(payload);
    let n = d.len(5, "what-if count")?;
    let queries = (0..n)
        .map(|_| Ok((CandidateId(d.u32("what-if candidate")?), d.bool("what-if verdict")?)))
        .collect::<Result<_, StorageError>>()?;
    d.finish("what-if batch")?;
    Ok(queries)
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
        let mut d = Dec::new(&buf);
        assert_eq!(read_shard_probs(&mut d).unwrap(), vec![(2, vec![0.5, 0.25]), (5, vec![])]);
        d.finish("probs").unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let buf = encode_what_if(&[(CandidateId(1), true)]);
        assert!(matches!(decode_what_if(&buf[..buf.len() - 1]), Err(DistError::Storage(_))));
        let mut extended = buf.clone();
        extended.push(0);
        assert!(matches!(decode_what_if(&extended), Err(DistError::Storage(_))));
        let mut bad = buf;
        *bad.last_mut().unwrap() = 7; // verdict byte must be 0/1
        assert!(matches!(decode_what_if(&bad), Err(DistError::Storage(_))));
        // a hostile count is refused before anything is allocated
        let mut hostile = Vec::new();
        put_u64(&mut hostile, 1 << 40);
        assert!(matches!(decode_what_if(&hostile), Err(DistError::Storage(_))));
    }
}
