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
use smn_core::persist::{NetworkEvent, ShardState};
use smn_schema::CandidateId;
use smn_storage::format::{decode_shard_state, put_bool, put_f64s, put_ids, put_u32, put_u64, Dec};
use smn_storage::wal::{encode_record_into, read_record};
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
/// Export owned shards' sample states for shipment: an `ids` list of
/// component ids, answered by [`encode_exports`].
pub const REQ_EXPORT: u32 = 5;
/// An evolution event every server applies to its structure, rebuilding
/// the post-event components it owns (see [`encode_evolve`]).
pub const REQ_EVOLVE: u32 = 6;
/// Orderly shutdown of the server loop.
pub const REQ_SHUTDOWN: u32 = 7;
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

/// Encodes a [`REQ_EXPORT`] reply: a `u64` count, then each
/// [`encode_shard_state`](smn_storage::format::encode_shard_state)
/// payload as a `u32` length and its bytes, in request order.
pub fn encode_exports(states: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, states.len() as u64);
    for state in states {
        put_u32(&mut buf, state.len() as u32);
        buf.extend_from_slice(state);
    }
    buf
}

/// Decodes a [`REQ_EXPORT`] reply into the encoded shard states, which
/// the coordinator forwards in the shipment section undecoded.
pub fn decode_exports(payload: &[u8]) -> Result<Vec<Vec<u8>>, DistError> {
    let mut d = Dec::new(payload);
    let n = d.len(4, "export count")?;
    let states = (0..n)
        .map(|_| {
            let len = d.u32("exported state length")? as usize;
            Ok(d.take(len, "exported state")?.to_vec())
        })
        .collect::<Result<_, StorageError>>()?;
    d.finish("export reply")?;
    Ok(states)
}

/// Encodes the shipment section of a [`REQ_EVOLVE`] payload: a `u64`
/// count, then each dissolved shard's pre-event member list and its
/// length-prefixed [`encode_shard_state`](smn_storage::format::encode_shard_state)
/// bytes, in dissolution order.
pub fn encode_shipments(shipments: &[(&[CandidateId], Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, shipments.len() as u64);
    for (members, state) in shipments {
        put_ids(&mut buf, &members.iter().map(|c| c.0).collect::<Vec<u32>>());
        put_u32(&mut buf, state.len() as u32);
        buf.extend_from_slice(state);
    }
    buf
}

/// Encodes one server's [`REQ_EVOLVE`] payload: the WAL `Extend`/`Retire`
/// record, the rebuilt components the server owns, and — only when
/// that list is non-empty — the [`encode_shipments`] section.
pub fn encode_evolve(seq: u64, event: &NetworkEvent, rebuilt: &[u32], shipments: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_record_into(&mut buf, seq, event);
    put_ids(&mut buf, rebuilt);
    if !rebuilt.is_empty() {
        buf.extend_from_slice(shipments);
    }
    buf
}

/// A decoded [`REQ_EVOLVE`] payload.
pub struct Evolve {
    /// The evolution event.
    pub event: NetworkEvent,
    /// The rebuilt components the receiving server owns.
    pub rebuilt: Vec<usize>,
    /// Every dissolved shard's pre-event member list and state (empty
    /// when `rebuilt` is).
    pub shipped: Vec<(Vec<CandidateId>, ShardState)>,
}

/// Decodes a [`REQ_EVOLVE`] payload. Strict: truncation, trailing bytes
/// and hostile counts are typed errors.
pub fn decode_evolve(payload: &[u8]) -> Result<Evolve, DistError> {
    let mut d = Dec::new(payload);
    let (_, event) = read_record(&mut d)?;
    let rebuilt: Vec<usize> =
        d.ids("rebuilt components")?.into_iter().map(|k| k as usize).collect();
    let mut shipped = Vec::new();
    if !rebuilt.is_empty() {
        // a shipment is at least an empty member list and a state length
        let n = d.len(12, "shipment count")?;
        for _ in 0..n {
            let members = d.ids("shipped members")?.into_iter().map(CandidateId).collect();
            let len = d.u32("shipped state length")? as usize;
            shipped.push((members, decode_shard_state(d.take(len, "shipped state")?)?));
        }
    }
    d.finish("evolve request")?;
    Ok(Evolve { event, rebuilt, shipped })
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
